import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic_lab.errors import ExpressionError
from umbilic_lab.expressions import (ExpressionMap, _simp, diff, evaluate,
                                     free_vars, parse)
from umbilic_lab.numdiff import jacobian_fd


def test_eval_basic_arithmetic():
    node = parse("2*x0 + x1^2 - 1/4")
    assert evaluate(node, np.array([3.0, 2.0])) == pytest.approx(6 + 4 - 0.25)


def test_eval_functions_and_precedence():
    node = parse("sin(x0)*cos(x0) + exp(-x1) + sqrt(x1+1)")
    x = np.array([0.7, 0.3])
    expected = np.sin(0.7) * np.cos(0.7) + np.exp(-0.3) + np.sqrt(1.3)
    assert evaluate(node, x) == pytest.approx(expected, abs=1e-15)


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), np.zeros(1)) == 512.0
    assert evaluate(parse("2**3"), np.zeros(1)) == 8.0


def test_unary_minus_and_nesting():
    assert evaluate(parse("-(x0 - 2)^2"), np.array([5.0])) == -9.0


def test_vectorized_evaluation():
    node = parse("x0^2 + x1")
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(evaluate(node, x), [3.0, 13.0])


def test_free_vars():
    assert free_vars(parse("x0 + sin(x3)*x1")) == {0, 1, 3}


@pytest.mark.parametrize("text", ["x0^2*sin(x1)", "sqrt(1+x0^2+x1^2)",
                                  "exp(x0*x1)/(1+x1^2)", "cos(x0)^3",
                                  "sinh(x0)*cosh(x1/2)"])
def test_symbolic_derivative_matches_fd(text):
    node = parse(text)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, size=2)
        for v in range(2):
            d = evaluate(diff(node, v), x)
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[v] += h
            xm[v] -= h
            fd = (evaluate(node, xp) - evaluate(node, xm)) / (2 * h)
            assert d == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_expression_map_jacobian_hessian():
    emap = ExpressionMap(["x0*x1", "x0^2 - x1^2"], 2)
    x = np.array([0.4, -0.7])
    jac = emap.jacobian(x)
    np.testing.assert_allclose(jac, [[-0.7, 0.4], [0.8, 1.4]], atol=1e-14)
    hess = emap.hessian(x)
    np.testing.assert_allclose(hess[0], [[0, 1], [1, 0]], atol=1e-14)
    np.testing.assert_allclose(hess[1], [[2, 0], [0, -2]], atol=1e-14)


@pytest.mark.parametrize("bad", ["x0 +", "foo(x0)", "x0 & x1", "(x0", "y1"])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse(bad)


def test_out_of_range_variable_rejected():
    with pytest.raises(ExpressionError):
        ExpressionMap(["x5"], 2)


@pytest.mark.parametrize("text", ["(2+x0)^-2", "(2+x0)^(1/2)"])
def test_folded_constant_exponents_differentiate(text):
    emap = ExpressionMap([text], 1)
    for x in ([0.3], [-1.2], [2.5]):
        x = np.array(x)
        np.testing.assert_allclose(emap.jacobian(x), jacobian_fd(emap, x, 1e-6),
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(emap.hessian(x),
                                   jacobian_fd(emap.jacobian, x, 1e-6),
                                   rtol=1e-7, atol=1e-9)


_CONSTS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 3.7, -0.25])
# exponents as the parser builds them: 2, 0.5, -1 (fast paths in numpy),
# others, and unfolded trees for -2 and 1/2
_EXPONENTS = st.sampled_from([("const", c) for c in (2.0, 0.5, -1.0, 3.0, 1.5, 0.0)]
                             + [("neg", ("const", 2.0)),
                                ("div", ("const", 1.0), ("const", 2.0))])
_TREES = st.recursive(
    st.one_of(st.tuples(st.just("const"), _CONSTS),
              st.tuples(st.just("var"), st.integers(0, 1))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "sqrt"]), kids),
        st.tuples(st.just("pow"), kids, _EXPONENTS)),
    max_leaves=6)


def _same(a, b):
    """Equal values, NaNs and signs of zero."""
    keep = ~np.isnan(a)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[keep]), np.signbit(b[keep])))


@settings(max_examples=150, deadline=None)
@given(trees=st.lists(_TREES, min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6))
def test_compiled_plan_matches_tree_walker(trees, seed, batch):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        emap = ExpressionMap(trees, 2)
        grads = [[diff(t, v) for v in range(2)] for t in trees]
        for x in (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, (batch, 2))):
            value = np.stack([evaluate(t, x) for t in trees], axis=-1)
            jac = np.stack([np.stack([evaluate(g, x) for g in row], axis=-1)
                            for row in grads], axis=-2)
            hess = np.stack([np.stack([np.stack(
                [evaluate(diff(g, w), x) for w in range(2)], axis=-1)
                for g in row], axis=-2) for row in grads], axis=-3)
            assert _same(emap(x), value)
            assert _same(emap.jacobian(x), jac)
            assert _same(emap.hessian(x), hess)


def test_fold_memo_keeps_the_sign_of_zero():
    # ("const", -0.0) == ("const", 0.0), so a memo keyed by == would hand
    # the second tree the first one's result
    memo = {}
    neg = _simp(("sub", ("neg", ("const", 0.0)), ("var", 0)), memo)
    pos = _simp(("sub", ("const", 0.0), ("var", 0)), memo)
    assert np.signbit(neg[1][1]) and not np.signbit(pos[1][1])
    assert np.signbit(evaluate(neg, np.zeros(1)))
    assert not np.signbit(evaluate(pos, np.zeros(1)))
