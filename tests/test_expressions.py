import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic_lab.errors import ExpressionError
from umbilic_lab.expressions import (_OPS, FUNCTIONS, ExpressionMap, _simp, diff,
                                     free_vars, parse)
from umbilic_lab.numdiff import jacobian_fd


def evaluate(node, x):
    """Reference tree walker: ``node`` on x of shape (..., nvars), returning
    shape (...); the compiled plans must match it bit for bit."""
    op = node[0]
    if op == "const":
        return np.broadcast_to(np.asarray(node[1]), np.asarray(x).shape[:-1]).astype(float)
    if op == "var":
        return np.asarray(x, dtype=float)[..., node[1]]
    if op not in _OPS:
        raise ExpressionError(f"bad node {op!r}")
    return _OPS[op](*(evaluate(kid, x) for kid in node[1:]))


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


@settings(max_examples=100, deadline=None)
@given(trees=st.lists(_TREES, min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6))
def test_jet_is_jacobian_then_hessian_bit_for_bit(trees, seed, batch):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        emap = ExpressionMap(trees, 2)
        jet = emap.jet()
        for x in (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, (batch, 2))):
            jac, hess = jet(x)
            assert jac.shape == x.shape[:-1] + (len(trees), 2)
            assert _same(jac, emap.jacobian(x))
            assert _same(hess, emap.hessian(x))


# -- the front end: Python's own parser, with ^ for **

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
# non-negative constants: a negative value is a neg node
_ALL_TREES = st.recursive(
    st.one_of(st.tuples(st.just("const"),
                        st.sampled_from([0.0, 2.5, 1e-05, 1e+300, 1.0, 7.0])),
              st.tuples(st.just("var"), st.integers(0, 12))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), kids, kids),
        st.tuples(st.sampled_from(["neg", *FUNCTIONS]), kids)),
    max_leaves=10)


def _render(tree, draw):
    """(tokens, binding strength) of ``tree``, with minimal or, at random,
    extra parentheses, and ^ or ** for a power."""
    op = tree[0]
    if op == "const":
        return [repr(tree[1])], 5
    if op == "var":
        return [f"x{tree[1]}"], 5
    if op in FUNCTIONS:
        return [op, "(", *_render(tree[1], draw)[0], ")"], 5

    def kid(node, least):
        tokens, strength = _render(node, draw)
        return ["(", *tokens, ")"] if strength < least or draw(st.booleans()) else tokens

    if op == "neg":
        return ["-", *kid(tree[1], 3)], 3
    if op == "pow":     # -a^b is -(a^b), and a^-b a power of -b
        return [*kid(tree[1], 5), draw(st.sampled_from(["^", "**"])), *kid(tree[2], 3)], 4
    strength = _PREC[op]
    return [*kid(tree[1], strength), _SYMBOL[op], *kid(tree[2], strength + 1)], strength


@settings(max_examples=300, deadline=None)
@given(tree=_ALL_TREES, data=st.data())
def test_parse_reads_back_every_rendered_tree(tree, data):
    tokens, _ = _render(tree, data.draw)
    space = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\xa0"])
    text = "".join(data.draw(space) + t for t in tokens) + data.draw(space)
    assert repr(parse(text)) == repr(tree)


@pytest.mark.parametrize("text,tree", [
    ("07", ("const", 7.0)),
    ("x007", ("var", 7)),
    ("1e05", ("const", 1e5)),
    ("1.", ("const", 1.0)),
    (".5", ("const", 0.5)),
    ("1.e3", ("const", 1000.0)),
    ("1E+2", ("const", 100.0)),
    ("2^3^2", ("pow", ("const", 2.0), ("pow", ("const", 3.0), ("const", 2.0)))),
    ("-x0^2", ("neg", ("pow", ("var", 0), ("const", 2.0)))),
    ("x0^-2", ("pow", ("var", 0), ("neg", ("const", 2.0)))),
    ("--x0", ("neg", ("neg", ("var", 0)))),
    ("+x0", ("var", 0)),
    ("x0\xa0*\xa02", ("mul", ("var", 0), ("const", 2.0))),  # no-break spaces
])
def test_parse_edge_cases(text, tree):
    assert repr(parse(text)) == repr(tree)


@pytest.mark.parametrize("text", [
    "", "x0 +", "sin(x0,)", "sin(x0, x1)", "sin()", "x0 # c", "1_0", "0x1", "1j",
    "x0.real", "x0[0]", "True", "(x0 := 1)", "x0 if x1 else 2", "'1'",
    "x٣", "(sin)(x0)", "__import__(x0)", "ｘ0",
    "(" * 300 + "x0" + ")" * 300, "-" * 100000 + "x0"])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ExpressionError) as err:
        parse(text)
    assert err.value.context == {"expression": text}


def test_too_deep_a_tree_is_an_expression_error():
    with pytest.raises(ExpressionError, match="nests too deeply"):
        ExpressionMap(["+".join(["x0"] * 500)], 1)
    deep = ("var", 3)
    for _ in range(5000):
        deep = ("neg", deep)
    assert free_vars(deep) == {3}
