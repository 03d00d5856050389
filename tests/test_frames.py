import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import qr_pseudo_orthonormal, svd_complement
from umbilic_lab import catalog
from umbilic_lab.errors import DegenerateSubspace
from umbilic_lab.frames import complement_basis, draw_pseudo_orthonormal


def metric(n, lorentzian):
    return np.diag([1.0] * (n - 1) + [-1.0 if lorentzian else 1.0])


def assert_matches_svd_complement(span, g):
    k, n = span.shape[-2:]
    rows, signs = complement_basis(span, g)
    ref, ref_signs = svd_complement(span, g, n - k)
    assert rows.shape == ref.shape
    gram = rows @ g @ rows.mT
    assert np.max(np.abs(gram - signs[..., None] * np.eye(n - k)), initial=0) <= 1e-12
    assert np.max(np.abs(rows @ g @ span.mT), initial=0) <= 1e-12
    # in the reference's subspace: nothing left after projecting on its rows
    q = np.linalg.qr(ref.mT)[0]
    assert np.max(np.abs(rows - rows @ q @ q.mT), initial=0) <= 1e-12
    assert np.sort(signs, axis=-1).tolist() == np.sort(ref_signs, axis=-1).tolist()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 6), lorentzian=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_complement_basis_spans_the_svd_complement(n, lorentzian, data, seed):
    k = data.draw(st.integers(1, n - 1), label="k")
    timelike = lorentzian and data.draw(st.booleans(), label="timelike in span")
    pattern = [1] * (k - timelike) + [-1] * timelike
    g = metric(n, lorentzian)
    rng = np.random.default_rng(seed)
    one = draw_pseudo_orthonormal(rng, g, pattern)
    assert_matches_svd_complement(one, g)
    assert_matches_svd_complement(draw_pseudo_orthonormal(rng, g, [pattern] * 3), g)


def test_complement_basis_picks_independent_rows_among_tied_remainders():
    # e0, e1 project both onto (e0 + e1) / 2, and e2, e3 onto (e2 + e3) / 2:
    # the four longest remainders, taken without deflation, hold one twice
    span = np.array([[1.0, -1.0, 0, 0, 0, 0], [0, 0, 1.0, -1.0, 0, 0]]) / np.sqrt(2)
    for lorentzian in (False, True):
        assert_matches_svd_complement(span, metric(6, lorentzian))


def test_complement_basis_of_a_degenerate_span_raises():
    light = np.array([[1.0, 0.0, 1.0]])           # null in Minkowski 3-space
    with pytest.raises(DegenerateSubspace):
        complement_basis(light, metric(3, True))
    with pytest.raises(DegenerateSubspace):
        complement_basis(np.stack([np.eye(3)[:1], light]), metric(3, True))


PATTERN_MIXES = [[(1,)], [(-1,)], [(1, -1)], [(-1, 1)], [(1, 1)], [(1, 1, 1)],
                 [(1, 1, -1)], [(-1, 1, 1)], [(1, 1, 1), (1, 1, -1)] * 5,
                 [(1, 1, -1), (1, -1, 1), (-1, 1, 1)]]


@pytest.mark.parametrize("mid", [mid for kind, ids in catalog.DEFAULT_LISTING
                                 if kind == "ambient" for mid in ids]
                         + ["minkowski:2", "desitter:1,3", "sphere:1,5"])
def test_draw_matches_the_qr_reference(mid):
    # Gram-Schmidt of the first k Gaussian columns against QR with the sign
    # fix of the whole block: the same rows and the same generator state,
    # also for a Lorentzian pattern with no +1 entry (k held at 1 for the boost)
    space = catalog.resolve(mid, kind="ambient").obj
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    n, index = space.dimension, space.signature.index
    for seed in range(5):
        g = space.metric_at(lo + np.random.default_rng(seed).random(n) * (hi - lo))
        eigh = np.linalg.eigh(g)
        for mix in PATTERN_MIXES:
            if (max(sum(s > 0 for s in row) for row in mix) > n - index
                    or max(sum(s < 0 for s in row) for row in mix) > index):
                continue
            ref_rng = np.random.default_rng([seed, 5])
            ref = qr_pseudo_orthonormal(ref_rng, g, mix)
            after = ref_rng.random()
            for extra in ((), (eigh,)):
                rng = np.random.default_rng([seed, 5])
                drawn = draw_pseudo_orthonormal(rng, g, mix, *extra)
                assert drawn.shape == ref.shape
                assert np.max(np.abs(drawn - ref)) <= 1e-12
                assert rng.random() == after
