import itertools
import json
from unittest import mock

import numpy as np
import pytest

from umbilic_lab import catalog
from umbilic_lab.ambient import (AmbientSpace, MetricSignature, _symmetrized,
                                 cartan_audit, christoffel, geodesic,
                                 k_difference_identity, riemann,
                                 sectional_curvature)
from umbilic_lab.errors import (CausalCharacterMismatch, DegeneratePlane,
                                InvalidMetric, LeftDomain, NonFiniteValue,
                                SamplingExhausted, SingularMetric,
                                UmbilicLabError)
from umbilic_lab.expressions import ExpressionMap
from umbilic_lab.frames import MAX_RAPIDITY, draw_pseudo_orthonormal
from umbilic_lab.numdiff import central_diff4

from helpers import inner, symmetry_violations

EUCLID3 = catalog.euclidean_space(3)
MINK3 = catalog.minkowski_space(3)
MINK4 = catalog.minkowski_space(4)

CONSTANT_CURVATURE_METRICS = [
    ("euclidean:3", 0.0),
    ("minkowski:4", 0.0),
    ("sphere:1", 1.0),
    ("sphere:2", 0.25),
    ("hyperbolic:1", -1.0),
    ("desitter:1", 1.0),
]


def sample_points(space, n, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    return [lo + rng.random(space.dimension) * (hi - lo) for _ in range(n)]


def constant_curvature_tensor(g, c):
    return c * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))


# --- christoffel ---

def test_christoffel_zero_for_flat_metrics():
    for space in (EUCLID3, MINK4):
        gam = christoffel(space, np.array([0.3] * space.dimension))
        assert np.max(np.abs(gam)) == 0.0


def test_christoffel_round_sphere_closed_form():
    # polar 2-sphere of radius r: Gamma^th_phph = -sin th cos th,
    # Gamma^ph_thph = cot th, all others zero (independent of r)
    space = catalog.sphere_metric(1.7, dim=2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(0.3, 2.8)
        gam = christoffel(space, np.array([th, ph]))
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -np.sin(th) * np.cos(th)
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / np.tan(th)
        assert np.max(np.abs(gam - expected)) < 1e-8


def test_christoffel_symmetric_by_construction():
    for mid, _ in CONSTANT_CURVATURE_METRICS:
        space = catalog.resolve(mid, kind="ambient").obj
        for x in sample_points(space, 5, seed=11):
            gam = christoffel(space, x)
            assert np.array_equal(gam, gam.transpose(0, 2, 1))


def test_singular_metric_raises():
    degenerate = AmbientSpace(MetricSignature(2, 0),
                              lambda x: np.diag([1.0, x[0] ** 2]),
                              box=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(SingularMetric):
        christoffel(degenerate, np.array([0.0, 0.5]))


# --- riemann ---

def test_riemann_flat_is_zero():
    for space in (EUCLID3, MINK4):
        s = riemann(space, np.array([0.2] * space.dimension))
        assert np.max(np.abs(s.riemann_lowered)) <= 1e-10


@pytest.mark.parametrize("mid,c", [("sphere:1", 1.0), ("sphere:2", 0.25),
                                   ("hyperbolic:1", -1.0), ("desitter:1", 1.0)])
def test_riemann_constant_curvature_oracle(mid, c):
    space = catalog.resolve(mid, kind="ambient").obj
    for x in sample_points(space, 6, seed=1):
        s = riemann(space, x)
        g = space.metric_at(x)
        assert np.max(np.abs(s.riemann_lowered
                             - constant_curvature_tensor(g, c))) < 1e-6


def test_riemann_symmetries_and_bianchi_100_points():
    for mid, _ in CONSTANT_CURVATURE_METRICS + [("perturbed-minkowski:0.1", None)]:
        space = catalog.resolve(mid, kind="ambient").obj
        for x in sample_points(space, 100, seed=2):
            s = riemann(space, x)
            worst = max(symmetry_violations(s).values())
            scale = max(1.0, np.max(np.abs(s.riemann_lowered)))
            assert worst <= 1e-6 * scale, (mid, x, worst)


# (id, sectional curvature) at the default dimension, at 2 and at 5
EXACT_CURVATURE_METRICS = [
    (f"{family}:{r}{dim}", sign / r ** 2)
    for family, sign in (("sphere", 1.0), ("hyperbolic", -1.0),
                         ("desitter", 1.0))
    for r, dim in ((1.0, ""), (2.0, ",2"), (1.5, ",5"))]


@pytest.mark.parametrize("mid,c", EXACT_CURVATURE_METRICS)
def test_riemann_exact_from_metric_hessian(mid, c):
    space = catalog.resolve(mid, kind="ambient").obj
    assert space.jet is not None
    for x in sample_points(space, 20, seed=5):
        g = space.metric_at(x)
        want = constant_curvature_tensor(g, c)
        err = np.max(np.abs(riemann(space, x).riemann_lowered - want))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(want))), (mid, x, err)


def test_riemann_exact_matches_fourth_order_route():
    # perturbed Minkowski has no closed form here: the exact route must
    # agree with central_diff4 over exact Christoffels (about 1e-13 apart)
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    for x in sample_points(space, 20, seed=6):
        exact = riemann(space, x).riemann_lowered
        assert np.max(np.abs(exact)) > 1e-2
        dgamma = central_diff4(lambda y: christoffel(space, y), x, 5e-4)
        assert np.max(np.abs(exact - einsum_riemann(space, x, dgamma))) <= 1e-9


# --- sectional curvature ---

def test_sectional_flat_zero():
    u, v = np.array([1.0, 0.2, 0.1]), np.array([-0.3, 0.9, 0.4])
    assert sectional_curvature(EUCLID3, np.zeros(3), u, v) == pytest.approx(0.0)
    # one timelike plus one spacelike unit vector in Minkowski
    uu = np.array([0.0, 0.0, 1.0])
    vv = np.array([1.0, 0.0, 0.0])
    assert sectional_curvature(MINK3, np.zeros(3), uu, vv) == pytest.approx(0.0)


def test_sectional_sphere_radius_2():
    space = catalog.resolve("sphere:2", kind="ambient").obj
    rng = np.random.default_rng(9)
    for x in sample_points(space, 5, seed=9):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert sectional_curvature(space, x, u, v) == pytest.approx(0.25, abs=1e-6)


def test_sectional_degenerate_plane_rejected():
    # light-like plane: span of a null vector and a spacelike vector
    null = np.array([1.0, 0.0, 1.0])
    spacelike = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegeneratePlane):
        sectional_curvature(MINK3, np.zeros(3), null, spacelike)


# --- geodesics ---

def test_geodesic_straight_lines_flat():
    for space in (EUCLID3, MINK4):
        n = space.dimension
        p = np.full(n, 0.1)
        v = np.arange(1.0, n + 1.0)
        path = geodesic(space, p, v, 1.0, steps=64)
        for t, x, xd in path[:: len(path) // 4]:
            assert np.max(np.abs(x - (p + t * v))) <= 1e-10
            assert np.max(np.abs(xd - v)) <= 1e-10


def test_geodesic_great_circle_endpoint():
    # meridian from the equator: theta(t) = pi/2 - t, reaching theta = 0.2
    space = catalog.resolve("sphere:1", kind="ambient").obj
    p = np.array([np.pi / 2, 1.0, 1.0])
    v = np.array([-1.0, 0.0, 0.0])
    path = geodesic(space, p, v, np.pi / 2 - 0.2, steps=256)
    end = path[-1][1]
    assert np.max(np.abs(end - np.array([0.2, 1.0, 1.0]))) < 1e-6


def test_geodesic_speed_conservation():
    for mid in ("sphere:1", "hyperbolic:1", "desitter:1"):
        space = catalog.resolve(mid, kind="ambient").obj
        rng = np.random.default_rng(12)
        x0 = np.array([m + 0.3 * (M - m) for m, M in space.sample_box])
        v0 = rng.standard_normal(space.dimension) * 0.4
        g0 = inner(space, x0, v0, v0)
        path = geodesic(space, x0, v0, 1.0, steps=256)
        worst = max(abs(inner(space, x, xd, xd) - g0) for _, x, xd in path)
        assert worst <= 1e-6 * (1.0 + abs(g0)), mid


def test_geodesic_left_domain():
    with pytest.raises(LeftDomain):
        geodesic(EUCLID3, np.zeros(3), np.array([200.0, 0.0, 0.0]), 1.0,
                 steps=32)


@pytest.mark.parametrize("g11,dg11,code", [
    (lambda x0: x0 * x0, lambda x0: 2.0 * x0, "singular-metric"),
    (lambda x0: 1.0 / x0, lambda x0: -1.0 / (x0 * x0), "non-finite-value")])
@pytest.mark.parametrize("x0", [0.0, 1.0625])
def test_geodesic_into_a_bad_metric_keeps_its_error_code(g11, dg11, code, x0):
    # g = diag(1, g11(x0)) breaks at x0 = 0, where the straight path x0 - t
    # starts (a first RK4 stage) or which it meets at the second stage of
    # step 8; every stage validates g through metric_at
    def dg(x):
        d = np.zeros((2, 2, 2))
        d[1, 1, 0] = dg11(x[0])
        return d

    space = AmbientSpace(MetricSignature(2), lambda x: np.diag([1.0, g11(x[0])]),
                         lambda x: (dg(x), np.zeros((2,) * 4)),
                         box=[[-2.0, 2.0], [-2.0, 2.0]])
    with np.errstate(all="ignore"), pytest.raises(UmbilicLabError) as err:
        geodesic(space, np.array([x0, 0.3]), np.array([-1.0, 0.0]), 2.0, steps=16)
    assert err.value.code == code


def test_geodesic_preconditions():
    with pytest.raises(ValueError):
        geodesic(EUCLID3, np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        geodesic(EUCLID3, np.zeros(3), np.ones(3), 1.0, steps=4)


# --- cartan audit ---

def test_cartan_audit_flat_spaces():
    for space in (catalog.resolve("euclidean:4", kind="ambient").obj, MINK4):
        report = cartan_audit(space, 4, triples_per_point=10, seed=42)
        assert report.verdict == "ConstantCurvatureCompatible"
        assert report.max_codazzi_obstruction == 0.0
        assert report.sectional_spread == 0.0


@pytest.mark.parametrize("mid", ["sphere:1", "hyperbolic:1", "desitter:1"])
def test_cartan_audit_constant_curvature(mid):
    space = catalog.resolve(mid, kind="ambient").obj
    report = cartan_audit(space, 5, triples_per_point=10, seed=42)
    assert report.verdict == "ConstantCurvatureCompatible", report.to_dict()


def test_cartan_audit_perturbed_minkowski_obstructed():
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    # confirm the non-constant curvature directly before trusting the audit
    x = np.array([0.2, 0.5, -0.1, 0.3])
    s = riemann(space, x)
    g = space.metric_at(x)
    ks = []
    rng = np.random.default_rng(0)
    for _ in range(12):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        q = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
        if abs(q) < 1e-6:
            continue
        ks.append(np.einsum("ijkl,i,j,k,l->", s.riemann_lowered, u, v, u, v) / q)
    assert max(ks) - min(ks) > 1e-2

    report = cartan_audit(space, 4, triples_per_point=10, seed=42)
    assert report.verdict == "Obstructed"
    assert report.sectional_spread > 1e-2


def test_cartan_audit_matches_per_triple_loop():
    # the batched contraction against one einsum per triple, assignment and
    # plane; only the summation order differs
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    x = np.array([0.2, 0.8, -0.1, 0.3])
    point = cartan_audit(space, [x], triples_per_point=10, seed=9).per_point[0]
    g = space.metric_at(x)
    low = riemann(space, x).riemann_lowered
    triples = draw_pseudo_orthonormal(np.random.default_rng([9, 1]), g,
                                      [(1, 1, 1), (1, 1, -1)] * 5)
    obstruction, curvatures = 0.0, []
    for t in triples:
        for a, b, c in itertools.permutations(range(3)):
            obstruction = max(obstruction, abs(np.einsum(
                "ijkl,i,j,k,l->", low, t[a], t[b], t[a], t[c])))
        for a, b in itertools.combinations(range(3), 2):
            q = (t[a] @ g @ t[a]) * (t[b] @ g @ t[b]) - (t[a] @ g @ t[b]) ** 2
            curvatures.append(np.einsum("ijkl,i,j,k,l->", low,
                                        t[a], t[b], t[a], t[b]) / q)
    spread = max(curvatures) - min(curvatures)
    assert obstruction > 1e-2 and spread > 1e-2
    assert point["codazzi_obstruction"] == pytest.approx(obstruction, rel=1e-12)
    assert point["sectional_spread"] == pytest.approx(spread, rel=1e-12)


def test_cartan_audit_deterministic():
    space = catalog.resolve("desitter:1", kind="ambient").obj
    r1 = cartan_audit(space, 3, triples_per_point=10, seed=7)
    r2 = cartan_audit(space, 3, triples_per_point=10, seed=7)
    assert r1.max_codazzi_obstruction == r2.max_codazzi_obstruction
    assert r1.sectional_spread == r2.sectional_spread


def test_cartan_audit_rejects_few_triples():
    with pytest.raises(ValueError):
        cartan_audit(MINK4, 2, triples_per_point=5, seed=0)


def test_cartan_audit_rejects_a_non_integer_triple_count():
    with pytest.raises(ValueError, match="integer"):
        cartan_audit(MINK4, 2, triples_per_point=10.0, seed=0)


@pytest.mark.parametrize("points", [0, -3, [], 2.0])
def test_cartan_audit_rejects_no_points(points):
    # no evidence must not read ConstantCurvatureCompatible
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    with pytest.raises(ValueError):
        cartan_audit(space, points, seed=0)


def test_cartan_audit_rejects_a_point_of_the_wrong_length():
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    with pytest.raises(ValueError, match="4-vectors"):
        cartan_audit(space, [np.zeros(4), np.array([0.1, 0.5, 0.2])], seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cartan_audit_rejects_a_non_finite_point(bad):
    # the metric reads only x1, so a bad x0 reaches no other check
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    with pytest.raises(NonFiniteValue):
        cartan_audit(space, [np.array([bad, 0.5, 0.2, 0.0])], seed=0)


def test_cartan_audit_rejects_a_point_outside_the_box():
    # the box of perturbed-minkowski is [-2, 2] on every axis
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    ok = np.array([0.1, 0.5, 0.2, 0.0])
    with pytest.raises(LeftDomain):
        cartan_audit(space, [ok, np.array([0.1, 5.5, 0.2, 0.0])], seed=0)
    assert cartan_audit(space, [ok], seed=0).verdict == "Obstructed"


@pytest.mark.parametrize("mid", ["sphere:1", "desitter:1", "hyperbolic:1"])
@pytest.mark.parametrize("seed", range(5))
def test_cartan_audit_codazzi_margin_is_seven_decades(mid, seed):
    # two-pass Gram-Schmidt in the triple draw keeps the Codazzi roundoff
    # near 1e-14 (margins of 7.94 decades and more); one pass leaves up to
    # 2e-12 (margins from 5.7) and fails 10 of these 15 cases
    space = catalog.resolve(mid, kind="ambient").obj
    report = cartan_audit(space, 20, seed=seed)
    assert report.to_dict()["margins"]["codazzi"] >= 7.0


def test_sampling_exhausted_when_pattern_impossible():
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingExhausted):
        draw_pseudo_orthonormal(rng, np.eye(3), (1, 1, -1))


def test_impossible_pattern_raises_before_drawing():
    # a Lorentzian 3-space has two spacelike directions, not three; one bad
    # row of a batch is enough, and the generator is left untouched
    rng = np.random.default_rng(4)
    with pytest.raises(SamplingExhausted) as exc:
        draw_pseudo_orthonormal(rng, MINK3.metric_at(np.zeros(3)),
                                [(1, 1, -1), (1, 1, 1)])
    assert exc.value.code == "sampling-exhausted"
    assert rng.random() == np.random.default_rng(4).random()


@pytest.mark.parametrize("mid", ["sphere:1", "hyperbolic:1", "desitter:1",
                                 "desitter:1.5,5", "perturbed-minkowski:0.1",
                                 "minkowski:4"])
def test_drawn_triples_orthonormal_with_bounded_norm(mid):
    space = catalog.resolve(mid, kind="ambient").obj
    patterns = [(1, 1, 1)] + [(1, 1, -1)] * space.signature.index
    rows = patterns * 5
    want = np.array([np.diag(p) for p in rows], dtype=float)
    for i, x in enumerate(sample_points(space, 50, seed=8)):
        g = space.metric_at(x)
        triples = draw_pseudo_orthonormal(np.random.default_rng(i), g, rows)
        assert triples.shape == (len(rows), 3, space.dimension)
        assert np.max(np.abs(triples @ g @ triples.mT - want)) <= 1e-12
        bound = np.exp(MAX_RAPIDITY) / np.sqrt(np.min(np.abs(
            np.linalg.eigvalsh(g))))
        assert np.max(np.linalg.norm(triples, axis=-1)) <= bound * (1 + 1e-12)


def test_single_pattern_draw_is_a_batch_of_one():
    space = catalog.resolve("desitter:1", kind="ambient").obj
    g = space.metric_at(np.array([1.0, 1.2, 0.9, 0.3]))
    one = draw_pseudo_orthonormal(np.random.default_rng(3), g, (1, 1, -1))
    batch = draw_pseudo_orthonormal(np.random.default_rng(3), g, [(1, 1, -1)])
    assert one.shape == (3, 4)
    assert np.array_equal(one, batch[0])


@pytest.mark.parametrize("mid", ["sphere:1", "hyperbolic:1", "desitter:1"])
def test_cartan_audit_margin_constant_curvature(mid):
    # exact curvature: 1e4 below the 1e-6 tolerance at every one of 200 points
    space = catalog.resolve(mid, kind="ambient").obj
    report = cartan_audit(space, 200, triples_per_point=10, seed=11)
    assert report.max_codazzi_obstruction <= 1e-10
    assert report.sectional_spread <= 1e-10


def test_cartan_audit_margin_perturbed_minkowski():
    # every one of 200 points is obstructed by 1e4 over the tolerance
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    report = cartan_audit(space, 200, triples_per_point=10, seed=11)
    assert report.verdict == "Obstructed"
    assert min(max(p["codazzi_obstruction"], p["sectional_spread"])
               for p in report.per_point) >= 1e-2


# --- k-difference identities ---

def draw_triple(space, x, mode, seed):
    g = space.metric_at(x)
    rng = np.random.default_rng(seed)
    pattern = (1, 1, 1) if mode == "spacelike" else (1, 1, -1)
    return draw_pseudo_orthonormal(rng, g, pattern)


@pytest.mark.parametrize("mid", ["minkowski:4", "desitter:1", "hyperbolic:1"])
def test_k_difference_vanishes_constant_curvature(mid):
    space = catalog.resolve(mid, kind="ambient").obj
    modes = ["spacelike"] + (["mixed"] if space.signature.index == 1 else [])
    for i, x in enumerate(sample_points(space, 10, seed=21)):
        for mode in modes:
            triple = draw_triple(space, x, mode, seed=100 + i)
            lhs, rhs = k_difference_identity(space, x, triple, mode)
            assert abs(lhs) <= 1e-6 and abs(rhs) <= 1e-6, (mid, mode)


def test_k_difference_flat_exact_zero():
    x = np.zeros(4)
    triple = draw_triple(MINK4, x, "mixed", seed=3)
    lhs, rhs = k_difference_identity(MINK4, x, triple, "mixed")
    assert lhs == 0.0 and rhs == 0.0


def test_k_difference_rotated_frame_expansion():
    """Brute-force multilinear expansion oracle on a non-constant metric.

    spacelike: lhs - rhs = g(R(x,y)z,x) - g(R(x,z)y,x)
    mixed:     lhs - rhs = -(1/sqrt(3)) g(R(x,y)z,x) - sqrt(3) g(R(x,z)y,x)
    """
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj

    def contract(low, a, b, c, d):
        return float(np.einsum("ijkl,i,j,k,l->", low, a, b, c, d))

    for i, x in enumerate(sample_points(space, 6, seed=31)):
        low = riemann(space, x).riemann_lowered
        for mode in ("spacelike", "mixed"):
            vx, vy, vz = draw_triple(space, x, mode, seed=50 + i)
            lhs, rhs = k_difference_identity(space, x, (vx, vy, vz), mode)
            r_xyzx = contract(low, vx, vy, vx, vz)
            r_xzyx = contract(low, vx, vz, vx, vy)
            if mode == "spacelike":
                oracle = r_xyzx - r_xzyx
            else:
                oracle = -(1.0 / np.sqrt(3.0)) * r_xyzx - np.sqrt(3.0) * r_xzyx
            assert lhs - rhs == pytest.approx(oracle, abs=1e-8)


def test_k_difference_mode_mismatch():
    x = np.zeros(4)
    spacelike_triple = draw_triple(MINK4, x, "spacelike", seed=5)
    with pytest.raises(CausalCharacterMismatch):
        k_difference_identity(MINK4, x, spacelike_triple, "mixed")
    mixed_triple = draw_triple(MINK4, x, "mixed", seed=5)
    with pytest.raises(CausalCharacterMismatch):
        k_difference_identity(MINK4, x, mixed_triple, "spacelike")


def test_k_difference_requires_orthonormal():
    x = np.zeros(4)
    bad = (np.array([2.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]),
           np.array([0, 0, 1.0, 0]))
    with pytest.raises(ValueError):
        k_difference_identity(MINK4, x, bad, "spacelike")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_metric_is_its_own_error(bad):
    # a NaN entry used to read as singular-metric, an inf one was accepted
    g = np.diag([1.0, bad])
    space = AmbientSpace(MetricSignature(2), lambda x: g)
    with pytest.raises(NonFiniteValue) as exc:
        space.metric_at(np.zeros(2))
    assert exc.value.code == "non-finite-value"
    with pytest.raises(NonFiniteValue):
        AmbientSpace(MetricSignature(2), g)


def test_callable_metric_without_a_jet_names_the_missing_jet():
    # g and its checks still work; only the curvature that needs dg fails
    space = AmbientSpace(MetricSignature(2), lambda x: np.diag([1.0, 1.0 + x[0]**2]))
    x = np.array([0.5, 0.0])
    np.testing.assert_array_equal(space.metric_at(x), np.diag([1.0, 1.25]))
    for curvature in (christoffel, riemann):
        with pytest.raises(InvalidMetric) as exc:
            curvature(space, x)
        assert exc.value.code == "invalid-metric"
        assert "jet" in str(exc.value)


# --- the fused exact-curvature route ---

# an off-diagonal table, positive definite on its box; its (i, j) and (j, i)
# entries are different expressions of the same function
OFF_DIAGONAL_TABLE = [["2 + x1*x1", "x0*x1", "0.1*sin(x2)"],
                      ["x1*x0", "3 + cos(x0)", "0.2*x2"],
                      ["sin(x2)*0.1", "x2*0.2", "4 + x0*x1"]]
OFF_DIAGONAL = catalog.metric_from_expressions(OFF_DIAGONAL_TABLE, 0,
                                               box=[[-0.5, 0.5]] * 3)
FUSED_METRICS = [catalog.resolve(mid, kind="ambient").obj
                 for mid in ("desitter:1", "sphere:1", "hyperbolic:1",
                             "perturbed-minkowski:0.1")] + [OFF_DIAGONAL]


def _same(a, b):
    """Equal values and signs of zero."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def einsum_riemann(space, x, dgamma=None):
    """Lowered curvature from the exact derivatives by one einsum per
    contraction: the reference the matmul route must agree with.  A given
    ``dgamma[k, i, j, m]`` = d_m Gamma^k_ij stands in for the exact one."""
    g, (dg, ddg) = space.metric_at(x), space.metric_jet_at(x)
    ginv = np.linalg.inv(g)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, dg.transpose(1, 2, 0)
                            + dg.transpose(1, 0, 2) - dg.transpose(2, 0, 1))
    if dgamma is None:
        dlow = 0.5 * (ddg.transpose(1, 2, 0, 3) + ddg.transpose(1, 0, 2, 3)
                      - ddg.transpose(2, 0, 1, 3))
        dgamma = np.einsum("kl,lijm->kijm", ginv,
                           dlow - np.einsum("lam,aij->lijm", dg, gamma))
    riem_up = (dgamma.transpose(0, 2, 3, 1) - dgamma.transpose(0, 2, 1, 3)
               + np.einsum("aip,pjb->abij", gamma, gamma)
               - np.einsum("ajp,pib->abij", gamma, gamma))
    return np.einsum("ka,alij->ijkl", g, riem_up)


def _table_map(space):
    """The ExpressionMap ``space`` was built from, built again by the same
    builder, and its (N, N, ...) layout: a diagonal or a full table."""
    maps = []

    class Recorded(ExpressionMap):
        def __init__(self, *args):
            super().__init__(*args)
            maps.append(self)

    n = space.dimension
    with mock.patch.object(catalog, "ExpressionMap", Recorded):
        if space is OFF_DIAGONAL:
            catalog.metric_from_expressions(OFF_DIAGONAL_TABLE, 0)
        else:
            catalog.resolve(space.name, kind="ambient")
    if len(maps[-1].components) == n * n:
        return maps[-1], lambda v: v.reshape((n, n) + v.shape[1:])

    def diagonal(v):
        out = np.zeros((n, n) + v.shape[1:])
        out[range(n), range(n)] = v
        return out
    return maps[-1], diagonal


@pytest.mark.parametrize("space", FUSED_METRICS, ids=lambda s: s.name)
def test_metric_jet_is_the_exact_derivatives_bit_for_bit(space):
    emap, table = _table_map(space)
    for x in sample_points(space, 10, seed=4):
        dg, ddg = space.metric_jet_at(x)
        assert _same(dg, _symmetrized(table(emap.jacobian(x))))
        assert _same(ddg, _symmetrized(table(emap.hessian(x))))


@pytest.mark.parametrize("space", FUSED_METRICS, ids=lambda s: s.name)
def test_riemann_matches_the_einsum_reference(space):
    for x in sample_points(space, 20, seed=6):
        low, ref = riemann(space, x).riemann_lowered, einsum_riemann(space, x)
        assert np.max(np.abs(low - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("mid", ["sphere:0.01", "desitter:0.01",
                                 "desitter:2,5", "hyperbolic:1,4"])
def test_drawn_patterns_in_any_order_and_scale(mid):
    # a -1 anywhere in a pattern takes the timelike vector, the +1 entries
    # the spacelike ones in order
    space = catalog.resolve(mid, kind="ambient").obj
    rows = [(1, 1, 1), (-1, 1, 1), (1, -1, 1)][:1 + 2 * space.signature.index]
    want = np.array([np.diag(p) for p in rows], dtype=float)
    for i, x in enumerate(sample_points(space, 20, seed=9)):
        g = space.metric_at(x)
        triples = draw_pseudo_orthonormal(np.random.default_rng(i), g, rows)
        assert np.max(np.abs(triples @ g @ triples.mT - want)) <= 1e-12
        bound = np.exp(MAX_RAPIDITY) / np.sqrt(np.min(np.abs(
            np.linalg.eigvalsh(g))))
        assert np.max(np.linalg.norm(triples, axis=-1)) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("mid", ["sphere:0.01", "desitter:0.01"])
def test_small_metrics_are_not_singular(mid):
    # the determinant of a radius-r metric scales as r^(2N); the singularity
    # test must not
    space = catalog.resolve(mid, kind="ambient").obj
    report = cartan_audit(space, 5, triples_per_point=10, seed=42)
    assert report.verdict == "ConstantCurvatureCompatible", report.to_dict()


def test_christoffel_rejects_a_metric_singular_for_its_scale():
    space = catalog.resolve("sphere:1", kind="ambient").obj
    x = np.array([1.0, 1.2, 0.9])
    for g in (np.diag([1.0, 1.0, 1e-13]), 1e-6 * np.diag([1.0, 1.0, 1e-13]),
              np.diag([1.0, 1.0, 0.0])):
        with pytest.raises(SingularMetric):
            christoffel(space, x, g=g)
    # Gamma does not change when g is scaled by a constant
    small = christoffel(space, x, g=1e-6 * space.metric_at(x),
                        dg=1e-6 * space.metric_jet_at(x)[0])
    np.testing.assert_allclose(small, christoffel(space, x), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mid,sign", [("euclidean:3", None), ("minkowski:4", None),
                                      ("sphere:1", 1), ("desitter:1", 1),
                                      ("perturbed-minkowski:0.1", -1)])
def test_cartan_audit_reports_its_margins(mid, sign):
    space = catalog.resolve(mid, kind="ambient").obj
    report = cartan_audit(space, 5, triples_per_point=10, seed=42)
    margins = json.loads(json.dumps(report.to_dict(), allow_nan=False))["margins"]
    for key, value in (("codazzi", report.max_codazzi_obstruction),
                       ("spread", report.sectional_spread)):
        if sign is None:            # flat: a value of exactly 0 has no margin
            assert value == 0.0 and margins[key] is None
        else:
            want = np.log10(report.tolerances[key] / value)
            assert margins[key] == pytest.approx(want)
            assert np.sign(margins[key]) == sign


def test_cartan_audit_tol_bounds_both_checks():
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    default = cartan_audit(space, 2, seed=3)
    assert default.tolerances == {"codazzi": 1e-6, "spread": 1e-6}
    assert default.verdict == "Obstructed"
    loose = cartan_audit(space, 2, seed=3, tol=1e3)
    assert loose.tolerances == {"codazzi": 1e3, "spread": 1e3}
    assert loose.to_dict()["tolerances"] == {"codazzi": 1e3, "spread": 1e3}
    assert loose.verdict == "ConstantCurvatureCompatible"
