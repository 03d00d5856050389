import itertools

import numpy as np
import pytest

from umbilic_lab import catalog
from umbilic_lab.ambient import (AmbientSpace, MetricSignature, cartan_audit,
                                 christoffel, exp_map, geodesic,
                                 k_difference_identity, riemann,
                                 sectional_curvature, tg_patch)
from umbilic_lab.errors import (CausalCharacterMismatch, DegeneratePlane,
                                DegenerateSubspace, LeftDomain, NonFiniteValue,
                                SamplingExhausted, SingularMetric)
from umbilic_lab.frames import MAX_RAPIDITY, draw_pseudo_orthonormal

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
        tol = 1e-6 if space.has_analytic_derivative else 1e-3
        for x in sample_points(space, 100, seed=2):
            s = riemann(space, x)
            worst = max(s.symmetry_violations().values())
            scale = max(1.0, np.max(np.abs(s.riemann_lowered)))
            assert worst <= tol * scale, (mid, x, worst)


# (id, sectional curvature) at the default dimension, at 2 and at 5
EXACT_CURVATURE_METRICS = [
    (f"{family}:{r}{dim}", sign / r ** 2)
    for family, sign in (("sphere", 1.0), ("hyperbolic", -1.0),
                         ("desitter", 1.0))
    for r, dim in ((1.0, ""), (2.0, ",2"), (1.5, ",5"))]


@pytest.mark.parametrize("mid,c", EXACT_CURVATURE_METRICS)
def test_riemann_exact_from_metric_hessian(mid, c):
    space = catalog.resolve(mid, kind="ambient").obj
    assert space.metric_hessian is not None
    for x in sample_points(space, 20, seed=5):
        g = space.metric_at(x)
        want = constant_curvature_tensor(g, c)
        err = np.max(np.abs(riemann(space, x).riemann_lowered - want))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(want))), (mid, x, err)


def test_riemann_exact_matches_fourth_order_route():
    # perturbed Minkowski has no closed form here: the exact route must
    # agree with central_diff4 over exact Christoffels (about 1e-13 apart)
    space = catalog.resolve("perturbed-minkowski:0.1", kind="ambient").obj
    differenced = AmbientSpace(space.signature, space.metric_at,
                               space.metric_derivative, box=space.box)
    assert differenced.metric_hessian is None
    for x in sample_points(space, 20, seed=6):
        exact = riemann(space, x).riemann_lowered
        assert np.max(np.abs(exact)) > 1e-2
        assert np.max(np.abs(
            exact - riemann(differenced, x).riemann_lowered)) <= 1e-9


def test_riemann_fd_metric_tolerance():
    # same sphere metric with the analytic derivative withheld: FD rung
    analytic = catalog.sphere_metric(1.0, dim=3)
    fd_space = AmbientSpace(MetricSignature(3, 0), analytic.metric_at,
                            box=analytic.box, sample_box=analytic.sample_box)
    assert not fd_space.has_analytic_derivative
    for x in sample_points(fd_space, 5, seed=4):
        s = riemann(fd_space, x)
        g = fd_space.metric_at(x)
        assert np.max(np.abs(s.riemann_lowered
                             - constant_curvature_tensor(g, 1.0))) < 1e-3
        assert max(s.symmetry_violations().values()) < 1e-3


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
        g0 = space.inner(x0, v0, v0)
        path = geodesic(space, x0, v0, 1.0, steps=256)
        worst = max(abs(space.inner(x, xd, xd) - g0) for _, x, xd in path)
        assert worst <= 1e-6 * (1.0 + abs(g0)), mid


def test_geodesic_left_domain():
    with pytest.raises(LeftDomain):
        geodesic(EUCLID3, np.zeros(3), np.array([200.0, 0.0, 0.0]), 1.0,
                 steps=32)


def test_geodesic_preconditions():
    with pytest.raises(ValueError):
        geodesic(EUCLID3, np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        geodesic(EUCLID3, np.zeros(3), np.ones(3), 1.0, steps=4)


# --- exp map and patches ---

def test_exp_map_flat():
    v = np.array([0.3, -0.4, 0.5])
    assert np.max(np.abs(exp_map(EUCLID3, np.zeros(3), v) - v)) <= 1e-12


def test_tg_patch_flat_affine():
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    pts = tg_patch(EUCLID3, np.zeros(3), basis, radius=1.0, grid=5)
    assert np.max(np.abs(pts[:, 2])) <= 1e-10
    norms = np.linalg.norm(pts[:, :2], axis=1)
    assert np.max(norms) <= 1.0 + 1e-9


def test_tg_patch_timelike_plane_minkowski():
    basis = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    pts = tg_patch(MINK3, np.zeros(3), basis, radius=0.5, grid=3)
    assert np.max(np.abs(pts[:, 1])) <= 1e-10


def test_tg_patch_great_circle_arc():
    space = catalog.resolve("sphere:1", kind="ambient").obj
    p = np.array([np.pi / 2, 1.0, 1.0])
    pts = tg_patch(space, p, [np.array([1.0, 0.0, 0.0])], radius=0.4, grid=5)
    # meridian arc: only the colatitude moves
    assert np.max(np.abs(pts[:, 1] - 1.0)) < 1e-9
    assert np.max(np.abs(pts[:, 2] - 1.0)) < 1e-9
    assert np.min(pts[:, 0]) == pytest.approx(np.pi / 2 - 0.4, abs=1e-9)


def test_tg_patch_degenerate_subspace():
    null = np.array([1.0, 0.0, 1.0])
    with pytest.raises(DegenerateSubspace):
        tg_patch(MINK3, np.zeros(3), [null], radius=0.5, grid=3)
    with pytest.raises(DegenerateSubspace):
        tg_patch(EUCLID3, np.zeros(3),
                 [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])],
                 radius=0.5, grid=3)


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
