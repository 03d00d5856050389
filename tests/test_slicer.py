import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from umbilic_lab import catalog
from umbilic_lab.errors import (DegenerateFit, DegenerateSubspace,
                                UnsupportedAmbient, WrongCausalType)
from umbilic_lab.immersion import shape_report
from umbilic_lab.slicer import (QUADRIC_CENTRAL, build_slice, fit_hyperbolic,
                                fit_sphere, identity_check, make_slice_spec,
                                slice_shape, taylor_trace_radius, trace_slice)

ANALYTIC_SURFACES = ["sphere:1", "ellipsoid:1,2,3", "hyperbolic-paraboloid",
                     "torus:2,0.5", "hyperboloid-sheet:1"]


def surface(sid):
    return catalog.resolve(sid).obj


def random_params(im, n, seed=0, margin=0.2):
    rng = np.random.default_rng(seed)
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    lo, hi = lo + pad, hi - pad
    return [lo + rng.random(im.param_dim) * (hi - lo) for _ in range(n)]


def tangent_dirs(im, u, rng, s):
    rep = shape_report(im, u)
    coeff = rng.standard_normal((im.param_dim, s))
    q_mat, _ = np.linalg.qr(coeff)
    return rep, q_mat[:, :s].T @ rep.tangent_frame


# --- build_slice ---

def test_build_slice_sphere_plane():
    im = surface("sphere:1")
    u = np.array([np.pi / 2, np.pi / 2])  # ambient (1, 0, 0)
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    plane = build_slice(im, spec)
    # the plane through q spanned by the normal and one tangent direction
    assert plane.normal.shape == (1, 3)
    assert plane.complement.shape == (1, 3)
    g = np.eye(3)
    for v in plane.complement:
        assert abs(v @ g @ plane.normal[0]) < 1e-10
        assert abs(v @ g @ plane.tangent[0]) < 1e-10


def test_build_slice_hyperboloid_vertex_timelike_plane():
    im = surface("hyperboloid-sheet:1")
    u = np.zeros(2)
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    plane = build_slice(im, spec)
    # span{e_x, e_t}: the vertex offset q = (0,0,1) lies inside the plane
    span = np.concatenate([plane.tangent, plane.normal])
    coeff, res, *_ = np.linalg.lstsq(span.T, spec.q, rcond=None)
    assert np.linalg.norm(span.T @ coeff - spec.q) < 1e-12


def test_build_slice_quadric_central_mode():
    im = surface("sphere:1")
    u = np.array([1.0, 0.5])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1], mode=QUADRIC_CENTRAL)
    build_slice(im, spec)  # sphere slices pass through the center
    saddle = surface("hyperbolic-paraboloid")
    rep2 = shape_report(saddle, [0.3, 0.2])
    spec2 = make_slice_spec(saddle, rep2, rep2.tangent_frame[:1],
                            mode=QUADRIC_CENTRAL)
    with pytest.raises(UnsupportedAmbient):
        build_slice(saddle, spec2)


def test_build_slice_requires_flat_ambient():
    sp3 = catalog.sphere_metric(1.0, dim=3)
    from umbilic_lab.immersion import Immersion

    def coord_sheet(u):
        u = np.asarray(u, dtype=float)
        return np.concatenate([u, np.full(u.shape[:-1] + (1,), 1.2)], axis=-1)

    im = Immersion(2, sp3, coord_sheet, domain=[[0.5, 2.5], [0.5, 2.5]])
    rep = shape_report(im, [1.0, 1.0])
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    with pytest.raises(UnsupportedAmbient):
        build_slice(im, spec)


def test_make_slice_spec_validates_directions():
    im = surface("sphere:1")
    u = np.array([1.0, 0.5])
    rep = shape_report(im, u)
    with pytest.raises(DegenerateSubspace):
        make_slice_spec(im, rep, 2.0 * rep.tangent_frame[:1])  # not unit
    with pytest.raises(DegenerateSubspace):
        make_slice_spec(im, rep, rep.normal_frame[:1])  # not tangent


# --- trace_slice ---

def test_trace_sphere_great_circle_fidelity():
    im = surface("sphere:1")
    u = np.array([np.pi / 2, 0.4])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.5)
    assert res.failures == 0
    assert np.max(res.residuals) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(res.points, axis=1) - 1.0)) <= 1e-10


def test_trace_saddle_asymptotic_line():
    im = surface("hyperbolic-paraboloid")
    d = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
    spec = make_slice_spec(im, shape_report(im, [0.0, 0.0]), d)
    res = trace_slice(im, spec, radius=0.5)
    # the slice is the straight line z = 0, x = y
    assert np.max(np.abs(res.points[:, 2])) <= 1e-10
    assert np.max(np.abs(res.points[:, 0] - res.points[:, 1])) <= 1e-10


def test_trace_hyperboloid_vertex_hyperbola():
    im = surface("hyperboloid-sheet:1")
    rep = shape_report(im, np.zeros(2))
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.7)
    assert np.max(np.abs(res.points[:, 1])) <= 1e-10
    lhs = res.points[:, 0] ** 2 - res.points[:, 2] ** 2
    assert np.max(np.abs(lhs + 1.0)) <= 1e-10


def test_trace_sample_plane_membership():
    for sid in ("ellipsoid:1,2,3", "torus:2,0.5"):
        im = surface(sid)
        rng = np.random.default_rng(8)
        for u in random_params(im, 3, seed=13):
            rep, dirs = tangent_dirs(im, u, rng, 1)
            spec = make_slice_spec(im, rep, dirs)
            res = trace_slice(im, spec)
            d = res.points - spec.q
            g = im.ambient.metric_at(spec.q)
            off = d @ (res.plane.complement @ g).T
            assert np.max(np.abs(off)) <= 1e-10, sid


# --- slice_shape / identity_check ---

def test_slice_curvature_sphere_unit():
    im = surface("sphere:1")
    u = np.array([1.2, 0.6])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
    slice_shape(res)
    assert res.slice_H_coeff[0] == pytest.approx(1.0, abs=1e-6)
    # normal points inward like the surface mean curvature vector
    assert float(res.slice_H @ rep.mean_curvature_vector) > 0


def test_slice_curvature_euler_30_degrees():
    # z = x0^2 + 3 x1^2: slice at 30 degrees has curvature 3
    im = catalog.resolve("elliptic-paraboloid:1,3").obj
    rep = shape_report(im, [0.0, 0.0])
    th = np.radians(30.0)
    d = np.cos(th) * rep.tangent_frame[0] + np.sin(th) * rep.tangent_frame[1]
    spec = make_slice_spec(im, rep, np.array([d]))
    res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
    slice_shape(res)
    assert res.slice_H_coeff[0] == pytest.approx(3.0, abs=1e-6)


def test_slice_curvature_hyperboloid_vertex():
    im = surface("hyperboloid-sheet:1")
    rep = shape_report(im, np.zeros(2))
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
    slice_shape(res)
    assert res.slice_H_coeff[0] == pytest.approx(1.0, abs=1e-6)


def test_identity_check_plane_exact():
    im = catalog.resolve("graph:0*x0").obj
    spec = make_slice_spec(im, shape_report(im, [0.0, 0.0]),
                           np.array([[1.0, 0.0, 0.0]]))
    res = trace_slice(im, spec, radius=0.5)
    slice_shape(res)
    assert identity_check(im, res) == 0.0


def test_identity_check_eq3_across_catalog():
    """The Gauss-formula comparison: fitted slice II equals the restricted
    surface II within 1e-5 over random points and directions."""
    rng = np.random.default_rng(99)
    for sid in ANALYTIC_SURFACES:
        im = surface(sid)
        for u in random_params(im, 10, seed=17):
            rep, dirs = tangent_dirs(im, u, rng, 1)
            spec = make_slice_spec(im, rep, dirs)
            res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
            slice_shape(res)
            assert identity_check(im, res) <= 1e-5, (sid, u)


def test_identity_check_eq4_weingarten_restriction():
    # hypersurface case: the slice shape operator matches the restricted
    # Weingarten operator entrywise, checked through an s = 2 slice
    im = surface("ellipsoid:1,1.3,1.7,2.1")
    rng = np.random.default_rng(3)
    u = random_params(im, 1, seed=23)[0]
    rep, dirs = tangent_dirs(im, u, rng, 2)
    spec = make_slice_spec(im, rep, dirs)
    res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
    slice_shape(res)
    assert identity_check(im, res) <= 1e-5
    g = im.ambient.metric_at(spec.q)
    a_coeff = dirs @ g @ rep.tangent_frame.T
    restricted = np.einsum("ip,pq,jq->ij", a_coeff, rep.shape_operator, a_coeff)
    np.testing.assert_allclose(res.slice_II[:, :, 0], restricted, atol=1e-5)


def test_radius_monotonicity_of_fit_bias():
    # halving the trace radius must not increase the identity residual
    for sid in ("sphere:1", "torus:2,0.5"):
        im = surface(sid)
        u = im.domain.mean(axis=1) + 0.1
        rep = shape_report(im, u)
        spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
        residuals = []
        for radius in (0.04, 0.02):
            res = trace_slice(im, spec, radius=radius)
            slice_shape(res)
            residuals.append(identity_check(im, res))
        assert residuals[1] <= residuals[0] + 1e-9, sid


def test_slice_mean_curvature_consistency_at_umbilics():
    # at umbilic points every slice mean curvature equals the surface one
    cases = [("sphere:1", np.array([1.1, 0.8])),
             ("hyperboloid-sheet:1", np.array([0.5, -0.6])),
             ("ellipsoid:2,1,1", np.array(
                 catalog.resolve("ellipsoid:2,1,1").ground_truth["umbilic_params"][0]))]
    rng = np.random.default_rng(31)
    for sid, u in cases:
        im = surface(sid)
        rep = shape_report(im, u)
        for _ in range(5):
            _, dirs = tangent_dirs(im, u, rng, 1)
            spec = make_slice_spec(im, rep, dirs)
            res = trace_slice(im, spec, radius=taylor_trace_radius(rep))
            slice_shape(res)
            assert res.slice_H_coeff[0] == pytest.approx(
                rep.mean_curvature, abs=1e-5), sid


def test_trace_newton_diverged_on_impossible_radius():
    # targets far beyond the chart: every retry keeps failing
    im = surface("hyperbolic-paraboloid")
    rep = shape_report(im, [0.0, 0.0])
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    from umbilic_lab.errors import NewtonDiverged
    with pytest.raises(NewtonDiverged):
        trace_slice(im, spec, radius=200.0)


def test_slice_shape_ill_conditioned_fit():
    # collapse the tangent coordinates so the design matrix degenerates
    im = surface("sphere:1")
    u = np.array([1.2, 0.6])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.3)
    res.t = np.zeros_like(res.t) + 1e-16
    from umbilic_lab.errors import IllConditionedFit
    with pytest.raises(IllConditionedFit):
        slice_shape(res)


def test_slice_shape_needs_enough_samples():
    im = surface("sphere:1")
    u = np.array([1.2, 0.6])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.3, samples_per_dim=8)
    res.points = res.points[:3]
    res.t, res.w = res.t[:3], res.w[:3]
    with pytest.raises(DegenerateFit):
        slice_shape(res)


def test_slice_result_serialization():
    im = surface("sphere:1")
    u = np.array([1.0, 0.5])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.3)
    slice_shape(res)
    identity_check(im, res)
    res.fit_sphere = fit_sphere(res.points)
    d = res.to_dict()
    assert d["schema_version"] == 1
    assert len(d["samples"]) == res.points.shape[0]
    assert "identity_residual" in d and "fit_sphere" in d
    csv = res.samples_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "x0,x1,x2,t0,w0"
    assert len(lines) == res.points.shape[0] + 1


# --- fit_sphere ---

def test_fit_sphere_exact_circle_in_plane():
    th = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    center = np.array([0.5, -1.0, 2.0])
    pts = center + 2.0 * np.stack([np.cos(th), np.sin(th),
                                   np.zeros_like(th)], axis=1)
    c, r, rms = fit_sphere(pts)
    assert r == pytest.approx(2.0, abs=1e-12)
    assert rms <= 1e-10
    np.testing.assert_allclose(c[:2], center[:2], atol=1e-12)


def test_fit_sphere_great_circle_samples():
    im = surface("sphere:1")
    u = np.array([np.pi / 2, 0.4])
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.5)
    c, r, rms = fit_sphere(res.points)
    assert r == pytest.approx(1.0, abs=1e-8)
    assert rms <= 1e-8


def test_fit_sphere_rejects_ellipse():
    # brute-force best-circle residual of the (2, 1) ellipse as the oracle
    th = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    pts = np.stack([2.0 * np.cos(th), np.sin(th)], axis=1)

    def cost(p):
        return np.mean((np.linalg.norm(pts - p[:2], axis=1) - p[2]) ** 2)

    brute = minimize(cost, np.array([0.0, 0.0, 1.5]), method="Nelder-Mead",
                     options={"fatol": 1e-16, "xatol": 1e-10})
    oracle_rms = float(np.sqrt(brute.fun))
    assert oracle_rms >= 1e-2  # the threshold the suite relies on

    _, _, rms = fit_sphere(pts)
    assert rms >= 1e-2
    assert rms <= 2.0 * oracle_rms  # one GN pass lands near the optimum


def test_fit_sphere_degenerate_line():
    t = np.linspace(-1.0, 1.0, 10)
    pts = np.stack([t, 2 * t, np.zeros_like(t)], axis=1)
    with pytest.raises(DegenerateFit):
        fit_sphere(pts)


def test_fit_sphere_needs_points():
    with pytest.raises(DegenerateFit):
        fit_sphere(np.zeros((4, 3)))


def test_fit_sphere_lorentz_signature_rejected():
    from umbilic_lab.ambient import MetricSignature
    with pytest.raises(ValueError):
        fit_sphere(np.zeros((6, 3)), signature=MetricSignature(3, 1))


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.1, 50.0),
       cx=st.floats(-5.0, 5.0), cy=st.floats(-5.0, 5.0),
       cz=st.floats(-5.0, 5.0))
def test_fit_sphere_recovers_synthetic_spheres(radius, cx, cy, cz):
    rng = np.random.default_rng(17)
    dirs = rng.standard_normal((30, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.array([cx, cy, cz]) + radius * dirs
    c, r, rms = fit_sphere(pts)
    assert r == pytest.approx(radius, rel=1e-9)
    assert rms <= 1e-9 * max(1.0, radius)


# --- fit_hyperbolic ---

def test_fit_hyperbolic_exact_unit_hyperbola():
    s = np.linspace(-1.0, 1.0, 20)
    pts = np.stack([np.sinh(s), np.zeros_like(s), np.cosh(s)], axis=1)
    c, r, rms = fit_hyperbolic(pts)
    np.testing.assert_allclose(c, np.zeros(3), atol=1e-10)
    assert r == pytest.approx(1.0, abs=1e-10)
    assert rms <= 1e-10


def test_fit_hyperbolic_vertex_slice():
    im = surface("hyperboloid-sheet:1")
    rep = shape_report(im, np.zeros(2))
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    res = trace_slice(im, spec, radius=0.7)
    c, r, rms = fit_hyperbolic(res.points)
    assert r == pytest.approx(1.0, abs=1e-8)
    assert rms <= 1e-8


def test_fit_hyperbolic_rejects_perturbed_paraboloid():
    """Spec discrimination case: t = 1 + (x^2+y^2)/2 + 0.1 x^4 sliced at its
    vertex; the brute-force best-fit residual is the threshold oracle."""
    x = np.linspace(-0.8, 0.8, 17)
    t = 1.0 + x ** 2 / 2.0 + 0.1 * x ** 4
    pts = np.stack([x, np.zeros_like(x), t], axis=1)

    def cost(p):
        cx, ct, r = p
        s = (t - ct) ** 2 - (x - cx) ** 2
        s = np.maximum(s, 1e-12)
        return np.mean((np.sqrt(s) - r) ** 2)

    brute = minimize(cost, np.array([0.0, 0.0, 1.0]), method="Nelder-Mead",
                     options={"fatol": 1e-18, "xatol": 1e-12, "maxiter": 20000})
    oracle_rms = float(np.sqrt(brute.fun))
    assert oracle_rms > 1e-4

    _, _, rms = fit_hyperbolic(pts)
    assert rms > 1e-4
    assert rms <= 2.0 * oracle_rms


def test_fit_hyperbolic_wrong_causal_type():
    # a de Sitter-like curve x^2 - t^2 = +1 admits no hyperbolic-space fit
    s = np.linspace(-1.0, 1.0, 20)
    pts = np.stack([np.cosh(s), np.zeros_like(s), np.sinh(s)], axis=1)
    with pytest.raises(WrongCausalType):
        fit_hyperbolic(pts)


def test_fit_hyperbolic_spacelike_hull_rejected():
    # points in a spacelike plane (t = 0): the restricted form is definite
    th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    with pytest.raises(WrongCausalType):
        fit_hyperbolic(pts)
