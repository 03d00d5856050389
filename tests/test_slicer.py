import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from umbilic_lab import catalog
from umbilic_lab.errors import (DegenerateFit, DegenerateSubspace,
                                UnsupportedAmbient, WrongCausalType)
from umbilic_lab.expressions import ExpressionMap
from umbilic_lab.immersion import Immersion, shape_report
from umbilic_lab.slicer import (_ball_grid, _newton_trace, build_slice,
                                fit_hyperbolic, fit_sphere, identity_check,
                                make_slice_spec, slice_shape,
                                taylor_trace_radius, trace_slice)

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


def coord_sheet(ambient):
    """The coordinate sheet (x0, x1, 1.2) of a curved 3-dimensional ambient."""
    chart = ExpressionMap(["x0", "x1", "1.2"], 2)
    return Immersion(2, ambient, chart, chart.jacobian, chart.hessian,
                     domain=[[0.5, 2.5], [0.5, 2.5]])


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
    complement = build_slice(im, spec)
    # the plane through q spanned by the normal and one tangent direction
    assert complement.shape == (1, 3)
    g = np.eye(3)
    for v in complement:
        assert abs(v @ g @ rep.normal_frame[0]) < 1e-10
        assert abs(v @ g @ spec.tangent_directions[0]) < 1e-10


def test_build_slice_hyperboloid_vertex_timelike_plane():
    im = surface("hyperboloid-sheet:1")
    u = np.zeros(2)
    rep = shape_report(im, u)
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    assert build_slice(im, spec).shape == (1, 3)
    # span{e_x, e_t}: the vertex offset q = (0,0,1) lies inside the plane
    span = np.concatenate([spec.tangent_directions, rep.normal_frame])
    coeff, res, *_ = np.linalg.lstsq(span.T, spec.q, rcond=None)
    assert np.linalg.norm(span.T @ coeff - spec.q) < 1e-12


def test_build_slice_requires_flat_ambient():
    im = coord_sheet(catalog.sphere_metric(1.0, dim=3))
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


def test_spec_coords_pull_back_to_the_directions():
    # the report's tangent parameters carry the directions back to the
    # parameter steps that trace_slice seeds with
    rng = np.random.default_rng(12)
    cases = [(sid, 1) for sid in ANALYTIC_SURFACES] + [("sphere:1,3", 2)]
    for sid, s in cases:
        im = surface(sid)
        for u in random_params(im, 4, seed=5):
            rep, dirs = tangent_dirs(im, u, rng, s)
            spec = make_slice_spec(im, rep, dirs)
            assert spec.coords.shape == (s, im.param_dim)
            step = im.jacobian_at(u) @ (spec.coords @ rep.tangent_params).T
            np.testing.assert_allclose(step, dirs.T, rtol=0, atol=1e-12,
                                       err_msg=sid)


# --- trace_slice ---

def test_trace_slice_jacobians_are_newton_batches(monkeypatch):
    # the seeds come from the report at q: no Jacobian at q, no lstsq
    base = surface("ellipsoid:1,2,3")
    rep = shape_report(base, np.array([1.1, 0.4]))
    spec = make_slice_spec(base, rep, rep.tangent_frame[:1])
    shapes = []

    def jacobian(u):
        shapes.append(np.shape(u))
        return base.jacobian_at(u)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("trace_slice solved a least-squares problem")

    im = Immersion(2, base.ambient, base.map_fn, jacobian, base._hessian,
                   domain=base.domain)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    res = trace_slice(im, spec, radius=0.3)
    assert res.failures == 0 and shapes
    assert all(len(shape) == 2 for shape in shapes), shapes


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
            res = trace_slice(im, spec, slicer.default_trace_radius(rep))
            d = res.points - spec.q
            g = im.ambient.metric_at(spec.q)
            off = d @ (res.complement @ g).T
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


def test_newton_singular_sample_spares_the_batch():
    # a Jacobian that is exactly singular at one seed retires that sample
    # alone; the rest of the batch still converges
    base = surface("sphere:1")
    q = np.array([1.0, 0.7])
    rep, dirs = tangent_dirs(base, q, np.random.default_rng(3), 1)
    spec = make_slice_spec(base, rep, dirs)
    targets = _ball_grid(1, 0.2, 4)
    pull, *_ = np.linalg.lstsq(base.jacobian_at(q), dirs.T, rcond=None)
    seeds = q + targets @ pull.T
    bad = 0                              # target -0.2: needs a Newton step

    def jacobian(u):
        jac = base.jacobian_at(u)
        jac[np.all(u == seeds[bad], axis=-1)] = 0.0
        return jac

    im = Immersion(2, base.ambient, base.map_fn, jacobian, base._hessian,
                   domain=base.domain)
    rows = np.concatenate([build_slice(im, spec), dirs])    # g = I
    *_, good = _newton_trace(im, np.repeat(rows[None], len(seeds), axis=0),
                             np.repeat(spec.q[None], len(seeds), axis=0),
                             np.pad(targets, ((0, 0), (1, 0))), seeds)
    assert not good[bad]
    assert np.delete(good, bad).all()


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
    # one sample fewer than the s = 1 model's t^2, t^3 and t^4 columns
    res.points = res.points[:2]
    res.t, res.w = res.t[:2], res.w[:2]
    with pytest.raises(DegenerateFit) as caught:
        slice_shape(res)
    assert caught.value.context == {"needed": 3, "got": 2}


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


# --- one Newton batch for many slices ---

from umbilic_lab import slicer  # noqa: E402
from umbilic_lab.errors import IllConditionedFit, NewtonDiverged, hold  # noqa: E402


def assert_same_trace(got, want):
    """A batched trace equals the one-spec trace: the same failures and
    radius halvings, and samples within 1e-13."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want) and got.context == want.context
        return
    assert got.failures == want.failures and got.radius == want.radius
    assert got.provenance == want.provenance
    assert got.points.shape == want.points.shape
    for a, b in [(got.points, want.points), (got.params, want.params),
                 (got.t, want.t), (got.w, want.w)]:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@pytest.mark.parametrize("sid,s", [(sid, 1) for sid in ANALYTIC_SURFACES]
                         + [("sphere:1,3", 2)])
def test_trace_slices_equals_one_spec_traces(sid, s):
    im = surface(sid)
    rng = np.random.default_rng(31)
    specs = []
    for u in random_params(im, 4, seed=8):
        for _ in range(3):
            rep, dirs = tangent_dirs(im, u, rng, s)
            specs.append(make_slice_spec(im, rep, dirs))
    radii = [slicer.default_trace_radius(sp.report) for sp in specs]
    batch = list(slicer.trace_slices(im, specs, radii))
    assert len(batch) == len(specs)
    for spec, radius, got in zip(specs, radii, batch):
        assert_same_trace(got, trace_slice(im, spec, radius=radius))
    # each spec of a list takes its own radius
    got = list(slicer.trace_slices(im, specs[:2], [0.01, radii[1]]))[1]
    assert_same_trace(got, batch[1])


def test_trace_slices_halves_only_the_specs_that_failed(monkeypatch):
    # at the chart's edge a wide grid leaves the domain and must halve its
    # radius; at the centre it need not; far too wide a grid never converges
    im = surface("hyperbolic-paraboloid")
    specs = []
    for x0 in (0.0, 0.8, 0.8):
        rep = shape_report(im, [x0, 0.0])
        specs.append(make_slice_spec(im, rep, rep.tangent_frame[:1]))
    radii = [0.8, 1.0, 200.0]
    batches = []

    def counting(im, rows, q, targets, seeds):
        batches.append(len(seeds))
        return _newton_trace(im, rows, q, targets, seeds)

    monkeypatch.setattr(slicer, "_newton_trace", counting)
    centre, edge, wide = slicer.trace_slices(im, specs, radii)
    assert centre.provenance["radius_halvings"] == 0
    assert edge.provenance["radius_halvings"] == 1
    assert isinstance(wide, NewtonDiverged)
    assert wide.context == {"failures": 16, "grid": 17, "radius": 200.0}
    # one batch per attempt; only the specs over the failure bound return
    assert batches == [51, 34, 17, 17, 17]
    for spec, radius, got in zip(specs, radii, (centre, edge, wide)):
        want = hold(trace_slice, im, spec, radius)
        assert_same_trace(got, want)


def test_newton_failures_are_counted_by_reason():
    im = surface("hyperbolic-paraboloid")
    rep = shape_report(im, [0.8, 0.0])
    edge = trace_slice(im, make_slice_spec(im, rep, rep.tangent_frame[:1]),
                       radius=0.5)
    # two samples beyond x0 = 1 leave the chart; the rest converge
    assert edge.failures == 2 and edge.provenance["radius_halvings"] == 0
    assert edge.provenance["failures_by_reason"] == {
        "not-converged": 0, "singular": 0, "left-domain": 2}
    assert edge.provenance["newton_iterations"] >= 1
    rng = np.random.default_rng(5)
    for sid in ANALYTIC_SURFACES:
        im = surface(sid)
        specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, 1))
                 for u in random_params(im, 5, seed=2)]
        radii = [slicer.default_trace_radius(sp.report) for sp in specs]
        for res in slicer.trace_slices(im, specs, radii):
            if isinstance(res, Exception):
                continue
            reasons = res.provenance["failures_by_reason"]
            assert sum(reasons.values()) == res.failures, sid
            assert 1 <= res.provenance["newton_iterations"] <= 50


def test_singular_sample_is_counted_as_singular():
    base = surface("sphere:1")
    q = np.array([1.0, 0.7])
    rep = shape_report(base, q)
    spec = make_slice_spec(base, rep, rep.tangent_frame[:1])
    seeds = []

    def jacobian(u):
        jac = base.jacobian_at(u)
        if not seeds:                   # the first call sees every seed
            seeds.append(np.array(u))
        jac[np.all(u == seeds[0][0], axis=-1)] = 0.0
        return jac

    im = Immersion(2, base.ambient, base.map_fn, jacobian, base._hessian,
                   domain=base.domain)
    res = trace_slice(im, spec, radius=0.2, samples_per_dim=4)
    assert res.provenance["failures_by_reason"]["singular"] == 1
    assert res.failures == 1


def test_trace_slices_complement_stack_falls_back_per_spec(monkeypatch):
    # a stacked complement that raises is rebuilt spec by spec
    im = surface("ellipsoid:1,2,3")
    rng = np.random.default_rng(4)
    specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, 1))
             for u in random_params(im, 3, seed=9)]
    want = list(slicer.trace_slices(im, specs, 0.05))
    original = slicer.complement_basis

    def no_stacks(span, g):
        if np.ndim(span) == 3:
            raise DegenerateSubspace("stacked complement refused")
        return original(span, g)

    monkeypatch.setattr(slicer, "complement_basis", no_stacks)
    for got, ref in zip(slicer.trace_slices(im, specs, 0.05), want):
        assert_same_trace(got, ref)
    assert list(slicer.trace_slices(im, [], 0.05)) == []


def test_trace_slices_builds_all_complements_in_one_stack(monkeypatch):
    im = surface("ellipsoid:1,2,3")
    rng = np.random.default_rng(5)
    specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, 1))
             for u in random_params(im, 5, seed=2)]
    want = list(slicer.trace_slices(im, specs, 0.05))
    stacks, original = [], slicer.complement_basis

    def counting(span, g):
        stacks.append(np.shape(span))
        return original(span, g)

    monkeypatch.setattr(slicer, "complement_basis", counting)
    monkeypatch.setattr(slicer, "BATCH_SAMPLES", 2 * 17)   # three blocks
    for got, ref in zip(slicer.trace_slices(im, specs, 0.05), want, strict=True):
        assert_same_trace(got, ref)
    assert stacks == [(5, 2, 3)]


@pytest.mark.parametrize("seed", range(4))
def test_fit_condition_number_is_the_designs(seed):
    # clustered tangent coordinates make nearly dependent design columns:
    # the condition number read off R is the design's, and over 1e10
    # (squared) the fit is refused
    from umbilic_lab.slicer import _poly_columns
    im = surface("ellipsoid:1,2,3")
    rng = np.random.default_rng(seed)
    specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, 1))
             for u in random_params(im, 6, seed=seed)]
    results = list(slicer.trace_slices(im, specs, 0.05))
    spreads = 10.0 ** rng.uniform(-7, -1, len(results))
    for res, spread in zip(results, spreads):
        res.t = res.radius * (0.5 + spread * rng.random(res.t.shape))
    fitted = slicer.slice_shapes(results)
    for res, got, spread in zip(results, fitted, spreads):
        want = np.linalg.cond(_poly_columns(res.t / res.radius, 1)) ** 2
        if want > 1e10:
            assert isinstance(got, IllConditionedFit), spread
            assert got.context["cond"] == pytest.approx(want, rel=1e-8)
        else:
            assert got is res and np.isfinite(res.identity_residual), spread
    assert any(isinstance(got, IllConditionedFit) for got in fitted)


def test_stacked_slice_shape_equals_one_result_fits():
    rng = np.random.default_rng(17)
    for sid, s in [("ellipsoid:1,2,3", 1), ("torus:2,0.5", 1),
                   ("ellipsoid:1,1.3,1.7,2.1", 2)]:
        im = surface(sid)
        specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, s))
                 for u in random_params(im, 6, seed=3)]
        radii = [taylor_trace_radius(sp.report) for sp in specs]
        stacked = list(slicer.trace_slices(im, specs, radii))
        single = list(slicer.trace_slices(im, specs, radii))
        # one too-small sample set and one collapsed design in the stack
        for res in (stacked[1], single[1]):
            res.points, res.t, res.w = res.points[:2], res.t[:2], res.w[:2]
        for res in (stacked[2], single[2]):
            res.t = np.zeros_like(res.t) + 1e-16
        fitted = slicer.slice_shapes(stacked)
        assert isinstance(fitted[1], DegenerateFit)
        assert isinstance(fitted[2], IllConditionedFit)
        for k, (got, res) in enumerate(zip(fitted, single)):
            if k in (1, 2):
                with pytest.raises(type(got)):
                    slice_shape(res)
                continue
            assert got is stacked[k]
            slice_shape(res)
            scale = max(1.0, float(np.max(np.abs(res.slice_II))))
            for a, b in [(got.slice_II, res.slice_II),
                         (got.slice_H, res.slice_H),
                         (got.slice_H_coeff, res.slice_H_coeff)]:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * scale)
            assert got.identity_residual == pytest.approx(
                res.identity_residual, rel=0, abs=1e-13 * scale)
            assert identity_check(im, got) == got.identity_residual


def test_trace_slices_traces_a_block_when_its_first_result_is_asked(monkeypatch):
    im = surface("ellipsoid:1,2,3")
    rng = np.random.default_rng(6)
    specs = [make_slice_spec(im, *tangent_dirs(im, u, rng, 1))
             for u in random_params(im, 5, seed=4)]
    want = list(slicer.trace_slices(im, specs, 0.05))
    batches = []

    def counting(im, rows, q, targets, seeds):
        batches.append(len(seeds))
        return _newton_trace(im, rows, q, targets, seeds)

    monkeypatch.setattr(slicer, "_newton_trace", counting)
    monkeypatch.setattr(slicer, "BATCH_SAMPLES", 2 * 17)   # two specs a block
    traced = slicer.trace_slices(im, specs, 0.05)
    assert batches == []
    got = [next(traced)]
    assert batches == [34]
    got.append(next(traced))
    assert batches == [34]
    got += list(traced)
    assert batches == [34, 34, 17]
    for g, w in zip(got, want):
        assert_same_trace(g, w)
    with pytest.raises(ValueError):             # one radius per spec, or one
        slicer.trace_slices(im, specs, [0.05, 0.05])


def test_trace_slices_checks_the_ambient_before_any_block():
    im = coord_sheet(catalog.sphere_metric(1.0, dim=3))
    rep = shape_report(im, [1.0, 1.0])
    with pytest.raises(UnsupportedAmbient):     # at the call, not at next()
        slicer.trace_slices(im, [make_slice_spec(im, rep, rep.tangent_frame[:1])],
                            slicer.default_trace_radius(rep))


# --- stacked spec checks, result assembly and quadric fits ---

def test_stacked_spec_checks_equal_one_set_checks():
    im = surface("ellipsoid:1,1.3,1.7,2.1")
    rng = np.random.default_rng(23)
    rep = shape_report(im, random_params(im, 1, seed=6)[0])
    good = [tangent_dirs(im, rep.u, rng, 2)[1] for _ in range(4)]
    bad = [2.0 * good[0],                                        # not unit
           np.stack([good[1][0], rep.normal_frame[0]])]          # not tangent
    for stack in (good, [good[0], bad[0], good[1], bad[1], good[2]], bad[:1]):
        got = slicer.make_slice_specs(im, rep, np.stack(stack))
        assert len(got) == len(stack)
        for spec, dirs in zip(got, stack):
            want = hold(make_slice_spec, im, rep, dirs)
            assert type(spec) is type(want)
            if isinstance(want, Exception):
                assert str(spec) == str(want)
                continue
            assert spec.report is rep
            assert np.array_equal(spec.tangent_directions, want.tangent_directions)
            assert np.array_equal(spec.coords, want.coords)
    assert slicer.make_slice_specs(im, rep, np.zeros((0, 2, 5))) == []


def test_trace_block_provenance_equals_the_per_spec_counts(monkeypatch):
    # the centre converges everywhere, the edge loses samples off the chart
    # (two within the failure bound, or enough to halve its radius)
    im = surface("hyperbolic-paraboloid")
    specs, radii = [], [0.3, 0.5, 0.8, 0.5, 1.0]
    for x0 in (0.0, 0.8, 0.0, 0.8, 0.8):
        rep = shape_report(im, [x0, 0.1])
        specs.append(make_slice_spec(im, rep, rep.tangent_frame[:1]))
    batches = []

    def recording(im, rows, q, targets, seeds):
        batches.append(_newton_trace(im, rows, q, targets, seeds))
        return batches[-1]

    monkeypatch.setattr(slicer, "_newton_trace", recording)
    got = list(slicer.trace_slices(im, specs, radii))
    # the per-spec counts of the Newton batches, spec after spec
    steps, want, todo = [0] * len(specs), {}, list(range(len(specs)))
    for attempt, (_u, _x, _f, retired, took, good) in enumerate(batches):
        hi, left = 0, []
        for k in todo:
            lo, hi = hi, hi + len(_ball_grid(1, radii[k] * 0.5 ** attempt, 8))
            steps[k] += int(took[lo:hi].max())
            fails = int(np.sum(~good[lo:hi]))
            if fails > slicer.MAX_FAIL_FRACTION * (hi - lo):
                left.append(k)
                continue
            why = np.bincount(retired[lo:hi][~good[lo:hi]], minlength=3)
            want[k] = (fails, dict(zip(("not-converged", "singular",
                                        "left-domain"), why.tolist())),
                       steps[k], attempt)
        todo = left
    assert len(batches) == 2 and sorted(want) == list(range(len(specs)))
    assert any(w[0] for w in want.values()) and want[4][3] == 1
    for k, res in enumerate(got):
        p = res.provenance
        assert (res.failures, p["failures_by_reason"], p["newton_iterations"],
                p["radius_halvings"]) == want[k]
        assert len(res.points) == len(_ball_grid(1, res.radius, 8)) - res.failures


def _cloud(rng, n, radius, lorentzian, planar):
    """n points of a sphere of R^3, or of a hyperbolic space of Minkowski
    3-space (timelike last), about a random centre; of a circle or a
    hyperbola when ``planar``."""
    v = rng.standard_normal((n, 3 - lorentzian))
    v[:, 2 - lorentzian:] *= not planar
    if lorentzian:
        pts = np.column_stack([0.4 * v, np.sqrt(radius ** 2 + 0.16 * np.sum(v ** 2, 1))])
    else:
        pts = radius * v / np.linalg.norm(v, axis=1, keepdims=True)
    return rng.standard_normal(3) + pts


@pytest.mark.parametrize("lorentzian", [False, True])
def test_stacked_quadric_fits_match_one_cloud_fits(lorentzian):
    from helpers import fit_quadric_one_cloud
    rng = np.random.default_rng(41)
    s = np.linspace(-1.0, 1.0, 15)
    line = np.stack([s, 2 * s, 0.5 * s], axis=1)                      # flat
    desitter = np.stack([np.cosh(s), np.zeros_like(s), np.sinh(s)], axis=1)
    spacelike = np.stack([np.cos(3 * s), np.sin(3 * s), np.zeros_like(s)], axis=1)
    null = np.stack([s, s ** 2, s], axis=1)          # in a light-like plane
    clouds = [_cloud(rng, n, r, lorentzian, planar) for n, r, planar in
              [(14, 1.0, True), (15, 2.5, False), (16, 0.7, True),
               (17, 1.3, False), (15, 4.0, True), (14, 0.9, False)]]
    clouds[3:3] = [line, desitter, spacelike, clouds[0][:4],      # too few
                   NewtonDiverged("held"), null]
    clouds.append(clouds[1] + 1e-3 * rng.standard_normal(clouds[1].shape))
    fits = slicer.fit_quadrics(clouds, lorentzian)
    assert len(fits) == len(clouds) and fits[7] is clouds[7]
    kinds = set()
    for pts, got in zip(clouds, fits):
        if isinstance(pts, Exception):
            continue
        want = hold(fit_quadric_one_cloud, pts, lorentzian)
        assert type(got) is type(want), (got, want)
        kinds.add(type(want).__name__)
        if isinstance(want, Exception):
            assert str(got) == str(want)
            assert got.context == pytest.approx(want.context, rel=0, abs=1e-12)
            continue
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12)
        assert got[2] == pytest.approx(want[2], rel=0, abs=1e-12)
    assert {"tuple", "FlatSlice", "DegenerateFit"} <= kinds
    assert ({"WrongCausalType", "DegenerateSubspace"} <= kinds) == lorentzian


def test_quartic_block_takes_up_the_quartic_term_of_the_slice_graph():
    # w = kappa t^2 / 2 + c t^4 on the Taylor window and grid: the fit reads
    # kappa off exactly, where a quadratic + cubic fit is off by ~1.8 c r^2
    from umbilic_lab.slicer import TAYLOR_SAMPLES, _poly_columns
    im = surface("ellipsoid:1,2,3")
    rep = shape_report(im, np.array([0.7, 0.4]))
    spec = make_slice_spec(im, rep, rep.tangent_frame[:1])
    kappa = np.einsum("ip,pqa,jq->ija", spec.coords, rep.second_form,
                      spec.coords)[0, 0, 0]
    r = taylor_trace_radius(rep)
    res = trace_slice(im, spec, radius=r, samples_per_dim=TAYLOR_SAMPLES)
    c, t = 1.0, res.t[:, 0]
    assert len(t) == 2 * TAYLOR_SAMPLES + 1 and res.radius == r
    res.w = (kappa * t ** 2 / 2 + c * t ** 4)[:, None]
    slice_shape(res)
    assert res.identity_residual <= 1e-8
    assert abs(res.slice_II[0, 0, 0] - kappa) <= 1e-8
    even_odd = _poly_columns(res.t / r, 1)[:, :2]        # t^2, t^3
    coef = np.linalg.lstsq(even_odd, res.w[:, 0], rcond=None)[0]
    miss = abs(2 * coef[0] / r ** 2 - kappa)
    assert c * r ** 2 < miss < 2 * c * r ** 2
