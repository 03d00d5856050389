import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic_lab import catalog
from umbilic_lab.ambient import AmbientSpace
from umbilic_lab.errors import (DegenerateInducedMetric, LeftDomain,
                                NonFiniteValue, NonUnitDirection,
                                RankDeficient)
from umbilic_lab.expressions import ExpressionMap
from umbilic_lab.immersion import (Immersion, frames, is_umbilic,
                                   normal_curvature, second_fundamental_form,
                                   shape_report)

CATALOG_SURFACES = ["sphere:1", "ellipsoid:1,2,3", "hyperbolic-paraboloid",
                    "elliptic-paraboloid:1,3", "cylinder:1", "torus:2,0.5",
                    "hyperboloid-sheet:1"]


def surface(sid):
    return catalog.resolve(sid).obj


def random_params(im, n, seed=0, margin=0.15):
    rng = np.random.default_rng(seed)
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    lo, hi = lo + pad, hi - pad
    return [lo + rng.random(im.param_dim) * (hi - lo) for _ in range(n)]


# --- frames ---

def test_shape_report_evaluates_each_point_once(monkeypatch):
    calls = {}
    for cls, name in ((Immersion, "point"), (Immersion, "jacobian_at"),
                      (AmbientSpace, "metric_at")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, counted)
    im = surface("ellipsoid:1,2,3")
    params = random_params(im, 7)
    for u in params:
        shape_report(im, u)
    assert calls == {"point": 7, "jacobian_at": 7, "metric_at": 7}


def test_frames_flat_graph():
    im = catalog.resolve("graph:0*x0").obj  # z = 0 plane
    tangent, normal, signs, *_ = frames(im, [0.2, -0.4])
    np.testing.assert_allclose(tangent, np.eye(3)[:2], atol=1e-12)
    np.testing.assert_allclose(np.abs(normal[0]), [0, 0, 1], atol=1e-12)
    assert signs == [1]


def test_frames_hyperboloid_vertex():
    im = surface("hyperboloid-sheet:1")
    tangent, normal, signs, *_ = frames(im, [0.0, 0.0])
    np.testing.assert_allclose(tangent, np.eye(3)[:2], atol=1e-12)
    np.testing.assert_allclose(normal[0], [0.0, 0.0, 1.0], atol=1e-12)
    assert signs == [-1]  # timelike, future-directed


def test_frames_sphere_orientation_flag():
    # the catalog sphere is oriented inward; an outward copy flips the normal
    ent = catalog.resolve("sphere:1")
    im = ent.obj
    u = np.array([np.pi / 2, np.pi / 2])  # ambient point (1, 0, 0)
    _, normal_in, *_ = frames(im, u)
    p = im.point(u)
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(normal_in[0], -p, atol=1e-12)
    outward = Immersion(2, im.ambient, im.map_fn, im._jacobian, im._hessian,
                        domain=im.domain, orientation="outward",
                        center=np.zeros(3))
    _, normal_out, *_ = frames(outward, u)
    np.testing.assert_allclose(normal_out[0], p, atol=1e-12)


def test_frames_pseudo_orthonormality():
    for sid in CATALOG_SURFACES:
        im = surface(sid)
        for u in random_params(im, 5, seed=1):
            tangent, normal, signs, *_ = frames(im, u)
            g = im.ambient.metric_at(im.point(u))
            full = np.concatenate([tangent, normal])
            gram = full @ g @ full.T
            expected = np.diag([1.0] * len(tangent) + signs)
            assert np.max(np.abs(gram - expected)) < 1e-9, sid


def test_frames_rank_deficient():
    collapsed = Immersion(2, catalog.euclidean_space(3),
                          lambda u: np.stack([u[..., 0], u[..., 0],
                                              np.zeros_like(u[..., 0])], axis=-1),
                          domain=[[-1, 1], [-1, 1]])
    with pytest.raises(RankDeficient):
        frames(collapsed, [0.1, 0.1])


def test_timelike_graph_guard():
    # t = 2 x0 has |grad| > 1: induced metric indefinite in Minkowski
    im = catalog.resolve("minkowski-graph:2*x0").obj
    with pytest.raises(DegenerateInducedMetric):
        frames(im, [0.1, 0.1])
    allowed = Immersion(im.param_dim, im.ambient, im.map_fn, im._jacobian,
                        im._hessian, domain=im.domain, allow_timelike=True)
    frames(allowed, [0.1, 0.1])  # accepted under the flag


def test_spacelike_guard_catalog_minkowski():
    for sid in ("hyperboloid-sheet:1", "minkowski-graph:0.2*x0^2+0.1*x1^2"):
        im = surface(sid)
        for u in random_params(im, 10, seed=5):
            jac = im.jacobian_at(u)
            g = im.ambient.metric_at(im.point(u))
            eig = np.linalg.eigvalsh(jac.T @ g @ jac)
            assert eig[0] > 0.0, sid


# --- second fundamental form ---

def test_ii_plane_zero():
    im = catalog.resolve("graph:0*x0").obj
    ii = second_fundamental_form(im, [0.3, 0.3])
    assert np.max(np.abs(ii)) < 1e-12


def test_ii_unit_sphere_identity():
    im = surface("sphere:1")
    for u in random_params(im, 5, seed=2):
        ii = second_fundamental_form(im, u)
        np.testing.assert_allclose(ii[:, :, 0], np.eye(2), atol=1e-10)


def test_ii_saddle_origin():
    im = surface("hyperbolic-paraboloid")
    ii = second_fundamental_form(im, [0.0, 0.0])
    np.testing.assert_allclose(ii[:, :, 0], np.diag([2.0, -2.0]), atol=1e-12)


def test_ii_symmetry_invariant():
    for sid in CATALOG_SURFACES:
        im = surface(sid)
        for u in random_params(im, 100, seed=3):
            ii = second_fundamental_form(im, u)
            assert np.max(np.abs(ii - ii.transpose(1, 0, 2))) <= 1e-9, sid


def test_ii_curved_ambient_latitude_circle():
    # latitude circle at colatitude th0 in the round 2-sphere: geodesic
    # curvature cot(th0); exercises the ambient Christoffel correction
    sp2 = catalog.sphere_metric(1.0, dim=2)
    th0 = 0.8

    def curve(u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.full(u.shape[:-1], th0), u[..., 0]], axis=-1)

    im = Immersion(1, sp2, curve, domain=[[0.5, 2.5]])
    ii = second_fundamental_form(im, [1.3])
    assert abs(ii[0, 0, 0]) == pytest.approx(1.0 / np.tan(th0), abs=1e-6)


# --- shape report ---

def test_shape_report_unit_sphere():
    im = surface("sphere:1")
    rep = shape_report(im, [1.1, 0.4])
    assert rep.umbilicity_defect < 1e-10
    h = rep.mean_curvature_vector
    assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-10)
    assert float(h @ rep.p) < 0  # points inward


def test_shape_report_saddle():
    im = surface("hyperbolic-paraboloid")
    rep = shape_report(im, [0.0, 0.0])
    assert rep.umbilicity_defect == pytest.approx(2.0, abs=1e-12)
    assert rep.mean_curvature == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rep.principal_curvatures, [-2.0, 2.0],
                               atol=1e-12)


def test_shape_report_prolate_spheroid_axis_point():
    # kappa = a / b^2 at the tip of the symmetry axis
    ent = catalog.resolve("ellipsoid:2,1,1")
    u = ent.ground_truth["umbilic_params"][0]
    rep = shape_report(ent.obj, u)
    np.testing.assert_allclose(rep.p, [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(rep.principal_curvatures, [2.0, 2.0], atol=1e-8)
    assert rep.umbilicity_defect <= 1e-8


def test_shape_report_trace_identity():
    for sid in CATALOG_SURFACES:
        im = surface(sid)
        for u in random_params(im, 10, seed=4):
            rep = shape_report(im, u)
            m = im.param_dim
            h_coeff = np.array([np.trace(rep.second_form[:, :, a]) / m
                                for a in range(im.codim)])
            rebuilt = h_coeff @ rep.normal_frame
            assert np.max(np.abs(rebuilt - rep.mean_curvature_vector)) <= 1e-12
            if im.codim == 1:
                assert np.mean(rep.principal_curvatures) == pytest.approx(
                    rep.mean_curvature, abs=1e-8)
                # the hypersurface defect is exact, not sampled
                assert rep.umbilicity_defect == np.max(np.abs(
                    rep.principal_curvatures - rep.mean_curvature))


def test_shape_report_frame_invariance_under_rotation():
    base = surface("ellipsoid:1,2,3")
    u0 = np.array([1.2, 0.7])
    rep0 = shape_report(base, u0)
    angle = 0.61
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])

    def rotated_map(u):
        return base.point(np.asarray(u) @ rot)  # reparametrize by rot^T

    rotated = Immersion(2, base.ambient, rotated_map,
                        domain=[[-10, 10], [-10, 10]],
                        orientation="inward", center=np.zeros(3))
    rep1 = shape_report(rotated, rot @ u0)
    np.testing.assert_allclose(rep1.p, rep0.p, atol=1e-12)
    np.testing.assert_allclose(rep1.principal_curvatures,
                               rep0.principal_curvatures, atol=1e-6)
    assert rep1.umbilicity_defect == pytest.approx(rep0.umbilicity_defect,
                                                   abs=1e-6)


def test_derivative_rung_recorded():
    chart = catalog.resolve("torus:2,0.5").obj.map_fn
    amb = catalog.euclidean_space(3)
    dom = [[-3, 3], [-3, 3]]
    u = np.array([0.7, -1.2])
    reps = {}
    for jac, hess, rung in [(chart.jacobian, chart.hessian, "analytic"),
                            (chart.jacobian, None, "jacobian-fd"),
                            (None, None, "fd")]:
        im = Immersion(2, amb, chart, jac, hess, domain=dom)
        rep = shape_report(im, u)
        assert rep.derivative_rung == rung
        reps[rung] = rep.principal_curvatures
    np.testing.assert_allclose(reps["jacobian-fd"], reps["analytic"], atol=1e-7)
    np.testing.assert_allclose(reps["fd"], reps["analytic"], atol=1e-5)


# --- is_umbilic ---

def test_is_umbilic_cases():
    assert is_umbilic(surface("sphere:1"), [0.9, 0.9], tol=1e-6)
    assert not is_umbilic(surface("hyperbolic-paraboloid"), [0.0, 0.0],
                          tol=1e-6)
    assert is_umbilic(surface("hyperboloid-sheet:1"), [0.6, -0.8], tol=1e-6)


def test_is_umbilic_fd_tolerance_default():
    chart = catalog.resolve("torus:2,0.5").obj.map_fn
    im_fd = Immersion(2, catalog.euclidean_space(3), chart,
                      domain=[[-3, 3], [-3, 3]])
    # the default tolerance loosens to 1e-4 on the fd rung
    assert not is_umbilic(im_fd, [0.7, -1.2])


# --- normal curvature ---

def test_normal_curvature_sphere():
    im = surface("sphere:1")
    rep = shape_report(im, [1.0, 0.7])
    v = rep.tangent_frame[0]
    nc = normal_curvature(im, [1.0, 0.7], v)
    np.testing.assert_allclose(nc, -rep.p, atol=1e-9)  # inward unit normal


def test_normal_curvature_euler_formula_instance():
    # z = x0^2 + 3 x1^2 at the origin: kappa(30 deg) = 2 cos^2 + 6 sin^2 = 3
    im = catalog.resolve("elliptic-paraboloid:1,3").obj
    rep = shape_report(im, [0.0, 0.0])
    th = np.radians(30.0)
    v = np.cos(th) * rep.tangent_frame[0] + np.sin(th) * rep.tangent_frame[1]
    nc = normal_curvature(im, [0.0, 0.0], v)
    assert np.linalg.norm(nc) == pytest.approx(3.0, abs=1e-10)
    assert nc[2] > 0  # toward the upward normal


def test_normal_curvature_saddle_asymptotic_zero():
    im = surface("hyperbolic-paraboloid")
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    nc = normal_curvature(im, [0.0, 0.0], v)
    assert np.linalg.norm(nc) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.0, 2 * np.pi), sid=st.sampled_from(
    ["elliptic-paraboloid:1,3", "hyperbolic-paraboloid", "torus:2,0.5"]))
def test_euler_relation_property(theta, sid):
    im = surface(sid)
    u = im.domain.mean(axis=1)
    rep = shape_report(im, u)
    d1, d2 = rep.principal_directions
    k1, k2 = rep.principal_curvatures
    v = np.cos(theta) * d1 + np.sin(theta) * d2
    nc = normal_curvature(im, u, v)
    scalar = float(nc @ im.ambient.metric_at(rep.p) @ rep.normal_frame[0])
    scalar *= rep.normal_signs[0]
    expected = k1 * np.cos(theta) ** 2 + k2 * np.sin(theta) ** 2
    assert scalar == pytest.approx(expected, abs=1e-6)


def test_normal_curvature_rejects_bad_directions():
    im = surface("sphere:1")
    rep = shape_report(im, [1.0, 0.7])
    with pytest.raises(NonUnitDirection):
        normal_curvature(im, [1.0, 0.7], 2.0 * rep.tangent_frame[0])
    with pytest.raises(NonUnitDirection):
        normal_curvature(im, [1.0, 0.7], rep.normal_frame[0])


def test_non_finite_hessian_is_its_own_error():
    plane = Immersion(2, catalog.euclidean_space(3),
                      lambda u: np.array([u[0], u[1], 0.0]),
                      jacobian=lambda u: np.eye(3)[:, :2],
                      hessian=lambda u: np.full((3, 2, 2), np.nan))
    with pytest.raises(NonFiniteValue, match="Hessian"):
        shape_report(plane, [0.1, 0.2])


# --- batches of points ---

def clifford_torus():
    """The flat torus in S^3 of R^4: codimension 2."""
    c = repr(float(np.sqrt(0.5)))
    chart = ExpressionMap([f"{c}*cos(x0)", f"{c}*sin(x0)",
                           f"{c}*cos(x1)", f"{c}*sin(x1)"], 2)
    return Immersion(2, catalog.euclidean_space(4), chart, chart.jacobian,
                     chart.hessian, domain=[[-3, 3], [-3, 3]])


def latitude_circle():
    """A latitude circle of the round 2-sphere: a curved ambient."""
    def curve(u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.full(u.shape[:-1], 0.8), u[..., 0]], axis=-1)

    return Immersion(1, catalog.sphere_metric(1.0, dim=2), curve,
                     domain=[[0.5, 2.5]])


@pytest.mark.parametrize("make", [
    lambda: surface("ellipsoid:0.5,1,1.5"),
    lambda: surface("hyperboloid-sheet:0.9,3"),
    lambda: surface("torus:2,0.5"),
    clifford_torus,
    latitude_circle], ids=["ellipsoid", "hyperboloid-3", "torus", "clifford",
                           "curved-ambient"])
def test_batch_rows_equal_single_point_reports(make):
    im = make()
    params = np.array(random_params(im, 12, seed=6, margin=0.05))
    batch = shape_report(im, params)
    assert batch.second_form.shape == (12, im.param_dim, im.param_dim, im.codim)
    assert batch.umbilicity_defect.shape == batch.scalars["h_norm_abs"].shape == (12,)
    tangent, normal, signs, p, jac, g = frames(im, params)
    for i, u in enumerate(params):
        one, row = shape_report(im, u), batch.row(i)
        kappa = one.principal_curvatures
        tol = 1e-13 * max(1.0, 0.0 if kappa is None else np.max(np.abs(kappa)))
        pairs = [(tangent[i], one.tangent_frame), (normal[i], one.normal_frame),
                 (row.tangent_frame, one.tangent_frame),
                 (row.normal_frame, one.normal_frame),
                 (row.tangent_params, one.tangent_params),
                 (row.second_form, one.second_form),
                 (row.umbilicity_defect, one.umbilicity_defect),
                 (row.scalars["h_norm_abs"], one.scalars["h_norm_abs"])]
        if kappa is not None:
            pairs += [(row.principal_curvatures, kappa),
                      (batch.mean_curvature[i], one.mean_curvature)]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        assert signs[i].tolist() == row.normal_signs == one.normal_signs
        assert isinstance(row.umbilicity_defect, float)


def cubic_strip():
    """(x0, x1^3, 0): rank deficient along x1 = 0."""
    chart = ExpressionMap(["x0", "x1*x1*x1", "0*x0"], 2)
    return Immersion(2, catalog.euclidean_space(3), chart, chart.jacobian,
                     chart.hessian, domain=[[-1, 1], [-1, 1]])


@pytest.mark.parametrize("make,rows,error,bad", [
    (lambda: surface("graph:1/x0"), [[0.5, 0.5], [0.0, 0.3], [0.2, 0.1]],
     NonFiniteValue, 1),
    (lambda: surface("ellipsoid:1,2,3"), [[1.0, 0.5], [1.2, 0.4], [9.0, 0.5]],
     LeftDomain, 2),
    # the rank-deficient row comes first, so it raises, although the batch
    # checks the domain of every row before it evaluates the chart
    (cubic_strip, [[0.5, 0.5], [0.3, 0.0], [2.0, 0.5]], RankDeficient, 1)],
    ids=["non-finite", "left-domain", "first-in-input-order"])
def test_batch_raises_the_error_of_its_first_failing_row(make, rows, error, bad):
    im = make()
    with pytest.raises(error) as batch_err:
        shape_report(im, np.array(rows))
    with pytest.raises(error) as one_err, np.errstate(divide="ignore"):
        shape_report(im, rows[bad])
    assert batch_err.value.context == one_err.value.context
    assert list(batch_err.value.context["parameter"]) == rows[bad]
    assert str(batch_err.value) == str(one_err.value)
