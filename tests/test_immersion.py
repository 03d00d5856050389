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
                                   normal_curvature, shape_report)

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


def _linear(coeffs, terms, offset):
    """The expression tree of offset + sum_j coeffs[j] * terms[j]."""
    tree = ("const", float(offset))
    for c, term in zip(coeffs, terms):
        tree = ("add", tree, ("mul", ("const", float(c)), term))
    return tree


def moved(im, motion=None, shift=None, reparam=None, offset=None, flip=False):
    """``im`` composed as v -> motion @ chart(v @ reparam + offset) + shift,
    its chart an ExpressionMap with substituted variables.  Its normal at v
    is the motion's image of ``im``'s normal at v @ reparam + offset, or the
    opposite one under ``flip``."""
    n, m = im.ambient.dimension, im.param_dim
    motion = np.eye(n) if motion is None else np.asarray(motion, dtype=float)
    shift = np.zeros(n) if shift is None else shift
    reparam = np.eye(m) if reparam is None else np.asarray(reparam, dtype=float)
    offset = np.zeros(m) if offset is None else offset
    params = [_linear(reparam[:, k], [("var", j) for j in range(m)], offset[k])
              for k in range(m)]

    def substituted(node):
        if node[0] == "var":
            return params[node[1]]
        return node if node[0] == "const" else (node[0], *map(substituted, node[1:]))

    comps = [substituted(c) for c in im.map_fn.components]
    chart = ExpressionMap([_linear(row, comps, t) for row, t in zip(motion, shift)], m)

    def keep(v, p, nu):
        before = frames(im, v @ reparam + offset)[1][0]
        return (np.linalg.solve(motion, nu) @ before > 0) != flip

    return Immersion(m, im.ambient, chart, chart.jacobian, chart.hessian,
                     domain=[[-1e3, 1e3]] * m, orientation=keep)


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
                        domain=im.domain, orientation="outward")
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
    chart = ExpressionMap(["x0", "x0", "0"], 2)
    collapsed = Immersion(2, catalog.euclidean_space(3), chart, chart.jacobian,
                          chart.hessian, domain=[[-1, 1], [-1, 1]])
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

def second_form(im, u):
    return shape_report(im, u).second_form


def test_ii_plane_zero():
    im = catalog.resolve("graph:0*x0").obj
    ii = second_form(im, [0.3, 0.3])
    assert np.max(np.abs(ii)) < 1e-12


def test_ii_unit_sphere_identity():
    im = surface("sphere:1")
    for u in random_params(im, 5, seed=2):
        ii = second_form(im, u)
        np.testing.assert_allclose(ii[:, :, 0], np.eye(2), atol=1e-10)


def test_ii_saddle_origin():
    im = surface("hyperbolic-paraboloid")
    ii = second_form(im, [0.0, 0.0])
    np.testing.assert_allclose(ii[:, :, 0], np.diag([2.0, -2.0]), atol=1e-12)


def test_ii_symmetry_invariant():
    for sid in CATALOG_SURFACES:
        im = surface(sid)
        for u in random_params(im, 100, seed=3):
            ii = second_form(im, u)
            assert np.max(np.abs(ii - ii.transpose(1, 0, 2))) <= 1e-9, sid


def test_ii_curved_ambient_latitude_circle():
    # latitude circle at colatitude 0.8 in the round 2-sphere: geodesic
    # curvature cot(0.8); exercises the ambient Christoffel correction
    ii = second_form(latitude_circle(), [1.3])
    assert abs(ii[0, 0, 0]) == pytest.approx(1.0 / np.tan(0.8), abs=1e-6)


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
    rotated = moved(base, reparam=rot)      # reparametrize by rot^T
    rep1 = shape_report(rotated, rot @ u0)
    np.testing.assert_allclose(rep1.p, rep0.p, atol=1e-12)
    np.testing.assert_allclose(rep1.principal_curvatures,
                               rep0.principal_curvatures, atol=1e-6)
    assert rep1.umbilicity_defect == pytest.approx(rep0.umbilicity_defect,
                                                   abs=1e-6)


# --- invariance properties ---

EUCLIDEAN_SURFACES = ["ellipsoid:1,2,3", "torus:2,0.5", "hyperbolic-paraboloid",
                      "elliptic-paraboloid:1,3", "cylinder:1"]
FRACTION = st.floats(0.1, 0.9)


def _inside(im, fractions):
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    return lo + np.asarray(fractions) * (hi - lo)


def _rotation(a, b, c):
    """Rz(a) Ry(b) Rz(c) on R^3."""
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0],
                         [0, 0, 1]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


def assert_same_curvatures(got, want, flip=False):
    """Equal principal curvatures (negated under ``flip``) and defects."""
    kappa = -want.principal_curvatures[::-1] if flip else want.principal_curvatures
    tol = 1e-9 * max(1.0, np.max(np.abs(kappa)))
    np.testing.assert_allclose(got.principal_curvatures, kappa, rtol=0, atol=tol)
    assert got.umbilicity_defect == pytest.approx(want.umbilicity_defect, abs=tol)


@settings(max_examples=15, deadline=None)
@given(sid=st.sampled_from(EUCLIDEAN_SURFACES),
       angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3), at=st.tuples(FRACTION, FRACTION))
def test_rigid_motion_keeps_curvatures(sid, angles, shift, at):
    im = surface(sid)
    u = _inside(im, at)
    after = moved(im, motion=_rotation(*angles), shift=np.array(shift))
    assert_same_curvatures(shape_report(after, u), shape_report(im, u))


@settings(max_examples=15, deadline=None)
@given(sid=st.sampled_from(EUCLIDEAN_SURFACES + ["hyperboloid-sheet:1"]),
       scales=st.tuples(*[st.floats(0.5, 2.0)] * 2), signs=st.tuples(
           *[st.sampled_from([-1.0, 1.0])] * 2), angle=st.floats(-np.pi, np.pi),
       shear=st.floats(-1.0, 1.0), offset=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
       at=st.tuples(FRACTION, FRACTION))
def test_affine_reparametrisation_keeps_curvatures(sid, scales, signs, angle, shear,
                                                   offset, at):
    im = surface(sid)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    reparam = np.diag(np.multiply(scales, signs)) @ rot @ [[1.0, shear], [0.0, 1.0]]
    u = _inside(im, at)
    v = np.linalg.solve(reparam.T, u - offset)          # v @ reparam + offset = u
    after = moved(im, reparam=reparam, offset=np.array(offset))
    assert_same_curvatures(shape_report(after, v), shape_report(im, u))


@settings(max_examples=15, deadline=None)
@given(sid=st.sampled_from(EUCLIDEAN_SURFACES + ["hyperboloid-sheet:1"]),
       at=st.tuples(FRACTION, FRACTION))
def test_flipped_orientation_negates_curvatures(sid, at):
    im = surface(sid)
    u = _inside(im, at)
    assert_same_curvatures(shape_report(moved(im, flip=True), u),
                           shape_report(im, u), flip=True)


@settings(max_examples=15, deadline=None)
@given(sid=st.sampled_from(["hyperboloid-sheet:0.7",
                            "minkowski-graph:0.2*x0^2+0.1*x1^2"]),
       rapidity=st.floats(-1.0, 1.0), direction=st.floats(-np.pi, np.pi),
       at=st.tuples(FRACTION, FRACTION))
def test_lorentz_boost_keeps_curvatures(sid, rapidity, direction, at):
    im = surface(sid)
    n = np.array([np.cos(direction), np.sin(direction), 0.0])
    t = np.array([0.0, 0.0, 1.0])
    boost = (np.eye(3) + (np.cosh(rapidity) - 1.0) * (np.outer(n, n) + np.outer(t, t))
             + np.sinh(rapidity) * (np.outer(n, t) + np.outer(t, n)))
    eta = im.ambient.metric_at(np.zeros(3))
    np.testing.assert_allclose(boost.T @ eta @ boost, eta, atol=1e-12)
    u = _inside(im, at)
    assert_same_curvatures(shape_report(moved(im, motion=boost), u),
                           shape_report(im, u))


# --- is_umbilic ---

def test_is_umbilic_cases():
    assert is_umbilic(surface("sphere:1"), [0.9, 0.9], tol=1e-6)
    assert not is_umbilic(surface("hyperbolic-paraboloid"), [0.0, 0.0],
                          tol=1e-6)
    assert is_umbilic(surface("hyperboloid-sheet:1"), [0.6, -0.8], tol=1e-6)


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
    """The latitude circle at colatitude 0.8 of the round 2-sphere: a
    curved ambient."""
    chart = ExpressionMap(["0.8", "x0"], 1)
    return Immersion(1, catalog.sphere_metric(1.0, dim=2), chart, chart.jacobian,
                     chart.hessian, domain=[[0.5, 2.5]])


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
    tangent, normal, signs, p, jac, g, tangent_signs = frames(im, params)
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
        assert (tangent_signs[i].tolist() == row.tangent_signs.tolist()
                == one.tangent_signs.tolist())
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


# the Jacobian of cubic_strip at (x0, t) has singular values 1 and 3 t^2
@pytest.mark.parametrize("ratio,error", [(1e-9, DegenerateInducedMetric),
                                         (1e-11, RankDeficient)])
def test_rank_test_boundary_alone_and_in_a_batch(ratio, error):
    im, bad = cubic_strip(), [0.3, float(np.sqrt(ratio / 3))]
    assert np.linalg.svd(im.jacobian_at(bad), compute_uv=False)[-1] == pytest.approx(ratio)
    with pytest.raises(error) as one_err:
        frames(im, bad)
    with pytest.raises(error) as batch_err:
        shape_report(im, np.array([[0.5, 0.5], bad, [-0.2, 0.4]]))
    assert list(one_err.value.context["parameter"]) == bad
    assert batch_err.value.context == one_err.value.context


def test_shape_report_of_a_good_batch_runs_no_svd(monkeypatch):
    im, rows = surface("ellipsoid:1,2,3"), []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        rows.append(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    shape_report(im, np.array(random_params(im, 100, seed=5)))
    assert sum(int(np.prod(lead)) for lead in rows) == 0


# --- timelike tangent frames and the higher-codimension defect ---

from umbilic_lab.immersion import umbilicity_defect  # noqa: E402
from umbilic_lab.slicer import make_slice_spec  # noqa: E402


def test_slice_coords_in_a_timelike_tangent_frame():
    # t = 2 x0 + ...: the x0 tangent direction is timelike; the frame's
    # signs enter the coordinates of a direction in it
    base = surface("minkowski-graph:2*x0+0.3*x1^2+0.2*x0^2")
    im = Immersion(base.param_dim, base.ambient, base.map_fn, base._jacobian,
                   base._hessian, domain=base.domain, allow_timelike=True)
    u = np.array([0.1, 0.1])
    rep = shape_report(im, u)
    g = im.ambient.metric_at(rep.p)
    signs = np.sign(np.einsum("in,nk,ik->i", rep.tangent_frame, g, rep.tangent_frame))
    assert sorted(signs.tolist()) == [-1.0, 1.0]
    e_space, e_time = (rep.tangent_frame[signs == s][0] for s in (1, -1))
    v = np.cosh(0.5) * e_space + np.sinh(0.5) * e_time
    spec = make_slice_spec(im, rep, v[None])
    assert np.max(np.abs(spec.coords @ rep.tangent_frame - v)) <= 1e-12
    assert rep.tangent_signs.tolist() == signs.tolist()
    # II(v, v) through the parameter step a with jac @ a = v
    a = np.linalg.lstsq(im.jacobian_at(u), v, rcond=None)[0]
    accel = np.einsum("nij,i,j->n", im.hessian_at(u), a, a)
    want = sum(sign * (accel @ g @ nu) * nu
               for sign, nu in zip(rep.normal_signs, rep.normal_frame))
    np.testing.assert_allclose(normal_curvature(im, u, v), want, atol=1e-12)


def _traceless(ii):
    m = ii.shape[-3]
    h = np.trace(ii, axis1=-3, axis2=-2) / m
    return ii - np.eye(m)[:, :, None] * h[..., None, None, :]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_higher_codimension_defect_is_bracketed(m, n):
    # max_a |Phi_a|_2 <= max_|X|=1 |Phi(X, X)| <= (sum_a |Phi_a|_2^2)^(1/2)
    rng = np.random.default_rng(10 * m + n)
    ii = rng.standard_normal((200, m, m, n))
    ii = ii + np.swapaxes(ii, -3, -2)
    defect, _ = umbilicity_defect(ii)
    norms = np.max(np.abs(np.linalg.eigvalsh(np.moveaxis(_traceless(ii), -1, -3))),
                   axis=-1)
    assert np.all(defect >= norms.max(axis=-1) * (1 - 1e-12))
    assert np.all(defect <= np.sqrt(np.sum(norms ** 2, axis=-1)) * (1 + 1e-12))
    assert np.allclose([umbilicity_defect(f)[0] for f in ii[:5]], defect[:5],
                       rtol=0, atol=1e-14)


def test_two_dimensional_defect_is_the_maximum_over_directions():
    rng = np.random.default_rng(8)
    ii = rng.standard_normal((40, 2, 2, 3))
    ii = ii + np.swapaxes(ii, -3, -2)
    defect, _ = umbilicity_defect(ii)
    th = np.linspace(0.0, np.pi, 4001)
    xs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    dense = np.linalg.norm(np.einsum("ki,...ija,kj->...ka", xs, _traceless(ii), xs),
                           axis=-1).max(axis=-1)
    assert np.all(defect >= dense - 1e-12)
    assert np.all(defect <= dense * (1 + 1e-6))


def test_clifford_torus_defect():
    # II = -I against the radial normal and diag(-1, 1) against the other
    im = clifford_torus()
    rep = shape_report(im, np.array(random_params(im, 6, seed=2)))
    np.testing.assert_allclose(rep.umbilicity_defect, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_dimensional_defect_is_exactly_zero(n):
    # Phi_a = II_a - h_a I vanishes on a 1 x 1 form
    ii = np.random.default_rng(n).standard_normal((30, 1, 1, n))
    defect, _ = umbilicity_defect(ii)
    assert np.array_equal(defect, np.zeros(30))
    assert umbilicity_defect(ii[0])[0] == 0.0
