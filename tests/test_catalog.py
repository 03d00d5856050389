import json

import numpy as np
import pytest

from umbilic_lab.catalog import (MAX_DIMENSION, implicit_principal_curvatures,
                                 list_catalog, load_immersion, load_metric,
                                 resolve)
from umbilic_lab.errors import (LeftDomain, MalformedParameters,
                                UnknownCatalogId)
from umbilic_lab.immersion import shape_report


def random_params(im, n, seed=0, margin=0.1):
    rng = np.random.default_rng(seed)
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    lo, hi = lo + pad, hi - pad
    return [lo + rng.random(im.param_dim) * (hi - lo) for _ in range(n)]


# --- resolution and grammar ---

def test_resolve_sphere_2():
    ent = resolve("sphere:2")
    assert ent.ground_truth["label"] == "umbilic-everywhere"
    rep = shape_report(ent.obj, [1.0, 0.5])
    np.testing.assert_allclose(rep.principal_curvatures, [0.5, 0.5], atol=1e-10)


def test_resolve_hyperbolic_paraboloid():
    ent = resolve("hyperbolic-paraboloid")
    assert ent.ground_truth["label"] == "nowhere-umbilic"
    rep = shape_report(ent.obj, [0.0, 0.0])
    assert abs(rep.mean_curvature) < 1e-12


def test_resolve_hyperboloid_sheet():
    ent = resolve("hyperboloid-sheet:1")
    assert ent.ground_truth["label"] == "umbilic-everywhere"
    rep = shape_report(ent.obj, [0.4, 0.9])
    np.testing.assert_allclose(rep.principal_curvatures, [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("m", [2, 3])
def test_hyperboloid_sheet_chart_matches_closed_form(m):
    # the graph of f = sqrt(r^2 + |u|^2), its Jacobian and its Hessian
    r = 1.3
    im = resolve(f"hyperboloid-sheet:{r},{m}").obj
    u = np.random.default_rng(m).uniform(-2.5, 2.5, (40, m))
    f = np.sqrt(r * r + np.sum(u * u, axis=-1))
    eye = np.broadcast_to(np.eye(m), (40, m, m))
    outer = u[:, :, None] * u[:, None, :]
    hess = np.zeros((40, m + 1, m, m))
    hess[:, m] = eye / f[:, None, None] - outer / (f ** 3)[:, None, None]
    want = [np.concatenate([u, f[:, None]], axis=-1),
            np.concatenate([eye, (u / f[:, None])[:, None, :]], axis=-2), hess]
    got = [im.point(u), im.jacobian_at(u), im.hessian_at(u)]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-15 * max(1.0, np.max(np.abs(w)))
    assert im.orientation == "future"
    np.testing.assert_array_equal(im.domain, [[-2.5, 2.5]] * m)
    np.testing.assert_array_equal(im.center, np.zeros(m + 1))


def test_resolve_dimension_parameter():
    assert resolve("sphere:1,3").obj.param_dim == 3
    assert resolve("hyperboloid-sheet:1,3").obj.param_dim == 3
    assert resolve("ellipsoid:1,1.3,1.7,2.1").obj.param_dim == 3
    assert resolve("desitter:1", kind="ambient").obj.dimension == 4


def test_unknown_id_suggests_near_matches():
    with pytest.raises(UnknownCatalogId) as err:
        resolve("spere:1")
    assert "sphere" in str(err.value)
    with pytest.raises(UnknownCatalogId):
        resolve("sphere:1,nope", kind="ambient") if False else resolve("nope")


@pytest.mark.parametrize("bad", ["sphere:", "sphere:a", "ellipsoid:1,2",
                                 "torus:0.5,2", "elliptic-paraboloid:1",
                                 "cylinder:-1", "sphere:inf", "torus:inf,1",
                                 "elliptic-paraboloid:nan,1"])
def test_malformed_parameters(bad):
    with pytest.raises(MalformedParameters) as exc:
        resolve(bad)
    assert exc.value.code == "malformed-parameters"


def test_malformed_ambient_dimension():
    with pytest.raises(MalformedParameters):
        resolve("minkowski:1", kind="ambient")


def test_ambient_and_immersion_grammars_are_separate():
    metric = resolve("sphere:1", kind="ambient").obj
    surf = resolve("sphere:1", kind="immersion").obj
    assert metric.dimension == 3        # the round metric in angles
    assert surf.ambient.dimension == 3  # S^2 embedded in R^3
    with pytest.raises(UnknownCatalogId):
        resolve("torus:2,0.5", kind="ambient")


# --- catalog invariant: closed-form oracles agree with computed values ---

@pytest.mark.parametrize("sid", ["sphere:1", "sphere:2.5", "ellipsoid:1,2,3",
                                 "ellipsoid:2,1,1", "cylinder:1",
                                 "cylinder:0.5", "torus:2,0.5",
                                 "hyperboloid-sheet:1", "hyperboloid-sheet:2",
                                 "sphere:1,3", "ellipsoid:1,1.3,1.7,2.1"])
def test_closed_form_oracle_agreement(sid):
    ent = resolve(sid)
    fn = ent.closed_form.get("principal_curvatures")
    assert fn is not None
    for u in random_params(ent.obj, 25, seed=7):
        rep = shape_report(ent.obj, u)
        np.testing.assert_allclose(rep.principal_curvatures,
                                   np.sort(fn(u)), atol=1e-6,
                                   err_msg=f"{sid} at {u}")


def test_paraboloid_origin_oracles():
    for sid, expected in [("elliptic-paraboloid:1,3", [2.0, 6.0]),
                          ("hyperbolic-paraboloid", [-2.0, 2.0])]:
        ent = resolve(sid)
        rep = shape_report(ent.obj, [0.0, 0.0])
        np.testing.assert_allclose(rep.principal_curvatures, expected,
                                   atol=1e-12)


def test_implicit_oracle_matches_unit_sphere():
    p = np.array([0.0, 0.6, 0.8])
    vals = implicit_principal_curvatures(2.0 * p, 2.0 * np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0], atol=1e-12)


def test_ellipsoid_umbilic_points_verified():
    ent = resolve("ellipsoid:1,2,3")
    pts = ent.ground_truth["umbilic_params"]
    assert len(pts) == 4
    for u in pts:
        rep = shape_report(ent.obj, u)
        assert rep.umbilicity_defect <= 1e-8, u


def test_ellipsoid3_generic_points_not_umbilic():
    # distinct-semiaxes 3-ellipsoid: defect bounded away from zero on a scan
    ent = resolve("ellipsoid:1,1.3,1.7,2.1")
    defects = [shape_report(ent.obj, u).umbilicity_defect
               for u in random_params(ent.obj, 40, seed=11)]
    assert min(defects) > 1e-3


def test_domain_margins_exclude_poles():
    im = resolve("sphere:1").obj
    with pytest.raises(LeftDomain):
        shape_report(im, [0.0, 0.0])


# --- custom loaders ---

def _sin2(x, stop, start=0):
    return np.prod(np.sin(x[start:stop]) ** 2)


# closed-form diagonals of the built-in curved metrics
METRIC_DIAGONALS = {
    "sphere:1.5,4": lambda x: [2.25 * _sin2(x, k) for k in range(4)],
    "hyperbolic:0.7,3": lambda x: [0.49] + [
        0.49 * np.sinh(x[0]) ** 2 * _sin2(x, k, 1) for k in range(1, 3)],
    "desitter:2,4": lambda x: [
        4.0 * np.cosh(x[3] / 2.0) ** 2 * _sin2(x, k) for k in range(3)] + [-1.0],
    "perturbed-minkowski:0.3,3": lambda x: np.exp(0.6 * x[1] ** 2) * np.array(
        [1.0, 1.0, -1.0]),
}


@pytest.mark.parametrize("mid", sorted(METRIC_DIAGONALS))
def test_metric_tables_match_closed_forms(mid):
    from umbilic_lab.numdiff import central_diff
    space = resolve(mid, kind="ambient").obj
    rng = np.random.default_rng(2)
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    for _ in range(10):
        x = lo + rng.random(space.dimension) * (hi - lo)
        want = np.diag(METRIC_DIAGONALS[mid](x))
        assert np.max(np.abs(space.metric_at(x) - want)) <= 1e-14 * np.max(np.abs(want))
        # exact derivatives in the layouts dg[i,j,k] = d_k g_ij and
        # ddg[i,j,a,b] = d_a d_b g_ij
        dg, ddg = space.metric_jet_at(x)
        np.testing.assert_allclose(dg, central_diff(space.metric_at, x, 1e-6),
                                   atol=1e-8)
        np.testing.assert_allclose(ddg, central_diff(
            lambda y: space.metric_jet_at(y)[0], x, 1e-6), atol=1e-7)


def test_load_metric_expressions(tmp_path):
    spec = {"dimension": 2, "index": 0,
            "entries": [["1", "0"], ["0", "x0^2"]],
            "box": [[0.5, 3.0], [0.0, 3.0]]}
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(spec))
    space = load_metric(str(path))
    assert space.jet is not None
    from umbilic_lab.ambient import riemann
    s = riemann(space, np.array([1.3, 0.8]))
    assert np.max(np.abs(s.riemann_lowered)) < 1e-10  # flat polar plane


def test_load_metric_rejects_bad_shape():
    with pytest.raises(MalformedParameters):
        load_metric({"dimension": 2, "index": 0, "entries": [["1", "0"]]})


def test_load_immersion(tmp_path):
    # a saddle, and the codimension-2 Clifford torus, whose |II(X,X) - H|
    # peaks at 1/sqrt(2) along either circle
    cases = [("euclidean:3", ["x0", "x1", "x0^2 - x1^2"], 2.0, 1e-10),
             ("euclidean:4", ["cos(x0)", "sin(x0)", "cos(x1)", "sin(x1)"],
              1.0 / np.sqrt(2.0), 1e-12)]
    for ambient, components, defect, tol in cases:
        spec = {"param_dim": 2, "ambient": ambient, "components": components,
                "domain": [[-1, 1], [-1, 1]]}
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(spec))
        im = load_immersion(str(path))
        rep = shape_report(im, [0.0, 0.0])
        assert rep.umbilicity_defect == pytest.approx(defect, abs=tol)


def test_load_immersion_component_count_mismatch():
    with pytest.raises(MalformedParameters):
        load_immersion({"param_dim": 2, "ambient": "euclidean:3",
                        "components": ["x0", "x1"],
                        "domain": [[-1, 1], [-1, 1]]})


# --- listing ---

def test_list_catalog_schema():
    entries = list_catalog()
    assert len(entries) > 10
    for e in entries:
        assert set(e) >= {"id", "kind", "parameters", "ground_truth", "domain"}
    ids = {e["id"] for e in entries}
    assert {"sphere:1", "minkowski:4", "hyperbolic-paraboloid"} <= ids


@pytest.mark.parametrize("id_text,kind", [
    ("perturbed-minkowski:0.1,1", "ambient"),   # was an IndexError
    ("perturbed-minkowski:0.1,0", "ambient"),
    ("sphere:1,3.7", "ambient"),                # was read as dimension 3
    ("sphere:1,2.9", "immersion"),              # was read as m = 2
    ("hyperboloid-sheet:1,1", "immersion"),     # was accepted
    ("hyperboloid-sheet:1,0", "immersion"),     # was an expression error
])
def test_trailing_dimension_must_be_an_integer_at_least_two(id_text, kind):
    with pytest.raises(MalformedParameters) as err:
        resolve(id_text, kind=kind)
    assert err.value.code == "malformed-parameters"


@pytest.mark.parametrize("id_text,kind", [
    ("sphere:1,17", "ambient"), ("hyperbolic:1,17", "ambient"),
    ("desitter:1,17", "ambient"), ("perturbed-minkowski:0.1,17", "ambient"),
    ("euclidean:17", "ambient"), ("minkowski:17", "ambient"),
    ("sphere:1,17", "immersion"), ("hyperboloid-sheet:1,17", "immersion"),
    ("ellipsoid:" + ",".join(["1"] * 18), "immersion"),
])
def test_dimensions_are_capped(id_text, kind):
    # building a curved metric grows as d^3: an id just over the cap is
    # refused before anything is built
    with pytest.raises(MalformedParameters) as err:
        resolve(id_text, kind=kind)
    assert err.value.code == "malformed-parameters"


def test_dimensions_at_the_cap_resolve():
    assert MAX_DIMENSION == 16
    assert resolve("minkowski:16", kind="ambient").obj.dimension == 16
    assert resolve("sphere:1,16", kind="ambient").obj.dimension == 16


def test_trailing_dimension_is_read_alike_by_every_family():
    assert resolve("perturbed-minkowski:0.1,2", kind="ambient").obj.dimension == 2
    assert resolve("sphere:1,3.0", kind="ambient").obj.dimension == 3
    assert resolve("hyperboloid-sheet:1,2").obj.param_dim == 2
