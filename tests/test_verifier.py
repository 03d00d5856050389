import json

import numpy as np
import pytest

from umbilic_lab import catalog
from umbilic_lab.immersion import shape_report
from umbilic_lab.verifier import (expected_umbilic, run_point_suite, run_suite,
                                  verify_characterization_hyperbolic,
                                  verify_characterization_sphere,
                                  verify_corollary3, verify_corollary5,
                                  verify_remark4, verify_theorem2,
                                  verify_theorem8, verify_theorem10)

PERTURBED_GRAPH = "minkowski-graph:sqrt(1+x0^2+x1^2)+0.05*x0^4"


def surf(sid):
    return catalog.resolve(sid).obj


# --- theorem 2 ---

def test_theorem2_sphere_umbilic():
    r = verify_theorem2(surf("sphere:1"), [1.0, 0.5], s=1,
                        n_subspace_draws=10, seed=3)
    assert r.overall
    res = r.per_point[0].residuals
    assert res["slice_h_spread"] <= 1e-6
    assert r.per_point[0].directions[
        "slice-umbilic-implies-umbilic"] == "pass"


def test_theorem2_ellipsoid_witness_spread():
    r = verify_theorem2(surf("ellipsoid:1,2,3"), [1.0, 0.8], s=1,
                        n_subspace_draws=10, seed=3)
    assert r.overall
    assert r.per_point[0].residuals["slice_h_spread"] >= 1e-2
    assert r.per_point[0].directions[
        "slice-umbilic-implies-umbilic"] == "not exercised"


def test_theorem2_hyperboloid_spacelike_case():
    im = surf("hyperboloid-sheet:1")
    r = verify_theorem2(im, [0.4, -0.7], s=1, n_subspace_draws=10, seed=5)
    assert r.overall
    rep = shape_report(im, [0.4, -0.7])
    h = rep.mean_curvature_vector
    lorentz_sq = float(h @ np.diag([1.0, 1.0, -1.0]) @ h)
    assert abs(lorentz_sq) == pytest.approx(1.0, abs=1e-9)  # |H| = 1, timelike
    assert lorentz_sq < 0
    assert abs(rep.mean_curvature - 1.0) < 1e-9


# --- corollary 3 ---

def test_corollary3_sphere_radius_2():
    r = verify_corollary3(surf("sphere:2"), [1.0, 0.6], s=1)
    assert r.overall
    np.testing.assert_allclose(r.extras["slice_values"], [0.5, 0.5], atol=1e-6)


def test_corollary3_elliptic_paraboloid_origin():
    r = verify_corollary3(surf("elliptic-paraboloid:1,3"), [0.0, 0.0], s=1)
    assert r.overall
    np.testing.assert_allclose(sorted(r.extras["slice_values"]), [2.0, 6.0],
                               atol=1e-6)
    assert r.per_point[0].directions[
        "equal-implies-umbilic"] == "not exercised"


def test_corollary3_spheroid_umbilic_point():
    ent = catalog.resolve("ellipsoid:2,1,1")
    u = ent.ground_truth["umbilic_params"][0]
    r = verify_corollary3(ent.obj, u, s=1)
    assert r.overall
    np.testing.assert_allclose(r.extras["slice_values"], [2.0, 2.0], atol=1e-5)
    assert r.per_point[0].residuals["mean_gap"] <= 1e-5


# --- remark 4 ---

def test_remark4_hyperbolic_paraboloid():
    r = verify_remark4(surf("hyperbolic-paraboloid"), tol=1e-6)
    assert r.overall
    res = r.per_point[0].residuals
    assert res["max_asymptotic_slice_curvature"] <= 1e-6
    assert res["mean_curvature_abs"] <= 1e-8
    assert res["defect"] == pytest.approx(2.0, abs=1e-6)


def test_remark4_principal_slices_recover_eigenvalues():
    # rotating the basis to 0 degrees gives the principal curvatures +-2
    im = surf("hyperbolic-paraboloid")
    from umbilic_lab.slicer import (make_slice_spec, slice_shape,
                                    taylor_trace_radius, trace_slice)
    rep = shape_report(im, [0.0, 0.0])
    vals = []
    for d in rep.tangent_frame:
        spec = make_slice_spec(im, rep, np.array([d]))
        res = trace_slice(im, spec,
                          radius=taylor_trace_radius(rep))
        slice_shape(res)
        vals.append(res.slice_H_coeff[0])
    np.testing.assert_allclose(sorted(vals), [-2.0, 2.0], atol=1e-6)


def test_remark4_sphere_negative_control():
    r = verify_remark4(surf("sphere:1"), tol=1e-6)
    assert not r.overall


# --- corollary 5 ---

def test_corollary5_hand_checkable_instance():
    # z = x0^2 + 3 x1^2, basis at 30 degrees: slice curvatures {3, 5}, mean 4
    im = surf("elliptic-paraboloid:1,3")
    from umbilic_lab.slicer import (make_slice_spec, slice_shape,
                                    taylor_trace_radius, trace_slice)
    rep = shape_report(im, [0.0, 0.0])
    th = np.radians(30.0)
    e1, e2 = rep.tangent_frame
    basis = [np.cos(th) * e1 + np.sin(th) * e2,
             -np.sin(th) * e1 + np.cos(th) * e2]
    vals = []
    for d in basis:
        spec = make_slice_spec(im, rep, np.array([d]))
        res = trace_slice(im, spec,
                          radius=taylor_trace_radius(rep))
        slice_shape(res)
        vals.append(float(res.slice_H_coeff[0]))
    np.testing.assert_allclose(sorted(vals), [3.0, 5.0], atol=1e-6)
    assert np.mean(vals) == pytest.approx(rep.mean_curvature, abs=1e-6)
    assert rep.mean_curvature == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("sid,point", [
    ("hyperbolic-paraboloid", [0.0, 0.0]),
    ("sphere:1", [1.2, 0.4]),
    ("torus:2,0.5", [0.8, -0.5]),
])
def test_corollary5_mean_of_means(sid, point):
    r = verify_corollary5(surf(sid), point, s=1, n_basis_draws=5, seed=2)
    assert r.overall, (sid, r.per_point[0].residuals)


def test_corollary5_basis_invariance_20_bases():
    r = verify_corollary5(surf("elliptic-paraboloid:1,3"), [0.1, -0.2], s=1,
                          n_basis_draws=20, seed=4)
    assert r.overall
    assert r.per_point[0].residuals["max_mean_gap"] <= 1e-5


# --- theorem 8 ---

def test_theorem8_unit_3_sphere():
    r = verify_theorem8(surf("sphere:1,3"), [1.2, 1.5, 0.4], s=2,
                        n_subspace_draws=6, seed=5)
    assert r.overall
    assert r.per_point[0].residuals["max_slice_defect"] <= 1e-6


def test_theorem8_ellipsoid3_generic_point():
    r = verify_theorem8(surf("ellipsoid:1,1.3,1.7,2.1"), [1.2, 1.5, 0.4], s=2,
                        n_subspace_draws=6, seed=5)
    assert r.overall
    assert r.per_point[0].residuals["max_slice_defect"] > 1e-2
    assert r.per_point[0].directions[
        "slices-umbilic-implies-umbilic"] == "not exercised"


def test_theorem8_remark9_basis_mode():
    for sid, expect_umb in [("sphere:1,3", True),
                            ("ellipsoid:1,1.3,1.7,2.1", False)]:
        r = verify_theorem8(surf(sid), [1.2, 1.5, 0.4], s=2, seed=9,
                            mode="basis")
        assert r.overall, sid
        umb = (r.per_point[0].residuals["defect"]
               <= r.per_point[0].residuals["tol_prime"])
        assert umb == expect_umb


# --- theorem 10 ---

def test_theorem10_unit_3_sphere():
    r = verify_theorem10(surf("sphere:1,3"), [1.2, 1.5, 0.4], n_pairs=5,
                         seed=6)
    assert r.overall
    assert r.per_point[0].directions[
        "two-umbilic-slices-implies-umbilic"] == "pass"


def test_theorem10_ellipsoid3_every_pair_has_witness():
    r = verify_theorem10(surf("ellipsoid:1,1.3,1.7,2.1"), [1.2, 1.5, 0.4],
                         n_pairs=10, seed=6)
    assert r.overall
    assert r.per_point[0].directions["non-umbilic-pair-witness"] == "pass"


def test_theorem10_hyperbolic_3_space():
    r = verify_theorem10(surf("hyperboloid-sheet:1,3"), [0.5, -0.4, 0.8],
                         n_pairs=5, seed=6)
    assert r.overall


# --- characterizations ---

def test_sphere_characterization_accepts_sphere():
    ent = catalog.resolve("sphere:1")
    r = verify_characterization_sphere(ent.obj, grid=(4, 4), seed=1,
                                       expect=True, expect_radius=1.0,
                                       surface_id=ent.id)
    assert r.overall and r.extras["passes_slice_test"]
    assert r.extras["max_fit_residual"] <= 1e-8
    lo, hi = r.extras["fitted_radii_range"]
    assert abs(lo - 1.0) <= 1e-6 and abs(hi - 1.0) <= 1e-6


def test_sphere_characterization_rejects_ellipsoid_and_cylinder():
    for sid in ("ellipsoid:1,2,3", "cylinder:1"):
        ent = catalog.resolve(sid)
        r = verify_characterization_sphere(ent.obj, grid=(4, 4), seed=1,
                                           expect=False, surface_id=ent.id)
        assert r.overall and not r.extras["passes_slice_test"], sid


def test_sphere_characterization_margin():
    sphere = verify_characterization_sphere(surf("sphere:1"), grid=(4, 4),
                                            seed=1, expect=True)
    reject = [verify_characterization_sphere(surf(sid), grid=(4, 4), seed=1,
                                             expect=False)
              for sid in ("ellipsoid:1,2,3", "cylinder:1")]
    passing = sphere.extras["max_fit_residual"]
    failing = min(r.extras["max_fit_residual"] for r in reject)
    assert failing / max(passing, 1e-300) >= 1e3


def test_hyperbolic_characterization_accepts_sheet():
    ent = catalog.resolve("hyperboloid-sheet:1")
    r = verify_characterization_hyperbolic(ent.obj, grid=(4, 4), seed=1,
                                           expect=True, expect_radius=1.0,
                                           surface_id=ent.id)
    assert r.overall and r.extras["passes_slice_test"]
    assert r.extras["max_fit_residual"] <= 1e-8
    lo, hi = r.extras["fitted_radii_range"]
    assert abs(lo - 1.0) <= 1e-6 and abs(hi - 1.0) <= 1e-6


def test_hyperbolic_characterization_rejects_perturbed_graph():
    ent = catalog.resolve(PERTURBED_GRAPH)
    r = verify_characterization_hyperbolic(ent.obj, grid=(4, 4), seed=1,
                                           expect=False, surface_id=ent.id)
    assert r.overall and not r.extras["passes_slice_test"]
    assert r.extras["max_fit_residual"] > 5e-5


def test_tolerance_coherence_10x():
    # suites still classify correctly with tolerance x10
    keep = verify_characterization_sphere(surf("sphere:1"), grid=(3, 3),
                                          seed=2, expect=True, tol_fit=1e-5)
    drop = verify_characterization_sphere(surf("ellipsoid:1,2,3"), grid=(3, 3),
                                          seed=2, expect=False, tol_fit=1e-5)
    assert keep.overall and drop.overall


# --- drivers, ground truth, determinism ---

def test_expected_umbilic_labels():
    sphere = catalog.resolve("sphere:1")
    saddle = catalog.resolve("hyperbolic-paraboloid")
    spheroid = catalog.resolve("ellipsoid:2,1,1")
    graph = catalog.resolve("graph:x0^2+x1^2")
    assert expected_umbilic(sphere, [1.0, 1.0]) is True
    assert expected_umbilic(saddle, [0.3, 0.3]) is False
    listed = spheroid.ground_truth["umbilic_params"][0]
    assert expected_umbilic(spheroid, listed) is True
    assert expected_umbilic(spheroid, [0.4, 0.4]) is False
    assert expected_umbilic(graph, [0.0, 0.0]) is None


def test_run_point_suite_ground_truth_agreement():
    for sid in ("sphere:1", "ellipsoid:1,2,3", "hyperboloid-sheet:1"):
        r = run_point_suite("theorem2", sid, n_points=5, seed=42, s=1,
                            n_subspace_draws=5)
        assert r.overall, sid


def test_reports_deterministic_for_fixed_seed():
    def normalized(report):
        d = report.to_dict()
        d["runtime_ms"] = 0
        return json.dumps(d, sort_keys=True)

    a = run_point_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=42,
                        s=1, n_subspace_draws=5)
    b = run_point_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=42,
                        s=1, n_subspace_draws=5)
    assert normalized(a) == normalized(b)
    c = run_point_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=43,
                        s=1, n_subspace_draws=5)
    assert normalized(a) != normalized(c)


def test_run_suite_dispatch():
    reports = run_suite("remark4", None)
    assert len(reports) == 1 and reports[0].overall
    reports = run_suite("sphere-characterization", "ellipsoid:1,2,3",
                        grid=(3, 3), seed=0)
    assert reports[0].overall
    with pytest.raises(ValueError):
        run_suite("nonexistent", "sphere:1")


def test_report_json_schema():
    r = verify_theorem2(surf("sphere:1"), [1.0, 0.5], s=1, n_subspace_draws=4,
                        seed=0, surface_id="sphere:1")
    d = r.to_dict()
    assert d["schema_version"] == 1
    assert set(d) >= {"suite_id", "surface_id", "points_tested", "per_point",
                      "overall", "tolerances", "seed", "runtime_ms"}
    p = d["per_point"][0]
    assert set(p) >= {"parameter", "residuals", "pass", "directions"}
    assert all(v >= 0 for v in p["residuals"].values())


def test_suites_compute_frames_once_per_point(monkeypatch):
    # slicing reads the point's ShapeReport, so no frame is recomputed
    from umbilic_lab import immersion
    seen = []
    original = immersion.frames

    def recording(im, u):
        seen.append(np.atleast_1d(np.asarray(u, dtype=float)).tobytes())
        return original(im, u)

    monkeypatch.setattr(immersion, "frames", recording)
    run_suite("theorem2", "ellipsoid:1,2,3", n_points=2)
    run_suite("sphere-characterization", "sphere:1", grid=(2, 2))
    assert seen
    assert len(seen) == len(set(seen))
