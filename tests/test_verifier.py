import json
from types import SimpleNamespace

import numpy as np
import pytest

from umbilic_lab import catalog, verifier
from umbilic_lab.errors import FlatSlice, NewtonDiverged
from umbilic_lab.immersion import shape_report
from umbilic_lab.slicer import taylor_trace_radius
from umbilic_lab.verifier import (expected_umbilic, run_suite,
                                  verify_characterization, verify_corollary3,
                                  verify_corollary5, verify_remark4,
                                  verify_theorem2, verify_theorem8,
                                  verify_theorem10)

PERTURBED_GRAPH = "minkowski-graph:sqrt(1+x0^2+x1^2)+0.05*x0^4"
SPHERE, HYPERBOLIC = "sphere-characterization", "hyperbolic-characterization"


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
    r = verify_characterization(SPHERE, ent.obj, grid=(4, 4), seed=1,
                                expect=True, expect_radius=1.0)
    assert r.overall and r.extras["passes_slice_test"]
    # traced on the suite's own window; radii checked to a fixed 1e-6
    assert r.tolerances == {"tol_fit": 1e-6, "radius": 0.5, "tol_radius": 1e-6}
    assert r.extras["max_fit_residual"] <= 1e-8
    lo, hi = r.extras["fitted_radii_range"]
    assert abs(lo - 1.0) <= 1e-6 and abs(hi - 1.0) <= 1e-6


def test_sphere_characterization_rejects_ellipsoid_and_cylinder():
    for sid in ("ellipsoid:1,2,3", "cylinder:1"):
        ent = catalog.resolve(sid)
        r = verify_characterization(SPHERE, ent.obj, grid=(4, 4), seed=1,
                                    expect=False)
        assert r.overall and not r.extras["passes_slice_test"], sid


def test_sphere_characterization_margin():
    sphere = verify_characterization(SPHERE, surf("sphere:1"), grid=(4, 4),
                                     seed=1, expect=True)
    reject = [verify_characterization(SPHERE, surf(sid), grid=(4, 4), seed=1,
                                      expect=False)
              for sid in ("ellipsoid:1,2,3", "cylinder:1")]
    passing = sphere.extras["max_fit_residual"]
    failing = min(r.extras["max_fit_residual"] for r in reject)
    assert failing / max(passing, 1e-300) >= 1e3


def test_hyperbolic_characterization_accepts_sheet():
    ent = catalog.resolve("hyperboloid-sheet:1")
    r = verify_characterization(HYPERBOLIC, ent.obj, grid=(4, 4), seed=1,
                                expect=True, expect_radius=1.0)
    assert r.overall and r.extras["passes_slice_test"]
    # traced on the suite's own window; radii checked to a fixed 1e-6
    assert r.tolerances == {"tol_fit": 1e-6, "radius": 0.7, "tol_radius": 1e-6}
    assert r.extras["max_fit_residual"] <= 1e-8
    lo, hi = r.extras["fitted_radii_range"]
    assert abs(lo - 1.0) <= 1e-6 and abs(hi - 1.0) <= 1e-6


def test_hyperbolic_characterization_rejects_perturbed_graph():
    ent = catalog.resolve(PERTURBED_GRAPH)
    r = verify_characterization(HYPERBOLIC, ent.obj, grid=(4, 4), seed=1,
                                expect=False)
    assert r.overall and not r.extras["passes_slice_test"]
    assert r.extras["max_fit_residual"] > 5e-5


def test_tolerance_coherence_10x():
    # suites still classify correctly with tolerance x10
    keep = verify_characterization(SPHERE, surf("sphere:1"), grid=(3, 3),
                                   seed=2, expect=True, tol_fit=1e-5)
    drop = verify_characterization(SPHERE, surf("ellipsoid:1,2,3"),
                                   grid=(3, 3), seed=2, expect=False,
                                   tol_fit=1e-5)
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
        r = run_suite("theorem2", sid, n_points=5, seed=42, s=1,
                      n_subspace_draws=5)[0]
        assert r.overall, sid


def test_reports_deterministic_for_fixed_seed():
    def normalized(report):
        d = report.to_dict()
        d["runtime_ms"] = 0
        return json.dumps(d, sort_keys=True)

    a = run_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=42,
                  s=1, n_subspace_draws=5)[0]
    b = run_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=42,
                  s=1, n_subspace_draws=5)[0]
    assert normalized(a) == normalized(b)
    c = run_suite("theorem2", "ellipsoid:1,2,3", n_points=4, seed=43,
                  s=1, n_subspace_draws=5)[0]
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
                        seed=0)
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


def test_characterization_crash_is_an_error_not_a_rejection(monkeypatch):
    # a negative control must not pass because its tracer crashed
    def crash(*args, **kwargs):
        raise NewtonDiverged("no sample converged")

    monkeypatch.setattr(verifier, "trace_slices", crash)
    r = verify_characterization(SPHERE, surf("ellipsoid:1,2,3"), grid=(2, 2),
                                expect=False)
    assert not r.overall
    for p in r.per_point:
        assert p.directions == {"slice-model-fit": "error"}
        assert not p.passed and p.note.startswith("NewtonDiverged")
        assert p.residuals == {"fit_rms_0": np.inf, "fit_rms_1": np.inf}


def test_run_suite_resolves_each_target_once(monkeypatch):
    ids = []

    def recording(sid, *args, **kwargs):
        ids.append(sid)
        return catalog.resolve(sid, *args, **kwargs)

    monkeypatch.setattr(verifier, "resolve", recording)
    run_suite("all", n_points=1, grid=(2,))
    targets = {t for targets in verifier.SUITE_TARGETS.values() for t in targets}
    assert len(ids) == len(targets) == 13
    assert set(ids) == targets


def test_run_suite_all_takes_no_surface(monkeypatch):
    def no_suite_may_run(im, u):
        raise AssertionError("a suite ran before the input was checked")

    monkeypatch.setattr(verifier, "shape_report", no_suite_may_run)
    with pytest.raises(ValueError, match="own targets"):
        run_suite("all", "sphere:1")


@pytest.mark.parametrize("suite_id,kwargs", [
    ("theorem2", {"n_points": 0}),
    ("sphere-characterization", {"grid": (0,)}),
    ("sphere-characterization", {"grid": (3, 0)}),
    ("all", {"n_points": 0})])
def test_empty_suites_are_rejected(monkeypatch, suite_id, kwargs):
    # a suite that tests no point must not pass
    def no_suite_may_run(im, u):
        raise AssertionError("a suite ran before the input was checked")

    monkeypatch.setattr(verifier, "shape_report", no_suite_may_run)
    surface_id = None if suite_id == "all" else "sphere:1"
    with pytest.raises(ValueError):
        run_suite(suite_id, surface_id, **kwargs)


def test_errored_draws_reach_the_margin(monkeypatch):
    def crash(*args, **kwargs):
        raise NewtonDiverged("no sample converged")

    monkeypatch.setattr(verifier, "trace_slices", crash)
    r = verify_characterization(SPHERE, surf("sphere:1"), grid=(2, 2),
                                expect=True)
    assert r.extras["max_fit_residual"] == np.inf


def test_flat_slice_is_a_fail_not_an_error(monkeypatch):
    # a straight slice is the geometry saying "no sphere"
    def flat(clouds, lorentzian):
        return [FlatSlice("sphere radius estimate diverged", radius=1e7)
                for _pts in clouds]

    monkeypatch.setattr(verifier, "fit_quadrics", flat)
    r = verify_characterization(SPHERE, surf("cylinder:1"), grid=(2, 2),
                                expect=False)
    assert r.overall and not r.extras["passes_slice_test"]
    assert r.extras["max_fit_residual"] == np.inf
    for p in r.per_point:
        assert p.directions == {"slice-model-fit": "fail"} and p.note == ""
        assert p.residuals == {"fit_rms_0": np.inf, "fit_rms_1": np.inf}


@pytest.mark.parametrize("seed", [55, 117])
def test_cylinder_negative_control_survives_near_axial_slices(seed):
    # at these seeds one draw slices the cylinder along a nearly straight
    # line: "radius estimate diverged" (55) and "affinely dependent" (117)
    r, = run_suite("sphere-characterization", "cylinder:1", seed=seed,
                   grid=(5, 5))
    assert r.overall and r.extras["max_fit_residual"] == np.inf
    assert all(p.directions["slice-model-fit"] != "error" for p in r.per_point)


def test_point_suite_tolerances_cover_every_point(monkeypatch):
    # below the floor, so that each point's tol_prime is its own
    monkeypatch.setattr(verifier, "DEFECT_TOL_FLOOR", 1e-12)
    entry = catalog.resolve("ellipsoid:1,2,3")
    r = run_suite("theorem2", entry.id, n_points=2, seed=3,
                  n_subspace_draws=2)[0]
    tol_primes = [p.residuals["tol_prime"] for p in r.per_point]
    radii = [taylor_trace_radius(shape_report(entry.obj, q))
             for q in verifier._suite_points(entry, 2, 3)]
    assert len(set(tol_primes)) > 1 and len(set(radii)) > 1
    assert r.tolerances == {
        "tol": 1e-5, "tol_prime_min": min(tol_primes),
        "tol_prime_max": max(tol_primes), "radius_min": min(radii),
        "radius_max": max(radii)}


# --- plan, trace, judge ---

def test_point_suite_raises_the_first_error_in_point_order(monkeypatch):
    # point 2's second slice request fails at its spec, point 3 already
    # while planning; a point-by-point run meets point 2's error first
    from umbilic_lab.errors import DegenerateSubspace, LeftDomain
    entry = catalog.resolve("ellipsoid:1,2,3")
    points = verifier._suite_points(entry, 4, 42)
    make_specs, report = verifier.make_slice_specs, verifier.shape_report
    planned = []

    def failing_specs(im, rep, dir_sets):
        specs = make_specs(im, rep, dir_sets)
        if np.array_equal(rep.u, points[2]):
            specs[1] = DegenerateSubspace("injected at point 2", point=2)
        return specs

    def failing_report(im, u):
        # the batch fails at its row 3 and is made again point by point
        rows = np.atleast_2d(np.asarray(u, dtype=float))
        if np.ndim(u) == 1:
            planned.append(rows[0])
        if any(np.array_equal(row, points[3]) for row in rows):
            raise LeftDomain("injected at point 3")
        return report(im, u)

    monkeypatch.setattr(verifier, "make_slice_specs", failing_specs)
    monkeypatch.setattr(verifier, "shape_report", failing_report)
    with pytest.raises(DegenerateSubspace, match="injected at point 2") as err:
        run_suite("theorem2", entry.id, n_points=4, seed=42,
                  n_subspace_draws=3)[0]
    assert err.value.context == {"point": 2}
    assert len(planned) == len(points)  # every point was planned first


@pytest.mark.parametrize("sid, target, kwargs", [
    ("theorem2", "ellipsoid:1,2,3", {"n_subspace_draws": 3}),
    ("corollary3", "elliptic-paraboloid:1,3", {}),
    ("corollary5", "torus:2,0.5", {"n_basis_draws": 2}),
    ("theorem8", "ellipsoid:1,1.3,1.7,2.1", {"n_subspace_draws": 2}),
    ("theorem10", "sphere:1,3", {"n_pairs": 2}),
])
def test_point_suite_verdicts_equal_the_one_point_suites(sid, target, kwargs):
    # the suite's batched report hands each plan its row: point i of a
    # suite with seed 7 is the one-point suite at it with seed 7 + i
    entry = catalog.resolve(target)
    points = verifier._suite_points(entry, 2, 7)
    report = run_suite(sid, target, n_points=2, seed=7, **kwargs)[0]
    assert report.points_tested == len(points)
    for i, (q, got) in enumerate(zip(points, report.per_point)):
        want = verifier.POINT_SUITES[sid](entry.obj, q, seed=7 + i,
                                          **kwargs).per_point[0]
        assert got.parameter == want.parameter == q.tolist()
        assert got.residuals == want.residuals
        assert got.directions == want.directions
        assert got.passed == (want.passed and "ground-truth" not in got.note)


def test_point_suite_makes_one_shape_report_call(monkeypatch):
    shapes = []
    report = verifier.shape_report

    def counting(im, u):
        shapes.append(np.shape(u))
        return report(im, u)

    monkeypatch.setattr(verifier, "shape_report", counting)
    r = run_suite("theorem2", "ellipsoid:1,2,3", n_points=3, seed=42,
                  n_subspace_draws=2)[0]
    assert r.points_tested == 7 and shapes == [(7, 2)]


def test_point_suite_makes_one_newton_batch(monkeypatch):
    from umbilic_lab import slicer
    sizes = []
    original = slicer._newton_trace

    def counting(im, rows, q, targets, seeds):
        sizes.append(len(seeds))
        return original(im, rows, q, targets, seeds)

    monkeypatch.setattr(slicer, "_newton_trace", counting)
    r = run_suite("theorem2", "ellipsoid:1,2,3", n_points=3, seed=42,
                  s=1, n_subspace_draws=4)[0]
    assert r.overall and r.points_tested == 7   # 4 listed umbilics + 3
    # 7 points x 4 slices x 7 samples (3 per half-axis), no radius halved
    assert sizes == [7 * 4 * 7]


def test_point_suite_judges_each_point_once_its_slices_are_traced(monkeypatch):
    # with one point's slices per Newton batch, each point is judged before
    # the next batch is traced, and the report is the one-batch report
    from umbilic_lab import slicer
    args = dict(n_points=3, seed=42, s=1, n_subspace_draws=4)
    want = run_suite("theorem2", "ellipsoid:1,2,3", **args)[0].to_dict()
    events = []
    trace, spread = slicer._newton_trace, verifier._h_spread

    def tracing(im, rows, q, targets, seeds):
        events.append(("trace", len(seeds)))
        return trace(im, rows, q, targets, seeds)

    def judging(results):
        events.append(("judge", len(results)))
        return spread(results)

    monkeypatch.setattr(slicer, "_newton_trace", tracing)
    monkeypatch.setattr(verifier, "_h_spread", judging)
    monkeypatch.setattr(slicer, "BATCH_SAMPLES", 4 * 7)
    got = run_suite("theorem2", "ellipsoid:1,2,3", **args)[0].to_dict()
    assert events == [("trace", 4 * 7), ("judge", 4)] * 7
    assert {**got, "runtime_ms": 0} == {**want, "runtime_ms": 0}


def test_a_batch_that_raises_is_an_error_for_its_draws_only(monkeypatch):
    # two grid points per Newton batch; the second batch crashes, so the
    # draws of points 2 and 3 are errors and points 0 and 1 keep their fits
    from umbilic_lab import slicer
    blocks = []
    original = slicer._trace_block

    def second_crashes(*args):
        blocks.append(len(args[1]))
        if len(blocks) == 2:
            raise NewtonDiverged("injected in the second batch")
        return original(*args)

    monkeypatch.setattr(slicer, "_trace_block", second_crashes)
    monkeypatch.setattr(slicer, "BATCH_SAMPLES", 4 * 17)
    r = verify_characterization(SPHERE, surf("sphere:1"), grid=(2, 2),
                                expect=True)
    assert blocks == [4, 4]
    notes = [p.note for p in r.per_point]
    assert notes[:2] == ["", ""] and all(p.passed for p in r.per_point[:2])
    assert notes[2:] == ["NewtonDiverged: injected in the second batch"] * 2
    assert not r.overall


# --- stacked direction draws ---

@pytest.mark.parametrize("m,s,draws", [(2, 1, 10), (3, 2, 10), (3, 3, 1),
                                       (4, 3, 2), (4, 1, 1), (5, 4, 2)])
def test_stacked_draws_equal_per_draw_qrs(m, s, draws):
    # the rngs' streams and the QR factors are those of one draw at a time
    rng = np.random.default_rng(m * 10 + s)
    for seed in range(50):
        frames = rng.standard_normal((3, m, m + 1))
        want = []
        for k, frame in enumerate(frames):
            gen = np.random.default_rng([seed, k])
            want += [np.linalg.qr(gen.standard_normal((m, s)))[0].T @ frame
                     for _ in range(draws)]
        got = verifier._random_tangent_dirs(
            SimpleNamespace(tangent_frame=frames), [np.random.default_rng([seed, k]) for k in range(3)],
            s, draws)
        assert got.shape == (3 * draws, s, m + 1)
        assert np.array_equal(got, np.stack(want))
        one = verifier._random_tangent_dirs(
            SimpleNamespace(tangent_frame=frames[0]), [np.random.default_rng([seed, 0])], s, draws)
        assert np.array_equal(one, got[:draws])


def test_row_cap_admits_grids_up_to_its_size():
    from umbilic_lab.slicer import MAX_ROWS, _ball_grid
    im = surf("sphere:1")
    assert len(verifier._grid_points(im, [1, MAX_ROWS])) == MAX_ROWS
    with pytest.raises(ValueError, match=str(MAX_ROWS)):
        verifier._grid_points(im, [1, MAX_ROWS + 1])
    n = (MAX_ROWS - 1) // 2                 # 2n + 1 seeds on one axis
    assert len(_ball_grid(1, 1.0, n)) == 2 * n + 1
    with pytest.raises(ValueError, match=str(MAX_ROWS)):
        _ball_grid(1, 1.0, n + 1)


# --- report naming ---

def test_every_listed_and_target_immersion_is_named_by_its_id():
    # reports take their surface_id from im.name
    ids = {t for targets in verifier.SUITE_TARGETS.values() for t in targets}
    ids |= {sid for kind, listed in catalog.DEFAULT_LISTING
            if kind == "immersion" for sid in listed}
    for sid in sorted(ids):
        entry = catalog.resolve(sid)
        assert entry.obj.name == entry.id == sid


def test_a_loaded_immersion_reports_custom_immersion():
    im = catalog.load_immersion({
        "param_dim": 2, "ambient": "euclidean:3",
        "components": ["x0", "x1", "x0*x0 + x1*x1"],
        "domain": [[-1, 1], [-1, 1]]})
    reports = [verify_theorem2(im, [0.2, 0.3], n_subspace_draws=2),
               verify_remark4(im),
               verify_characterization(SPHERE, im, grid=(2,))]
    for r in reports:
        assert r.to_dict()["surface_id"] == "custom-immersion", r.suite_id


@pytest.mark.parametrize("seed", range(5))
def test_verify_all_pairs_at_full_size_hold(seed):
    # the verify-all benchmark's pairs: 5 points per surface and a 5 x 5 grid
    reports = run_suite("all", n_points=5, seed=seed, grid=(5, 5))
    assert len(reports) == 21
    assert [r.suite_id for r in reports if not r.overall] == []
