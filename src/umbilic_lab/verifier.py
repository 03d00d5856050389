"""Executable renditions of the umbilic-point theorems and corollaries.

Each suite draws points and totally-geodesic-at-q slices, computes both
sides of the claimed equivalence by independent routes (fitted slice data
versus the immersion's own second fundamental form), and emits a
VerdictReport.  Quantifiers over all slices are truncated to finitely
many seeded draws plus the structured principal-basis family; draw counts
are recorded in the report.

Implication directions that a surface cannot exercise (e.g. the
umbilic-implies-... direction at a non-umbilic point) are recorded as
"not exercised", never as passes.
"""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import resolve
from .errors import UmbilicLabError
from .frames import pseudo_gram_schmidt, unit_design
from .immersion import shape_report
from .slicer import (fit_hyperbolic, fit_sphere, identity_check,
                     make_slice_spec, slice_shape, taylor_trace_radius,
                     trace_slice)

DEFECT_TOL_FLOOR = 1e-6
UMBILIC_POINT_BALL = 0.05      # parameter distance counted as "at" a listed umbilic


@dataclass
class PointVerdict:
    parameter: list
    residuals: dict
    passed: bool
    directions: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self):
        return {"parameter": self.parameter,
                "residuals": {k: float(v) for k, v in self.residuals.items()},
                "pass": bool(self.passed),
                "directions": dict(self.directions),
                "note": self.note}


@dataclass
class VerdictReport:
    suite_id: str
    surface_id: str
    points_tested: int
    per_point: list
    overall: bool
    tolerances: dict
    seed: int
    runtime_ms: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "schema_version": 1,
            "suite_id": self.suite_id,
            "surface_id": self.surface_id,
            "points_tested": self.points_tested,
            "per_point": [p.to_dict() for p in self.per_point],
            "overall": bool(self.overall),
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
            "extras": self.extras,
        }


def _finish(report, started):
    report.runtime_ms = int((time.perf_counter() - started) * 1000)
    return report


def _random_tangent_dirs(rep, rng, s):
    """s random g-orthonormal tangent directions at the report's point."""
    m = rep.tangent_frame.shape[0]
    coeff = rng.standard_normal((m, s))
    q_mat, _ = np.linalg.qr(coeff)
    return q_mat[:, :s].T @ rep.tangent_frame


def _slice_defect(slice_ii):
    """Umbilicity defect of a fitted slice second fundamental form."""
    s, _, n = slice_ii.shape
    h = np.array([np.trace(slice_ii[:, :, a]) / s for a in range(n)])
    if n == 1:
        vals = np.linalg.eigvalsh(slice_ii[:, :, 0])
        return float(np.max(np.abs(vals - h[0])))
    worst = 0.0
    for x in unit_design(s):
        vals = np.array([x @ slice_ii[:, :, a] @ x for a in range(n)])
        worst = max(worst, float(np.linalg.norm(vals - h)))
    return worst


def _traced_shapes(im, rep, dir_sets, radius):
    """Trace and fit each direction set at the point of ``rep``; returns
    results plus the defect threshold calibrated from the observed
    identity residuals."""
    results = []
    worst_identity = 0.0
    for dirs in dir_sets:
        spec = make_slice_spec(im, rep, dirs)
        res = trace_slice(im, spec, radius=radius)
        slice_shape(res)
        worst_identity = max(worst_identity, identity_check(im, res))
        results.append(res)
    tol_prime = max(DEFECT_TOL_FLOOR, 10.0 * worst_identity)
    return results, tol_prime


def _h_spread(results):
    coeffs = np.stack([r.slice_H_coeff for r in results])
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            spread = max(spread, float(np.linalg.norm(coeffs[i] - coeffs[j])))
    return spread


def verify_theorem2(im, q, s=1, n_subspace_draws=10, tol=1e-5, radius=None,
                    seed=0, surface_id=""):
    """Same slice mean curvature across normal slices iff q is umbilic."""
    started = time.perf_counter()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not 1 <= s <= im.param_dim - 1 and not (s == 1 and im.param_dim == 1):
        raise ValueError("need 1 <= s <= m-1")
    rep = shape_report(im, q)
    if radius is None:
        radius = taylor_trace_radius(rep)
    rng = np.random.default_rng([seed, 0])
    dir_sets = [_random_tangent_dirs(rep, rng, s) for _ in range(n_subspace_draws)]
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    spread = _h_spread(results)
    slice_umbilic = spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime

    directions = {
        "slice-umbilic-implies-umbilic":
            ("pass" if umbilic else "fail") if slice_umbilic else "not exercised",
        "umbilic-implies-slice-umbilic":
            ("pass" if slice_umbilic else "fail") if umbilic else "not exercised",
    }
    passed = slice_umbilic == umbilic
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"slice_h_spread": spread, "defect": rep.umbilicity_defect,
                   "tol_prime": tol_prime},
        passed=passed, directions=directions)
    return _finish(VerdictReport(
        suite_id="theorem2", surface_id=surface_id or im.name,
        points_tested=1, per_point=[point], overall=passed,
        tolerances={"tol": tol, "tol_prime": tol_prime, "radius": radius},
        seed=seed, extras={"s": s, "draws": n_subspace_draws}), started)


def verify_corollary3(im, q, s=1, tol=1e-5, radius=None, seed=0, surface_id=""):
    """Principal-basis slice family: equal mean curvatures iff umbilic,
    and at umbilic points the common value is the surface mean curvature."""
    started = time.perf_counter()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if im.codim != 1:
        raise ValueError("corollary 3 applies to hypersurfaces")
    rep = shape_report(im, q)
    m = im.param_dim
    if radius is None:
        radius = taylor_trace_radius(rep)
    dir_sets = [rep.principal_directions[list(subset)]
                for subset in itertools.combinations(range(m), s)]
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    values = np.array([float(r.slice_H_coeff[0]) for r in results])
    all_equal = float(values.max() - values.min()) <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    mean_gap = abs(float(values.mean()) - rep.mean_curvature)
    passed = (all_equal == umbilic) and (not umbilic or mean_gap <= tol)
    directions = {
        "equal-implies-umbilic":
            ("pass" if umbilic else "fail") if all_equal else "not exercised",
        "umbilic-implies-equal-and-same-mean":
            (("pass" if all_equal and mean_gap <= tol else "fail")
             if umbilic else "not exercised"),
    }
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"value_spread": float(values.max() - values.min()),
                   "defect": rep.umbilicity_defect, "tol_prime": tol_prime,
                   "mean_gap": mean_gap},
        passed=passed, directions=directions)
    return _finish(VerdictReport(
        suite_id="corollary3", surface_id=surface_id or im.name,
        points_tested=1, per_point=[point], overall=passed,
        tolerances={"tol": tol, "tol_prime": tol_prime, "radius": radius},
        seed=seed, extras={"s": s, "slice_values": values.tolist()}), started)


def verify_remark4(im, tol=1e-6, radius=None, surface_id="", q=None):
    """Asymptotic slices of a zero-mean-curvature saddle: flat normal
    sections at a non-umbilic point, with vanishing mean curvature.

    Default point is the chart midpoint (the origin for graph charts), so
    the suite also runs as a negative control on non-saddle surfaces."""
    started = time.perf_counter()
    if q is None:
        q = im.domain.mean(axis=1)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    rep = shape_report(im, q)
    if radius is None:
        radius = taylor_trace_radius(rep)
    e1, e2 = rep.tangent_frame
    dirs = [np.array([(e1 + e2) / np.sqrt(2.0)]),
            np.array([(e1 - e2) / np.sqrt(2.0)])]
    curvatures = []
    for d in dirs:
        spec = make_slice_spec(im, rep, d)
        res = trace_slice(im, spec, radius=radius)
        slice_shape(res)
        curvatures.append(float(res.slice_H_coeff[0]))
    max_asymptotic = max(abs(c) for c in curvatures)
    h_abs = abs(rep.mean_curvature)
    defect = rep.umbilicity_defect
    passed = max_asymptotic <= tol and defect >= 1.0 and h_abs <= tol
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"max_asymptotic_slice_curvature": max_asymptotic,
                   "mean_curvature_abs": h_abs, "defect": defect},
        passed=passed,
        directions={"zero-normal-sections-but-not-umbilic":
                    "pass" if passed else "fail"})
    return _finish(VerdictReport(
        suite_id="remark4", surface_id=surface_id or im.name, points_tested=1,
        per_point=[point], overall=passed,
        tolerances={"tol": tol, "radius": radius}, seed=0,
        extras={"asymptotic_slice_curvatures": curvatures}), started)


def verify_corollary5(im, q, s=1, n_basis_draws=10, tol=1e-5, radius=None,
                      seed=0, surface_id=""):
    """Mean of the slice mean curvatures equals the surface mean curvature
    for every orthonormal basis, umbilic or not."""
    started = time.perf_counter()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if im.codim != 1:
        raise ValueError("corollary 5 applies to hypersurfaces")
    rep = shape_report(im, q)
    m = im.param_dim
    if radius is None:
        radius = taylor_trace_radius(rep)
    gaps = []
    for b in range(n_basis_draws):
        rng = np.random.default_rng([seed, b])
        basis = _random_tangent_dirs(rep, rng, m)
        dir_sets = [basis[list(subset)]
                    for subset in itertools.combinations(range(m), s)]
        results, _ = _traced_shapes(im, rep, dir_sets, radius)
        mean_val = float(np.mean([r.slice_H_coeff[0] for r in results]))
        gaps.append(abs(mean_val - rep.mean_curvature))
    worst = max(gaps)
    passed = worst <= tol
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"max_mean_gap": worst},
        passed=passed,
        directions={"mean-of-means-identity": "pass" if passed else "fail"})
    return _finish(VerdictReport(
        suite_id="corollary5", surface_id=surface_id or im.name,
        points_tested=1, per_point=[point], overall=passed,
        tolerances={"tol": tol, "radius": radius}, seed=seed,
        extras={"s": s, "basis_draws": n_basis_draws}), started)


def verify_theorem8(im, q, s=2, n_subspace_draws=10, tol=1e-5, radius=None,
                    seed=0, mode="random", surface_id=""):
    """Umbilic in every s-dimensional normal slice iff umbilic in the
    surface; mode "basis" uses subsets of one fixed (non-orthogonal) basis."""
    started = time.perf_counter()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    m = im.param_dim
    if not (m >= 3 and 2 <= s <= m - 1):
        raise ValueError("theorem 8 needs m >= 3 and 2 <= s <= m-1")
    rep = shape_report(im, q)
    if radius is None:
        radius = taylor_trace_radius(rep)
    rng = np.random.default_rng([seed, 0])
    if mode == "random":
        dir_sets = [_random_tangent_dirs(rep, rng, s)
                    for _ in range(n_subspace_draws)]
    elif mode == "basis":
        # well-conditioned but non-orthogonal basis; each subset's span
        # is orthonormalized to build the slice
        while True:
            raw = rng.standard_normal((m, m))
            if np.linalg.cond(raw) < 20.0:
                break
        vectors = raw @ rep.tangent_frame
        dir_sets = []
        g = im.ambient.metric_at(rep.p)
        for subset in itertools.combinations(range(m), s):
            basis, _ = pseudo_gram_schmidt(list(vectors[list(subset)]), g)
            dir_sets.append(np.stack(basis))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    slice_defects = [_slice_defect(r.slice_II) for r in results]
    spread = _h_spread(results)
    all_umbilic = max(slice_defects) <= tol_prime and spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    passed = all_umbilic == umbilic
    directions = {
        "slices-umbilic-implies-umbilic":
            ("pass" if umbilic else "fail") if all_umbilic else "not exercised",
        "umbilic-implies-slices-umbilic":
            ("pass" if all_umbilic else "fail") if umbilic else "not exercised",
    }
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"max_slice_defect": max(slice_defects),
                   "slice_h_spread": spread,
                   "defect": rep.umbilicity_defect, "tol_prime": tol_prime},
        passed=passed, directions=directions)
    return _finish(VerdictReport(
        suite_id="theorem8", surface_id=surface_id or im.name, points_tested=1,
        per_point=[point], overall=passed,
        tolerances={"tol": tol, "tol_prime": tol_prime, "radius": radius},
        seed=seed, extras={"s": s, "mode": mode,
                           "draws": len(dir_sets)}), started)


def verify_theorem10(im, q, tol=1e-5, n_pairs=10, radius=None, seed=0,
                     surface_id=""):
    """Two umbilic normal hypersurface slices force an umbilic point; at
    non-umbilic points every drawn pair contains a non-umbilic slice."""
    started = time.perf_counter()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    m = im.param_dim
    if im.codim != 1 or m < 3:
        raise ValueError("theorem 10 needs a hypersurface with m >= 3")
    rep = shape_report(im, q)
    if radius is None:
        radius = taylor_trace_radius(rep)
    s = m - 1
    pair_records = []
    tol_prime = DEFECT_TOL_FLOOR
    for k in range(n_pairs):
        rng = np.random.default_rng([seed, k])
        dir_sets = [_random_tangent_dirs(rep, rng, s) for _ in range(2)]
        results, tp = _traced_shapes(im, rep, dir_sets, radius)
        tol_prime = max(tol_prime, tp)
        pair_records.append([_slice_defect(r.slice_II) for r in results])
    umbilic = rep.umbilicity_defect <= tol_prime
    forward_hits = [max(d) <= tol_prime for d in pair_records]
    if umbilic:
        # converse holds trivially; every slice should be umbilic
        passed = all(forward_hits)
        directions = {"two-umbilic-slices-implies-umbilic":
                      "pass" if passed else "fail",
                      "non-umbilic-pair-witness": "not exercised"}
    else:
        passed = not any(forward_hits)
        directions = {"two-umbilic-slices-implies-umbilic": "not exercised",
                      "non-umbilic-pair-witness":
                      "pass" if passed else "fail"}
    point = PointVerdict(
        parameter=[float(c) for c in q],
        residuals={"defect": rep.umbilicity_defect, "tol_prime": tol_prime,
                   "max_pair_min_defect": max(min(d) for d in pair_records),
                   "max_slice_defect": max(max(d) for d in pair_records)},
        passed=passed, directions=directions)
    return _finish(VerdictReport(
        suite_id="theorem10", surface_id=surface_id or im.name,
        points_tested=1, per_point=[point], overall=passed,
        tolerances={"tol": tol, "tol_prime": tol_prime, "radius": radius},
        seed=seed, extras={"pairs": n_pairs}), started)


def _grid_points(im, grid, margin=0.15):
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    axes = [np.linspace(lo[d] + pad[d], hi[d] - pad[d],
                        grid[d] if d < len(grid) else grid[-1])
            for d in range(im.param_dim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, im.param_dim)


def _characterization(im, grid, fitter, tol_fit, radius, seed, expect,
                      expect_radius, tol_radius, suite_id, surface_id,
                      margin=0.15):
    started = time.perf_counter()
    if im.codim != 1:
        raise ValueError("characterization suites apply to hypersurfaces")
    pts = _grid_points(im, grid, margin=margin)
    per_point = []
    all_ok = True
    max_residual = 0.0
    radii = []
    for i, q in enumerate(pts):
        rng = np.random.default_rng([seed, i])
        rep = shape_report(im, q)
        residuals = {}
        point_ok = True
        note = ""
        for draw in range(2):
            dirs = _random_tangent_dirs(rep, rng, im.param_dim - 1)
            try:
                spec = make_slice_spec(im, rep, dirs)
                res = trace_slice(im, spec, radius=radius)
                _c, fitted_r, rms = fitter(res.points)
                residuals[f"fit_rms_{draw}"] = rms
                max_residual = max(max_residual, rms)
                radii.append(fitted_r)
                if rms > tol_fit:
                    point_ok = False
                if expect_radius is not None and abs(fitted_r - expect_radius) > tol_radius:
                    point_ok = False
                    residuals[f"radius_gap_{draw}"] = abs(fitted_r - expect_radius)
            except UmbilicLabError as exc:
                point_ok = False
                note = f"{type(exc).__name__}: {exc}"
                residuals[f"fit_rms_{draw}"] = float("inf")
        per_point.append(PointVerdict(
            parameter=[float(c) for c in q], residuals=residuals,
            passed=point_ok, note=note,
            directions={"slice-model-fit": "pass" if point_ok else "fail"}))
        all_ok = all_ok and point_ok
    overall = all_ok == expect if expect is not None else all_ok
    report = VerdictReport(
        suite_id=suite_id, surface_id=surface_id or im.name,
        points_tested=len(pts), per_point=per_point, overall=overall,
        tolerances={"tol_fit": tol_fit, "radius": radius,
                    "tol_radius": tol_radius},
        seed=seed,
        extras={"passes_slice_test": all_ok,
                "expected_to_pass": expect,
                "max_fit_residual": max_residual,
                "fitted_radii_range": [float(min(radii)), float(max(radii))]
                if radii else None})
    return _finish(report, started)


def verify_characterization_sphere(im, grid=(5, 5), tol_fit=1e-6, radius=0.5,
                                   seed=0, expect=None, expect_radius=None,
                                   tol_radius=1e-6, surface_id=""):
    """Two random normal hyperplane slices per grid point must be spheres;
    in radius mode the fitted radii must agree with the expected one."""
    if im.ambient.signature.index != 0:
        raise ValueError("sphere characterization runs in Euclidean ambients")
    return _characterization(im, grid, fit_sphere, tol_fit, radius, seed,
                             expect, expect_radius, tol_radius,
                             "sphere-characterization", surface_id)


def verify_characterization_hyperbolic(im, grid=(5, 5), tol_fit=1e-6,
                                       radius=0.7, seed=0, expect=None,
                                       expect_radius=None, tol_radius=1e-6,
                                       surface_id="", margin=0.3):
    """Mirror suite in the Minkowski ambient with hyperbolic-space fits."""
    if im.ambient.signature.index != 1:
        raise ValueError("hyperbolic characterization runs in Minkowski ambients")
    return _characterization(im, grid, fit_hyperbolic, tol_fit, radius, seed,
                             expect, expect_radius, tol_radius,
                             "hyperbolic-characterization", surface_id,
                             margin=margin)


# ---------------------------------------------------------------------------
# multi-point suite drivers


def expected_umbilic(entry, u):
    """Ground-truth umbilicity at parameter u, or None when unknown."""
    label = entry.ground_truth.get("label")
    if label == "umbilic-everywhere":
        return True
    if label == "nowhere-umbilic":
        return False
    if label == "umbilic-points":
        pts = entry.ground_truth.get("umbilic_params", [])
        u = np.asarray(u, dtype=float)
        for p in pts:
            if np.linalg.norm(u - np.asarray(p)) <= UMBILIC_POINT_BALL:
                return True
        return False
    return None


def _suite_points(entry, n_points, seed, avoid_listed=True):
    """Random interior points, pushed away from listed umbilic points so
    the ground-truth expectation at each drawn point is unambiguous."""
    im = entry.obj
    rng = np.random.default_rng([seed, 999])
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    lo2 = lo + 0.15 * (hi - lo)
    hi2 = hi - 0.15 * (hi - lo)
    listed = [np.asarray(p) for p in entry.ground_truth.get("umbilic_params", [])]
    pts = []
    while len(pts) < n_points:
        u = lo2 + rng.random(im.param_dim) * (hi2 - lo2)
        if avoid_listed and any(np.linalg.norm(u - p) < 3 * UMBILIC_POINT_BALL
                                for p in listed):
            continue
        pts.append(u)
    return pts


POINT_SUITES = {
    "theorem2": verify_theorem2,
    "corollary3": verify_corollary3,
    "corollary5": verify_corollary5,
    "theorem8": verify_theorem8,
    "theorem10": verify_theorem10,
}


def run_point_suite(suite_id, surface_id, n_points=20, seed=42, include_listed=True,
                    **kwargs):
    """Run a per-point suite over random surface points (plus any listed
    umbilic points) and cross-check verdicts against the catalog truth."""
    started = time.perf_counter()
    entry = resolve(surface_id)
    im = entry.obj
    fn = POINT_SUITES[suite_id]
    points = _suite_points(entry, n_points, seed)
    if include_listed:
        points = [np.asarray(p, dtype=float)
                  for p in entry.ground_truth.get("umbilic_params", [])] + points
    per_point = []
    tolerances = {}
    for i, q in enumerate(points):
        sub = fn(im, q, seed=seed + i, surface_id=surface_id, **kwargs)
        verdict = sub.per_point[0]
        tolerances = sub.tolerances
        truth = expected_umbilic(entry, q)
        if truth is not None and suite_id != "corollary5":
            computed_umbilic = (verdict.residuals["defect"]
                                <= verdict.residuals.get("tol_prime", DEFECT_TOL_FLOOR))
            if computed_umbilic != truth:
                verdict.passed = False
                verdict.note = (verdict.note + " ground-truth disagreement").strip()
        per_point.append(verdict)
    overall = all(p.passed for p in per_point)
    return _finish(VerdictReport(
        suite_id=suite_id, surface_id=surface_id, points_tested=len(points),
        per_point=per_point, overall=overall, tolerances=tolerances,
        seed=seed), started)


SUITE_TARGETS = {
    "theorem2": ["sphere:1", "ellipsoid:1,2,3", "hyperboloid-sheet:1"],
    "corollary3": ["sphere:2", "elliptic-paraboloid:1,3", "ellipsoid:2,1,1"],
    "remark4": ["hyperbolic-paraboloid"],
    "corollary5": ["sphere:1", "elliptic-paraboloid:1,3",
                   "hyperbolic-paraboloid", "torus:2,0.5"],
    "theorem8": ["sphere:1,3", "ellipsoid:1,1.3,1.7,2.1"],
    "theorem10": ["sphere:1,3", "ellipsoid:1,1.3,1.7,2.1",
                  "hyperboloid-sheet:1,3"],
    "sphere-characterization": ["sphere:1", "ellipsoid:1,2,3", "cylinder:1"],
    "hyperbolic-characterization": [
        "hyperboloid-sheet:1", "minkowski-graph:sqrt(1+x0^2+x1^2)+0.05*x0^4"],
}


def run_suite(suite_id, surface_id=None, n_points=20, seed=42, grid=(5, 5),
              **kwargs):
    """Entry point used by the CLI; returns a list of VerdictReports."""
    if suite_id == "all":
        reports = []
        for sid, targets in SUITE_TARGETS.items():
            for target in targets:
                reports.extend(run_suite(sid, target, n_points=min(n_points, 5),
                                         seed=seed, grid=grid))
        return reports
    if suite_id in POINT_SUITES:
        if suite_id == "theorem8":
            kwargs.setdefault("s", 2)
        return [run_point_suite(suite_id, surface_id, n_points=n_points,
                                seed=seed, **kwargs)]
    if suite_id == "remark4":
        entry = resolve(surface_id or "hyperbolic-paraboloid")
        return [verify_remark4(entry.obj, surface_id=entry.id, **kwargs)]
    if suite_id == "sphere-characterization":
        entry = resolve(surface_id)
        expect = bool(entry.ground_truth.get("is_round_sphere"))
        expect_radius = entry.ground_truth.get("radius") if expect else None
        return [verify_characterization_sphere(
            entry.obj, grid=grid, seed=seed, expect=expect,
            expect_radius=expect_radius, surface_id=entry.id, **kwargs)]
    if suite_id == "hyperbolic-characterization":
        entry = resolve(surface_id)
        expect = bool(entry.ground_truth.get("is_hyperbolic_space"))
        expect_radius = entry.ground_truth.get("radius") if expect else None
        return [verify_characterization_hyperbolic(
            entry.obj, grid=grid, seed=seed, expect=expect,
            expect_radius=expect_radius, surface_id=entry.id, **kwargs)]
    raise ValueError(f"unknown suite {suite_id!r}")
