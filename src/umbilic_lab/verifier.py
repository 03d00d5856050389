"""Executable renditions of the umbilic-point theorems and corollaries.

Each suite draws points and totally-geodesic-at-q slices, computes both
sides of the claimed equivalence by independent routes (fitted slice data
versus the immersion's own second fundamental form), and emits a
VerdictReport.  Quantifiers over all slices are truncated to finitely
many seeded draws plus the structured principal-basis family; draw counts
are recorded in the report.

Implication directions that a surface cannot exercise (e.g. the
umbilic-implies-... direction at a non-umbilic point) are recorded as
"not exercised", never as passes; a slice draw that raised is an "error".
"""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import resolve
from .errors import FlatSlice, UmbilicLabError
from .frames import pseudo_gram_schmidt
from .immersion import shape_report, umbilicity_defect
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


def _report(started, suite_id, surface_id, per_point, overall, tolerances,
            seed, extras=None):
    """VerdictReport over ``per_point``, timed from ``started``."""
    return VerdictReport(
        suite_id=suite_id, surface_id=surface_id, points_tested=len(per_point),
        per_point=per_point, overall=overall, tolerances=tolerances, seed=seed,
        runtime_ms=int((time.perf_counter() - started) * 1000),
        extras={} if extras is None else extras)


def _at_point(im, q, radius):
    """(q, ShapeReport at q, trace radius) with the Taylor radius as default."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    rep = shape_report(im, q)
    return q, rep, taylor_trace_radius(rep) if radius is None else radius


def _implies(a, b):
    """Verdict of the direction "a implies b"; unexercised unless a holds."""
    return ("pass" if b else "fail") if a else "not exercised"


def _one_point(started, suite_id, im, surface_id, q, seed, tol, radius,
               residuals, directions, passed, extras):
    """One-point report; it holds ``tol_prime`` when the residuals do."""
    point = PointVerdict(parameter=[float(c) for c in q], residuals=residuals,
                         passed=passed, directions=directions)
    calibrated = ({"tol_prime": residuals["tol_prime"]}
                  if "tol_prime" in residuals else {})
    return _report(started, suite_id, surface_id or im.name, [point], passed,
                   {"tol": tol, **calibrated, "radius": radius}, seed, extras)


def _random_tangent_dirs(rep, rng, s):
    """s random g-orthonormal tangent directions at the report's point."""
    m = rep.tangent_frame.shape[0]
    coeff = rng.standard_normal((m, s))
    q_mat, _ = np.linalg.qr(coeff)
    return q_mat[:, :s].T @ rep.tangent_frame


def _traced_shapes(im, rep, dir_sets, radius, calibrate=True):
    """Trace and fit each direction set at the point of ``rep``; returns
    results plus the defect threshold calibrated from the observed
    identity residuals (the floor when ``calibrate`` is false)."""
    results = []
    worst_identity = 0.0
    for dirs in dir_sets:
        spec = make_slice_spec(im, rep, dirs)
        res = trace_slice(im, spec, radius=radius)
        slice_shape(res)
        if calibrate:
            worst_identity = max(worst_identity, identity_check(im, res))
        results.append(res)
    tol_prime = max(DEFECT_TOL_FLOOR, 10.0 * worst_identity)
    return results, tol_prime


def _h_spread(results):
    pairs = itertools.combinations([r.slice_H_coeff for r in results], 2)
    return max((float(np.linalg.norm(a - b)) for a, b in pairs), default=0.0)


def verify_theorem2(im, q, s=1, n_subspace_draws=10, tol=1e-5, radius=None,
                    seed=0, surface_id=""):
    """Same slice mean curvature across normal slices iff q is umbilic."""
    started = time.perf_counter()
    if not 1 <= s <= im.param_dim - 1 and not (s == 1 and im.param_dim == 1):
        raise ValueError("need 1 <= s <= m-1")
    q, rep, radius = _at_point(im, q, radius)
    rng = np.random.default_rng([seed, 0])
    dir_sets = [_random_tangent_dirs(rep, rng, s) for _ in range(n_subspace_draws)]
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    spread = _h_spread(results)
    slice_umbilic = spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    return _one_point(
        started, "theorem2", im, surface_id, q, seed, tol, radius,
        {"slice_h_spread": spread, "defect": rep.umbilicity_defect,
         "tol_prime": tol_prime},
        {"slice-umbilic-implies-umbilic": _implies(slice_umbilic, umbilic),
         "umbilic-implies-slice-umbilic": _implies(umbilic, slice_umbilic)},
        slice_umbilic == umbilic,
        {"s": s, "draws": n_subspace_draws})


def verify_corollary3(im, q, s=1, tol=1e-5, radius=None, seed=0, surface_id=""):
    """Principal-basis slice family: equal mean curvatures iff umbilic,
    and at umbilic points the common value is the surface mean curvature."""
    started = time.perf_counter()
    if im.codim != 1:
        raise ValueError("corollary 3 applies to hypersurfaces")
    q, rep, radius = _at_point(im, q, radius)
    dir_sets = [rep.principal_directions[list(subset)]
                for subset in itertools.combinations(range(im.param_dim), s)]
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    values = np.array([float(r.slice_H_coeff[0]) for r in results])
    all_equal = float(values.max() - values.min()) <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    mean_gap = abs(float(values.mean()) - rep.mean_curvature)
    return _one_point(
        started, "corollary3", im, surface_id, q, seed, tol, radius,
        {"value_spread": float(values.max() - values.min()),
         "defect": rep.umbilicity_defect, "tol_prime": tol_prime,
         "mean_gap": mean_gap},
        {"equal-implies-umbilic": _implies(all_equal, umbilic),
         "umbilic-implies-equal-and-same-mean":
             _implies(umbilic, all_equal and mean_gap <= tol)},
        (all_equal == umbilic) and (not umbilic or mean_gap <= tol),
        {"s": s, "slice_values": values.tolist()})


def verify_remark4(im, tol=1e-6, radius=None, surface_id="", q=None):
    """Asymptotic slices of a zero-mean-curvature saddle: flat normal
    sections at a non-umbilic point, with vanishing mean curvature.

    Default point is the chart midpoint (the origin for graph charts), so
    the suite also runs as a negative control on non-saddle surfaces."""
    started = time.perf_counter()
    q, rep, radius = _at_point(im, im.domain.mean(axis=1) if q is None else q,
                               radius)
    e1, e2 = rep.tangent_frame
    dirs = [np.array([(e1 + e2) / np.sqrt(2.0)]),
            np.array([(e1 - e2) / np.sqrt(2.0)])]
    results, _ = _traced_shapes(im, rep, dirs, radius, calibrate=False)
    curvatures = [float(r.slice_H_coeff[0]) for r in results]
    max_asymptotic = max(abs(c) for c in curvatures)
    h_abs = abs(rep.mean_curvature)
    defect = rep.umbilicity_defect
    passed = max_asymptotic <= tol and defect >= 1.0 and h_abs <= tol
    return _one_point(
        started, "remark4", im, surface_id, q, 0, tol, radius,
        {"max_asymptotic_slice_curvature": max_asymptotic,
         "mean_curvature_abs": h_abs, "defect": defect},
        {"zero-normal-sections-but-not-umbilic": _implies(True, passed)},
        passed, {"asymptotic_slice_curvatures": curvatures})


def verify_corollary5(im, q, s=1, n_basis_draws=10, tol=1e-5, radius=None,
                      seed=0, surface_id=""):
    """Mean of the slice mean curvatures equals the surface mean curvature
    for every orthonormal basis, umbilic or not."""
    started = time.perf_counter()
    if im.codim != 1:
        raise ValueError("corollary 5 applies to hypersurfaces")
    q, rep, radius = _at_point(im, q, radius)
    m = im.param_dim
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
    return _one_point(
        started, "corollary5", im, surface_id, q, seed, tol, radius,
        {"max_mean_gap": worst},
        {"mean-of-means-identity": _implies(True, passed)},
        passed, {"s": s, "basis_draws": n_basis_draws})


def verify_theorem8(im, q, s=2, n_subspace_draws=10, tol=1e-5, radius=None,
                    seed=0, mode="random", surface_id=""):
    """Umbilic in every s-dimensional normal slice iff umbilic in the
    surface; mode "basis" uses subsets of one fixed (non-orthogonal) basis."""
    started = time.perf_counter()
    m = im.param_dim
    if not (m >= 3 and 2 <= s <= m - 1):
        raise ValueError("theorem 8 needs m >= 3 and 2 <= s <= m-1")
    q, rep, radius = _at_point(im, q, radius)
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
            dir_sets.append(pseudo_gram_schmidt(vectors[list(subset)], g)[0])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    results, tol_prime = _traced_shapes(im, rep, dir_sets, radius)
    slice_defects = [umbilicity_defect(r.slice_II)[0] for r in results]
    spread = _h_spread(results)
    all_umbilic = max(slice_defects) <= tol_prime and spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    return _one_point(
        started, "theorem8", im, surface_id, q, seed, tol, radius,
        {"max_slice_defect": max(slice_defects), "slice_h_spread": spread,
         "defect": rep.umbilicity_defect, "tol_prime": tol_prime},
        {"slices-umbilic-implies-umbilic": _implies(all_umbilic, umbilic),
         "umbilic-implies-slices-umbilic": _implies(umbilic, all_umbilic)},
        all_umbilic == umbilic,
        {"s": s, "mode": mode, "draws": len(dir_sets)})


def verify_theorem10(im, q, tol=1e-5, n_pairs=10, radius=None, seed=0,
                     surface_id=""):
    """Two umbilic normal hypersurface slices force an umbilic point; at
    non-umbilic points every drawn pair contains a non-umbilic slice."""
    started = time.perf_counter()
    m = im.param_dim
    if im.codim != 1 or m < 3:
        raise ValueError("theorem 10 needs a hypersurface with m >= 3")
    q, rep, radius = _at_point(im, q, radius)
    pair_records = []
    tol_prime = DEFECT_TOL_FLOOR
    for k in range(n_pairs):
        rng = np.random.default_rng([seed, k])
        dir_sets = [_random_tangent_dirs(rep, rng, m - 1) for _ in range(2)]
        results, tp = _traced_shapes(im, rep, dir_sets, radius)
        tol_prime = max(tol_prime, tp)
        pair_records.append([umbilicity_defect(r.slice_II)[0] for r in results])
    umbilic = rep.umbilicity_defect <= tol_prime
    forward_hits = [max(d) <= tol_prime for d in pair_records]
    # umbilic: every slice should be umbilic; else every pair needs a non-umbilic one
    all_hit, no_hit = all(forward_hits), not any(forward_hits)
    return _one_point(
        started, "theorem10", im, surface_id, q, seed, tol, radius,
        {"defect": rep.umbilicity_defect, "tol_prime": tol_prime,
         "max_pair_min_defect": max(min(d) for d in pair_records),
         "max_slice_defect": max(max(d) for d in pair_records)},
        {"two-umbilic-slices-implies-umbilic": _implies(umbilic, all_hit),
         "non-umbilic-pair-witness": _implies(not umbilic, no_hit)},
        all_hit if umbilic else no_hit,
        {"pairs": n_pairs})


def _grid_points(im, grid, margin=0.15):
    """Grid over the padded domain; ``grid`` holds one count for every
    axis or one per axis."""
    m = im.param_dim
    if len(grid) not in (1, m) or min(grid) < 1:
        raise ValueError(f"grid {'x'.join(map(str, grid))} needs 1 or {m} "
                         f"positive counts for {m} parameters")
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    axes = [np.linspace(lo[d] + pad[d], hi[d] - pad[d],
                        grid[d] if d < len(grid) else grid[0])
            for d in range(m)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)


def _characterization(suite_id, im, grid, tol_fit, radius, seed, expect,
                      expect_radius, tol_radius, surface_id, margin):
    """Two random normal hyperplane slices per grid point, each fitted by
    the suite's model; an "error" point fails the report whatever ``expect``."""
    started = time.perf_counter()
    index, ambient, fitter, _verify, _flag = CHARACTERIZATIONS[suite_id]
    if im.ambient.signature.index != index:
        raise ValueError(f"{suite_id.split('-')[0]} characterization runs in "
                         f"{ambient} ambients")
    if im.codim != 1:
        raise ValueError("characterization suites apply to hypersurfaces")
    pts = _grid_points(im, grid, margin=margin)
    reports = shape_report(im, pts)
    per_point = []
    max_residual = 0.0
    radii = []
    for i, q in enumerate(pts):
        rng = np.random.default_rng([seed, i])
        rep = reports.row(i)
        residuals = {}
        point_ok = True
        note = ""
        for draw in range(2):
            dirs = _random_tangent_dirs(rep, rng, im.param_dim - 1)
            try:
                spec = make_slice_spec(im, rep, dirs)
                res = trace_slice(im, spec, radius=radius)
                _c, fitted_r, rms = fitter(res.points)
                radii.append(fitted_r)
                if expect_radius is not None and abs(fitted_r - expect_radius) > tol_radius:
                    point_ok = False
                    residuals[f"radius_gap_{draw}"] = abs(fitted_r - expect_radius)
            except UmbilicLabError as exc:
                rms = float("inf")
                # a flat slice is the geometry saying "no sphere", not a crash
                if not isinstance(exc, FlatSlice):
                    note = f"{type(exc).__name__}: {exc}"
            residuals[f"fit_rms_{draw}"] = rms
            max_residual = max(max_residual, rms)
            if rms > tol_fit:
                point_ok = False
        per_point.append(PointVerdict(
            parameter=[float(c) for c in q], residuals=residuals,
            passed=point_ok, note=note,
            directions={"slice-model-fit":
                        "error" if note else "pass" if point_ok else "fail"}))
    all_ok = all(p.passed for p in per_point)
    overall = all_ok == expect if expect is not None else all_ok
    return _report(
        started, suite_id, surface_id or im.name, per_point,
        overall and not any(p.note for p in per_point),
        {"tol_fit": tol_fit, "radius": radius, "tol_radius": tol_radius}, seed,
        {"passes_slice_test": all_ok, "expected_to_pass": expect,
         "max_fit_residual": max_residual,
         "fitted_radii_range": [float(min(radii)), float(max(radii))]
         if radii else None})


def verify_characterization_sphere(im, grid=(5,), tol_fit=1e-6, radius=0.5,
                                   seed=0, expect=None, expect_radius=None,
                                   tol_radius=1e-6, surface_id=""):
    """Two random normal hyperplane slices per grid point must be spheres;
    in radius mode the fitted radii must agree with the expected one."""
    return _characterization("sphere-characterization", im, grid, tol_fit,
                             radius, seed, expect, expect_radius, tol_radius,
                             surface_id, margin=0.15)


def verify_characterization_hyperbolic(im, grid=(5,), tol_fit=1e-6,
                                       radius=0.7, seed=0, expect=None,
                                       expect_radius=None, tol_radius=1e-6,
                                       surface_id="", margin=0.3):
    """Mirror suite in the Minkowski ambient with hyperbolic-space fits."""
    return _characterization("hyperbolic-characterization", im, grid, tol_fit,
                             radius, seed, expect, expect_radius, tol_radius,
                             surface_id, margin=margin)


# suite id -> (ambient signature index and name, fitter (looked up when
# called), entry point, ground-truth flag of the surfaces it characterizes)
CHARACTERIZATIONS = {
    "sphere-characterization":
        (0, "Euclidean", lambda pts: fit_sphere(pts),
         verify_characterization_sphere, "is_round_sphere"),
    "hyperbolic-characterization":
        (1, "Minkowski", lambda pts: fit_hyperbolic(pts),
         verify_characterization_hyperbolic, "is_hyperbolic_space"),
}


# ---------------------------------------------------------------------------
# multi-point suite drivers


def expected_umbilic(entry, u):
    """Ground-truth umbilicity at parameter u, or None when unknown."""
    label = entry.ground_truth.get("label")
    if label == "umbilic-points":
        u = np.asarray(u, dtype=float)
        return any(np.linalg.norm(u - np.asarray(p)) <= UMBILIC_POINT_BALL
                   for p in entry.ground_truth.get("umbilic_params", []))
    return {"umbilic-everywhere": True, "nowhere-umbilic": False}.get(label)


def _suite_points(entry, n_points, seed):
    """The listed umbilic points, then ``n_points`` random interior points
    pushed away from them so the ground truth at each is unambiguous."""
    im = entry.obj
    rng = np.random.default_rng([seed, 999])
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    lo2 = lo + 0.15 * (hi - lo)
    hi2 = hi - 0.15 * (hi - lo)
    listed = [np.asarray(p, dtype=float)
              for p in entry.ground_truth.get("umbilic_params", [])]
    pts = list(listed)
    while len(pts) < len(listed) + n_points:
        u = lo2 + rng.random(im.param_dim) * (hi2 - lo2)
        if any(np.linalg.norm(u - p) < 3 * UMBILIC_POINT_BALL for p in listed):
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


def run_point_suite(suite_id, surface_id, n_points=20, seed=42, **kwargs):
    """Run a per-point suite over random surface points (plus any listed
    umbilic points) and cross-check verdicts against the catalog truth."""
    started = time.perf_counter()
    entry = resolve(surface_id)
    points = _suite_points(entry, n_points, seed)
    per_point, tols = [], []
    for i, q in enumerate(points):
        sub = POINT_SUITES[suite_id](entry.obj, q, seed=seed + i,
                                     surface_id=surface_id, **kwargs)
        verdict = sub.per_point[0]
        tols.append(sub.tolerances)
        truth = expected_umbilic(entry, q)
        if truth is not None and suite_id != "corollary5":
            computed_umbilic = (verdict.residuals["defect"]
                                <= verdict.residuals.get("tol_prime", DEFECT_TOL_FLOOR))
            if computed_umbilic != truth:
                verdict.passed = False
                verdict.note = (verdict.note + " ground-truth disagreement").strip()
        per_point.append(verdict)
    # each point calibrates its own tol_prime and radius: report their range
    tolerances = {"tol": tols[0]["tol"]} if tols else {}
    for key in ("tol_prime", "radius"):
        values = [t[key] for t in tols if key in t]
        if values:
            tolerances[f"{key}_min"], tolerances[f"{key}_max"] = min(values), max(values)
    return _report(started, suite_id, surface_id, per_point,
                   all(p.passed for p in per_point), tolerances, seed)


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


def run_suite(suite_id, surface_id=None, n_points=20, seed=42, grid=(5,),
              **kwargs):
    """Run ``suite_id`` on ``surface_id``, else on its SUITE_TARGETS ("all":
    every suite, at most 5 points each).  ``tol`` is each suite's decision
    tolerance; input is checked before any suite runs."""
    if suite_id != "all" and suite_id not in SUITE_TARGETS:
        raise ValueError(f"unknown suite {suite_id!r}")
    if suite_id == "all" and surface_id is not None:
        raise ValueError("verify all runs every suite on its own targets")
    n_points = min(n_points, 5) if suite_id == "all" else n_points
    # point suites resolve their own surface; the others are resolved here,
    # so a grid that a characterization surface cannot take fails first
    jobs = [(sid, target, None if sid in POINT_SUITES else resolve(target))
            for sid in (SUITE_TARGETS if suite_id == "all" else [suite_id])
            for target in ([surface_id] if surface_id else SUITE_TARGETS[sid])]
    for sid, _target, entry in jobs:
        if sid in CHARACTERIZATIONS:
            _grid_points(entry.obj, grid)
        if sid in POINT_SUITES and n_points < 1:
            raise ValueError(f"{sid} needs at least one random point")
    reports = []
    for sid, target, entry in jobs:
        if sid in POINT_SUITES:
            reports.append(run_point_suite(sid, target, n_points=n_points,
                                           seed=seed, **kwargs))
        elif sid == "remark4":
            reports.append(verify_remark4(entry.obj, surface_id=entry.id,
                                          **kwargs))
        else:
            *_, verify, flag = CHARACTERIZATIONS[sid]
            expect = bool(entry.ground_truth.get(flag))
            reports.append(verify(
                entry.obj, grid=grid, seed=seed, expect=expect,
                expect_radius=entry.ground_truth.get("radius") if expect else None,
                surface_id=entry.id,
                **{"tol_fit" if k == "tol" else k: v for k, v in kwargs.items()}))
    return reports
