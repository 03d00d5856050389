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

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import resolve
from .errors import FlatSlice, UmbilicLabError, hold, hold_each, release
from .frames import pseudo_gram_schmidt
from .immersion import shape_report, umbilicity_defect
from .slicer import (MAX_ROWS, TAYLOR_SAMPLES, fit_quadrics, make_slice_specs,
                     slice_shapes, taylor_trace_radius, trace_slices)

DEFECT_TOL_FLOOR = 1e-6
TOL_RADIUS = 1e-6              # fitted vs catalog radius, characterizations
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


def _report(started, suite_id, im, per_point, overall, tolerances, seed,
            extras=None):
    """VerdictReport on ``im`` over ``per_point``, timed from ``started``."""
    return VerdictReport(
        suite_id=suite_id, surface_id=im.name, points_tested=len(per_point),
        per_point=per_point, overall=overall, tolerances=tolerances, seed=seed,
        runtime_ms=int((time.perf_counter() - started) * 1000),
        extras={} if extras is None else extras)


def _at_point(held):
    """(the ShapeReport at q, held as ``held``, and its Taylor trace radius)."""
    return release(held), taylor_trace_radius(release(held))


def _implies(a, b):
    """Verdict of the direction "a implies b"; unexercised unless a holds."""
    return ("pass" if b else "fail") if a else "not exercised"


def _one_point(started, suite_id, im, rep, seed, tol, radius, residuals,
               directions, passed, extras):
    """One-point report at rep.u, holding ``tol_prime`` if the residuals do."""
    point = PointVerdict(parameter=rep.u.tolist(), residuals=residuals,
                         passed=passed, directions=directions)
    calibrated = ({"tol_prime": residuals["tol_prime"]}
                  if "tol_prime" in residuals else {})
    return _report(started, suite_id, im, [point], passed,
                   {"tol": tol, **calibrated, "radius": radius}, seed, extras)


def _random_tangent_dirs(rep, rngs, s, draws=1):
    """``draws`` sets of s random g-orthonormal tangent directions from each
    rng of ``rngs`` in turn, as one (len(rngs) * draws, s, N) stack, at the
    report's point, or at row i's point for rng i of a batch report.  Each
    rng draws its Gaussians at once; one stacked QR orthonormalises them."""
    frame = rep.tangent_frame if rep.tangent_frame.ndim == 2 else rep.tangent_frame[:, None]
    coeff = np.stack([rng.standard_normal((draws, frame.shape[-2], s)) for rng in rngs])
    q_mat = np.linalg.qr(coeff)[0].mT          # (len(rngs), draws, s, m)
    return (q_mat @ frame).reshape(-1, s, frame.shape[-1])


def _traced(im, requests, samples_per_dim=8):
    """The SliceResult or error of every direction set of the (ShapeReport,
    direction sets, radius) requests, in order, from one ``samples_per_dim``
    trace_slices call: a block is traced when its first result is asked for."""
    specs = [spec for rep, dir_sets, _r in requests
             for spec in make_slice_specs(im, rep, dir_sets)]
    radii = [radius for _rep, dir_sets, radius in requests for _d in dir_sets]
    ok = [k for k, spec in enumerate(specs) if not isinstance(spec, Exception)]
    traced = hold_each(trace_slices, im, [specs[k] for k in ok],
                       [radii[k] for k in ok], samples_per_dim)
    return (spec if isinstance(spec, Exception) else next(traced)
            for spec in specs)


def _run_plans(im, plans):
    """Plan, trace, judge: each plan (a suite generator at one point) yields
    one request (see _traced, at TAYLOR_SAMPLES) and takes back its fitted
    results and the threshold calibrated from their identity residuals.
    Every plan is made first and all their slices are traced as one stream;
    each plan is then fitted and judged as soon as its slices are traced, so
    a suite holds one block of samples.  An error is raised where a
    point-by-point run meets it."""
    asks = [hold(next, plan) for plan in plans]
    traced = _traced(im, [a for a in asks if not isinstance(a, Exception)], TAYLOR_SAMPLES)
    reports = []
    for plan, ask in zip(plans, asks):
        results = [release(res) for res in slice_shapes(
            [next(traced) for _dirs in release(ask)[1]])]
        worst = max([0.0, *(r.identity_residual for r in results)])
        try:
            plan.send((results, max(DEFECT_TOL_FLOOR, 10.0 * worst)))
        except StopIteration as stop:
            reports.append(stop.value)
    return reports


def _planned(suite):
    """The one-point suite of the plan ``suite`` (see _run_plans), kept as .plan."""
    @functools.wraps(suite)
    def verify(im, *args, **kwargs):
        return _run_plans(im, [suite(im, *args, **kwargs)])[0]
    verify.plan = suite
    return verify


def _pointwise(plan):
    """One-point suite at q of ``plan``, which takes q as its held report; kept as .plan."""
    @functools.wraps(plan)
    def verify(im, q, *args, **kwargs):
        return _run_plans(im, [plan(im, hold(shape_report, im, q), *args, **kwargs)])[0]
    verify.plan = plan
    return verify


def _h_spread(results):
    h = np.array([r.slice_H_coeff for r in results])
    return float(np.linalg.norm(h[:, None] - h[None], axis=-1).max(initial=0.0))


@_pointwise
def verify_theorem2(im, q, s=1, n_subspace_draws=10, tol=1e-5, seed=0):
    """Same slice mean curvature across normal slices iff q is umbilic."""
    started = time.perf_counter()
    if not 1 <= s <= im.param_dim - 1 and not (s == 1 and im.param_dim == 1):
        raise ValueError("need 1 <= s <= m-1")
    rep, radius = _at_point(q)
    dir_sets = _random_tangent_dirs(rep, [np.random.default_rng([seed, 0])], s,
                                    n_subspace_draws)
    results, tol_prime = yield rep, dir_sets, radius
    spread = _h_spread(results)
    slice_umbilic = spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    return _one_point(
        started, "theorem2", im, rep, seed, tol, radius,
        {"slice_h_spread": spread, "defect": rep.umbilicity_defect,
         "tol_prime": tol_prime},
        {"slice-umbilic-implies-umbilic": _implies(slice_umbilic, umbilic),
         "umbilic-implies-slice-umbilic": _implies(umbilic, slice_umbilic)},
        slice_umbilic == umbilic,
        {"s": s, "draws": n_subspace_draws})


@_pointwise
def verify_corollary3(im, q, s=1, tol=1e-5, seed=0):
    """Principal-basis slice family: equal mean curvatures iff umbilic,
    and at umbilic points the common value is the surface mean curvature."""
    started = time.perf_counter()
    if im.codim != 1:
        raise ValueError("corollary 3 applies to hypersurfaces")
    rep, radius = _at_point(q)
    dir_sets = [rep.principal_directions[list(subset)]
                for subset in itertools.combinations(range(im.param_dim), s)]
    results, tol_prime = yield rep, dir_sets, radius
    values = np.array([float(r.slice_H_coeff[0]) for r in results])
    all_equal = float(values.max() - values.min()) <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    mean_gap = abs(float(values.mean()) - rep.mean_curvature)
    return _one_point(
        started, "corollary3", im, rep, seed, tol, radius,
        {"value_spread": float(values.max() - values.min()),
         "defect": rep.umbilicity_defect, "tol_prime": tol_prime,
         "mean_gap": mean_gap},
        {"equal-implies-umbilic": _implies(all_equal, umbilic),
         "umbilic-implies-equal-and-same-mean":
             _implies(umbilic, all_equal and mean_gap <= tol)},
        (all_equal == umbilic) and (not umbilic or mean_gap <= tol),
        {"s": s, "slice_values": values.tolist()})


@_planned
def verify_remark4(im, tol=1e-6):
    """Asymptotic slices of a zero-mean-curvature saddle: flat normal
    sections at a non-umbilic point, with vanishing mean curvature.

    The point is the chart midpoint (the origin for graph charts), so the
    suite also runs as a negative control on non-saddle surfaces."""
    started = time.perf_counter()
    rep, radius = _at_point(shape_report(im, im.domain.mean(axis=1)))
    e1, e2 = rep.tangent_frame
    dirs = [np.array([(e1 + e2) / np.sqrt(2.0)]),
            np.array([(e1 - e2) / np.sqrt(2.0)])]
    results, _ = yield rep, dirs, radius
    curvatures = [float(r.slice_H_coeff[0]) for r in results]
    max_asymptotic = max(abs(c) for c in curvatures)
    h_abs = abs(rep.mean_curvature)
    defect = rep.umbilicity_defect
    passed = max_asymptotic <= tol and defect >= 1.0 and h_abs <= tol
    return _one_point(
        started, "remark4", im, rep, 0, tol, radius,
        {"max_asymptotic_slice_curvature": max_asymptotic,
         "mean_curvature_abs": h_abs, "defect": defect},
        {"zero-normal-sections-but-not-umbilic": _implies(True, passed)},
        passed, {"asymptotic_slice_curvatures": curvatures})


@_pointwise
def verify_corollary5(im, q, s=1, n_basis_draws=10, tol=1e-5, seed=0):
    """Mean of the slice mean curvatures equals the surface mean curvature
    for every orthonormal basis, umbilic or not."""
    started = time.perf_counter()
    if im.codim != 1:
        raise ValueError("corollary 5 applies to hypersurfaces")
    rep, radius = _at_point(q)
    m = im.param_dim
    subsets = list(itertools.combinations(range(m), s))
    bases = _random_tangent_dirs(rep, [np.random.default_rng([seed, b])
                                       for b in range(n_basis_draws)], m)
    results, _ = yield rep, bases[:, subsets].reshape(-1, s, bases.shape[-1]), radius
    values = np.array([r.slice_H_coeff[0] for r in results]).reshape(n_basis_draws, -1)
    worst = float(np.max(np.abs(values.mean(axis=1) - rep.mean_curvature)))
    passed = worst <= tol
    return _one_point(
        started, "corollary5", im, rep, seed, tol, radius,
        {"max_mean_gap": worst},
        {"mean-of-means-identity": _implies(True, passed)},
        passed, {"s": s, "basis_draws": n_basis_draws})


@_pointwise
def verify_theorem8(im, q, s=2, n_subspace_draws=10, tol=1e-5, seed=0,
                    mode="random"):
    """Umbilic in every s-dimensional normal slice iff umbilic in the
    surface; mode "basis" uses subsets of one fixed (non-orthogonal) basis."""
    started = time.perf_counter()
    m = im.param_dim
    if not (m >= 3 and 2 <= s <= m - 1):
        raise ValueError("theorem 8 needs m >= 3 and 2 <= s <= m-1")
    rep, radius = _at_point(q)
    rng = np.random.default_rng([seed, 0])
    if mode == "random":
        dir_sets = _random_tangent_dirs(rep, [rng], s, n_subspace_draws)
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
    results, tol_prime = yield rep, dir_sets, radius
    worst = umbilicity_defect(np.stack([r.slice_II for r in results]))[0].max()
    spread = _h_spread(results)
    all_umbilic = worst <= tol_prime and spread <= tol
    umbilic = rep.umbilicity_defect <= tol_prime
    return _one_point(
        started, "theorem8", im, rep, seed, tol, radius,
        {"max_slice_defect": worst, "slice_h_spread": spread,
         "defect": rep.umbilicity_defect, "tol_prime": tol_prime},
        {"slices-umbilic-implies-umbilic": _implies(all_umbilic, umbilic),
         "umbilic-implies-slices-umbilic": _implies(umbilic, all_umbilic)},
        all_umbilic == umbilic,
        {"s": s, "mode": mode, "draws": len(dir_sets)})


@_pointwise
def verify_theorem10(im, q, tol=1e-5, n_pairs=10, seed=0):
    """Two umbilic normal hypersurface slices force an umbilic point; at
    non-umbilic points every drawn pair contains a non-umbilic slice."""
    started = time.perf_counter()
    m = im.param_dim
    if im.codim != 1 or m < 3:
        raise ValueError("theorem 10 needs a hypersurface with m >= 3")
    rep, radius = _at_point(q)
    rngs = [np.random.default_rng([seed, k]) for k in range(n_pairs)]
    results, tol_prime = yield rep, _random_tangent_dirs(rep, rngs, m - 1, 2), radius
    pairs = umbilicity_defect(np.stack([r.slice_II for r in results]))[0].reshape(-1, 2)
    umbilic = rep.umbilicity_defect <= tol_prime
    forward_hits = pairs.max(axis=1) <= tol_prime
    # umbilic: every slice should be umbilic; else every pair needs a non-umbilic one
    all_hit, no_hit = bool(forward_hits.all()), not forward_hits.any()
    return _one_point(
        started, "theorem10", im, rep, seed, tol, radius,
        {"defect": rep.umbilicity_defect, "tol_prime": tol_prime,
         "max_pair_min_defect": pairs.min(axis=1).max(),
         "max_slice_defect": pairs.max()},
        {"two-umbilic-slices-implies-umbilic": _implies(umbilic, all_hit),
         "non-umbilic-pair-witness": _implies(not umbilic, no_hit)},
        all_hit if umbilic else no_hit,
        {"pairs": n_pairs})


def _grid_points(im, grid, margin=0.15):
    """Grid over the padded domain; ``grid`` holds one count for every
    axis or one per axis."""
    m = im.param_dim
    text = "x".join(map(str, grid))
    if len(grid) not in (1, m) or min(grid) < 1:
        raise ValueError(f"grid {text} needs 1 or {m} positive counts for "
                         f"{m} parameters")
    counts = list(grid) * m if len(grid) == 1 else grid
    if math.prod(counts) > MAX_ROWS:
        raise ValueError(f"grid {text} asks for {math.prod(counts)} points on "
                         f"{m} parameters; at most {MAX_ROWS}")
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = margin * (hi - lo)
    axes = [np.linspace(lo[d] + pad[d], hi[d] - pad[d], counts[d])
            for d in range(m)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)


# suite id -> (ambient signature index, 1 for Lorentzian hyperbolic fits, and
# name; ground-truth flag of its surfaces; trace radius; grid margin)
CHARACTERIZATIONS = {
    "sphere-characterization": (0, "Euclidean", "is_round_sphere", 0.5, 0.15),
    "hyperbolic-characterization":
        (1, "Minkowski", "is_hyperbolic_space", 0.7, 0.3),
}


def verify_characterization(suite_id, im, grid=(5,), tol_fit=1e-6, seed=0,
                            expect=None, expect_radius=None):
    """Two random normal hyperplane slices per grid point, traced on the
    suite's window, must fit its model (see CHARACTERIZATIONS) and radius
    (to TOL_RADIUS); an "error" point fails the report whatever ``expect``."""
    started = time.perf_counter()
    index, ambient, _flag, radius, margin = CHARACTERIZATIONS[suite_id]
    if im.ambient.signature.index != index:
        raise ValueError(f"{suite_id.split('-')[0]} characterization runs in "
                         f"{ambient} ambients")
    if im.codim != 1:
        raise ValueError("characterization suites apply to hypersurfaces")
    pts = _grid_points(im, grid, margin=margin)
    reports = shape_report(im, pts)
    rngs = [np.random.default_rng([seed, i]) for i in range(len(pts))]
    dirs = _random_tangent_dirs(reports, rngs, im.param_dim - 1, 2)
    fitted = iter(fit_quadrics([
        res if isinstance(res, Exception) else res.points for res in _traced(
            im, [(reports.row(i), dirs[2 * i:2 * i + 2], radius)
                 for i in range(len(pts))])], lorentzian=index == 1))
    per_point = []
    max_residual = 0.0
    radii = []
    for q in pts:
        residuals = {}
        point_ok = True
        note = ""
        for draw in range(2):
            try:
                _c, fitted_r, rms = release(next(fitted))
                radii.append(fitted_r)
                if expect_radius is not None and abs(fitted_r - expect_radius) > TOL_RADIUS:
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
        started, suite_id, im, per_point,
        overall and not any(p.note for p in per_point),
        {"tol_fit": tol_fit, "radius": radius, "tol_radius": TOL_RADIUS}, seed,
        {"passes_slice_test": all_ok, "expected_to_pass": expect,
         "max_fit_residual": max_residual,
         "fitted_radii_range": [float(min(radii)), float(max(radii))]
         if radii else None})


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


def _point_suite(suite_id, entry, n_points, seed, **kwargs):
    """A point suite over random points of a resolved catalog entry (plus
    any listed umbilic points), each verdict that decides umbilicity by
    ``tol_prime`` cross-checked against the catalog truth."""
    started = time.perf_counter()
    points = _suite_points(entry, n_points, seed)
    per_point, tols = [], []
    # one batched report, or one held report per point when the batch raises
    reps = hold(shape_report, entry.obj, np.array(points))
    reps = ([hold(shape_report, entry.obj, q) for q in points]
            if isinstance(reps, Exception) else map(reps.row, range(len(points))))
    subs = _run_plans(entry.obj, [
        POINT_SUITES[suite_id].plan(entry.obj, rep, seed=seed + i, **kwargs)
        for i, rep in enumerate(reps)])
    for q, sub in zip(points, subs):
        verdict = sub.per_point[0]
        tols.append(sub.tolerances)
        truth = expected_umbilic(entry, q)
        residuals = verdict.residuals
        if truth is not None and "tol_prime" in residuals:
            if (residuals["defect"] <= residuals["tol_prime"]) != truth:
                verdict.passed = False
                verdict.note = (verdict.note + " ground-truth disagreement").strip()
        per_point.append(verdict)
    # each point calibrates its own tol_prime and radius: report their range
    tolerances = {"tol": tols[0]["tol"]} if tols else {}
    for key in ("tol_prime", "radius"):
        values = [t[key] for t in tols if key in t]
        if values:
            tolerances[f"{key}_min"], tolerances[f"{key}_max"] = min(values), max(values)
    return _report(started, suite_id, entry.obj, per_point,
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
    # every target is resolved here, once, so bad input fails before any suite
    once = functools.cache(resolve)
    jobs = [(sid, once(target))
            for sid in (SUITE_TARGETS if suite_id == "all" else [suite_id])
            for target in ([surface_id] if surface_id else SUITE_TARGETS[sid])]
    for sid, entry in jobs:
        if sid in CHARACTERIZATIONS:
            _grid_points(entry.obj, grid)
        if sid in POINT_SUITES and n_points < 1:
            raise ValueError(f"{sid} needs at least one random point")
    reports = []
    for sid, entry in jobs:
        if sid in POINT_SUITES:
            reports.append(_point_suite(sid, entry, n_points, seed, **kwargs))
        elif sid == "remark4":
            reports.append(verify_remark4(entry.obj, **kwargs))
        else:
            expect = bool(entry.ground_truth.get(CHARACTERIZATIONS[sid][2]))
            reports.append(verify_characterization(
                sid, entry.obj, grid=grid, seed=seed, expect=expect,
                expect_radius=entry.ground_truth.get("radius") if expect else None,
                **{"tol_fit" if k == "tol" else k: v for k, v in kwargs.items()}))
    return reports
