"""Totally-geodesic-at-a-point normal slices of immersed submanifolds.

A slice plane through q spans the full normal space of the immersion plus
a chosen set of tangent directions.  The intersection curve/surface is
traced by Newton continuation from tangent-plane seeds, its second
fundamental form is read off the quadratic terms of a local quartic fit,
and sphere / hyperbolic-space models are fitted to the samples.

Slicing runs in flat ambients.  When the surface lies on a central
quadric whose radial direction is normal to it (sphere, hyperboloid
model), the same planes pass through the center, so they are exactly the
central linear sections that are totally geodesic in the quadric.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateFit, DegenerateSubspace, FlatSlice,
                     IllConditionedFit, NewtonDiverged, UnsupportedAmbient,
                     WrongCausalType, hold, release)
from .frames import complement_basis
from .immersion import ShapeReport

NEWTON_MAX_ITER = 50
NEWTON_CONVERGED = 1e-12
NEWTON_ACCEPT = 1e-10
MAX_FAIL_FRACTION = 0.20
BATCH_SAMPLES = 1024    # samples per Newton batch or stacked fit: bounds memory
MAX_ROWS = 100_000      # points a parameter grid or a slice's seed grid may ask for
SINGULAR, LEFT_DOMAIN = 1, 2        # why _newton_trace retired a sample (0: it did not)
TAYLOR_SAMPLES = 3      # samples per half-axis on a Taylor window: 7 at s = 1, 29 at s = 2


@dataclass
class SliceSpec:
    """A normal slice request at q: tangent directions plus the normals.

    ``report`` is the ShapeReport at q; its frames, normal signs, II and
    tangent parameters are the ones the slice is built, seeded and
    compared from.
    """

    report: ShapeReport
    tangent_directions: np.ndarray      # (s, N), g-orthonormal, tangent at q
    coords: np.ndarray                  # (s, m) in the report's tangent frame

    @property
    def q_param(self):
        return self.report.u

    @property
    def q(self):
        return self.report.p

    @property
    def s(self):
        return self.tangent_directions.shape[0]

    def to_dict(self):
        return {
            "q_param": [float(c) for c in self.q_param],
            "q": [float(c) for c in self.q],
            "tangent_directions": self.tangent_directions.tolist(),
        }


@dataclass
class SliceResult:
    spec: SliceSpec
    complement: np.ndarray      # (m - s, N) from build_slice
    params: np.ndarray          # (K, m) converged parameters
    points: np.ndarray          # (K, N) ambient samples
    t: np.ndarray               # (K, s) tangent plane coordinates
    w: np.ndarray               # (K, n) transverse plane coordinates
    radius: float
    residuals: np.ndarray       # (K,) Newton constraint residuals
    failures: int
    slice_II: np.ndarray | None = None    # (s, s, n)
    slice_H: np.ndarray | None = None     # ambient vector
    slice_H_coeff: np.ndarray | None = None
    identity_residual: float | None = None
    fit_sphere: tuple | None = None
    fit_hyperbolic: tuple | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "schema_version": 1,
            "spec": self.spec.to_dict(),
            "radius": float(self.radius),
            "n_samples": int(self.points.shape[0]),
            "failures": int(self.failures),
            "max_constraint_residual": float(np.max(self.residuals)) if self.residuals.size else 0.0,
            "samples": [
                {"u": self.params[i].tolist(), "p": self.points[i].tolist(),
                 "t": self.t[i].tolist(), "w": self.w[i].tolist()}
                for i in range(self.points.shape[0])
            ],
            "provenance": dict(self.provenance),
        }
        if self.slice_II is not None:
            d["slice_II"] = self.slice_II.tolist()
            d["slice_H"] = self.slice_H.tolist()
            d["slice_H_coeff"] = self.slice_H_coeff.tolist()
        if self.identity_residual is not None:
            d["identity_residual"] = float(self.identity_residual)
        for key, fit in (("fit_sphere", self.fit_sphere),
                         ("fit_hyperbolic", self.fit_hyperbolic)):
            if fit is not None:
                d[key] = {"center": fit[0].tolist(), "radius": float(fit[1]),
                          "rms": float(fit[2])}
        return d

    def samples_csv(self):
        lines = []
        n_amb = self.points.shape[1]
        header = [f"x{i}" for i in range(n_amb)]
        header += [f"t{i}" for i in range(self.t.shape[1])]
        header += [f"w{i}" for i in range(self.w.shape[1])]
        lines.append(",".join(header))
        for i in range(self.points.shape[0]):
            row = list(self.points[i]) + list(self.t[i]) + list(self.w[i])
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def make_slice_specs(im, rep, dir_sets):
    """The validated SliceSpec, or the error, of each direction set of the
    stack ``dir_sets`` (B, s, N) of ambient tangent directions at the point
    of ``rep``, the immersion's ShapeReport there.  The stack is checked at
    once; when that fails it is checked set by set, so each set keeps its
    own error."""
    dirs = np.asarray(dir_sets, dtype=float)
    try:
        g = im.ambient.metric_at(rep.p)
        if np.max(np.abs(dirs @ g @ dirs.mT - np.eye(dirs.shape[1]))) > 1e-10:
            raise DegenerateSubspace("tangent directions are not g-orthonormal")
        if np.max(np.abs(dirs @ g @ rep.normal_frame.T)) > 1e-8:
            raise DegenerateSubspace("direction is not tangent to the immersion at q")
        if dirs.shape[1] > im.param_dim:
            raise ValueError("more tangent directions than tangent dimensions")
    except Exception as exc:        # held, as a set's error or to split the stack
        return [exc] if len(dirs) == 1 else [hold(make_slice_spec, im, rep, d)
                                             for d in dirs]
    return [SliceSpec(report=rep, tangent_directions=d, coords=c) for d, c in
            zip(dirs, dirs @ g @ rep.tangent_frame.T * rep.tangent_signs)]


def make_slice_spec(im, rep, directions):
    """The one-set make_slice_specs, for directions (s, N); raises the
    set's error."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    return release(make_slice_specs(im, rep, dirs[None])[0])


def build_slice(im, spec):
    """The (m - s, N) g-orthocomplement in T_q of the slice plane, which
    the tracer holds the samples against; flat ambients only."""
    if not im.ambient.is_constant:
        raise UnsupportedAmbient(
            "slice tracing is implemented for flat ambients")
    span = np.concatenate([spec.tangent_directions, spec.report.normal_frame])
    return complement_basis(span, im.ambient.metric_at(spec.q))[0]


def _blocks(seq, size):
    """``seq`` in pieces of BATCH_SAMPLES samples, ``size`` per item."""
    per = max(1, BATCH_SAMPLES // size)
    return [seq[i:i + per] for i in range(0, len(seq), per)]


def _ball_grid(s, radius, samples_per_dim):
    if (2 * samples_per_dim + 1) ** s > MAX_ROWS:
        raise ValueError(f"{samples_per_dim} samples per dimension (--samples) at "
                         f"s = {s} ask for {(2 * samples_per_dim + 1) ** s} "
                         f"seeds; at most {MAX_ROWS}")
    axes = [np.linspace(-radius, radius, 2 * samples_per_dim + 1)
            for _ in range(s)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, s)
    return pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]


def _newton_trace(im, rows, q, targets, seeds):
    """Damped Newton for every sample b on rows[b] @ (x(u) - q[b]) = targets[b],
    rows[b] (m, N) being its complement rows, then its tangent directions,
    lowered by g.  Returns (u, x, fnorm, retired, steps, good) per sample."""
    def residual(u, b):
        x = im.point(u)
        return (rows[b] @ (x - q[b])[..., None])[..., 0] - targets[b], x

    u = seeds.copy()
    f, x = residual(u, slice(None))
    fnorm = np.linalg.norm(f, axis=1)       # the rows are g-orthonormal: basis-free
    retired = np.where(im.in_domain(u), 0, LEFT_DOMAIN)
    steps = np.zeros(len(u), dtype=int)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero((retired == 0) & (fnorm > NEWTON_CONVERGED))
        if not idx.size:
            break
        steps[idx] += 1
        live = slice(None) if idx.size == len(u) else idx   # all live: no copies
        jf = rows[live] @ im.jacobian_at(u[live])
        try:
            du = np.linalg.solve(jf, -f[live][..., None])[..., 0]
        except np.linalg.LinAlgError:
            # a singular system must not sink the batch: retire only the
            # samples whose LU meets a zero pivot, as solve's does
            singular = np.linalg.slogdet(jf)[0] == 0
            retired[idx[singular]] = SINGULAR
            live = idx = idx[~singular]
            du = np.linalg.solve(jf[~singular], -f[idx][..., None])[..., 0]
        u_live, f_live, step = u[live], fnorm[live], np.ones(idx.size)
        new_u = u_live + du
        nf, nx = residual(new_u, live)
        n_norm = np.linalg.norm(nf, axis=1)
        for _damp in range(8):      # halve the steps that made things worse
            worse = np.flatnonzero(n_norm > f_live)
            if not worse.size:
                break
            step[worse] *= 0.5
            new_u[worse] = u_live[worse] + du[worse] * step[worse, None]
            nf[worse], nx[worse] = residual(new_u[worse], idx[worse])
            n_norm[worse] = np.linalg.norm(nf[worse], axis=1)
        u[live], f[live], x[live], fnorm[live] = new_u, nf, nx, n_norm
        retired[idx[~im.in_domain(new_u)]] = LEFT_DOMAIN
    good = (retired == 0) & (fnorm <= NEWTON_ACCEPT)
    return u, x, fnorm, retired, steps, good


def default_trace_radius(rep):
    """Ledger default: 0.5 min(1, 1/max|kappa|) from the local shape."""
    return 0.5 * min(1.0, 1.0 / _kappa_scale(rep))


def taylor_trace_radius(rep):
    """Small window for Taylor-accurate slice fits, at TAYLOR_SAMPLES.

    On the symmetric ball grid slice_shapes' quartic block takes up the
    graph's quartic term: the Hessian bias is O(radius^4), not O(radius^2),
    and rounding grows as radius^-2; 3e-3 gives residuals near 1e-9."""
    return 3e-3 * min(1.0, 1.0 / _kappa_scale(rep))


def _kappa_scale(rep):
    if rep.principal_curvatures is not None:
        scale = float(np.max(np.abs(rep.principal_curvatures)))
    else:
        m = rep.second_form.shape[0]
        scale = float(np.max(np.abs(rep.second_form))) * m
    return max(scale, 1e-12)


def trace_slices(im, specs, radius, samples_per_dim=8):
    """Trace S = Sigma intersected with the slice plane around q for specs
    of one s; ``radius`` is one or one per spec.

    Returns an iterator over each spec's SliceResult or error, in order.
    The specs are traced a block of up to BATCH_SAMPLES samples at a time,
    one Newton batch per radius tried, when the first result of the block
    is asked for: a caller that uses each result as it comes holds one
    block of samples.  Specs with over 20% of their grid failed go again at
    half their radius (up to 4 times); one that fails all five radii gets
    NewtonDiverged.
    """
    if not im.ambient.is_constant:
        raise UnsupportedAmbient(
            "slice tracing is implemented for flat ambients")
    specs = list(specs)
    if np.ndim(radius) == 0:
        radius = [radius] * len(specs)
    radii = [float(r) for _sp, r in zip(specs, radius, strict=True)]
    if not specs:
        return iter(())
    g, s = im.ambient.metric_at(specs[0].q), specs[0].s     # flat: one g
    spans = np.stack([np.concatenate([sp.tangent_directions, sp.report.normal_frame])
                      for sp in specs])
    got = hold(complement_basis, spans, g)
    # a stack that raises is built again spec by spec: each has its own error
    comps = (got[0] if not isinstance(got, Exception)
             else [hold(build_slice, im, sp) for sp in specs])
    # the rows that give a sample's (t, w) from its offset x - q
    tw_rows = spans * np.array([[1.0] * s + list(sp.report.normal_signs)
                                for sp in specs])[..., None] @ g
    size = len(_ball_grid(s, 1.0, samples_per_dim))
    grids = {}          # radius -> ball grid, shared by the blocks
    return (res for block in _blocks(list(zip(specs, radii, comps, tw_rows)), size)
            for res in _trace_block(im, *zip(*block), samples_per_dim, grids))


def _trace_block(im, specs, radii, comps, tw_rows, samples_per_dim, grids):
    """The SliceResult or error of each spec from its radius, complement (or
    its error) and (t, w) rows (see trace_slices); ``grids`` maps radii to ball grids."""
    g, s = im.ambient.metric_at(specs[0].q), specs[0].s
    out, steps, last = list(comps), np.zeros(len(specs), int), {}
    todo = [k for k, c in enumerate(comps) if not isinstance(c, Exception)]
    for attempt in range(5):
        if not todo:
            break
        live = [specs[k] for k in todo]
        r = [radii[k] * 0.5 ** attempt for k in todo]
        for rad in set(r) - set(grids):
            grids[rad] = _ball_grid(s, rad, samples_per_dim)
        sizes = np.array([len(grids[rad]) for rad in r])
        starts = np.cumsum(sizes) - sizes
        pick = np.repeat(np.arange(len(todo)), sizes)
        rows = np.stack([np.concatenate([comps[k], specs[k].tangent_directions])
                         for k in todo]) @ g
        pulls = (np.stack([sp.coords for sp in live])       # (L, s, m)
                 @ np.stack([sp.report.tangent_params for sp in live]))
        q_params = np.stack([sp.q_param for sp in live])
        seeds = np.empty((len(pick), im.param_dim))
        qs = np.stack([sp.q for sp in live])[pick]
        targets = np.concatenate([grids[rad] for rad in r])
        for rad in set(r):      # the specs at one radius share its grid
            on = np.flatnonzero(np.array(r) == rad)
            seeds[starts[on, None] + np.arange(len(grids[rad]))] = (
                q_params[on, None] + grids[rad] @ pulls[on])
        u, x, fnorm, retired, took, good = _newton_trace(
            im, rows[pick], qs,
            np.concatenate([np.zeros((len(pick), im.param_dim - s)), targets], axis=1),
            seeds)
        # per spec: failures, failures by reason, most Newton steps of a sample
        reasons = np.bincount(pick[~good] * 3 + retired[~good],
                              minlength=3 * len(todo)).reshape(-1, 3)
        failed = reasons.sum(axis=1)
        steps[todo] += np.maximum.reduceat(took, starts)
        # the converged samples, spec after spec
        u, x, fnorm, pick = u[good], x[good], fnorm[good], pick[good]
        tw = (np.array(tw_rows)[todo][pick] @ (x - qs[good])[..., None])[..., 0]
        ends = np.cumsum(np.bincount(pick, minlength=len(todo)))
        batch, todo = todo, []
        for j, (k, sp, rad) in enumerate(zip(batch, live, r)):
            if failed[j] > MAX_FAIL_FRACTION * sizes[j]:
                todo.append(k)
                last[k] = int(failed[j]), int(sizes[j])
                continue
            lo, hi = ends[j - 1] if j else 0, ends[j]
            out[k] = SliceResult(
                spec=sp, complement=comps[k], params=u[lo:hi], points=x[lo:hi],
                t=tw[lo:hi, :s], w=tw[lo:hi, s:], radius=rad,
                residuals=fnorm[lo:hi], failures=int(failed[j]),
                provenance={"samples_per_dim": samples_per_dim,
                            "requested_radius": float(radii[k]),
                            "radius_halvings": attempt,
                            "newton_iterations": int(steps[k]),
                            "failures_by_reason": dict(zip(
                                ("not-converged", "singular", "left-domain"),
                                reasons[j].tolist())),
                            "newton_converged_tol": NEWTON_CONVERGED,
                            "newton_accept_tol": NEWTON_ACCEPT})
    for k in todo:
        out[k] = NewtonDiverged("slice tracing failed to converge",
                                failures=last[k][0], grid=last[k][1],
                                radius=float(radii[k]))
    return out


def trace_slice(im, spec, radius, samples_per_dim=8):
    """The one-spec trace_slices; raises the spec's error."""
    return release(next(trace_slices(im, [spec], radius, samples_per_dim)))


@functools.cache
def _monomials(s):
    """The (degree, count) index tables of the quadratic (np.triu_indices(s)),
    cubic and quartic monomials in s coordinates, in lexicographic order."""
    return tuple(np.array(list(itertools.combinations_with_replacement(range(s), d))).T
                 for d in (2, 3, 4))


def _poly_columns(t_hat, s):
    """The quadratic monomials t_i t_j, i <= j, then the cubic and quartic ones."""
    return np.concatenate([t_hat[..., idx].prod(axis=-2) for idx in _monomials(s)],
                          axis=-1)


def slice_shapes(results):
    """Fill slice_II, slice_H and the identity residual of every result by
    local least squares: stacked QR solves over results of one (s, sample
    count), up to BATCH_SAMPLES samples each.

    Model per transverse direction: w = sum quadratic + cubic + quartic
    monomials in the tangent coordinates; only the quadratic block is read
    off, and the quartic one keeps the graph's quartic term out of it.  The
    identity residual is the max entrywise gap between the fitted slice II
    and the restricted surface II at q (the Gauss formula, run as a test).
    Returns each result, or its fit's error; held errors pass through."""
    out, groups = list(results), {}
    for k, res in enumerate(out):
        if not isinstance(res, Exception):          # a held error passes
            groups.setdefault((res.spec.s,) + res.w.shape, []).append(k)
    for (s, count, n), idx in [(key, b) for key, group in groups.items()
                               for b in _blocks(group, key[1])]:
        k_min = sum(cols.shape[1] for cols in _monomials(s))     # one sample per column
        if count < k_min:
            for k in idx:
                out[k] = DegenerateFit("too few slice samples for the polynomial fit",
                                       needed=k_min, got=count)
            continue
        group = [out[k] for k in idx]
        rho = np.array([max(res.radius, 1e-300) for res in group])
        t_hat = np.stack([res.t for res in group]) / rho[:, None, None]
        # QR, not the normal equations (they square the condition); cond(R) = cond(design)
        q_fac, r_fac = np.linalg.qr(_poly_columns(t_hat, s))
        with np.errstate(over="ignore"):        # a collapsed quartic block: inf
            cond2 = np.linalg.cond(r_fac) ** 2
        fit = cond2 <= 1e10
        w = np.stack([res.w for res in group])[fit]
        coeff = np.linalg.solve(r_fac[fit], q_fac[fit].mT @ w) / rho[fit, None, None] ** 2
        q_mat, (i, j) = np.zeros((len(coeff), s, s, n)), _monomials(s)[0]
        q_mat[:, i, j] = q_mat[:, j, i] = coeff[:, :len(i)] * (1.0 + (i == j))[:, None]
        # the surface II at q restricted to each slice's directions
        a = np.stack([res.spec.coords for res in group])[fit]
        second = np.stack([res.spec.report.second_form for res in group])[fit]
        restricted = np.einsum("gip,gpqa,gjq->gija", a, second, a)
        gap = np.abs(q_mat - restricted).max(axis=(1, 2, 3))
        fitted = zip(q_mat, np.trace(q_mat, axis1=1, axis2=2) / s, gap)
        for k, res, c2 in zip(idx, group, cond2):
            if not c2 <= 1e10:
                out[k] = IllConditionedFit(
                    "polynomial fit normal equations ill conditioned", cond=float(c2))
                continue
            res.slice_II, res.slice_H_coeff, gap_k = next(fitted)
            res.slice_H = res.slice_H_coeff @ res.spec.report.normal_frame
            res.identity_residual = float(gap_k)
    return out


def slice_shape(result):
    """The one-result slice_shapes; raises the fit's error."""
    return release(slice_shapes([result])[0])


def identity_check(im, result):
    """The identity residual of ``result`` (see slice_shapes)."""
    if result.identity_residual is None:
        slice_shape(result)
    return result.identity_residual


def _lstsq(a, b):
    """np.linalg.lstsq(a, b, rcond=None) over stacks: the minimum-norm
    solutions and the ranks."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    big = sv > np.finfo(float).eps * max(a.shape[-2:]) * sv[..., :1]
    coef = np.divide((u.mT @ b[..., None])[..., 0], sv, out=np.zeros_like(sv),
                     where=big)
    return (vt.mT @ coef[..., None])[..., 0], big.sum(axis=-1)


def fit_quadrics(clouds, lorentzian):
    """Best-fit quadric eps <p - c, p - c> = r^2 of each point cloud (K, N):
    a sphere (eps = +1, Euclidean form) or a hyperbolic space (eps = -1,
    Lorentz form with the timelike coordinate last).

    Each fit runs inside its cloud's affine hull (a slice sample cloud is
    always in a proper one); off-hull deviation enters the rms.  An
    algebraic fit, linear in (c, r^2 - eps <c, c>), is refined by one
    Gauss-Newton pass on the geometric residual.  Clouds of one size and
    hull dimension are fitted as one stack.  Returns each cloud's
    (center, radius, rms_residual), or its error; held errors pass through.
    """
    kind = "hyperbolic" if lorentzian else "sphere"
    out, sizes = list(clouds), {}
    for i, pts in enumerate(out):
        if not isinstance(pts, Exception):          # a held error passes
            out[i] = np.asarray(pts, dtype=float)
            sizes.setdefault(out[i].shape, []).append(i)
    for idx in sizes.values():
        if len(out[idx[0]]) < 5:
            for i in idx:
                out[i] = DegenerateFit(f"{kind} fit needs at least 5 points",
                                       got=len(out[i]))
            continue
        pts = np.stack([out[i] for i in idx])
        mean = pts.mean(axis=1)
        x = pts - mean[:, None]
        _, sv, vt = np.linalg.svd(x, full_matrices=False)
        dims = np.sum(sv > 1e-8 * np.maximum(1.0, sv[:, :1]), axis=1)
        for k in sorted(set(dims.tolist())):
            sel = np.flatnonzero(dims == k)
            fits = ([FlatSlice("points are affinely dependent", hull_dim=int(k))
                     for _j in sel] if k < 2 else
                    _fit_in_hulls(x[sel], vt[sel, :k], lorentzian, kind))
            for j, fit in zip(sel, fits):
                out[idx[j]] = fit if isinstance(fit, Exception) else (
                    mean[j] + fit[0], fit[1], fit[2])
    return out


def _fit_in_hulls(x, basis, lorentzian, kind):
    """The fits of fit_quadrics for centred clouds x (G, K, N) with hull
    bases (G, k, N): (center offset, radius, rms) or the error of each; a
    cloud's first failed check is its error."""
    errors, ok = [None] * len(x), np.ones(len(x), dtype=bool)

    def fail(mask, error):
        for j in np.flatnonzero(mask & ok):
            errors[j] = error(j)
        ok[mask] = False

    k = basis.shape[1]
    sig, eps = np.ones(k), 1.0
    y = x @ basis.mT
    off = np.linalg.norm(x - y @ basis, axis=2)
    if lorentzian:
        # Lorentz-orthonormal hull basis, timelike last; the hull must be Lorentzian
        sig[-1] = eps = -1.0
        eta = np.ones(x.shape[2])
        eta[-1] = -1.0
        vals, vecs = np.linalg.eigh(basis * eta @ basis.mT)
        size = np.abs(vals[:, ::-1])                # descending: timelike last
        fail(size.min(axis=1) < 1e-10 * np.maximum(1.0, size.max(axis=1)),
             lambda j: DegenerateSubspace("slice hull is a degenerate subspace"))
        negatives = np.sum(vals < 0, axis=1)
        fail(negatives != 1, lambda j: WrongCausalType(
            "slice hull is not Lorentzian; no hyperbolic space fits it",
            negatives=int(negatives[j])))
        scale = np.sqrt(np.where(ok[:, None], size, 1.0))[:, None]
        basis = (vecs[..., ::-1] / scale).mT @ basis
        y = (x * eta) @ basis.mT * sig

    def form(a, b):
        return np.sum(a * sig * b, axis=-1)

    a_mat = np.concatenate([2.0 * y * sig, np.ones(y.shape[:2] + (1,))], axis=2)
    sol, rank = _lstsq(a_mat, form(y, y))
    fail(rank < k + 1, lambda j: DegenerateFit(f"{kind} design matrix is rank deficient"))
    c = sol[:, :k]
    r2 = eps * (sol[:, k] + form(c, c))
    fail(r2 <= 0, lambda j: WrongCausalType(
        "best-fit quadric is de Sitter-like, not hyperbolic", r2=float(r2[j]))
        if lorentzian else DegenerateFit("algebraic sphere fit has nonpositive radius"))
    r = np.sqrt(np.abs(r2))

    # one Gauss-Newton pass on the geometric residual sqrt(eps <y-c, y-c>) - r
    d = y - c[:, None]
    sq = eps * form(d, d)
    step = ok & np.all(sq > 1e-14, axis=1)
    if step.any():
        dist = np.sqrt(sq[step])
        jac = np.concatenate([-eps * sig * d[step] / dist[..., None],
                              -np.ones(dist.shape + (1,))], axis=2)
        upd = _lstsq(jac, r[step, None] - dist)[0]
        c[step] += upd[:, :k]
        r[step] += upd[:, k]
        d = y - c[:, None]
        sq = eps * form(d, d)
    fail(~(np.abs(r) <= 1e6), lambda j: FlatSlice(
        f"{kind} radius estimate diverged", radius=float(r[j])))
    if lorentzian:
        time_side = y[..., -1] - c[:, None, -1]
        fail(~(np.all(time_side > 0, axis=1) | np.all(time_side < 0, axis=1)),
             lambda j: WrongCausalType("samples straddle both sheets of the quadric"))
    rr = r[:, None]
    geo = np.where(sq > 1e-14, np.sqrt(np.maximum(sq, 0.0)) - rr,
                   np.abs(sq - rr * rr) / (2.0 * np.maximum(rr, 1e-14)))
    rms = np.sqrt(np.mean(geo ** 2 + off ** 2, axis=1))
    centers = (c[:, None] @ basis)[:, 0]
    return [errors[j] or (centers[j], float(r[j]), float(rms[j]))
            for j in range(len(x))]


def fit_sphere(points):
    """Best-fit hypersphere: the one-cloud fit_quadrics."""
    return release(fit_quadrics([points], lorentzian=False)[0])


def fit_hyperbolic(points):
    """Best-fit hyperbolic space <p - c, p - c>_L = -r^2 (timelike last):
    the one-cloud fit_quadrics."""
    return release(fit_quadrics([points], lorentzian=True)[0])
