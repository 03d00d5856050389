"""Totally-geodesic-at-a-point normal slices of immersed submanifolds.

A slice plane through q spans the full normal space of the immersion plus
a chosen set of tangent directions.  The intersection curve/surface is
traced by Newton continuation from tangent-plane seeds, its second
fundamental form is recovered by a local quadratic fit (with cubic guard
terms), and sphere / hyperbolic-space models are fitted to the samples.

Slicing runs in flat ambients.  When the surface lies on a central
quadric whose radial direction is normal to it (sphere, hyperboloid
model), the same planes pass through the center, so they are exactly the
central linear sections that are totally geodesic in the quadric.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateFit, DegenerateSubspace, IllConditionedFit,
                     NewtonDiverged, UnsupportedAmbient, WrongCausalType)
from .frames import complement_basis
from .immersion import ShapeReport

FLAT_AFFINE = "flat-affine"
QUADRIC_CENTRAL = "quadric-central-section"

NEWTON_MAX_ITER = 50
NEWTON_CONVERGED = 1e-12
NEWTON_ACCEPT = 1e-10
MAX_FAIL_FRACTION = 0.20


@dataclass
class SliceSpec:
    """A normal slice request at q: tangent directions plus the normals.

    ``report`` is the ShapeReport at q; its frames and II are the ones the
    slice is built from and compared against.
    """

    report: ShapeReport
    tangent_directions: np.ndarray      # (s, N), g-orthonormal, tangent at q
    ambient_mode: str = FLAT_AFFINE

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
            "ambient_mode": self.ambient_mode,
        }


@dataclass
class SlicePlane:
    """Orthonormal description of the slice subspace."""

    point: np.ndarray
    tangent: np.ndarray        # (s, N)
    normal: np.ndarray         # (n, N)
    normal_signs: list
    complement: np.ndarray     # (m - s, N): g-orthocomplement of the plane
    complement_signs: list


@dataclass
class SliceResult:
    spec: SliceSpec
    plane: SlicePlane
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
        if self.fit_sphere is not None:
            c, r, rms = self.fit_sphere
            d["fit_sphere"] = {"center": c.tolist(), "radius": float(r), "rms": float(rms)}
        if self.fit_hyperbolic is not None:
            c, r, rms = self.fit_hyperbolic
            d["fit_hyperbolic"] = {"center": c.tolist(), "radius": float(r), "rms": float(rms)}
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


def make_slice_spec(im, rep, directions, mode=FLAT_AFFINE):
    """Validated SliceSpec from ambient tangent directions at the point of
    ``rep``, the immersion's ShapeReport there."""
    g = im.ambient.metric_at(rep.p)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    gram = dirs @ g @ dirs.T
    if np.max(np.abs(gram - np.eye(dirs.shape[0]))) > 1e-10:
        raise DegenerateSubspace("tangent directions are not g-orthonormal")
    for d in dirs:
        for nu in rep.normal_frame:
            if abs(float(d @ g @ nu)) > 1e-8:
                raise DegenerateSubspace(
                    "direction is not tangent to the immersion at q")
    s = dirs.shape[0]
    if s > im.param_dim:
        raise ValueError("more tangent directions than tangent dimensions")
    if s == im.param_dim and not im.ambient.is_constant:
        raise UnsupportedAmbient("s = m slices require a flat ambient")
    return SliceSpec(report=rep, tangent_directions=dirs, ambient_mode=mode)


def build_slice(im, spec):
    """Orthonormal plane description for the slice; flat ambients only."""
    if not im.ambient.is_constant:
        raise UnsupportedAmbient(
            "slice tracing is implemented for flat ambients")
    g = im.ambient.metric_at(spec.q)
    normal, normal_signs = spec.report.normal_frame, spec.report.normal_signs
    span = np.concatenate([spec.tangent_directions, normal], axis=0)
    if spec.ambient_mode == QUADRIC_CENTRAL:
        # central sections must contain the ray through the center
        coeff = np.array([sign * float(spec.q @ g @ v)
                          for v, sign in zip(normal, normal_signs)])
        radial = coeff @ normal
        tang_part = np.array([float(spec.q @ g @ v)
                              for v in spec.tangent_directions])
        rebuilt = radial + tang_part @ spec.tangent_directions
        if np.max(np.abs(rebuilt - spec.q)) > 1e-8:
            raise UnsupportedAmbient(
                "point is not on a central quadric with radial normal")
    m_minus_s = im.param_dim - spec.s
    if m_minus_s > 0:
        comp, comp_signs = complement_basis(span, g, dim=m_minus_s)
        comp = np.stack(comp)
    else:
        comp = np.zeros((0, im.ambient.dimension))
        comp_signs = []
    return SlicePlane(point=spec.q, tangent=spec.tangent_directions,
                      normal=normal, normal_signs=list(normal_signs),
                      complement=comp, complement_signs=list(comp_signs))


def _ball_grid(s, radius, samples_per_dim):
    axes = [np.linspace(-radius, radius, 2 * samples_per_dim + 1)
            for _ in range(s)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, s)
    return pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]


def _newton_trace(im, plane, targets, seeds):
    """Vectorized damped Newton on the slice constraint system."""
    g = im.ambient.metric_at(plane.point)
    crows = plane.complement @ g        # (m-s, N)
    trows = plane.tangent @ g           # (s, N)
    q = plane.point

    def residual(u, tgt):
        x = im.point(u)
        d = x - q
        return np.concatenate([d @ crows.T, d @ trows.T - tgt], axis=1), x

    u = seeds.copy()
    f, x = residual(u, targets)
    fnorm = np.max(np.abs(f), axis=1)
    active = np.array([im.in_domain(ui) for ui in u])
    for _ in range(NEWTON_MAX_ITER):
        live = active & (fnorm > NEWTON_CONVERGED)
        if not np.any(live):
            break
        idx = np.flatnonzero(live)
        jac = im.jacobian_at(u[idx])                     # (L, N, m)
        jf = np.concatenate([
            np.einsum("an,lnm->lam", crows, jac),
            np.einsum("an,lnm->lam", trows, jac)], axis=1)
        try:
            du = np.linalg.solve(jf, -f[idx][..., None])[..., 0]
        except np.linalg.LinAlgError:
            active[idx] = False
            break
        step = np.ones(idx.size)
        u_live, f_live, tgt = u[idx], fnorm[idx], targets[idx]
        new_u = u_live + du
        nf, _ = residual(new_u, tgt)
        n_norm = np.max(np.abs(nf), axis=1)
        for _damp in range(8):
            worse = n_norm > f_live
            if not np.any(worse):
                break
            step[worse] *= 0.5
            new_u = u_live + du * step[:, None]
            nf, _ = residual(new_u, tgt)
            n_norm = np.max(np.abs(nf), axis=1)
        u[idx] = new_u
        in_dom = np.array([im.in_domain(ui) for ui in new_u])
        active[idx[~in_dom]] = False
        f, x = residual(u, targets)
        fnorm = np.max(np.abs(f), axis=1)
    good = active & (fnorm <= NEWTON_ACCEPT)
    return u, x, fnorm, good


def default_trace_radius(rep):
    """Ledger default: 0.5 min(1, 1/max|kappa|) from the local shape."""
    return 0.5 * min(1.0, 1.0 / _kappa_scale(rep))


def taylor_trace_radius(rep):
    """Small window for Taylor-accurate quadric fits.

    The quadratic+cubic model has an O(radius^2) even-order bias (the
    quartic term of the slice graph leaks into the recovered Hessian), so
    comparisons against analytic second fundamental forms at 1e-5
    tolerance need a window of order 1e-3.
    """
    return 1e-3 * min(1.0, 1.0 / _kappa_scale(rep))


def _kappa_scale(rep):
    if rep.principal_curvatures is not None:
        scale = float(np.max(np.abs(rep.principal_curvatures)))
    else:
        m = rep.second_form.shape[0]
        scale = float(np.max(np.abs(rep.second_form))) * m
    return max(scale, 1e-12)


def trace_slice(im, spec, radius=None, samples_per_dim=8):
    """Trace S = Sigma intersected with the slice plane around q.

    Retries with a halved radius (up to 4 times) when more than 20% of
    the grid fails to converge; raises NewtonDiverged if all radii fail.
    """
    plane = build_slice(im, spec)
    if radius is None:
        radius = default_trace_radius(spec.report)
    g = im.ambient.metric_at(spec.q)
    jac_q = im.jacobian_at(spec.q_param)
    pull, *_ = np.linalg.lstsq(jac_q, spec.tangent_directions.T, rcond=None)

    last_fail = None
    for attempt in range(5):
        r = radius * 0.5 ** attempt
        targets = _ball_grid(spec.s, r, samples_per_dim)
        seeds = spec.q_param[None, :] + targets @ pull.T
        u, x, fnorm, good = _newton_trace(im, plane, targets, seeds)
        failures = int(np.sum(~good))
        if failures <= MAX_FAIL_FRACTION * targets.shape[0]:
            d = x[good] - spec.q
            t_coords = d @ (plane.tangent @ g).T
            w_coords = (d @ (plane.normal @ g).T) * np.asarray(
                plane.normal_signs, dtype=float)[None, :]
            return SliceResult(
                spec=spec, plane=plane, params=u[good], points=x[good],
                t=t_coords, w=w_coords, radius=r, residuals=fnorm[good],
                failures=failures,
                provenance={"derivative_rung": im.derivative_rung,
                            "samples_per_dim": samples_per_dim,
                            "requested_radius": float(radius),
                            "radius_halvings": attempt,
                            "newton_converged_tol": NEWTON_CONVERGED,
                            "newton_accept_tol": NEWTON_ACCEPT})
        last_fail = failures, targets.shape[0]
    raise NewtonDiverged("slice tracing failed to converge",
                         failures=last_fail[0], grid=last_fail[1],
                         radius=radius)


def _poly_columns(t_hat, s):
    cols, names = [], []
    for i in range(s):
        for j in range(i, s):
            cols.append(t_hat[:, i] * t_hat[:, j])
            names.append(("q", i, j))
    for i in range(s):
        for j in range(i, s):
            for k in range(j, s):
                cols.append(t_hat[:, i] * t_hat[:, j] * t_hat[:, k])
                names.append(("c", i, j, k))
    return np.stack(cols, axis=1), names


def slice_shape(result):
    """Fill slice_II and slice_H by local least squares on the samples.

    Model per transverse direction: w = sum quadratic + cubic monomials
    in the tangent coordinates; only the quadratic block is read off.
    """
    s = result.spec.s
    n = result.plane.normal.shape[0]
    k_min = (s + 1) * (s + 2) // 2 + s
    if result.points.shape[0] < k_min:
        raise DegenerateFit("too few slice samples for the quadratic fit",
                            needed=k_min, got=int(result.points.shape[0]))
    rho = max(result.radius, 1e-300)
    t_hat = result.t / rho
    design, names = _poly_columns(t_hat, s)
    cond = np.linalg.cond(design)
    if cond ** 2 > 1e10:
        raise IllConditionedFit("quadratic fit normal equations ill conditioned",
                                cond=float(cond ** 2))
    coeff, *_ = np.linalg.lstsq(design, result.w, rcond=None)

    q_mat = np.zeros((s, s, n))
    for row, name in enumerate(names):
        if name[0] != "q":
            continue
        _, i, j = name
        c = coeff[row] / rho ** 2
        if i == j:
            q_mat[i, i, :] = 2.0 * c
        else:
            q_mat[i, j, :] = c
            q_mat[j, i, :] = c
    h_coeff = np.array([np.trace(q_mat[:, :, a]) / s for a in range(n)])
    result.slice_II = q_mat
    result.slice_H_coeff = h_coeff
    result.slice_H = h_coeff @ result.plane.normal
    return result


def identity_check(im, result):
    """Max entrywise gap between the fitted slice II and the restricted
    ambient-surface II at q (the Gauss-formula comparison, run as a test)."""
    if result.slice_II is None:
        slice_shape(result)
    rep = result.spec.report
    g = im.ambient.metric_at(rep.p)
    # coordinates of the slice tangent directions in the surface frame
    a = result.spec.tangent_directions @ g @ rep.tangent_frame.T   # (s, m)
    restricted = np.einsum("ip,pqa,jq->ija", a, rep.second_form, a)
    residual = float(np.max(np.abs(result.slice_II - restricted)))
    result.identity_residual = residual
    return residual


def _affine_hull(points, svtol=1e-8):
    pts = np.asarray(points, dtype=float)
    mean = pts.mean(axis=0)
    x = pts - mean
    _, sv, vt = np.linalg.svd(x, full_matrices=False)
    scale = max(1.0, float(sv[0]) if sv.size else 1.0)
    dim = int(np.sum(sv > svtol * scale))
    basis = vt[:dim]
    off = x - (x @ basis.T) @ basis
    return mean, basis, x @ basis.T, np.linalg.norm(off, axis=1)


def fit_sphere(points, signature=None):
    """Best-fit hypersphere: algebraic fit plus one geometric refinement.

    Points lying in a proper affine subspace are fitted inside their hull
    (a slice sample cloud always is); off-hull deviation enters the rms.
    Returns (center, radius, rms_residual).
    """
    if signature is not None and signature.index != 0:
        raise ValueError("fit_sphere expects a Euclidean signature")
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 5:
        raise DegenerateFit("sphere fit needs at least 5 points",
                            got=int(pts.shape[0]))
    mean, basis, y, off = _affine_hull(pts)
    k = basis.shape[0]
    if k < 2:
        raise DegenerateFit("points are affinely dependent", hull_dim=k)
    a = np.concatenate([2.0 * y, np.ones((y.shape[0], 1))], axis=1)
    rhs = np.sum(y * y, axis=1)
    sol, _res, rank, _sv = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < k + 1:
        raise DegenerateFit("sphere design matrix is rank deficient")
    c = sol[:k]
    r2 = sol[k] + c @ c
    if r2 <= 0:
        raise DegenerateFit("algebraic sphere fit has nonpositive radius")
    r = float(np.sqrt(r2))

    # one Gauss-Newton pass on the geometric residual
    d = y - c
    dist = np.linalg.norm(d, axis=1)
    if np.min(dist) > 1e-14:
        res = dist - r
        jac = np.concatenate([-d / dist[:, None], -np.ones((y.shape[0], 1))], axis=1)
        upd, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        c = c + upd[:k]
        r = r + float(upd[k])
        dist = np.linalg.norm(y - c, axis=1)
    if not np.isfinite(r) or abs(r) > 1e6:
        raise DegenerateFit("sphere radius estimate diverged", radius=float(r))
    rms = float(np.sqrt(np.mean((dist - r) ** 2 + off ** 2)))
    center = mean + c @ basis
    return center, float(r), rms


def fit_hyperbolic(points, svtol=1e-8):
    """Best-fit hyperbolic space <p - c, p - c>_L = -r^2 (timelike last).

    Same algebraic-then-geometric scheme as the sphere fit, run inside
    the samples' affine hull with the restricted Lorentz form; residuals
    are measured in the Lorentz quadratic form.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 5:
        raise DegenerateFit("hyperbolic fit needs at least 5 points",
                            got=int(pts.shape[0]))
    n_amb = pts.shape[1]
    eta = np.ones(n_amb)
    eta[-1] = -1.0
    mean, basis, _ycoords, off = _affine_hull(pts, svtol=svtol)
    k = basis.shape[0]
    if k < 2:
        raise DegenerateFit("points are affinely dependent", hull_dim=k)
    gram = basis @ np.diag(eta) @ basis.T
    vals, vecs = np.linalg.eigh(gram)
    if np.min(np.abs(vals)) < 1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise DegenerateSubspace("slice hull is a degenerate subspace")
    if int(np.sum(vals < 0)) != 1:
        raise WrongCausalType(
            "slice hull is not Lorentzian; no hyperbolic space fits it",
            negatives=int(np.sum(vals < 0)))
    order = np.argsort(-vals)          # spacelike first, timelike last
    w_basis = (vecs[:, order] / np.sqrt(np.abs(vals[order]))[None, :]).T @ basis
    signs = np.ones(k)
    signs[-1] = -1.0
    x = pts - mean
    y = (x * eta[None, :]) @ w_basis.T * signs[None, :]

    lor = lambda a, b: np.sum(a * signs * b, axis=-1)
    a_mat = np.concatenate([2.0 * y * signs[None, :],
                            np.ones((y.shape[0], 1))], axis=1)
    rhs = lor(y, y)
    sol, _res, rank, _sv = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if rank < k + 1:
        raise DegenerateFit("hyperbolic design matrix is rank deficient")
    c = sol[:k]
    r2 = -float(c @ (signs * c)) - float(sol[k])
    if r2 <= 0:
        raise WrongCausalType(
            "best-fit quadric is de Sitter-like, not hyperbolic", r2=r2)
    r = float(np.sqrt(r2))

    s_val = -lor(y - c, y - c)
    if np.all(s_val > 1e-14):
        res = np.sqrt(s_val) - r
        jac_c = (y - c) * signs[None, :] / np.sqrt(s_val)[:, None]
        jac = np.concatenate([jac_c, -np.ones((y.shape[0], 1))], axis=1)
        upd, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        c = c + upd[:k]
        r = r + float(upd[k])
        s_val = -lor(y - c, y - c)
    if not np.isfinite(r) or abs(r) > 1e6:
        raise DegenerateFit("hyperbolic radius estimate diverged", radius=float(r))
    time_side = y[:, -1] - c[-1]
    if not (np.all(time_side > 0) or np.all(time_side < 0)):
        raise WrongCausalType("samples straddle both sheets of the quadric")
    geo = np.where(s_val > 1e-14, np.sqrt(np.maximum(s_val, 0.0)) - r,
                   np.abs(s_val - r * r) / (2.0 * max(r, 1e-14)))
    rms = float(np.sqrt(np.mean(geo ** 2 + off ** 2)))
    center = mean + c @ w_basis
    return center, float(r), rms
