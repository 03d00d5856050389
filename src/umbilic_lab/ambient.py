"""Ambient (pseudo-)Riemannian spaces given by coordinate metric evaluators.

Provides Christoffel symbols, the curvature tensor, sectional curvature,
geodesics and exponential-map patches, plus the constant-curvature audit
machinery (orthonormal-triple obstruction and sectional spread, and the
two rotated-frame K-difference identities).

Curvature conventions, fixed once against the round sphere:
    R(X,Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z
    lowered[i,j,k,l] = g( R(e_i,e_j) e_l , e_k )
    K(u,v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2)
so the unit sphere has K = +1 and the hyperboloid model K = -1.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalCharacterMismatch, DegeneratePlane,
                     DegenerateSubspace, InvalidMetric, LeftDomain,
                     NonFiniteValue, SingularMetric)
from .frames import draw_pseudo_orthonormal

DET_TOL = 1e-12
PLANE_TOL = 1e-10


@dataclass(frozen=True)
class MetricSignature:
    """Dimension and index (0 Riemannian, 1 Lorentzian)."""

    dimension: int
    index: int = 0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.index not in (0, 1):
            raise ValueError("index must be 0 or 1")


class AmbientSpace:
    """A coordinate patch with a metric evaluator.

    ``metric`` is either a constant (N, N) array or a callable point ->
    (N, N) array.  A callable metric comes with its ``jet``: x -> (dg, ddg),
    the (N, N, N) array dg[i,j,k] = d g_ij / d x_k and the (N, N, N, N)
    array ddg[i,j,a,b] = d_a d_b g_ij, so curvature is exact.
    ``box`` is the trusted coordinate region; leaving it is an error, never
    an extrapolation.
    """

    def __init__(self, signature, metric, jet=None, box=None, sample_box=None,
                 name=""):
        self.signature = signature
        n = signature.dimension
        self._const_g = None
        if isinstance(metric, np.ndarray):
            self._const_g = np.asarray(metric, dtype=float)
            self._metric_fn = None
        else:
            self._metric_fn = metric
        self.jet = jet
        if box is None:
            box = np.array([[-50.0, 50.0]] * n)
        self.box = np.asarray(box, dtype=float)
        self.sample_box = self.box if sample_box is None else np.asarray(sample_box, dtype=float)
        self.name = name
        if self._const_g is not None:
            self._validate(self._const_g, np.zeros(n))

    @property
    def dimension(self):
        return self.signature.dimension

    @property
    def is_constant(self):
        """True when the metric is one constant matrix (a flat chart)."""
        return self._const_g is not None

    def _validate(self, g, x):
        if g.shape != (self.dimension, self.dimension):
            raise InvalidMetric("metric has wrong shape", shape=g.shape)
        scale = float(abs(g).max())
        if not math.isfinite(scale):        # an inf or a NaN entry
            raise NonFiniteValue("metric is not finite", point=list(x))
        if abs(g - g.T).max() > 1e-12 * max(1.0, scale):
            raise InvalidMetric("metric not symmetric", point=list(x))
        eig = np.linalg.eigvalsh(g)
        if abs(eig).min() < DET_TOL * max(1.0, float(abs(eig).max())):
            raise SingularMetric("metric degenerate", point=list(x))
        negatives = int(np.count_nonzero(eig < 0))
        if negatives != self.signature.index:
            raise InvalidMetric("metric signature mismatch",
                                point=list(x), negatives=negatives)

    def metric_at(self, x):
        if self._const_g is not None:
            return self._const_g
        g = np.asarray(self._metric_fn(np.asarray(x, dtype=float)), dtype=float)
        self._validate(g, np.asarray(x, dtype=float))
        return g

    def metric_jet_at(self, x):
        """(dg, ddg) at x from one ``jet`` evaluation, dg symmetrized in
        (i, j) and ddg in (i, j) and (a, b)."""
        return tuple(map(_symmetrized, self.jet(np.asarray(x, dtype=float))))

    def in_box(self, x):
        return bool(np.all(x >= self.box[:, 0] - 1e-9)
                    and np.all(x <= self.box[:, 1] + 1e-9))


def _symmetrized(d):
    """dg[i,j,k] or ddg[i,j,a,b] averaged over swapping (a, b), then (i, j)."""
    d = np.asarray(d, dtype=float)
    if d.ndim == 4:
        d = 0.5 * (d + d.transpose(0, 1, 3, 2))
    return 0.5 * (d + d.transpose(1, 0, *range(2, d.ndim)))


@dataclass
class CurvatureSample:
    """Metric, Christoffel symbols and lowered curvature at one point."""

    point: np.ndarray
    metric: np.ndarray          # g[i, j]
    christoffel: np.ndarray     # gamma[k, i, j]
    riemann_lowered: np.ndarray  # lowered[i, j, k, l] = g(R(e_i,e_j)e_l, e_k)


@dataclass
class CartanAuditReport:
    points: list
    max_codazzi_obstruction: float
    sectional_spread: float
    verdict: str                # ConstantCurvatureCompatible | Obstructed
    seed: int
    tolerances: dict
    per_point: list = field(default_factory=list)

    def to_dict(self):
        return {
            "schema_version": 1,
            "points": [list(map(float, p)) for p in self.points],
            "max_codazzi_obstruction": self.max_codazzi_obstruction,
            "sectional_spread": self.sectional_spread,
            "verdict": self.verdict,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "margins": {key: _margin(self.tolerances[key], value) for key, value in
                        (("codazzi", self.max_codazzi_obstruction),
                         ("spread", self.sectional_spread))},
            "per_point": self.per_point,
        }


def _margin(tol, value):
    """log10(tol / value), or None where that is not finite (a value of 0)."""
    ratio = tol / value if value else math.inf
    return math.log10(ratio) if 0.0 < ratio < math.inf else None


def _inverse(g, x):
    """g^-1; SingularMetric when max|g| max|g^-1| (|eigenvalue| max / min
    for a diagonal g) exceeds 1 / DET_TOL, a test relative to g's scale."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:       # exactly singular
        ginv = np.full_like(g, np.inf)
    cond = float(abs(g).max() * abs(ginv).max())
    if not cond * DET_TOL < 1.0:        # a NaN fails too
        raise SingularMetric("metric singular for its scale", cond=cond, point=list(x))
    return ginv


def christoffel(space, x, g=None, dg=None, ginv=None):
    """Levi-Civita connection coefficients gamma[k, i, j] at x; the metric
    ``g``, its derivative ``dg`` and its inverse ``ginv`` at x are
    evaluated unless passed."""
    x = np.asarray(x, dtype=float)
    n = space.dimension
    if g is None:
        g = space.metric_at(x)
    if space.is_constant:
        return np.zeros((n, n, n))
    if ginv is None:
        ginv = _inverse(g, x)
    if dg is None:
        dg = space.metric_jet_at(x)[0]
    # Gamma_l,ij = d_i g_jl + d_j g_il - d_l g_ij, up to the factor 1/2
    low = dg.transpose(1, 2, 0) + dg.transpose(1, 0, 2) - dg.transpose(2, 0, 1)
    gamma = 0.5 * (ginv @ low.reshape(n, -1)).reshape(n, n, n)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))


def riemann(space, x):
    """Curvature tensor at x as a CurvatureSample, with dGamma exact:
        d_m Gamma^k_ij = g^kl (d_m Gamma_l,ij - d_m g_la Gamma^a_ij),
        d_m Gamma_l,ij = (d_m d_i g_jl + d_m d_j g_il - d_m d_l g_ij) / 2.
    """
    x = np.asarray(x, dtype=float)
    n = space.dimension
    g = space.metric_at(x)
    if space.is_constant:
        gamma, dgamma = christoffel(space, x, g), np.zeros((n,) * 4)
    else:
        dg, ddg = space.metric_jet_at(x)
        ginv = _inverse(g, x)
        gamma = christoffel(space, x, g, dg, ginv)
        # d_m Gamma_l,ij - d_m g_la Gamma^a_ij, as dlow[l, i, j, m]
        dlow = 0.5 * (ddg.transpose(1, 2, 0, 3) + ddg.transpose(1, 0, 2, 3)
                      - ddg.transpose(2, 0, 1, 3))
        dlow -= (dg.transpose(0, 2, 1).reshape(n * n, n) @ gamma.reshape(n, -1)
                 ).reshape(n, n, n, n).transpose(0, 2, 3, 1)
        dgamma = (ginv @ dlow.reshape(n, -1)).reshape(n, n, n, n)
    # p[a, i, j, b] = Gamma^a_ip Gamma^p_jb
    p = (gamma.reshape(n * n, n) @ gamma.reshape(n, -1)).reshape(n, n, n, n)
    riem_up = (dgamma.transpose(0, 2, 3, 1)         # d_i gamma[a, j, b]
               - dgamma.transpose(0, 2, 1, 3)       # d_j gamma[a, i, b]
               + p.transpose(0, 3, 1, 2) - p.transpose(0, 3, 2, 1))
    low = (g @ riem_up.reshape(n, -1)).reshape(n, n, n, n).transpose(2, 3, 0, 1)
    return CurvatureSample(point=x, metric=g, christoffel=gamma,
                           riemann_lowered=low)


# the planes span{e_a, e_b}, a < b, of a 2- or 3-frame, np.triu_indices order
_PLANES = {k: np.triu_indices(k, 1) for k in (2, 3)}


def _frame_curvature(low, g, frames):
    """Curvature in each frame of ``frames`` (..., k, N): the components
    comp[..., a, b, c, d] = low(e_a, e_b, e_c, e_d), one batched contraction
    per index, and the sectional curvatures of the planes span{e_a, e_b},
    a < b, in np.triu_indices order; errors on light-like planes."""
    *lead, k, n = frames.shape
    comp = low.reshape(n, -1).mT @ frames.mT     # matmul broadcasts low
    for _ in range(3):      # contract the first index, append the frame's
        comp = comp.reshape(*lead, n, -1).mT @ frames.mT
    comp = comp.reshape(*lead, k, k, k, k)
    gram = frames @ g @ frames.mT
    a, b = _PLANES[k]
    q = gram[..., a, a] * gram[..., b, b] - gram[..., a, b] ** 2
    light = abs(q) < PLANE_TOL
    if light.any():
        raise DegeneratePlane("plane is light-like",
                              gram=float(np.extract(light, q)[0]))
    return comp, comp[..., a, b, a, b] / q


def sectional_curvature(space, x, u, v):
    """K of the plane span{u, v} at x; errors on light-like planes."""
    sample = riemann(space, x)
    return float(_frame_curvature(sample.riemann_lowered, sample.metric,
                                  np.array([u, v], dtype=float))[1][0])


def geodesic(space, p, v, t_end, steps=256):
    """Integrate the geodesic from (p, v) with classical fixed-step RK4.

    Returns a list of (t, point, velocity) of length steps + 1.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if steps < 16:
        raise ValueError("steps must be >= 16")
    if float(v @ v) == 0.0:
        raise ValueError("initial velocity must be nonzero")
    if not space.in_box(p):
        raise LeftDomain("initial point outside coordinate box", point=list(p))

    def accel(x, xdot):
        return -np.einsum("kij,i,j->k", christoffel(space, x), xdot, xdot)

    h = float(t_end) / steps
    path = [(0.0, p.copy(), v.copy())]
    x, xd = p.copy(), v.copy()
    for k in range(steps):
        k1x, k1v = xd, accel(x, xd)
        k2x, k2v = xd + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, xd + 0.5 * h * k1v)
        k3x, k3v = xd + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, xd + 0.5 * h * k2v)
        k4x, k4v = xd + h * k3v, accel(x + h * k3x, xd + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        xd = xd + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not space.in_box(x):
            raise LeftDomain("geodesic left the coordinate box",
                             point=list(x), t=(k + 1) * h)
        path.append(((k + 1) * h, x.copy(), xd.copy()))
    return path


def exp_map(space, p, v, steps=256):
    """Endpoint of the unit-time geodesic from (p, v)."""
    return geodesic(space, p, v, 1.0, steps=steps)[-1][1]


def tg_patch(space, p, basis, radius, grid=5, steps=128):
    """Exponential image of a coefficient-ball grid in span(basis).

    The restriction of g to span(basis) must be positive definite or
    Lorentzian; a degenerate restriction is an error, matching the
    spacelike-or-Lorentzian prescription for admissible tangent spaces.
    """
    p = np.asarray(p, dtype=float)
    basis = [np.asarray(b, dtype=float) for b in basis]
    mat = np.stack(basis)
    if np.linalg.matrix_rank(mat, tol=1e-10) < len(basis):
        raise DegenerateSubspace("basis vectors are linearly dependent")
    g = space.metric_at(p)
    gram = mat @ g @ mat.T
    eig = np.linalg.eigvalsh(gram)
    if np.min(np.abs(eig)) < PLANE_TOL * max(1.0, float(np.max(np.abs(eig)))):
        raise DegenerateSubspace("induced form on span(basis) is degenerate")
    if int(np.sum(eig < 0)) > 1:
        raise DegenerateSubspace("induced form has index > 1")

    s = len(basis)
    axes = [np.linspace(-radius, radius, grid) for _ in range(s)]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, s)
    coeffs = coeffs[np.linalg.norm(coeffs, axis=1) <= radius + 1e-12]
    points = []
    for c in coeffs:
        vec = sum(ci * bi for ci, bi in zip(c, basis))
        if np.all(vec == 0.0):
            points.append(p.copy())
        else:
            points.append(exp_map(space, p, vec, steps=steps))
    return np.asarray(points)


# comp[a, b, a, c] for the orderings (a, b, c) of a triple, flat in (3, 3, 3, 3)
_CODAZZI = np.array([30 * a + 9 * b + c
                     for a, b, c in itertools.permutations(range(3))])


def cartan_audit(space, points, triples_per_point=10, seed=0,
                 tol_codazzi=None, tol_spread=None):
    """Constant-curvature audit over sampled points and orthonormal triples.

    Deterministic for a given seed; point i uses rng seeded [seed, i + 1].
    """
    if triples_per_point < 10:
        raise ValueError("triples_per_point must be >= 10")
    tol_codazzi, tol_spread = (1e-6 if t is None else t for t in (tol_codazzi, tol_spread))

    if isinstance(points, (int, np.integer)):
        rng = np.random.default_rng([seed, 0])
        lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
        pts = [lo + rng.random(space.dimension) * (hi - lo) for _ in range(points)]
    else:
        pts = [np.asarray(p, dtype=float) for p in points]

    # causal characters the signature can hold; triple t takes pattern t % len
    n, index = space.dimension, space.signature.index
    patterns = [(1, 1, 1)] * (n - index >= 3) + [(1, 1, -1)] * (index >= 1 and n >= 3)
    if not patterns:
        raise DegenerateSubspace("dimension too small for orthonormal triples")
    rows = np.resize(patterns, (triples_per_point, 3))
    per_point = []
    for i, x in enumerate(pts):
        sample = riemann(space, x)
        triples = draw_pseudo_orthonormal(np.random.default_rng([seed, i + 1]),
                                          sample.metric, rows)
        comp, curvatures = _frame_curvature(sample.riemann_lowered,
                                            sample.metric, triples)
        # Codazzi obstruction: max |g(R(a,b)c, a)| over triples and assignments
        obstruction = abs(comp.reshape(triples_per_point, -1)[:, _CODAZZI]).max()
        per_point.append({"point": x.tolist(),
                          "codazzi_obstruction": float(obstruction),
                          "sectional_spread": float(curvatures.max()
                                                    - curvatures.min())})
    # np.max, unlike max, lets a NaN through to fail the verdict
    max_obstruction, max_spread = (
        float(np.max([p[key] for p in per_point], initial=0.0))
        for key in ("codazzi_obstruction", "sectional_spread"))

    compatible = max_obstruction <= tol_codazzi and max_spread <= tol_spread
    return CartanAuditReport(
        points=pts,
        max_codazzi_obstruction=max_obstruction,
        sectional_spread=max_spread,
        verdict="ConstantCurvatureCompatible" if compatible else "Obstructed",
        seed=seed,
        tolerances={"codazzi": tol_codazzi, "spread": tol_spread},
        per_point=per_point)


def k_difference_identity(space, x, triple, mode):
    """Both sides of the rotated-frame K-difference identity at x.

    mode "spacelike": all of (x, y, z) spacelike,
        y' = (y + z)/sqrt(2), z' = (y - z)/sqrt(2), rhs = 2 g(R(x,y')z',x).
    mode "mixed": x, y spacelike and z timelike,
        y' = sqrt(1/2) y + sqrt(3/2) z, z' = sqrt(3/2) y + sqrt(1/2) z,
        rhs = (2/sqrt(3)) g(R(x,y')z',x).
    Both sides vanish exactly in constant-curvature spaces.
    """
    mode = mode.lower()
    if mode not in ("spacelike", "mixed"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    sample = riemann(space, x)
    g, low = sample.metric, sample.riemann_lowered
    frame = np.array(triple, dtype=float)
    vx, vy, vz = frame
    gram = frame @ g @ frame.T
    eps = np.diag(gram)
    if (abs(abs(eps) - 1.0) > 1e-8).any():
        raise ValueError("triple is not g-orthonormal (bad norm)")
    if (abs(gram - np.diag(eps)) > 1e-8).any():
        raise ValueError("triple is not g-orthonormal (not orthogonal)")
    wanted = (1, 1, 1) if mode == "spacelike" else (1, 1, -1)
    got = tuple(1 if e > 0 else -1 for e in eps)
    if got != wanted:
        raise CausalCharacterMismatch(
            "triple causal characters do not match mode",
            mode=mode, characters=got)

    k_xy, k_xz, _k_yz = _frame_curvature(low, g, frame)[1]
    lhs = float(k_xy - k_xz)

    if mode == "spacelike":
        yp = (vy + vz) / np.sqrt(2.0)
        zp = (vy - vz) / np.sqrt(2.0)
        factor = 2.0
    else:
        yp = np.sqrt(0.5) * vy + np.sqrt(1.5) * vz
        zp = np.sqrt(1.5) * vy + np.sqrt(0.5) * vz
        factor = 2.0 / np.sqrt(3.0)
    rhs = factor * float(np.einsum("ijkl,i,j,k,l->", low, vx, yp, vx, zp))
    return lhs, rhs
