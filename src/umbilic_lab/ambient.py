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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalCharacterMismatch, DegeneratePlane,
                     DegenerateSubspace, InvalidMetric, LeftDomain,
                     NonFiniteValue, SingularMetric)
from .frames import draw_pseudo_orthonormal
from .numdiff import central_diff, central_diff4

DET_TOL = 1e-12
PLANE_TOL = 1e-10
FD_STEP = 1e-5          # central-difference step of a metric without dmetric


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
    (N, N) array.  ``metric_derivative``, when given, returns the (N, N, N)
    array dg[i,j,k] = d g_ij / d x_k, and ``metric_hessian`` the (N, N, N, N)
    array ddg[i,j,a,b] = d_a d_b g_ij; with both, curvature is exact.
    ``box`` is the trusted coordinate region; leaving it is an error, never
    an extrapolation.
    """

    def __init__(self, signature, metric, metric_derivative=None,
                 metric_hessian=None, box=None, sample_box=None, name=""):
        self.signature = signature
        n = signature.dimension
        self._const_g = None
        if isinstance(metric, np.ndarray):
            self._const_g = np.asarray(metric, dtype=float)
            self._metric_fn = None
        else:
            self._metric_fn = metric
        self.metric_derivative = metric_derivative
        self.metric_hessian = metric_hessian
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

    @property
    def has_analytic_derivative(self):
        return self._const_g is not None or self.metric_derivative is not None

    def _validate(self, g, x):
        if g.shape != (self.dimension, self.dimension):
            raise InvalidMetric("metric has wrong shape", shape=g.shape)
        scale = float(np.max(np.abs(g)))
        if not math.isfinite(scale):        # an inf or a NaN entry
            raise NonFiniteValue("metric is not finite", point=list(x))
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, scale):
            raise InvalidMetric("metric not symmetric", point=list(x))
        eig = np.linalg.eigvalsh(g)
        if np.min(np.abs(eig)) < DET_TOL * max(1.0, float(np.max(np.abs(eig)))):
            raise SingularMetric("metric degenerate", point=list(x))
        negatives = int(np.sum(eig < 0))
        if negatives != self.signature.index:
            raise InvalidMetric("metric signature mismatch",
                                point=list(x), negatives=negatives)

    def metric_at(self, x):
        if self._const_g is not None:
            return self._const_g
        g = np.asarray(self._metric_fn(np.asarray(x, dtype=float)), dtype=float)
        self._validate(g, np.asarray(x, dtype=float))
        return g

    def metric_derivative_at(self, x):
        if self._const_g is not None:
            n = self.dimension
            return np.zeros((n, n, n))
        if self.metric_derivative is not None:
            dg = np.asarray(self.metric_derivative(np.asarray(x, dtype=float)), dtype=float)
        else:
            dg = central_diff(self.metric_at, x, FD_STEP)
        return 0.5 * (dg + dg.transpose(1, 0, 2))

    def metric_hessian_at(self, x):
        """ddg[i,j,a,b] = d_a d_b g_ij, symmetrized in (i, j) and (a, b)."""
        ddg = np.asarray(self.metric_hessian(np.asarray(x, dtype=float)), dtype=float)
        ddg = 0.5 * (ddg + ddg.transpose(0, 1, 3, 2))
        return 0.5 * (ddg + ddg.transpose(1, 0, 2, 3))

    def inner(self, x, u, v):
        return float(u @ self.metric_at(x) @ v)

    def in_box(self, x):
        return bool(np.all(x >= self.box[:, 0] - 1e-9)
                    and np.all(x <= self.box[:, 1] + 1e-9))


@dataclass
class CurvatureSample:
    """Metric, Christoffel symbols and lowered curvature at one point."""

    point: np.ndarray
    metric: np.ndarray          # g[i, j]
    christoffel: np.ndarray     # gamma[k, i, j]
    riemann_lowered: np.ndarray  # lowered[i, j, k, l] = g(R(e_i,e_j)e_l, e_k)

    def symmetry_violations(self):
        r = self.riemann_lowered
        return {
            "antisym_first_pair": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
            "antisym_second_pair": float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
            "pair_symmetry": float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
            "first_bianchi": float(np.max(np.abs(
                r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)))),
        }


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
            "per_point": self.per_point,
        }


def christoffel(space, x, g=None, dg=None):
    """Levi-Civita connection coefficients gamma[k, i, j] at x; the metric
    ``g`` and its derivative ``dg`` at x are evaluated unless passed."""
    x = np.asarray(x, dtype=float)
    if g is None:
        g = space.metric_at(x)
    det = np.linalg.det(g)
    if abs(det) < DET_TOL:
        raise SingularMetric("metric determinant below threshold",
                             det=float(det), point=list(x))
    if space.is_constant:
        n = space.dimension
        return np.zeros((n, n, n))
    if dg is None:
        dg = space.metric_derivative_at(x)
    ginv = np.linalg.inv(g)
    b1 = np.transpose(dg, (1, 2, 0))   # b1[l,i,j] = dg[j,l,i]
    b2 = np.transpose(dg, (1, 0, 2))   # b2[l,i,j] = dg[i,l,j]
    b3 = np.transpose(dg, (2, 0, 1))   # b3[l,i,j] = dg[i,j,l]
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, b1 + b2 - b3)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))


def riemann(space, x):
    """Curvature tensor at x as a CurvatureSample.

    With a metric Hessian, dGamma is exact:
        d_m Gamma^k_ij = g^kl (d_m Gamma_l,ij - d_m g_la Gamma^a_ij),
        d_m Gamma_l,ij = (d_m d_i g_jl + d_m d_j g_il - d_m d_l g_ij) / 2.
    Else it is differenced, fourth order when first derivatives of g are
    exact, or with a larger step against finite-difference noise.
    """
    x = np.asarray(x, dtype=float)
    g = space.metric_at(x)
    dg = space.metric_derivative_at(x)
    gamma = christoffel(space, x, g, dg)
    if space.is_constant:
        low = np.zeros((space.dimension,) * 4)
    else:
        if space.metric_hessian is not None:
            ddg = space.metric_hessian_at(x)
            dlow = 0.5 * (np.transpose(ddg, (1, 2, 0, 3))     # d_m d_i g_jl
                          + np.transpose(ddg, (1, 0, 2, 3))   # d_m d_j g_il
                          - np.transpose(ddg, (2, 0, 1, 3)))  # d_m d_l g_ij
            dgamma = np.einsum("kl,lijm->kijm", np.linalg.inv(g),
                               dlow - np.einsum("lam,aij->lijm", dg, gamma))
        elif space.has_analytic_derivative:
            dgamma = central_diff4(lambda y: christoffel(space, y), x, 5e-4)
        else:
            dgamma = central_diff(lambda y: christoffel(space, y), x, 1e-3,
                                  scale_steps=True)
        term1 = np.transpose(dgamma, (0, 2, 3, 1))  # d_i gamma[a, j, b]
        term2 = np.transpose(dgamma, (0, 2, 1, 3))  # d_j gamma[a, i, b]
        term3 = np.einsum("aip,pjb->abij", gamma, gamma)
        term4 = np.einsum("ajp,pib->abij", gamma, gamma)
        riem_up = term1 - term2 + term3 - term4
        low = np.einsum("ka,alij->ijkl", g, riem_up)
    return CurvatureSample(point=x, metric=g, christoffel=gamma,
                           riemann_lowered=low)


def _frame_curvature(low, g, frames):
    """Curvature in each frame of ``frames`` (..., k, N): the components
    comp[..., a, b, c, d] = low(e_a, e_b, e_c, e_d), one batched contraction
    per index, and the sectional curvatures of the planes span{e_a, e_b},
    a < b, in np.triu_indices order; errors on light-like planes."""
    *lead, k, n = frames.shape
    comp = np.broadcast_to(low, (*lead, *low.shape))
    for _ in range(4):      # contract the first index, append the frame's
        comp = comp.reshape(*lead, n, -1).mT @ frames.mT
    comp = comp.reshape(*lead, k, k, k, k)
    gram = frames @ g @ frames.mT
    a, b = np.triu_indices(k, 1)
    q = gram[..., a, a] * gram[..., b, b] - gram[..., a, b] ** 2
    light = np.abs(q) < PLANE_TOL
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

    constant = space.is_constant

    def accel(x, xdot):
        if constant:
            return np.zeros_like(xdot)
        gamma = christoffel(space, x)
        return -np.einsum("kij,i,j->k", gamma, xdot, xdot)

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


# the ordered distinct assignments (a, b, c) of a triple's three vectors
_ASSIGNMENTS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                         (2, 0, 1), (2, 1, 0)])


def _audit_patterns(space):
    """Causal-character triples drawable in this signature."""
    n, index = space.dimension, space.signature.index
    patterns = []
    if n - index >= 3:
        patterns.append((1, 1, 1))
    if index >= 1 and n >= 3:
        patterns.append((1, 1, -1))
    if not patterns:
        raise DegenerateSubspace("dimension too small for orthonormal triples")
    return patterns


def cartan_audit(space, points, triples_per_point=10, seed=0,
                 tol_codazzi=None, tol_spread=None):
    """Constant-curvature audit over sampled points and orthonormal triples.

    Deterministic for a given seed; point i uses rng seeded [seed, i + 1].
    """
    if triples_per_point < 10:
        raise ValueError("triples_per_point must be >= 10")
    if tol_codazzi is None:
        tol_codazzi = 1e-6 if space.has_analytic_derivative else 1e-3
    if tol_spread is None:
        tol_spread = 1e-6 if space.has_analytic_derivative else 1e-3

    if isinstance(points, (int, np.integer)):
        rng = np.random.default_rng([seed, 0])
        lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
        pts = [lo + rng.random(space.dimension) * (hi - lo) for _ in range(points)]
    else:
        pts = [np.asarray(p, dtype=float) for p in points]

    patterns = _audit_patterns(space)
    rows = [patterns[t % len(patterns)] for t in range(triples_per_point)]
    a, b, c = _ASSIGNMENTS.T
    per_point = []
    for i, x in enumerate(pts):
        rng = np.random.default_rng([seed, i + 1])
        sample = riemann(space, x)
        triples = draw_pseudo_orthonormal(rng, sample.metric, rows)
        comp, curvatures = _frame_curvature(sample.riemann_lowered,
                                            sample.metric, triples)
        # Codazzi obstruction: max |g(R(a,b)c, a)| over triples and assignments
        obstruction = float(np.max(np.abs(comp[:, a, b, a, c])))
        per_point.append({"point": x.tolist(),
                          "codazzi_obstruction": obstruction,
                          "sectional_spread": float(np.max(curvatures)
                                                    - np.min(curvatures))})
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
    g = space.metric_at(x)
    vx, vy, vz = (np.asarray(t, dtype=float) for t in triple)

    eps = [float(v @ g @ v) for v in (vx, vy, vz)]
    for i, v in enumerate((vx, vy, vz)):
        if abs(abs(eps[i]) - 1.0) > 1e-8:
            raise ValueError("triple is not g-orthonormal (bad norm)")
    for a, b in ((vx, vy), (vx, vz), (vy, vz)):
        if abs(float(a @ g @ b)) > 1e-8:
            raise ValueError("triple is not g-orthonormal (not orthogonal)")
    wanted = (1, 1, 1) if mode == "spacelike" else (1, 1, -1)
    got = tuple(1 if e > 0 else -1 for e in eps)
    if got != wanted:
        raise CausalCharacterMismatch(
            "triple causal characters do not match mode",
            mode=mode, characters=got)

    low = riemann(space, x).riemann_lowered
    k_xy, k_xz, _k_yz = _frame_curvature(low, g, np.array([vx, vy, vz]))[1]
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
