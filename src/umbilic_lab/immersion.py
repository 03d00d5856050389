"""Parametrized isometric immersions and their extrinsic curvature data.

All frames are orthonormal with respect to the ambient metric; second
fundamental form entries are coefficients against the (pseudo-)orthonormal
normal frame, so in a Lorentzian ambient the timelike normal carries its
sign inside the coefficient, not the frame.
"""

from dataclasses import dataclass, field

import numpy as np

from .ambient import christoffel
from .errors import (DegenerateInducedMetric, LeftDomain, NonFiniteValue,
                     NonUnitDirection, RankDeficient)
from .frames import complement_basis, pseudo_gram_schmidt, unit_design
from .numdiff import hessian_fd, jacobian_fd

RANK_TOL = 1e-10
FD_STEP = 1e-5             # central-difference step of the Jacobian rungs
FD_HESSIAN_STEP = 3e-4     # second-difference step of the "fd" rung


class Immersion:
    """A map u in R^m -> R^N into an AmbientSpace, with derivative ladder.

    ``jacobian`` and ``hessian`` are optional analytic evaluators; absent
    ones fall back to central differences (the rung actually used is
    recorded on every ShapeReport).  ``orientation`` fixes the reported
    sign of hypersurface normals: one of None, "inward", "upward",
    "future", or a callable (u, p, nu) -> bool meaning "keep this sign".
    """

    def __init__(self, param_dim, ambient, map_fn, jacobian=None, hessian=None,
                 domain=None, allow_timelike=False, orientation=None,
                 center=None, name=""):
        self.param_dim = int(param_dim)
        self.ambient = ambient
        self.map_fn = map_fn
        self._jacobian = jacobian
        self._hessian = hessian
        if domain is None:
            domain = np.array([[-1.0, 1.0]] * self.param_dim)
        self.domain = np.asarray(domain, dtype=float)
        self.allow_timelike = allow_timelike
        self.orientation = orientation
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.name = name

    @property
    def codim(self):
        return self.ambient.dimension - self.param_dim

    @property
    def derivative_rung(self):
        if self._hessian is not None:
            return "analytic"
        if self._jacobian is not None:
            return "jacobian-fd"
        return "fd"

    def in_domain(self, u):
        """Domain test of one point (m,) or of each row of a (K, m) batch."""
        u = np.asarray(u, dtype=float)
        return np.all((u >= self.domain[:, 0] - 1e-9)
                      & (u <= self.domain[:, 1] + 1e-9), axis=-1)

    def require_in_domain(self, u):
        if not self.in_domain(u):
            raise LeftDomain("parameter outside immersion domain",
                             parameter=list(np.atleast_1d(u)))

    def point(self, u):
        return np.asarray(self.map_fn(np.asarray(u, dtype=float)), dtype=float)

    def jacobian_at(self, u):
        u = np.asarray(u, dtype=float)
        if self._jacobian is not None:
            return np.asarray(self._jacobian(u), dtype=float)
        return jacobian_fd(self.point, u, FD_STEP)

    def hessian_at(self, u):
        u = np.asarray(u, dtype=float)
        if self._hessian is not None:
            h = np.asarray(self._hessian(u), dtype=float)
        elif self._jacobian is not None:
            h = jacobian_fd(self.jacobian_at, u, FD_STEP)
        else:
            h = hessian_fd(self.point, u, FD_HESSIAN_STEP)
        return 0.5 * (h + np.swapaxes(h, -1, -2))


@dataclass
class ShapeReport:
    """Per-point extrinsic data of an immersion."""

    u: np.ndarray
    p: np.ndarray
    tangent_frame: np.ndarray        # (m, N) ambient vectors, g-orthonormal
    normal_frame: np.ndarray         # (n, N) ambient vectors, g-orthonormal
    normal_signs: list               # causal characters of the normals
    second_form: np.ndarray          # (m, m, n) coefficients vs normal frame
    mean_curvature_vector: np.ndarray
    shape_operator: np.ndarray | None
    principal_curvatures: np.ndarray | None
    principal_directions: np.ndarray | None
    umbilicity_defect: float
    derivative_rung: str
    scalars: dict = field(default_factory=dict)

    @property
    def mean_curvature(self):
        """Signed scalar mean curvature (hypersurface case)."""
        if self.shape_operator is None:
            return None
        return float(np.trace(self.shape_operator) / self.shape_operator.shape[0])

    def to_dict(self):
        return {
            "u": [float(c) for c in self.u],
            "p": [float(c) for c in self.p],
            "tangent_frame": self.tangent_frame.tolist(),
            "normal_frame": self.normal_frame.tolist(),
            "normal_signs": list(self.normal_signs),
            "second_form": self.second_form.tolist(),
            "mean_curvature_vector": self.mean_curvature_vector.tolist(),
            "principal_curvatures": (None if self.principal_curvatures is None
                                     else self.principal_curvatures.tolist()),
            "umbilicity_defect": float(self.umbilicity_defect),
            "derivative_rung": self.derivative_rung,
        }


def _oriented_normal(im, u, p, nu, g):
    """Deterministic sign fix plus the immersion's orientation rule."""
    k = int(np.argmax(np.abs(nu)))
    if nu[k] < 0:
        nu = -nu
    rule = im.orientation
    if rule is None:
        return nu
    if callable(rule):
        return nu if rule(u, p, nu) else -nu
    if rule in ("inward", "outward"):
        center = im.center if im.center is not None else np.zeros_like(p)
        toward = float(nu @ g @ (center - p))
        keep = toward > 0 if rule == "inward" else toward < 0
        return nu if keep else -nu
    if rule in ("upward", "future"):
        return nu if nu[-1] > 0 else -nu
    raise ValueError(f"unknown orientation rule {rule!r}")


def frames(im, u):
    """(tangent_frame, normal_frame, normal_signs, p, jac, g) at parameter u.

    Tangent frame: g-orthonormalized Jacobian columns.  Normal frame:
    g-orthonormal completion, oriented per the immersion's rule for
    hypersurfaces.  The chart point, its Jacobian and the ambient metric
    there come along so that callers need not evaluate them again.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    im.require_in_domain(u)
    where = {"parameter": list(u)}
    p = NonFiniteValue.check(im.point(u), "point", **where)
    jac = NonFiniteValue.check(im.jacobian_at(u), "Jacobian", **where)
    s = np.linalg.svd(jac, compute_uv=False)
    if s[-1] < RANK_TOL * max(1.0, s[0]):
        raise RankDeficient("Jacobian is rank deficient", parameter=list(u))

    g = im.ambient.metric_at(p)
    induced = NonFiniteValue.check(jac.T @ g @ jac, "induced metric", **where)
    eig = np.linalg.eigvalsh(induced)
    if eig[0] <= 1e-12 * max(1.0, abs(eig[-1])):
        if not (im.allow_timelike and eig[0] < 0):
            raise DegenerateInducedMetric(
                "induced metric is not positive definite",
                min_eigenvalue=float(eig[0]), parameter=list(u))

    tangent, _tangent_signs = pseudo_gram_schmidt(list(jac.T), g)
    normal, normal_signs = complement_basis(np.stack(tangent), g, dim=im.codim)
    if im.codim == 1:
        normal = [_oriented_normal(im, u, p, normal[0], g)]
    else:
        fixed = []
        for nu in normal:
            k = int(np.argmax(np.abs(nu)))
            fixed.append(nu if nu[k] >= 0 else -nu)
        normal = fixed
    return np.stack(tangent), np.stack(normal), list(normal_signs), p, jac, g


def second_fundamental_form(im, u):
    """II as an (m, m, n) coefficient array in the orthonormal frames."""
    return shape_report(im, u).second_form


def umbilicity_defect(second_form, eigenvalues=None):
    """(defect, h_coeff) of an (m, m, n) second fundamental form.

    The defect is the max over unit tangent X of |II(X,X) - H|.  With one
    normal it is exactly max|kappa_i - H| over the eigenvalues (pass them
    in when already computed); otherwise it is sampled over unit_design.
    """
    m, _, n = second_form.shape
    h_coeff = np.array([np.trace(second_form[:, :, a]) / m for a in range(n)])
    if n == 1:
        if eigenvalues is None:
            eigenvalues = np.linalg.eigvalsh(second_form[:, :, 0])
        return float(np.max(np.abs(eigenvalues - h_coeff[0]))), h_coeff
    xs = unit_design(m)
    vals = np.einsum("ki,ija,kj->ka", xs, second_form, xs)
    return float(np.max(np.linalg.norm(vals - h_coeff, axis=1))), h_coeff


def shape_report(im, u):
    """Full extrinsic report at u: frames, II, H, shape operator, defect."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    tangent, normal, normal_signs, p, jac, g = frames(im, u)
    n = im.codim

    hess = im.hessian_at(u)
    if not im.ambient.is_constant:
        gamma = christoffel(im.ambient, p)
        hess = hess + np.einsum("cab,ai,bj->cij", gamma, jac, jac)
    NonFiniteValue.check(hess, "Hessian", parameter=list(u))

    # coefficients of the normal part: eps_a * g(nu_a, D_ij)
    ii_coord = np.einsum("an,nb,bij->aij", normal, g, hess)
    ii_coord *= np.asarray(normal_signs, dtype=float)[:, None, None]

    # change of basis from coordinate frame to the orthonormal tangent frame
    coeff, *_ = np.linalg.lstsq(jac, tangent.T, rcond=None)
    ii_on = np.einsum("ip,aij,jq->pqa", coeff, ii_coord, coeff)
    ii_on = 0.5 * (ii_on + ii_on.transpose(1, 0, 2))

    shape_op = principal = principal_dirs = None
    if n == 1:
        shape_op = ii_on[:, :, 0]
        principal, vecs = np.linalg.eigh(shape_op)
        principal_dirs = (tangent.T @ vecs).T

    defect, h_coeff = umbilicity_defect(ii_on, eigenvalues=principal)
    h_vec = np.einsum("a,an->n", h_coeff, normal)

    return ShapeReport(
        u=u, p=p,
        tangent_frame=tangent, normal_frame=normal, normal_signs=normal_signs,
        second_form=ii_on, mean_curvature_vector=h_vec,
        shape_operator=shape_op,
        principal_curvatures=principal, principal_directions=principal_dirs,
        umbilicity_defect=defect,
        derivative_rung=im.derivative_rung,
        scalars={"h_norm_abs": float(np.linalg.norm(h_coeff))})


def default_umbilic_tol(im):
    return 1e-6 if im.derivative_rung == "analytic" else 1e-4


def is_umbilic(im, u, tol=None):
    """True iff the umbilicity defect at u is below tol."""
    if tol is None:
        tol = default_umbilic_tol(im)
    return shape_report(im, u).umbilicity_defect <= tol


def normal_curvature(im, u, v):
    """II(v, v) for a unit tangent direction v, as an ambient vector."""
    report = shape_report(im, u)
    g = im.ambient.metric_at(report.p)
    v = np.asarray(v, dtype=float)
    if abs(float(v @ g @ v) - 1.0) > 1e-10:
        raise NonUnitDirection("direction is not g-unit",
                               norm_sq=float(v @ g @ v))
    coeff = np.array([float(v @ g @ e) for e in report.tangent_frame])
    rebuilt = coeff @ report.tangent_frame
    if np.max(np.abs(rebuilt - v)) > 1e-8:
        raise NonUnitDirection("direction is not tangent to the immersion")
    vals = np.array([coeff @ report.second_form[:, :, a] @ coeff
                     for a in range(im.codim)])
    return vals @ report.normal_frame
