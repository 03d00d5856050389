"""Parametrized isometric immersions and their extrinsic curvature data.

All frames are orthonormal with respect to the ambient metric; second
fundamental form entries are coefficients against the (pseudo-)orthonormal
normal frame, so in a Lorentzian ambient the timelike normal carries its
sign inside the coefficient, not the frame.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .ambient import christoffel
from .errors import (DegenerateInducedMetric, LeftDomain, NonFiniteValue,
                     NonUnitDirection, RankDeficient, UmbilicLabError)
from .frames import (DESIGN_SIZE, complement_basis, pseudo_gram_schmidt,
                     unit_design)

RANK_TOL = 1e-10


class Immersion:
    """A map u in R^m -> R^N into an AmbientSpace.

    ``jacobian`` (u -> (N, m)) and ``hessian`` (u -> (N, m, m)) are the
    analytic derivatives of ``map_fn``; an ExpressionMap supplies all three.
    ``orientation`` fixes the reported sign of hypersurface normals: one of
    None, "inward" or "outward" (toward or away from the origin), "upward",
    "future", or a callable (u, p, nu) -> bool meaning "keep this sign".
    """

    def __init__(self, param_dim, ambient, map_fn, jacobian, hessian,
                 domain=None, allow_timelike=False, orientation=None, name=""):
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
        self.name = name

    @property
    def codim(self):
        return self.ambient.dimension - self.param_dim

    def in_domain(self, u):
        """Domain test of one point (m,) or of each row of a (K, m) batch."""
        u = np.asarray(u, dtype=float)
        return np.all((u >= self.domain[:, 0] - 1e-9)
                      & (u <= self.domain[:, 1] + 1e-9), axis=-1)

    def point(self, u):
        return np.asarray(self.map_fn(np.asarray(u, dtype=float)), dtype=float)

    def jacobian_at(self, u):
        return np.asarray(self._jacobian(np.asarray(u, dtype=float)), dtype=float)

    def hessian_at(self, u):
        h = np.asarray(self._hessian(np.asarray(u, dtype=float)), dtype=float)
        return 0.5 * (h + np.swapaxes(h, -1, -2))


@dataclass
class ShapeReport:
    """Extrinsic data of an immersion at one point, or of a (K, m) batch:
    then every field gains a leading K axis (see ``row``)."""

    u: np.ndarray
    p: np.ndarray
    tangent_frame: np.ndarray        # (m, N) ambient vectors, g-orthonormal
    tangent_signs: np.ndarray        # (m,) causal characters g(e_i, e_i)
    normal_frame: np.ndarray         # (n, N) ambient vectors, g-orthonormal
    tangent_params: np.ndarray       # (m, m): jac @ row i = tangent_frame[i]
    normal_signs: list               # causal characters of the normals
    second_form: np.ndarray          # (m, m, n) coefficients vs normal frame
    mean_curvature_vector: np.ndarray
    shape_operator: np.ndarray | None
    principal_curvatures: np.ndarray | None
    principal_directions: np.ndarray | None
    umbilicity_defect: float
    scalars: dict = field(default_factory=dict)

    @property
    def mean_curvature(self):
        """Signed scalar mean curvature (hypersurface case), one per row."""
        op = self.shape_operator
        return None if op is None else np.trace(op, axis1=-2, axis2=-1) / op.shape[-1]

    def row(self, i):
        """The one-point report of row i of a batch report."""
        rows = {k: v[i] for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        return replace(self, normal_signs=rows.pop("normal_signs").tolist(),
                       umbilicity_defect=float(rows.pop("umbilicity_defect")),
                       scalars={k: float(v[i]) for k, v in self.scalars.items()},
                       **rows)


def _batched(compute):
    """``compute(im, u)`` on one point (m,), or on a (K, m) batch with float
    warnings ignored; a batch with a failing row is run again row by row,
    so that its first failing row raises its own error and parameter."""
    @functools.wraps(compute)
    def run(im, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim == 1:
            return compute(im, u)
        with np.errstate(all="ignore"):
            try:
                return compute(im, u)
            except (UmbilicLabError, np.linalg.LinAlgError):
                for row in u:
                    run(im, row)
                raise
    return run


def _check(bad, u, error, message, **per_row):
    """Raise ``error`` at the first row of the parameters u, (m,) or (K, m),
    flagged in ``bad``, with its parameter and its entry of ``per_row``."""
    if bad.any():
        i = int(bad.argmax())
        raise error(message, **{k: float(np.ravel(v)[i]) for k, v in per_row.items()},
                    parameter=list(np.atleast_2d(u)[i]))


def _orient(im, u, p, normal, g):
    """Deterministic sign fix of each (..., n, N) normal (its largest entry
    positive), then the immersion's orientation rule on hypersurfaces."""
    flat = normal.reshape(-1, normal.shape[-1])
    big = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    normal = normal * np.sign(big).reshape(normal.shape[:-1] + (1,))
    rule, nu = im.orientation, normal[..., 0, :]
    if rule is None or im.codim > 1:
        return normal
    if callable(rule):
        k = nu.size // nu.shape[-1]
        rows = map(rule, u.reshape(k, -1), p.reshape(k, -1), nu.reshape(k, -1))
        keep = np.fromiter(rows, bool, k).reshape(nu.shape[:-1])
    elif rule in ("inward", "outward"):
        away = np.einsum("...i,...ij,...j->...", nu, g, p)
        keep = away < 0 if rule == "inward" else away > 0
    elif rule in ("upward", "future"):
        keep = nu[..., -1] > 0
    else:
        raise ValueError(f"unknown orientation rule {rule!r}")
    return np.where(keep[..., None, None], normal, -normal)


@_batched
def frames(im, u):
    """(tangent_frame, normal_frame, normal_signs, p, jac, g, tangent_signs)
    at parameter u.

    Tangent frame: g-orthonormalized Jacobian columns, with their causal
    characters g(e_i, e_i) as ``tangent_signs``.  Normal frame:
    g-orthonormal completion, oriented per the immersion's rule for
    hypersurfaces.  The chart point, its Jacobian and the ambient metric
    there come along so that callers need not evaluate them again.  For a
    (K, m) batch of parameters every member gets a leading K axis.
    """
    _check(~im.in_domain(u), u, LeftDomain, "parameter outside immersion domain")
    p = NonFiniteValue.check(im.point(u), "point", u)
    jac = NonFiniteValue.check(im.jacobian_at(u), "Jacobian", u)
    # det > 1e-12 max(1, tr)^m of jac^T jac gives s_min > 1e-6 max(1, s_max);
    # a non-finite gram fails the test, and its rows go to the SVD
    gram = jac.mT @ jac
    scale = np.maximum(1.0, np.trace(gram, axis1=-2, axis2=-1)) ** jac.shape[-1]
    unsure = ~(np.linalg.det(gram) > 1e-12 * scale)
    s = np.linalg.svd(jac[unsure], compute_uv=False)
    _check(s[..., -1] < RANK_TOL * np.maximum(1.0, s[..., 0]), u[unsure],
           RankDeficient, "Jacobian is rank deficient")

    g = (im.ambient.metric_at(p) if im.ambient.is_constant else np.reshape(
        [im.ambient.metric_at(x) for x in p.reshape(-1, p.shape[-1])],
        p.shape + p.shape[-1:]))
    induced = NonFiniteValue.check(jac.mT @ g @ jac, "induced metric", u)
    eig = np.linalg.eigvalsh(induced)
    bad = eig[..., 0] <= 1e-12 * np.maximum(1.0, np.abs(eig[..., -1]))
    if im.allow_timelike:
        bad = bad & (eig[..., 0] >= 0)
    _check(bad, u, DegenerateInducedMetric,
           "induced metric is not positive definite", min_eigenvalue=eig[..., 0])

    tangent, tangent_signs = pseudo_gram_schmidt(jac.mT, g)
    normal, signs = complement_basis(tangent, g)
    normal = _orient(im, u, p, normal, g)
    if u.ndim == 1:
        return tangent, normal, signs.tolist(), p, jac, g, tangent_signs
    return (tangent, normal, signs, p, jac, np.broadcast_to(g, p.shape + p.shape[-1:]),
            tangent_signs)


def umbilicity_defect(second_form, eigenvalues=None):
    """(defect, h_coeff) of an (..., m, m, n) second fundamental form.

    The defect is the max over unit tangent X of |Phi(X,X)|, Phi_a = II_a -
    h_a I: with one normal max|kappa_i - H| over the eigenvalues (pass them
    in when already computed); at m = 2 the largest singular value of A, as
    Phi(X,X) at angle t is A (cos 2t, sin 2t) for rows (Phi_a[0,0], Phi_a[0,1]);
    else sampled on unit_design and each Phi_a's extreme eigenvectors.
    """
    m, _, n = second_form.shape[-3:]
    h_coeff = second_form.trace(axis1=-3, axis2=-2) / m
    if n == 1:
        if eigenvalues is None:
            eigenvalues = np.linalg.eigvalsh(second_form[..., 0])
        return np.max(np.abs(eigenvalues - h_coeff), axis=-1), h_coeff
    phi = second_form - np.eye(m)[:, :, None] * h_coeff[..., None, None, :]
    if m == 2:
        return np.linalg.norm(phi[..., 0, :, :].mT, ord=2, axis=(-2, -1)), h_coeff
    lead = phi.shape[:-3]
    extreme = np.linalg.eigh(np.moveaxis(phi, -1, -3))[1][..., [0, -1]].mT
    xs = np.concatenate([np.broadcast_to(unit_design(m), lead + (DESIGN_SIZE, m)),
                         extreme.reshape(lead + (2 * n, m))], axis=-2)
    vals = np.einsum("...ki,...ija,...kj->...ka", xs, phi, xs)
    return np.max(np.linalg.norm(vals, axis=-1), axis=-1), h_coeff


@_batched
def shape_report(im, u):
    """Full extrinsic report at u: frames, II, H, shape operator, defect.

    ``u`` is one parameter point (m,) or a (K, m) batch; a batch report
    gives every array field, the signs, the defect and ``h_norm_abs`` a
    leading K axis (see ShapeReport.row)."""
    tangent, normal, normal_signs, p, jac, g, tangent_signs = frames(im, u)

    hess = im.hessian_at(u)
    if not im.ambient.is_constant:
        gamma = np.reshape([christoffel(im.ambient, x) for x in
                            p.reshape(-1, p.shape[-1])], p.shape + p.shape[-1:] * 2)
        hess = hess + np.einsum("...cab,...ai,...bj->...cij", gamma, jac, jac)
    NonFiniteValue.check(hess, "Hessian", u)

    # coefficients of the normal part: eps_a * g(nu_a, D_ij)
    ii_coord = np.einsum("...an,...nij->...aij", normal @ g, hess)
    ii_coord *= np.asarray(normal_signs, dtype=float)[..., None, None]

    # change of basis from coordinate frame to the orthonormal tangent
    # frame: jac @ coeff = tangent.T, solved through the induced metric
    jac_tg = jac.mT @ g
    coeff = np.linalg.solve(jac_tg @ jac, jac_tg @ tangent.mT)
    ii_on = coeff.mT[..., None, :, :] @ ii_coord @ coeff[..., None, :, :]
    ii_on = np.moveaxis(0.5 * (ii_on + ii_on.mT), -3, -1)

    shape_op = principal = principal_dirs = None
    if im.codim == 1:
        shape_op = ii_on[..., 0]
        principal, vecs = np.linalg.eigh(shape_op)
        principal_dirs = vecs.mT @ tangent

    defect, h_coeff = umbilicity_defect(ii_on, eigenvalues=principal)
    h_norm = np.sqrt(np.vecdot(h_coeff, h_coeff))
    if u.ndim == 1:
        defect, h_norm = float(defect), float(h_norm)
    return ShapeReport(
        u=u, p=p, tangent_frame=tangent, tangent_signs=tangent_signs,
        normal_frame=normal, tangent_params=coeff.mT,
        normal_signs=normal_signs, second_form=ii_on,
        mean_curvature_vector=np.einsum("...a,...an->...n", h_coeff, normal),
        shape_operator=shape_op,
        principal_curvatures=principal, principal_directions=principal_dirs,
        umbilicity_defect=defect,
        scalars={"h_norm_abs": h_norm})


def is_umbilic(im, u, tol=1e-6):
    """True iff the umbilicity defect at u is below tol."""
    return shape_report(im, u).umbilicity_defect <= tol


def normal_curvature(im, u, v):
    """II(v, v) for a unit tangent direction v, as an ambient vector."""
    report = shape_report(im, u)
    g = im.ambient.metric_at(report.p)
    v = np.asarray(v, dtype=float)
    if abs(float(v @ g @ v) - 1.0) > 1e-10:
        raise NonUnitDirection("direction is not g-unit",
                               norm_sq=float(v @ g @ v))
    coeff = v @ g @ report.tangent_frame.T * report.tangent_signs
    rebuilt = coeff @ report.tangent_frame
    if np.max(np.abs(rebuilt - v)) > 1e-8:
        raise NonUnitDirection("direction is not tangent to the immersion")
    vals = np.einsum("i,ija,j->a", coeff, report.second_form, coeff)
    return vals @ report.normal_frame
