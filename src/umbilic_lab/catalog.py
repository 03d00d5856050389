"""Built-in ambient metrics, immersed surfaces, and ground-truth labels.

Ids follow a small grammar, e.g. "sphere:1", "ellipsoid:1,2,3",
"torus:2,0.5", "graph:x0^2-x1^2", "minkowski:4", "perturbed-minkowski:0.1".
Some families accept an optional trailing dimension parameter
("sphere:1,3" is the unit 3-sphere in R^4).  In all Lorentzian entries the
timelike coordinate is the last one.
"""

import difflib
import json
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientSpace, MetricSignature
from .errors import MalformedParameters, UnknownCatalogId
from .expressions import ExpressionMap, free_vars, parse
from .immersion import Immersion

AMBIENT_FAMILIES = ("euclidean", "minkowski", "sphere", "hyperbolic",
                    "desitter", "perturbed-minkowski")
IMMERSION_FAMILIES = ("sphere", "ellipsoid", "hyperbolic-paraboloid",
                      "elliptic-paraboloid", "cylinder", "torus", "graph",
                      "hyperboloid-sheet", "minkowski-graph")


@dataclass
class CatalogEntry:
    id: str
    kind: str                      # "ambient" | "immersion"
    params: dict
    obj: object
    ground_truth: dict
    closed_form: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "id": self.id,
            "kind": self.kind,
            "parameters": {k: v for k, v in self.params.items()},
            "ground_truth": {k: v for k, v in self.ground_truth.items()
                             if not callable(v)},
            "closed_form_keys": sorted(self.closed_form),
        }
        if self.kind == "immersion":
            d["domain"] = self.obj.domain.tolist()
        else:
            d["domain"] = self.obj.box.tolist()
        return d


# ---------------------------------------------------------------------------
# ambient metrics


def euclidean_space(n):
    return AmbientSpace(MetricSignature(n, 0), np.eye(n), name=f"euclidean:{n}")


def minkowski_space(n):
    g = np.eye(n)
    g[-1, -1] = -1.0
    return AmbientSpace(MetricSignature(n, 1), g, name=f"minkowski:{n}")


def sphere_metric(r, dim=3):
    """Round metric of radius r in nested polar angles."""
    r2 = r * r

    def metric(x):
        diag = np.empty(dim)
        prod = 1.0
        for k in range(dim):
            diag[k] = r2 * prod
            prod *= np.sin(x[k]) ** 2
        return np.diag(diag)

    def dmetric(x):
        dg = np.zeros((dim, dim, dim))
        sin2 = np.sin(x) ** 2
        for k in range(dim):
            for a in range(k):
                val = r2
                for j in range(k):
                    val *= (2.0 * np.sin(x[j]) * np.cos(x[j])) if j == a else sin2[j]
                dg[k, k, a] = val
        return dg

    box = np.array([[0.05, np.pi - 0.05]] * dim)
    sample = np.array([[0.4, 2.7]] * dim)
    return AmbientSpace(MetricSignature(dim, 0), metric, dmetric,
                        box=box, sample_box=sample, name=f"sphere:{r}")


def hyperbolic_metric(r, dim=3):
    """Hyperbolic space of curvature -1/r^2: r^2 (dt^2 + sinh^2 t dOmega^2)."""
    r2 = r * r

    def metric(x):
        diag = np.empty(dim)
        diag[0] = r2
        prod = np.sinh(x[0]) ** 2
        for k in range(1, dim):
            diag[k] = r2 * prod
            prod *= np.sin(x[k]) ** 2
        return np.diag(diag)

    def dmetric(x):
        dg = np.zeros((dim, dim, dim))
        sin2 = np.sin(x) ** 2
        for k in range(1, dim):
            for a in range(k):
                if a == 0:
                    val = r2 * 2.0 * np.sinh(x[0]) * np.cosh(x[0])
                else:
                    val = r2 * np.sinh(x[0]) ** 2
                for j in range(1, k):
                    if j == a:
                        val *= 2.0 * np.sin(x[j]) * np.cos(x[j])
                    elif a == 0 or j != a:
                        val *= sin2[j]
                dg[k, k, a] = val
        return dg

    box = np.vstack([[0.1, 2.0], *([[0.05, np.pi - 0.05]] * (dim - 1))])
    sample = np.vstack([[0.3, 1.5], *([[0.4, 2.7]] * (dim - 1))])
    return AmbientSpace(MetricSignature(dim, 0), metric, dmetric,
                        box=box, sample_box=sample, name=f"hyperbolic:{r}")


def desitter_metric(r, dim=4):
    """de Sitter space of curvature +1/r^2; coordinates (angles..., tau)."""
    r2 = r * r

    def metric(x):
        tau = x[-1]
        diag = np.empty(dim)
        prod = r2 * np.cosh(tau / r) ** 2
        for k in range(dim - 1):
            diag[k] = prod
            prod *= np.sin(x[k]) ** 2
        diag[-1] = -1.0
        return np.diag(diag)

    def dmetric(x):
        tau = x[-1]
        dg = np.zeros((dim, dim, dim))
        sin2 = np.sin(x[:-1]) ** 2
        cosh2 = np.cosh(tau / r) ** 2
        for k in range(dim - 1):
            # derivative in tau
            val = 2.0 * r * np.cosh(tau / r) * np.sinh(tau / r)
            for j in range(k):
                val *= sin2[j]
            dg[k, k, dim - 1] = val
            # derivatives in the angles
            for a in range(k):
                val = r2 * cosh2
                for j in range(k):
                    val *= (2.0 * np.sin(x[j]) * np.cos(x[j])) if j == a else sin2[j]
                dg[k, k, a] = val
        return dg

    box = np.vstack([*([[0.05, np.pi - 0.05]] * (dim - 1)), [-1.5, 1.5]])
    sample = np.vstack([*([[0.4, 2.7]] * (dim - 1)), [-0.8, 0.8]])
    return AmbientSpace(MetricSignature(dim, 1), metric, dmetric,
                        box=box, sample_box=sample, name=f"desitter:{r}")


def perturbed_minkowski(eps, dim=4):
    """Conformally perturbed Minkowski metric exp(2 eps x1^2) eta."""
    eta = np.ones(dim)
    eta[-1] = -1.0

    def metric(x):
        return np.diag(np.exp(2.0 * eps * x[1] ** 2) * eta)

    def dmetric(x):
        dg = np.zeros((dim, dim, dim))
        dg[:, :, 1] = np.diag(4.0 * eps * x[1] * np.exp(2.0 * eps * x[1] ** 2) * eta)
        return dg

    box = np.array([[-2.0, 2.0]] * dim)
    sample = np.array([[-1.0, 1.0]] * dim)
    sample[1] = [0.3, 1.2]
    return AmbientSpace(MetricSignature(dim, 1), metric, dmetric,
                        box=box, sample_box=sample,
                        name=f"perturbed-minkowski:{eps}")


def metric_from_expressions(entries, index, box=None):
    """AmbientSpace from an N x N table of expression strings."""
    dim = len(entries)
    flat_exprs = [e for row in entries for e in row]
    emap = ExpressionMap(flat_exprs, dim)

    def metric(x):
        return emap(x).reshape(dim, dim)

    def dmetric(x):
        return emap.jacobian(x).reshape(dim, dim, dim)

    return AmbientSpace(MetricSignature(dim, index), metric, dmetric,
                        box=box, name="custom-expression")


def load_metric(source):
    """Custom metric from a JSON dict or file path."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    try:
        dim = int(source["dimension"])
        index = int(source["index"])
        entries = source["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedParameters(f"bad metric file: {exc}") from exc
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise MalformedParameters("metric entries must form an NxN table")
    box = np.asarray(source["box"], dtype=float) if "box" in source else None
    return metric_from_expressions(entries, index, box=box)


# ---------------------------------------------------------------------------
# immersion charts


class _TrigChart:
    """Chart whose components are coefficient * products of sin/cos factors,
    each parameter appearing at most once per component.  Derivatives come
    from factor substitution, so Jacobian and Hessian are analytic."""

    def __init__(self, coeffs, factor_table, m):
        # factor_table[c] = dict {angle index: "sin" | "cos"}
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.factors = factor_table
        self.m = m

    def _component(self, c, u, deriv=()):
        out = np.full(u.shape[:-1], self.coeffs[c])
        for angle, kind in self.factors[c].items():
            order = sum(1 for d in deriv if d == angle)
            val = u[..., angle]
            if order % 2 == 0:
                f = np.sin(val) if kind == "sin" else np.cos(val)
                if order % 4 == 2:
                    f = -f
            else:
                f = np.cos(val) if kind == "sin" else -np.sin(val)
                if order % 4 == 3:
                    f = -f
            out = out * f
        for d in deriv:
            if d not in self.factors[c]:
                return np.zeros(u.shape[:-1])
        return out

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([self._component(c, u) for c in range(len(self.coeffs))],
                        axis=-1)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([
            np.stack([self._component(c, u, (a,)) for a in range(self.m)], axis=-1)
            for c in range(len(self.coeffs))], axis=-2)

    def hessian(self, u):
        u = np.asarray(u, dtype=float)
        comps = []
        for c in range(len(self.coeffs)):
            rows = [np.stack([self._component(c, u, (a, b)) for b in range(self.m)],
                             axis=-1) for a in range(self.m)]
            comps.append(np.stack(rows, axis=-2))
        return np.stack(comps, axis=-3)


def _ellipsoid_chart(semiaxes):
    """Nested polar chart with poles on the last axis.

    Component k (for k < N-1) carries sin factors for all colatitudes
    after its own longitude slot; concretely, with U the standard chart,
    component i equals semiaxes[i] * U[N-1-i].
    """
    semi = np.asarray(semiaxes, dtype=float)
    m = semi.shape[0] - 1
    # standard chart: U_0 = cos x0, U_k = prod_{j<k} sin x_j cos x_k,
    # U_m = prod_{j<m} sin x_j; reversed so the poles sit on the last axis
    factor_table = []
    for i in range(m + 1):
        k = m - i
        fac = {j: "sin" for j in range(k)}
        if k < m:
            fac[k] = "cos"
        factor_table.append(fac)
    return _TrigChart(semi, factor_table, m)


def _ellipsoid_domain(m):
    dom = [[0.1, np.pi - 0.1]] * (m - 1) + [[-np.pi + 0.1, np.pi - 0.1]]
    return np.asarray(dom, dtype=float)


def _ellipsoid_umbilic_params(semiaxes):
    """In-chart umbilic parameter points of a 2-dimensional ellipsoid."""
    s = np.asarray(semiaxes, dtype=float)
    if s.shape[0] != 3:
        return []
    order = np.argsort(-s)
    a, b, c = s[order]
    pts = []
    if np.isclose(a, b) and np.isclose(b, c):
        return []  # round sphere: everywhere umbilic, not isolated
    if np.isclose(a, b) or np.isclose(b, c):
        if np.isclose(b, c) and not np.isclose(a, b):
            # prolate spheroid: umbilics at the tips of the long axis
            axis = order[0]
            for sign in (1.0, -1.0):
                p = np.zeros(3)
                p[axis] = sign * s[axis]
                pts.append(p)
        else:
            return []  # oblate: umbilics sit at the chart poles, not listed
    else:
        xval = a * np.sqrt((a * a - b * b) / (a * a - c * c))
        zval = c * np.sqrt((b * b - c * c) / (a * a - c * c))
        for sx in (1.0, -1.0):
            for sz in (1.0, -1.0):
                p = np.zeros(3)
                p[order[0]] = sx * xval
                p[order[2]] = sz * zval
                pts.append(p)
    params = []
    for p in pts:
        unit = p / s
        theta = float(np.arccos(np.clip(unit[2], -1.0, 1.0)))
        phi = float(np.arctan2(unit[0], unit[1]))
        dom = _ellipsoid_domain(2)
        u = np.array([theta, phi])
        if np.all(u >= dom[:, 0]) and np.all(u <= dom[:, 1]):
            params.append([theta, phi])
    return params


class _GraphChart:
    """(x, f(x)) graphs with hand-coded or expression-based height."""

    def __init__(self, m, f, grad, hess):
        self.m = m
        self.f = f
        self.grad = grad
        self.hess = hess

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.concatenate([u, self.f(u)[..., None]], axis=-1)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        eye = np.broadcast_to(np.eye(self.m), u.shape[:-1] + (self.m, self.m))
        return np.concatenate([eye, self.grad(u)[..., None, :]], axis=-2)

    def hessian(self, u):
        u = np.asarray(u, dtype=float)
        zeros = np.zeros(u.shape[:-1] + (self.m, self.m, self.m))
        return np.concatenate([zeros, self.hess(u)[..., None, :, :]], axis=-3)


def _expression_graph(expr_text, m=None):
    node = parse(expr_text)
    used = free_vars(node)
    if m is None:
        m = max(2, max(used) + 1 if used else 2)
    emap = ExpressionMap([node], m)
    return _GraphChart(
        m,
        lambda u: emap(u)[..., 0],
        lambda u: emap.jacobian(u)[..., 0, :],
        lambda u: emap.hessian(u)[..., 0, :, :]), m


def _hyperboloid_chart(r, m):
    def f(u):
        return np.sqrt(r * r + np.sum(u * u, axis=-1))

    def grad(u):
        return u / f(u)[..., None]

    def hess(u):
        t = f(u)
        eye = np.broadcast_to(np.eye(m), u.shape[:-1] + (m, m))
        outer = u[..., :, None] * u[..., None, :]
        return eye / t[..., None, None] - outer / (t ** 3)[..., None, None]

    return _GraphChart(m, f, grad, hess)


class _TorusChart:
    def __init__(self, big_r, small_r):
        self.R = float(big_r)
        self.r = float(small_r)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        th, ph = u[..., 0], u[..., 1]
        w = self.R + self.r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), self.r * np.sin(th)],
                        axis=-1)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        th, ph = u[..., 0], u[..., 1]
        w = self.R + self.r * np.cos(th)
        dth = np.stack([-self.r * np.sin(th) * np.cos(ph),
                        -self.r * np.sin(th) * np.sin(ph),
                        self.r * np.cos(th)], axis=-1)
        dph = np.stack([-w * np.sin(ph), w * np.cos(ph), np.zeros_like(w)],
                       axis=-1)
        return np.stack([dth, dph], axis=-1)

    def hessian(self, u):
        u = np.asarray(u, dtype=float)
        th, ph = u[..., 0], u[..., 1]
        w = self.R + self.r * np.cos(th)
        zero = np.zeros_like(w)
        h_thth = np.stack([-self.r * np.cos(th) * np.cos(ph),
                           -self.r * np.cos(th) * np.sin(ph),
                           -self.r * np.sin(th)], axis=-1)
        h_thph = np.stack([self.r * np.sin(th) * np.sin(ph),
                           -self.r * np.sin(th) * np.cos(ph), zero], axis=-1)
        h_phph = np.stack([-w * np.cos(ph), -w * np.sin(ph), zero], axis=-1)
        row1 = np.stack([h_thth, h_thph], axis=-1)
        row2 = np.stack([h_thph, h_phph], axis=-1)
        return np.stack([row1, row2], axis=-1)


class _CylinderChart:
    def __init__(self, r):
        self.r = float(r)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        th, z = u[..., 0], u[..., 1]
        return np.stack([self.r * np.cos(th), self.r * np.sin(th), z], axis=-1)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        th = u[..., 0]
        zero = np.zeros_like(th)
        one = np.ones_like(th)
        dth = np.stack([-self.r * np.sin(th), self.r * np.cos(th), zero], axis=-1)
        dz = np.stack([zero, zero, one], axis=-1)
        return np.stack([dth, dz], axis=-1)

    def hessian(self, u):
        u = np.asarray(u, dtype=float)
        th = u[..., 0]
        h = np.zeros(u.shape[:-1] + (3, 2, 2))
        h[..., 0, 0, 0] = -self.r * np.cos(th)
        h[..., 1, 0, 0] = -self.r * np.sin(th)
        return h


# ---------------------------------------------------------------------------
# implicit-surface curvature oracle (independent route used by tests)


def implicit_principal_curvatures(grad_f, hess_f, inward=True):
    """Principal curvatures of a level set from its implicit data.

    Returns the nonzero-eigenvalue part of P Hess(F) P / |grad F| with
    P the tangent projector; signs match the inward normal of convex
    level sets (unit sphere of F = |x|^2 - 1 gives +1).
    """
    g = np.asarray(grad_f, dtype=float)
    h = np.asarray(hess_f, dtype=float)
    n = g / np.linalg.norm(g)
    proj = np.eye(g.shape[0]) - np.outer(n, n)
    w = proj @ h @ proj / np.linalg.norm(g)
    vals = np.linalg.eigvalsh(w)
    vals = np.delete(vals, int(np.argmin(np.abs(vals))))
    return np.sort(vals if inward else -vals)


# ---------------------------------------------------------------------------
# id grammar and resolution


def _parse_numbers(arg_text, id_text):
    try:
        return [float(tok) for tok in arg_text.split(",") if tok != ""]
    except ValueError as exc:
        raise MalformedParameters(
            f"cannot parse parameters of {id_text!r}: {exc}") from exc


def _require(cond, message, id_text):
    if not cond:
        raise MalformedParameters(f"{id_text!r}: {message}")


def _build_ambient(family, arg, id_text):
    if family == "euclidean":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 1 and nums[0] == int(nums[0]) and nums[0] >= 2,
                 "expected an integer dimension >= 2", id_text)
        n = int(nums[0])
        return euclidean_space(n), {"dimension": n}, {
            "label": "constant-curvature", "sectional_curvature": 0.0}
    if family == "minkowski":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 1 and nums[0] == int(nums[0]) and nums[0] >= 2,
                 "expected an integer dimension >= 2", id_text)
        n = int(nums[0])
        return minkowski_space(n), {"dimension": n}, {
            "label": "constant-curvature", "sectional_curvature": 0.0}
    if family in ("sphere", "hyperbolic", "desitter"):
        nums = _parse_numbers(arg, id_text)
        _require(1 <= len(nums) <= 2 and nums[0] > 0, "expected radius[,dim]",
                 id_text)
        r = nums[0]
        default_dim = 4 if family == "desitter" else 3
        dim = int(nums[1]) if len(nums) == 2 else default_dim
        _require(dim >= 2, "dimension must be >= 2", id_text)
        builder = {"sphere": sphere_metric, "hyperbolic": hyperbolic_metric,
                   "desitter": desitter_metric}[family]
        curv = {"sphere": 1.0 / r ** 2, "hyperbolic": -1.0 / r ** 2,
                "desitter": 1.0 / r ** 2}[family]
        return builder(r, dim), {"radius": r, "dimension": dim}, {
            "label": "constant-curvature", "sectional_curvature": curv}
    if family == "perturbed-minkowski":
        nums = _parse_numbers(arg, id_text)
        _require(1 <= len(nums) <= 2 and nums[0] > 0, "expected eps[,dim]",
                 id_text)
        eps = nums[0]
        dim = int(nums[1]) if len(nums) == 2 else 4
        return perturbed_minkowski(eps, dim), {"eps": eps, "dimension": dim}, {
            "label": "obstructed"}
    raise UnknownCatalogId(f"unknown ambient id {id_text!r}")


def _build_immersion(family, arg, id_text):
    if family == "sphere":
        nums = _parse_numbers(arg, id_text)
        _require(1 <= len(nums) <= 2 and nums[0] > 0, "expected radius[,m]",
                 id_text)
        r = nums[0]
        m = int(nums[1]) if len(nums) == 2 else 2
        _require(m >= 2, "parameter dimension must be >= 2", id_text)
        chart = _ellipsoid_chart([r] * (m + 1))
        im = Immersion(m, euclidean_space(m + 1), chart, chart.jacobian,
                       chart.hessian, domain=_ellipsoid_domain(m),
                       orientation="inward", center=np.zeros(m + 1),
                       name=id_text)
        truth = {"label": "umbilic-everywhere", "is_round_sphere": True,
                 "radius": r}
        closed = {"principal_curvatures": lambda u, _r=r, _m=m: np.full(_m, 1.0 / _r),
                  "mean_curvature": lambda u, _r=r: 1.0 / _r}
        return im, {"radius": r, "param_dim": m}, truth, closed
    if family == "ellipsoid":
        semi = _parse_numbers(arg, id_text)
        _require(len(semi) >= 3 and all(s > 0 for s in semi),
                 "expected at least 3 positive semiaxes", id_text)
        m = len(semi) - 1
        chart = _ellipsoid_chart(semi)
        im = Immersion(m, euclidean_space(m + 1), chart, chart.jacobian,
                       chart.hessian, domain=_ellipsoid_domain(m),
                       orientation="inward", center=np.zeros(m + 1),
                       name=id_text)
        if np.allclose(semi, semi[0]):
            truth = {"label": "umbilic-everywhere", "is_round_sphere": True,
                     "radius": semi[0]}
        else:
            truth = {"label": "umbilic-points",
                     "umbilic_params": _ellipsoid_umbilic_params(semi)}
        semi_arr = np.asarray(semi, dtype=float)

        def principal(u, _c=chart, _s=semi_arr):
            p = _c(np.asarray(u, dtype=float))
            grad = 2.0 * p / _s ** 2
            hess = np.diag(2.0 / _s ** 2)
            return implicit_principal_curvatures(grad, hess)

        closed = {"principal_curvatures": principal}
        return im, {"semiaxes": semi, "param_dim": m}, truth, closed
    if family == "hyperbolic-paraboloid":
        _require(arg == "", "takes no parameters", id_text)
        chart = _GraphChart(
            2, lambda u: u[..., 0] ** 2 - u[..., 1] ** 2,
            lambda u: np.stack([2 * u[..., 0], -2 * u[..., 1]], axis=-1),
            lambda u: np.broadcast_to(np.diag([2.0, -2.0]),
                                      u.shape[:-1] + (2, 2)))
        im = Immersion(2, euclidean_space(3), chart, chart.jacobian,
                       chart.hessian, domain=[[-1.0, 1.0]] * 2,
                       orientation="upward", name=id_text)
        truth = {"label": "nowhere-umbilic", "mean_curvature_zero_at": [[0.0, 0.0]]}
        closed = {"principal_curvatures_at_origin": lambda: np.array([-2.0, 2.0])}
        return im, {}, truth, closed
    if family == "elliptic-paraboloid":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 2, "expected two coefficients a,b", id_text)
        a, b = nums

        def f(u):
            return a * u[..., 0] ** 2 + b * u[..., 1] ** 2

        chart = _GraphChart(
            2, f,
            lambda u: np.stack([2 * a * u[..., 0], 2 * b * u[..., 1]], axis=-1),
            lambda u: np.broadcast_to(np.diag([2.0 * a, 2.0 * b]),
                                      u.shape[:-1] + (2, 2)))
        im = Immersion(2, euclidean_space(3), chart, chart.jacobian,
                       chart.hessian, domain=[[-1.0, 1.0]] * 2,
                       orientation="upward", name=id_text)
        label = "umbilic-points"
        pts = [[0.0, 0.0]] if np.isclose(a, b) else []
        truth = {"label": label, "umbilic_params": pts}
        closed = {"principal_curvatures_at_origin":
                  lambda _a=a, _b=b: np.sort(np.array([2.0 * _a, 2.0 * _b]))}
        return im, {"a": a, "b": b}, truth, closed
    if family == "cylinder":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 1 and nums[0] > 0, "expected a radius", id_text)
        r = nums[0]
        chart = _CylinderChart(r)

        def orient(u, p, nu, _r=r):
            axis_point = np.array([0.0, 0.0, p[2]])
            return float(nu @ (axis_point - p)) > 0

        im = Immersion(2, euclidean_space(3), chart, chart.jacobian,
                       chart.hessian,
                       domain=[[-np.pi + 0.1, np.pi - 0.1], [-2.0, 2.0]],
                       orientation=orient, name=id_text)
        truth = {"label": "nowhere-umbilic"}
        closed = {"principal_curvatures":
                  lambda u, _r=r: np.array([0.0, 1.0 / _r])}
        return im, {"radius": r}, truth, closed
    if family == "torus":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 2 and nums[0] > nums[1] > 0,
                 "expected R,r with R > r > 0", id_text)
        big_r, small_r = nums
        chart = _TorusChart(big_r, small_r)

        def orient(u, p, nu, _R=big_r):
            phi = np.arctan2(p[1], p[0])
            tube_center = np.array([_R * np.cos(phi), _R * np.sin(phi), 0.0])
            return float(nu @ (tube_center - p)) > 0

        im = Immersion(2, euclidean_space(3), chart, chart.jacobian,
                       chart.hessian, domain=[[-3.0, 3.0], [-3.0, 3.0]],
                       orientation=orient, name=id_text)
        truth = {"label": "nowhere-umbilic"}

        def principal(u, _R=big_r, _r=small_r):
            th = np.asarray(u, dtype=float)[0]
            return np.sort(np.array([1.0 / _r,
                                     np.cos(th) / (_R + _r * np.cos(th))]))

        closed = {"principal_curvatures": principal}
        return im, {"R": big_r, "r": small_r}, truth, closed
    if family == "graph":
        _require(arg != "", "expected an expression", id_text)
        chart, m = _expression_graph(arg)
        im = Immersion(m, euclidean_space(m + 1), chart, chart.jacobian,
                       chart.hessian, domain=[[-1.0, 1.0]] * m,
                       orientation="upward", name=id_text)
        return im, {"expression": arg, "param_dim": m}, {"label": "unknown"}, {}
    if family == "hyperboloid-sheet":
        nums = _parse_numbers(arg, id_text)
        _require(1 <= len(nums) <= 2 and nums[0] > 0, "expected radius[,m]",
                 id_text)
        r = nums[0]
        m = int(nums[1]) if len(nums) == 2 else 2
        chart = _hyperboloid_chart(r, m)
        im = Immersion(m, minkowski_space(m + 1), chart, chart.jacobian,
                       chart.hessian, domain=[[-2.5, 2.5]] * m,
                       orientation="future", center=np.zeros(m + 1),
                       name=id_text)
        truth = {"label": "umbilic-everywhere", "is_hyperbolic_space": True,
                 "radius": r}
        closed = {"principal_curvatures": lambda u, _r=r, _m=m: np.full(_m, 1.0 / _r),
                  "mean_curvature": lambda u, _r=r: 1.0 / _r}
        return im, {"radius": r, "param_dim": m}, truth, closed
    if family == "minkowski-graph":
        _require(arg != "", "expected an expression", id_text)
        chart, m = _expression_graph(arg)
        im = Immersion(m, minkowski_space(m + 1), chart, chart.jacobian,
                       chart.hessian, domain=[[-1.0, 1.0]] * m,
                       orientation="future", name=id_text)
        return im, {"expression": arg, "param_dim": m}, {"label": "unknown"}, {}
    raise UnknownCatalogId(f"unknown immersion id {id_text!r}")


def resolve(id_text, kind="immersion"):
    """Resolve a catalog id to a built entry; suggests near misses."""
    kind = kind.lower()
    if kind not in ("ambient", "immersion"):
        raise ValueError("kind must be 'ambient' or 'immersion'")
    family, _, arg = id_text.partition(":")
    families = AMBIENT_FAMILIES if kind == "ambient" else IMMERSION_FAMILIES
    if family not in families:
        close = difflib.get_close_matches(family, families, n=3)
        raise UnknownCatalogId(
            f"unknown {kind} id {id_text!r}" +
            (f"; did you mean one of {close}?" if close else ""),
            near_matches=close)
    if kind == "ambient":
        obj, params, truth = _build_ambient(family, arg, id_text)
        return CatalogEntry(id=id_text, kind=kind, params=params, obj=obj,
                            ground_truth=truth)
    obj, params, truth, closed = _build_immersion(family, arg, id_text)
    return CatalogEntry(id=id_text, kind=kind, params=params, obj=obj,
                        ground_truth=truth, closed_form=closed)


def load_immersion(source):
    """Custom immersion from a JSON dict or file path."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    try:
        m = int(source["param_dim"])
        ambient_id = source["ambient"]
        comps = list(source["components"])
        domain = np.asarray(source["domain"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedParameters(f"bad immersion file: {exc}") from exc
    ambient = resolve(ambient_id, kind="ambient").obj
    emap = ExpressionMap(comps, m)
    if len(comps) != ambient.dimension:
        raise MalformedParameters("component count must match ambient dimension")
    return Immersion(m, ambient, emap, emap.jacobian, emap.hessian,
                     domain=domain, name="custom-immersion")


DEFAULT_LISTING = (
    ("ambient", ["euclidean:3", "minkowski:3", "minkowski:4", "sphere:1",
                 "hyperbolic:1", "desitter:1", "perturbed-minkowski:0.1"]),
    ("immersion", ["sphere:1", "sphere:1,3", "ellipsoid:1,2,3",
                   "ellipsoid:2,1,1", "hyperbolic-paraboloid",
                   "elliptic-paraboloid:1,3", "cylinder:1", "torus:2,0.5",
                   "hyperboloid-sheet:1", "hyperboloid-sheet:1,3"]),
)


def list_catalog():
    out = []
    for kind, ids in DEFAULT_LISTING:
        for id_text in ids:
            out.append(resolve(id_text, kind=kind).to_dict())
    return out
