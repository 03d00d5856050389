"""Built-in ambient metrics, immersed surfaces, and ground-truth labels.

Ids follow a small grammar, e.g. "sphere:1", "ellipsoid:1,2,3",
"torus:2,0.5", "graph:x0^2-x1^2", "minkowski:4", "perturbed-minkowski:0.1".
Some families accept an optional trailing dimension, an integer from 2 to
MAX_DIMENSION ("sphere:1,3" is the unit 3-sphere in R^4).  In all
Lorentzian entries the timelike coordinate is the last one.
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
MAX_DIMENSION = 16      # building a curved metric grows as its dimension cubed


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


def _square(expr):
    """expr^2 as a parenthesized product: "^" evaluates as pow, which
    rounds differently, and a grouped square keeps derivatives small."""
    return f"({expr}*{expr})"


def _sines(first, stop):
    """The factors sin^2 x_j for first <= j < stop."""
    return [_square(f"sin(x{j})") for j in range(first, stop)]


def _diagonal_metric(diag, index, box, sample_box, name):
    """AmbientSpace of the diagonal metric with the given entry expressions."""
    def on_diagonal(values):            # (N, ...) -> (N, N, ...)
        out = np.zeros(values.shape[:1] + values.shape)
        out.reshape(-1, *values.shape[1:])[::len(diag) + 1] = values
        return out

    return _expression_metric(ExpressionMap(diag, len(diag)), on_diagonal,
                              index, box, sample_box, name)


def sphere_metric(r, dim=3):
    """Round metric of radius r in nested polar angles:
    g_kk = r^2 sin^2 x0 ... sin^2 x_(k-1)."""
    r2 = _coeff(r * r)
    diag = ["*".join([r2] + _sines(0, k)) for k in range(dim)]
    box = np.array([[0.05, np.pi - 0.05]] * dim)
    sample = np.array([[0.4, 2.7]] * dim)
    return _diagonal_metric(diag, 0, box, sample, f"sphere:{r}")


def hyperbolic_metric(r, dim=3):
    """Hyperbolic space of curvature -1/r^2: r^2 (dt^2 + sinh^2 t dOmega^2)."""
    r2 = _coeff(r * r)
    diag = [r2] + ["*".join([r2, _square("sinh(x0)")] + _sines(1, k))
                   for k in range(1, dim)]
    box = np.vstack([[0.1, 2.0], *([[0.05, np.pi - 0.05]] * (dim - 1))])
    sample = np.vstack([[0.3, 1.5], *([[0.4, 2.7]] * (dim - 1))])
    return _diagonal_metric(diag, 0, box, sample, f"hyperbolic:{r}")


def desitter_metric(r, dim=4):
    """de Sitter space of curvature +1/r^2; coordinates (angles..., tau):
    r^2 cosh^2(tau/r) dOmega^2 - dtau^2."""
    cosh2 = _square(f"cosh(x{dim - 1}/{_coeff(r)})")
    diag = ["*".join([_coeff(r * r), cosh2] + _sines(0, k))
            for k in range(dim - 1)] + ["-1"]
    # tau enters as tau / r, so its box scales with r
    box = np.vstack([*([[0.05, np.pi - 0.05]] * (dim - 1)), [-1.5 * r, 1.5 * r]])
    sample = np.vstack([*([[0.4, 2.7]] * (dim - 1)), [-0.8 * r, 0.8 * r]])
    return _diagonal_metric(diag, 1, box, sample, f"desitter:{r}")


def perturbed_minkowski(eps, dim=4):
    """Conformally perturbed Minkowski metric exp(2 eps x1^2) eta."""
    conformal = f"exp({_coeff(2.0 * eps)}*(x1*x1))"
    diag = [conformal] * (dim - 1) + [f"-{conformal}"]
    box = np.array([[-2.0, 2.0]] * dim)
    sample = np.array([[-1.0, 1.0]] * dim)
    sample[1] = [0.3, 1.2]
    return _diagonal_metric(diag, 1, box, sample,
                            f"perturbed-minkowski:{eps}")


def metric_from_expressions(entries, index, box=None):
    """AmbientSpace from an N x N table of expression strings."""
    dim = len(entries)
    return _expression_metric(
        ExpressionMap([e for row in entries for e in row], dim),
        lambda values: values.reshape((dim, dim) + values.shape[1:]),
        index, box, None, "custom-expression")


def _expression_metric(emap, expand, index, box, sample_box, name):
    """AmbientSpace whose metric and jet are those of ``emap``, laid out as
    (N, N, ...) arrays by ``expand``; the derivatives are exact, so
    curvature is too, and come from one plan."""
    jet = emap.jet()
    return AmbientSpace(MetricSignature(emap.nvars, index),
                        lambda x: expand(emap(x)),
                        lambda x: tuple(map(expand, jet(x))),
                        box=box, sample_box=sample_box, name=name)


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


def _coeff(value):
    """A float as expression text that parses back to the same float."""
    return repr(float(value))


def _ellipsoid(semiaxes, id_text):
    """Ellipsoid in R^(m+1) from the nested polar chart, poles on the last
    axis: component i is semiaxes[i] * U_(m-i), where U_0 = cos x0,
    U_k = sin x0 ... sin x_(k-1) cos x_k and U_m = sin x0 ... sin x_(m-1)."""
    m = len(semiaxes) - 1
    comps = []
    for i, a in enumerate(semiaxes):
        k = m - i
        factors = [f"sin(x{j})" for j in range(k)]
        if k < m:
            factors.append(f"cos(x{k})")
        comps.append("*".join([_coeff(a)] + factors))
    chart = ExpressionMap(comps, m)
    return Immersion(m, euclidean_space(m + 1), chart, chart.jacobian,
                     chart.hessian, domain=_ellipsoid_domain(m),
                     orientation="inward", center=np.zeros(m + 1),
                     name=id_text)


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


def _expression_graph(expr_text, space_of, orientation, id_text):
    """Graph (x, f(x)) over [-1, 1]^m into space_of(m + 1), f an expression."""
    node = parse(expr_text)
    used = free_vars(node)
    m = max(2, max(used) + 1 if used else 2)
    chart = ExpressionMap([f"x{i}" for i in range(m)] + [node], m)
    return Immersion(m, space_of(m + 1), chart, chart.jacobian, chart.hessian,
                     domain=[[-1.0, 1.0]] * m, orientation=orientation,
                     name=id_text)


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
        nums = [float(tok) for tok in arg_text.split(",") if tok != ""]
    except ValueError as exc:
        raise MalformedParameters(
            f"cannot parse parameters of {id_text!r}: {exc}") from exc
    _require(all(np.isfinite(nums)), "parameters must be finite", id_text)
    return nums


def _value_and_dim(arg, id_text, name, default_dim):
    """(value, dim) of "value[,dim]": a positive value and an integer
    dimension from 2 to MAX_DIMENSION, ``default_dim`` when the id gives none."""
    nums = _parse_numbers(arg, id_text)
    _require(1 <= len(nums) <= 2 and nums[0] > 0, f"expected {name}[,dim]", id_text)
    dim = nums[1] if len(nums) == 2 else default_dim
    _require(dim == int(dim) and 2 <= dim <= MAX_DIMENSION,
             f"dimension must be an integer from 2 to {MAX_DIMENSION}", id_text)
    return nums[0], int(dim)


def _require(cond, message, id_text):
    if not cond:
        raise MalformedParameters(f"{id_text!r}: {message}")


def _build_ambient(family, arg, id_text):
    if family in ("euclidean", "minkowski"):
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 1 and nums[0] == int(nums[0])
                 and 2 <= nums[0] <= MAX_DIMENSION,
                 f"expected an integer dimension from 2 to {MAX_DIMENSION}", id_text)
        n = int(nums[0])
        flat = euclidean_space if family == "euclidean" else minkowski_space
        return flat(n), {"dimension": n}, {
            "label": "constant-curvature", "sectional_curvature": 0.0}
    if family in ("sphere", "hyperbolic", "desitter"):
        r, dim = _value_and_dim(arg, id_text, "radius",
                                4 if family == "desitter" else 3)
        builder = {"sphere": sphere_metric, "hyperbolic": hyperbolic_metric,
                   "desitter": desitter_metric}[family]
        curv = (-1.0 if family == "hyperbolic" else 1.0) / r ** 2
        return builder(r, dim), {"radius": r, "dimension": dim}, {
            "label": "constant-curvature", "sectional_curvature": curv}
    if family == "perturbed-minkowski":
        eps, dim = _value_and_dim(arg, id_text, "eps", 4)
        return perturbed_minkowski(eps, dim), {"eps": eps, "dimension": dim}, {
            "label": "obstructed"}
    raise UnknownCatalogId(f"unknown ambient id {id_text!r}")


def _build_immersion(family, arg, id_text):
    if family == "sphere":
        r, m = _value_and_dim(arg, id_text, "radius", 2)
        im = _ellipsoid([r] * (m + 1), id_text)
        truth = {"label": "umbilic-everywhere", "is_round_sphere": True,
                 "radius": r}
        closed = {"principal_curvatures": lambda u, _r=r, _m=m: np.full(_m, 1.0 / _r),
                  "mean_curvature": lambda u, _r=r: 1.0 / _r}
        return im, {"radius": r, "param_dim": m}, truth, closed
    if family == "ellipsoid":
        semi = _parse_numbers(arg, id_text)
        _require(3 <= len(semi) <= MAX_DIMENSION + 1 and all(s > 0 for s in semi),
                 f"expected 3 to {MAX_DIMENSION + 1} positive semiaxes", id_text)
        m = len(semi) - 1
        im = _ellipsoid(semi, id_text)
        if np.allclose(semi, semi[0]):
            truth = {"label": "umbilic-everywhere", "is_round_sphere": True,
                     "radius": semi[0]}
        else:
            truth = {"label": "umbilic-points",
                     "umbilic_params": _ellipsoid_umbilic_params(semi)}
        semi_arr = np.asarray(semi, dtype=float)

        def principal(u, _c=im.map_fn, _s=semi_arr):
            p = _c(np.asarray(u, dtype=float))
            grad = 2.0 * p / _s ** 2
            hess = np.diag(2.0 / _s ** 2)
            return implicit_principal_curvatures(grad, hess)

        closed = {"principal_curvatures": principal}
        return im, {"semiaxes": semi, "param_dim": m}, truth, closed
    if family == "hyperbolic-paraboloid":
        _require(arg == "", "takes no parameters", id_text)
        # products, not x0^2: "^" evaluates as pow, which rounds differently
        im = _expression_graph("x0*x0 - x1*x1", euclidean_space, "upward",
                               id_text)
        truth = {"label": "nowhere-umbilic", "mean_curvature_zero_at": [[0.0, 0.0]]}
        closed = {"principal_curvatures_at_origin": lambda: np.array([-2.0, 2.0])}
        return im, {}, truth, closed
    if family == "elliptic-paraboloid":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 2, "expected two coefficients a,b", id_text)
        a, b = nums
        im = _expression_graph(f"{_coeff(a)}*(x0*x0) + {_coeff(b)}*(x1*x1)",
                               euclidean_space, "upward", id_text)
        pts = [[0.0, 0.0]] if np.isclose(a, b) else []
        truth = {"label": "umbilic-points", "umbilic_params": pts}
        closed = {"principal_curvatures_at_origin":
                  lambda _a=a, _b=b: np.sort(np.array([2.0 * _a, 2.0 * _b]))}
        return im, {"a": a, "b": b}, truth, closed
    if family == "cylinder":
        nums = _parse_numbers(arg, id_text)
        _require(len(nums) == 1 and nums[0] > 0, "expected a radius", id_text)
        r = nums[0]
        rc = _coeff(r)
        chart = ExpressionMap([f"{rc}*cos(x0)", f"{rc}*sin(x0)", "x1"], 2)

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
        w = f"({_coeff(big_r)} + {_coeff(small_r)}*cos(x0))"
        chart = ExpressionMap([f"{w}*cos(x1)", f"{w}*sin(x1)",
                               f"{_coeff(small_r)}*sin(x0)"], 2)

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
        im = _expression_graph(arg, euclidean_space, "upward", id_text)
        return (im, {"expression": arg, "param_dim": im.param_dim},
                {"label": "unknown"}, {})
    if family == "hyperboloid-sheet":
        r, m = _value_and_dim(arg, id_text, "radius", 2)
        coords = [f"x{i}" for i in range(m)]
        # the upper sheet of radius r, the graph of sqrt(r^2 + |u|^2), with
        # |u|^2 summed first as numpy sums it
        norm2 = " + ".join(f"{x}*{x}" for x in coords)
        chart = ExpressionMap(coords + [f"sqrt({_coeff(r * r)} + ({norm2}))"], m)
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
        im = _expression_graph(arg, minkowski_space, "future", id_text)
        return (im, {"expression": arg, "param_dim": im.param_dim},
                {"label": "unknown"}, {})
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
