"""Command-line interface: analyze, slice, verify, audit-cartan, catalog.

Exit codes: 0 all checks passed, 1 geometric failure (a verification
suite reported a failing verdict), 2 numerical or infrastructure error.
Every error path, argparse's included, prints a single-line
machine-readable diagnostic to stderr before exiting.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import ambient as ambient_ops
from . import verifier
from .catalog import list_catalog, resolve
from .errors import UmbilicLabError
from .immersion import shape_report
from .slicer import (default_trace_radius, fit_hyperbolic, fit_sphere,
                     make_slice_spec, slice_shape, taylor_trace_radius,
                     trace_slice)

SCHEMA_VERSION = 1


def _strict(value, nonfinite=str):
    """``value`` with every non-finite float written as ``nonfinite`` of
    it, so that it dumps as strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return nonfinite(value)
    if isinstance(value, (list, tuple)):
        return [_strict(v, nonfinite) for v in value]
    if isinstance(value, dict):
        return {k: _strict(v, nonfinite) for k, v in value.items()}
    return value


def _diagnostic(code, message, offending=None):
    line = json.dumps({"code": code, "message": str(message),
                       "input": _strict(offending)}, sort_keys=True)
    print(line, file=sys.stderr)


def _emit(payload, out_path):
    """Write a str (CSV) as it is, anything else as one strict JSON line (inf
    and NaN as null) by a compact ``json.dumps``, the only one in C."""
    if not isinstance(payload, str):
        try:
            payload = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:      # a non-finite float: the slow path
            payload = json.dumps(_strict(payload, lambda v: None), sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _numbers(flag, text, kind=float, sep=","):
    """The finite numbers of type ``kind`` in ``text`` split at ``sep`` (a
    token may carry a name, as in u0=0.5), or an error naming ``--flag``."""
    try:
        values = [kind(tok.split("=", 1)[-1]) for tok in text.lower().split(sep)]
    except (AttributeError, ValueError):    # AttributeError: not text
        raise ValueError(f"--{flag} {text!r} is not a {sep!r}-separated list "
                         f"of {kind.__name__} numbers") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--{flag} {text!r} needs finite numbers")
    return values


def _grid(flag, text):
    """Positive counts from "AxB..."; ``verifier._grid_points`` checks that
    there is one for every axis or one per axis."""
    counts = _numbers(flag, text, int, "x")
    if min(counts) < 1:
        raise ValueError(f"--{flag} {text!r} needs positive integer counts")
    return counts


def _checked(want, test):
    """The parser of a flag whose value must pass ``test``, stated as ``want``."""
    def parse(flag, value):
        if not test(value):
            raise ValueError(f"--{flag} must be {want}, got {value!r}")
        return value
    return parse


def _dirs(flag, text):
    """basis, random, or the angles of angles:A,B,... (degrees) in radians."""
    if text in ("basis", "random"):
        return text
    if isinstance(text, str) and text.startswith("angles:"):
        angles = np.radians(_numbers(flag, text[7:]))
        # the directions' Gram matrix holds the cosines of the angle gaps
        if np.abs(np.cos(angles[:, None] - angles) - np.eye(len(angles))).max() > 1e-9:
            raise ValueError(f"--{flag} {text!r} needs pairwise perpendicular "
                             "directions: one angle, or two 90 degrees apart")
        return angles
    raise ValueError(f"--{flag} {text!r} is not angles:A,B,..., basis or random")


_COUNT = _checked("a positive integer", lambda v: type(v) is int and v >= 1)
_TEXT = _checked("text", lambda v: isinstance(v, str))
_POSITIVE = _checked("finite and positive", lambda v: type(v) in (int, float)
                     and math.isfinite(v) and v > 0)
# the parser of each flag's value, from the command line or a config file
PARSERS = {"s": _COUNT, "samples": _COUNT, "points": _COUNT, "tol": _POSITIVE,
           "radius": _POSITIVE, "grid": _grid, "dirs": _dirs,
           "seed": _checked("a non-negative integer", lambda v: type(v) is int and v >= 0),
           "surface": _TEXT, "metric": _TEXT, "out": _TEXT,
           "format": _checked("json or csv", lambda v: v in ("json", "csv")),
           "taylor": _checked("true or false", lambda v: type(v) is bool),
           "point": lambda flag, text: np.asarray(_numbers(flag, text))}
REQUIRED = {"analyze": "surface", "slice": "surface", "audit-cartan": "metric"}


def _resolve_dirs(im, rep, dirs, s, seed):
    """The tangent direction rows of a ``--dirs`` value parsed by _dirs;
    ``s`` is --s or None (one row, or one per angle)."""
    if not isinstance(dirs, str):       # the angles, in radians
        if im.param_dim != 2:
            raise ValueError("--dirs angles:... needs a 2-parameter surface")
        if s not in (None, len(dirs)):
            raise ValueError(f"--s {s} is not the number of --dirs angles, {len(dirs)}")
        e1, e2 = rep.tangent_frame
        return np.stack([np.cos(a) * e1 + np.sin(a) * e2 for a in dirs])
    s = s or 1
    if dirs == "random":
        rng = np.random.default_rng([seed, 7])
        return verifier._random_tangent_dirs(rep, [rng], s)[0]
    return rep.principal_directions[:s]


def cmd_analyze(args):
    im = resolve(args.surface).obj
    counts = args.grid or [10]
    grid = verifier._grid_points(im, counts, margin=0.02)
    counts = counts * im.param_dim if len(counts) == 1 else counts
    tol = args.tol or 1e-6
    rep = shape_report(im, grid)
    kappas = (rep.principal_curvatures.tolist()
              if rep.principal_curvatures is not None else [None] * len(grid))
    defects = rep.umbilicity_defect
    rows = [{"u": u, "h_magnitude": h, "principal_curvatures": kappa,
             "defect": defect, "is_umbilic": defect <= tol}
            for u, h, kappa, defect in zip(
                grid.tolist(), rep.scalars["h_norm_abs"].tolist(), kappas,
                defects.tolist())]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "surface": args.surface,
        "grid": counts,
        "tolerance": tol,
        "rows": rows,
        "aggregate": {
            "umbilic_fraction": float(np.mean(defects <= tol)),
            "max_defect": float(np.max(defects)),
            "min_defect": float(np.min(defects)),
        },
    }
    if args.format == "csv":
        m = im.param_dim
        header = [f"u{i}" for i in range(m)] + ["h_magnitude"]
        header += [f"kappa{i}" for i in range(m)] + ["defect", "is_umbilic"]
        lines = [",".join(header)]
        for r in rows:
            vals = list(r["u"]) + [r["h_magnitude"]]
            vals += list(r["principal_curvatures"] or [float("nan")] * m)
            vals += [r["defect"], int(r["is_umbilic"])]
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                  for v in vals))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(payload, args.out)
    return 0


def cmd_slice(args):
    im = resolve(args.surface).obj
    q = im.domain.mean(axis=1) if args.point is None else args.point
    if (args.s or 1) > im.param_dim:
        raise ValueError(f"--s {args.s} exceeds the surface dimension {im.param_dim}")
    rep = shape_report(im, q)
    dirs = _resolve_dirs(im, rep, "basis" if args.dirs is None else args.dirs,
                         args.s, args.seed)
    spec = make_slice_spec(im, rep, dirs)
    radius = args.radius
    if radius is None:
        radius = (taylor_trace_radius if args.taylor else default_trace_radius)(rep)
    res = trace_slice(im, spec, radius=radius,
                      samples_per_dim=args.samples or 8)
    slice_shape(res)
    try:
        if im.ambient.signature.index == 0:
            res.fit_sphere = fit_sphere(res.points)
        else:
            res.fit_hyperbolic = fit_hyperbolic(res.points)
    except UmbilicLabError as exc:
        res.provenance["fit_error"] = f"{type(exc).__name__}: {exc}"
    _emit(res.samples_csv() if args.format == "csv" else res.to_dict(), args.out)
    return 0


def cmd_verify(args):
    reports = verifier.run_suite(
        args.suite, args.surface, n_points=args.samples or 20,
        seed=args.seed, grid=args.grid or [5],
        **({} if args.tol is None else {"tol": args.tol}))
    _emit({"schema_version": SCHEMA_VERSION,
           "reports": [r.to_dict() for r in reports]}, args.out)
    return 0 if all(r.overall for r in reports) else 1


def cmd_audit_cartan(args):
    report = ambient_ops.cartan_audit(
        resolve(args.metric, kind="ambient").obj, args.points or 5,
        triples_per_point=args.samples or 10, seed=args.seed, tol=args.tol)
    _emit({**report.to_dict(), "metric": args.metric}, args.out)
    return 0


def cmd_catalog(args):
    _emit({"schema_version": SCHEMA_VERSION, "entries": list_catalog()},
          args.out)
    return 0


def _add_common(p, seed=True, tol=True):
    if seed:
        p.add_argument("--seed", type=int, default=None)
    if tol:
        p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None,
                   help="JSON file with defaults for any flag")


class _Parser(argparse.ArgumentParser):
    """Its errors raise ValueError, for ``main`` to report as one line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="umbilic-lab",
        description="Extrinsic curvature, umbilic points, and normal slices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="umbilicity report over a parameter grid")
    p.add_argument("--surface", help="catalog id; required, here or in --config")
    p.add_argument("--grid", default=None, help="AxB or A, default 10 per axis")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    _add_common(p)      # analyze draws nothing, but scripts pass --seed

    p = sub.add_parser("slice", help="trace one normal slice and fit models")
    p.add_argument("--surface", help="catalog id; required, here or in --config")
    p.add_argument("--point", default=None, help="parameter point, e.g. 0.5,0.3")
    p.add_argument("--dirs", default=None,
                   help="basis | random | angles:a,b,...")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--taylor", action="store_true",
                   help="use the small Taylor-window trace radius")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    _add_common(p, tol=False)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("suite", choices=sorted([*verifier.SUITE_TARGETS, "all"]))
    p.add_argument("--surface", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="points per surface")
    p.add_argument("--grid", default=None, help="AxB or A, default 5 per axis")
    _add_common(p)

    p = sub.add_parser("audit-cartan", help="constant-curvature audit of a metric")
    p.add_argument("--metric", help="catalog id; required, here or in --config")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="triples per point")
    _add_common(p)

    p = sub.add_parser("catalog", help="list built-in metrics and surfaces")
    _add_common(p, seed=False, tol=False)
    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            raise ValueError(f"--config {args.config!r} holds no JSON object")
        for key, value in conf.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise ValueError(f"config key {key!r} is not an option of "
                                 f"{args.command}")
            if getattr(args, attr) in (None, False):
                setattr(args, attr, value)
    for flag, parse in PARSERS.items():
        if getattr(args, flag, None) is not None:
            setattr(args, flag, parse(flag, getattr(args, flag)))
        elif REQUIRED.get(args.command) == flag:
            raise ValueError(f"--{flag} is required, on the command line or in --config")
    if getattr(args, "seed", None) is None:
        args.seed = 42
    return args


COMMANDS = {
    "analyze": cmd_analyze,
    "slice": cmd_slice,
    "verify": cmd_verify,
    "audit-cartan": cmd_audit_cartan,
    "catalog": cmd_catalog,
}


def main(argv=None):
    try:
        # a non-finite value is reported as one error, not as numpy warnings
        with np.errstate(all="ignore"):
            args = _apply_config(build_parser().parse_args(argv))
            return COMMANDS[args.command](args)
    except UmbilicLabError as exc:
        _diagnostic(exc.code, exc, offending=getattr(exc, "context", None) or None)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _diagnostic("invalid-input", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
