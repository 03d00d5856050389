"""Command-line interface: analyze, slice, verify, audit-cartan, catalog.

Exit codes: 0 all checks passed, 1 geometric failure (a verification
suite reported a failing verdict), 2 numerical or infrastructure error.
Every error path prints a single-line machine-readable diagnostic to
stderr before exiting.
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


def _strict(value):
    """``value`` with every non-finite float written as a string, so that
    the diagnostic is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    return value


def _diagnostic(code, message, offending=None):
    line = json.dumps({"code": code, "message": str(message),
                       "input": _strict(offending)}, sort_keys=True)
    print(line, file=sys.stderr)


def _emit(payload, out_path, as_csv=False):
    if as_csv and isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _count(flag, value):
    """``value`` for ``--flag``: a positive integer."""
    if type(value) is not int or value < 1:
        raise ValueError(f"--{flag} must be a positive integer, got {value!r}")
    return value


def _positive(flag, value):
    """``value`` for ``--flag``: a finite positive number."""
    if (type(value) not in (int, float) or not math.isfinite(value)
            or value <= 0):
        raise ValueError(f"--{flag} must be finite and positive, got {value!r}")
    return value


# the parser of each flag's value, from the command line or a config file
PARSERS = {"s": _count, "samples": _count, "points": _count, "tol": _positive,
           "radius": _positive, "grid": _grid,
           "point": lambda flag, text: np.asarray(_numbers(flag, text))}


def _resolve_dirs(im, rep, dirs_text, s, seed):
    if dirs_text.startswith("angles:"):
        angles = np.radians(_numbers("dirs", dirs_text[7:]))
        if im.param_dim != 2:
            raise ValueError(f"--dirs {dirs_text!r} needs a 2-parameter surface")
        e1, e2 = rep.tangent_frame
        return np.stack([np.cos(a) * e1 + np.sin(a) * e2 for a in angles])
    if dirs_text == "basis":
        return rep.principal_directions[:s]
    if dirs_text == "random":
        rng = np.random.default_rng([seed, 7])
        return verifier._random_tangent_dirs(rep, [rng], s)[0]
    raise ValueError(f"--dirs {dirs_text!r} is not angles:A,B,..., basis or random")


def cmd_analyze(args):
    entry = resolve(args.surface)
    im = entry.obj
    counts = args.grid or [10]
    grid = verifier._grid_points(im, counts, margin=0.02)
    counts = counts * im.param_dim if len(counts) == 1 else counts
    tol = args.tol or 1e-6
    rep = shape_report(im, grid)
    kappas = (rep.principal_curvatures.tolist()
              if rep.principal_curvatures is not None else [None] * len(grid))
    rows = [{"u": u, "h_magnitude": h, "principal_curvatures": kappa,
             "defect": defect, "is_umbilic": defect <= tol}
            for u, h, kappa, defect in zip(
                grid.tolist(), rep.scalars["h_norm_abs"].tolist(), kappas,
                rep.umbilicity_defect.tolist())]
    defects = [r["defect"] for r in rows]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "surface": args.surface,
        "grid": counts,
        "tolerance": tol,
        "rows": rows,
        "aggregate": {
            "umbilic_fraction": float(np.mean([r["is_umbilic"] for r in rows])),
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
        _emit("\n".join(lines) + "\n", args.out, as_csv=True)
    else:
        _emit(payload, args.out)
    return 0


def cmd_slice(args):
    entry = resolve(args.surface)
    im = entry.obj
    q = im.domain.mean(axis=1) if args.point is None else args.point
    s = args.s or 1
    if s > im.param_dim:
        raise ValueError(f"--s {s} exceeds the surface dimension {im.param_dim}")
    rep = shape_report(im, q)
    dirs = _resolve_dirs(im, rep, args.dirs, s, args.seed)
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
    if args.format == "csv":
        _emit(res.samples_csv(), args.out, as_csv=True)
    else:
        _emit(res.to_dict(), args.out)
    return 0


def cmd_verify(args):
    reports = verifier.run_suite(
        args.suite, args.surface, n_points=args.samples or 20,
        seed=args.seed, grid=args.grid or [5],
        **({} if args.tol is None else {"tol": args.tol}))
    payload = {"schema_version": SCHEMA_VERSION,
               "reports": [r.to_dict() for r in reports]}
    _emit(payload, args.out)
    return 0 if all(r.overall for r in reports) else 1


def cmd_audit_cartan(args):
    entry = resolve(args.metric, kind="ambient")
    space = entry.obj
    report = ambient_ops.cartan_audit(
        space, args.points or 5, triples_per_point=args.samples or 10,
        seed=args.seed, tol_codazzi=args.tol, tol_spread=args.tol)
    payload = report.to_dict()
    payload["metric"] = args.metric
    _emit(payload, args.out)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="umbilic-lab",
        description="Extrinsic curvature, umbilic points, and normal slices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="umbilicity report over a parameter grid")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", default=None, help="AxB or A, default 10 per axis")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    _add_common(p)      # analyze draws nothing, but scripts pass --seed

    p = sub.add_parser("slice", help="trace one normal slice and fit models")
    p.add_argument("--surface", required=True)
    p.add_argument("--point", default=None, help="parameter point, e.g. 0.5,0.3")
    p.add_argument("--dirs", default="basis",
                   help="basis | random | angles:a,b,...")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--taylor", action="store_true",
                   help="use the small Taylor-window trace radius")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    _add_common(p, tol=False)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("suite", choices=sorted(
        [*verifier.POINT_SUITES, "remark4", *verifier.CHARACTERIZATIONS, "all"]))
    p.add_argument("--surface", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="points per surface")
    p.add_argument("--grid", default=None, help="AxB or A, default 5 per axis")
    _add_common(p)

    p = sub.add_parser("audit-cartan", help="constant-curvature audit of a metric")
    p.add_argument("--metric", required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value is reported as one error, not as numpy warnings
        with np.errstate(all="ignore"):
            args = _apply_config(args)
            return COMMANDS[args.command](args)
    except UmbilicLabError as exc:
        _diagnostic(exc.code, exc, offending=getattr(exc, "context", None) or None)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _diagnostic("invalid-input", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
