"""Command-line interface: analyze, slice, verify, audit-cartan, catalog.

Exit codes: 0 all checks passed, 1 geometric failure (a verification
suite reported a failing verdict), 2 numerical or infrastructure error.
Every error path prints a single-line machine-readable diagnostic to
stderr before exiting.
"""

import argparse
import json
import sys

import numpy as np

from . import ambient as ambient_ops
from . import verifier
from .catalog import list_catalog, resolve
from .errors import UmbilicLabError
from .immersion import shape_report
from .slicer import (default_trace_radius, fit_hyperbolic, fit_sphere,
                     identity_check, make_slice_spec, slice_shape,
                     taylor_trace_radius, trace_slice)

SCHEMA_VERSION = 1


def _diagnostic(code, message, offending=None):
    line = json.dumps({"code": code, "message": str(message),
                       "input": offending}, sort_keys=True)
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


def _parse_point(text):
    parts = []
    for tok in text.split(","):
        tok = tok.strip()
        if "=" in tok:
            tok = tok.split("=", 1)[1]
        parts.append(float(tok))
    return np.asarray(parts, dtype=float)


def _parse_grid(text, dims):
    counts = [int(t) for t in text.lower().split("x")]
    if len(counts) == 1:
        counts = counts * dims
    return counts


def _resolve_dirs(im, rep, dirs_text, s, seed):
    if dirs_text.startswith("angles:"):
        angles = [np.radians(float(a)) for a in dirs_text[7:].split(",")]
        if im.param_dim != 2:
            raise UmbilicLabError("angle directions need a 2-parameter surface")
        e1, e2 = rep.tangent_frame
        return np.stack([np.cos(a) * e1 + np.sin(a) * e2 for a in angles])
    if dirs_text == "basis":
        return rep.principal_directions[:s]
    if dirs_text == "random":
        rng = np.random.default_rng([seed, 7])
        return verifier._random_tangent_dirs(rep, rng, s)
    raise UmbilicLabError(f"cannot parse directions {dirs_text!r}")


def cmd_analyze(args):
    entry = resolve(args.surface)
    im = entry.obj
    counts = _parse_grid(args.grid or "10x10", im.param_dim)
    lo, hi = im.domain[:, 0], im.domain[:, 1]
    pad = 0.02 * (hi - lo)
    axes = [np.linspace(lo[d] + pad[d], hi[d] - pad[d], counts[d])
            for d in range(im.param_dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, im.param_dim)
    tol = args.tol if args.tol is not None else 1e-6
    rows = []
    for u in grid:
        rep = shape_report(im, u)
        rows.append({
            "u": [float(c) for c in u],
            "h_magnitude": rep.scalars["h_norm_abs"],
            "principal_curvatures": (None if rep.principal_curvatures is None
                                     else rep.principal_curvatures.tolist()),
            "defect": float(rep.umbilicity_defect),
            "is_umbilic": bool(rep.umbilicity_defect <= tol),
        })
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
    q = _parse_point(args.point) if args.point else im.domain.mean(axis=1)
    s = args.s or 1
    rep = shape_report(im, q)
    dirs = _resolve_dirs(im, rep, args.dirs, s, args.seed)
    spec = make_slice_spec(im, rep, dirs)
    if args.radius is not None:
        radius = args.radius
    elif args.taylor:
        radius = taylor_trace_radius(rep)
    else:
        radius = default_trace_radius(rep)
    res = trace_slice(im, spec, radius=radius,
                      samples_per_dim=args.samples or 8)
    slice_shape(res)
    identity_check(im, res)
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
    kwargs = {}
    if args.tol is not None:
        if args.suite in ("sphere-characterization", "hyperbolic-characterization"):
            kwargs["tol_fit"] = args.tol
        else:
            kwargs["tol"] = args.tol
    grid = tuple(_parse_grid(args.grid, 2)) if args.grid else (5, 5)
    surfaces = [args.surface] if args.surface else \
        verifier.SUITE_TARGETS.get(args.suite, [None])
    reports = []
    for surface in surfaces:
        reports.extend(verifier.run_suite(
            args.suite, surface, n_points=args.samples or 20,
            seed=args.seed, grid=grid, **kwargs))
    payload = {"schema_version": SCHEMA_VERSION,
               "reports": [r.to_dict() for r in reports]}
    _emit(payload, args.out)
    return 0 if all(r.overall for r in reports) else 1


def cmd_audit_cartan(args):
    entry = resolve(args.metric, kind="ambient")
    space = entry.obj
    report = ambient_ops.cartan_audit(
        space, args.points or 5, triples_per_point=args.samples or 10,
        seed=args.seed,
        tol_codazzi=args.tol, tol_spread=args.tol)
    payload = report.to_dict()
    payload["metric"] = args.metric
    _emit(payload, args.out)
    return 0


def cmd_catalog(args):
    _emit({"schema_version": SCHEMA_VERSION, "entries": list_catalog()},
          args.out)
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--config", default=None,
                   help="JSON file with defaults for any flag")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="umbilic-lab",
        description="Extrinsic curvature, umbilic points, and normal slices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="umbilicity report over a parameter grid")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", default=None, help="AxB, default 10x10")
    _add_common(p)

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
    _add_common(p)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("suite", choices=sorted(
        list(verifier.POINT_SUITES) +
        ["remark4", "sphere-characterization", "hyperbolic-characterization",
         "all"]))
    p.add_argument("--surface", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="points per surface")
    p.add_argument("--grid", default=None)
    _add_common(p)

    p = sub.add_parser("audit-cartan", help="constant-curvature audit of a metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="triples per point")
    _add_common(p)

    p = sub.add_parser("catalog", help="list built-in metrics and surfaces")
    _add_common(p)
    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            conf = json.load(fh)
        for key, value in conf.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and getattr(args, attr) in (None, False):
                setattr(args, attr, value)
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
