#!/usr/bin/env python3
"""umbilic-lab benchmark: one workload, timed passes, gated outputs.

    python3 bench/run.py --workload verify-all --seed 42 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` (median
over fresh interpreters that import the package and resolve the
workload's catalog ids), ``wall_s`` (median wall time of one full pass in
a warm process) and ``peak_rss_mb``.  With ``--trace 1`` it runs untraced
and then traced passes and reports the per-layer metrics of ``tracer.py``;
the spans are written to ``.bench_out/`` at the root of the checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output fails a gate, unless it is a known failure of the program
that stays within its ceiling per pass.
"""

import os

# One process with one BLAS thread; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import umbilic_lab
from umbilic_lab.catalog import resolve
args = sys.argv[1:]
for kind, cid in zip(args[::2], args[1::2]):
    resolve(cid, kind=kind)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(ids):
    """Seconds for fresh interpreters to import the package and resolve ids."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE]
    for kind, cid in ids:
        cmd += [kind, cid]
    times = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if k:       # the first start compiles bytecode and warms the file cache
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def summarize(label, values, unit):
    q = statistics.quantiles(values, n=4)
    print(f"{label}: median {statistics.median(values):.6g} {unit} "
          f"(n={len(values)}, q1 {q[0]:.6g}, q3 {q[2]:.6g}, "
          f"min {min(values):.6g}, max {max(values):.6g})")


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def environment(seed):
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1, "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "umbilic_lab" / "__init__.py").is_file():
        print(f"error: umbilic_lab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    from workloads import KNOWN_FAILURES, WORKLOADS, over_ceiling, run_passes

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print(f"environment: {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {workload.name}: {workload.describe()}")

    metrics = {}
    if not args.trace:
        setup = measure_setup(workload.ids)
        summarize("setup_s", setup, "s")
        metrics["setup_s"] = statistics.median(setup)

    warm = run_passes(workload, 0.0, 1)
    if args.trace:
        plain = run_passes(workload, args.seconds / 2, MIN_PASSES)
        traced = run_passes(workload, args.seconds / 2, MIN_TRACED_PASSES,
                            tracer=tracing.Tracer())
        measured = plain + traced
    else:
        plain = run_passes(workload, args.seconds, MIN_PASSES)
        traced = []
        measured = plain

    walls = [p.seconds for p in plain]
    summarize("wall_s per pass, untraced", walls, "s")
    # Every pass repeats the same operations on the same inputs, and a
    # correct run has one report digest, failures included, over all passes.
    # So each operation counts once: `attempted` and `failed` depend on the
    # seed and the program, not on how many passes fit in `--seconds`.
    # Where passes disagree (an incorrect run), a key counts its worst pass.
    attempted = measured[0].attempted
    failures = Counter()
    for p in warm + measured:
        failures |= p.failures
    failed = sum(failures.values())
    print(f"operations per pass: {attempted}; "
          f"fail_frac {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted, counted once over "
          f"{len(warm + measured)} passes of the same operations)")
    for key, worst in sorted(failures.items()):
        ceiling = KNOWN_FAILURES.get(key, 0)
        status = (f"known, at most {ceiling} per pass" if worst <= ceiling
                  else f"GATE FAILURE: {worst} in one pass, ceiling {ceiling}")
        print(f"  failed {worst}: {key[0]} {key[1]} ({status})")

    digests = {p.digest for p in warm + measured}
    reference = load_reference()
    ref = reference.get("digests", {}).get(workload.name, {}).get(str(args.seed))
    print(f"report digest: {sorted(digests)[0]}"
          + ("" if len(digests) == 1 else f" (+{len(digests) - 1} differing)")
          + (f"; reference for seed {args.seed}: "
             + ("match" if {ref} == digests else f"DIFFERS ({ref})")
             if ref else ""))
    correct = len(digests) == 1 and not any(over_ceiling(p.failures)
                                            for p in warm + measured)

    if args.trace:
        twalls = [p.seconds for p in traced]
        summarize("wall_s per pass, traced", twalls, "s")
        for name in traced[0].layers:
            metrics[name] = statistics.median(p.layers[name] for p in traced)
        metrics["ops.fail_frac"] = failed / attempted
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.traced_wall_s"] = statistics.median(twalls)
        metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent", "op", "pass"],
            "spans": [s for p in traced for s in p.spans],
            "per_pass": [p.layers for p in traced],
        }))
        print(f"spans: {sum(len(p.spans) for p in traced)} written to {out}")
        units = {name: tracing.metric_unit(name) for name in metrics}
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB")
        units = END_TO_END_UNITS

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
