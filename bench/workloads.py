"""The benchmark's workloads and the passes that run them.

Each workload makes its inputs from a seed, lists the catalog ids its
set-up resolves, and builds a list of tasks: a timed call into the
program plus a gate that runs after the timed pass.  A task may cover
several operations (an ``analyze`` call covers one operation per grid
row); each operation passes its gate or fails with a code.  Failures never
stop a pass.
"""

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tracer import error_code
from umbilic_lab import ambient, catalog, cli, verifier
from umbilic_lab.errors import UmbilicLabError

# `verify all` runs every suite with these arguments.
VERIFY_POINTS = 5
VERIFY_GRID = (5, 5)

ANALYZE_SURFACES = (("ellipsoid", (1.0, 2.0, 3.0), "60x60"),
                    ("hyperboloid-sheet", (1.0,), "12x12x12"))
# Analytic charts agree with the closed forms to ~1e-14; the margin leaves
# room for a change of summation order, not for a wrong curvature.
ANALYZE_REL_TOL = 1e-10

CARTAN_METRICS = (("desitter:1", "ConstantCurvatureCompatible"),
                  ("sphere:1", "ConstantCurvatureCompatible"),
                  ("hyperbolic:1", "ConstantCurvatureCompatible"),
                  ("perturbed-minkowski:0.1", "Obstructed"))
CARTAN_POINTS = 200
CARTAN_TRIPLES = 10

# Failures the program is known to produce on these inputs, each with the
# most it may reach in one pass of CARTAN_POINTS points per metric.  Within
# its ceiling a failure is counted in `failed` and shown by code, but does
# not make a run incorrect; above it, or with any other code, the run fails.
# - triple sampling near the light cone gives up (SamplingExhausted) at
#   about one Lorentzian point in 2,000;
# - at about one de Sitter point in 500 the finite-difference noise of the
#   Codazzi obstruction (up to ~2e-5) exceeds the fixed 1e-6 tolerance,
#   so a constant-curvature metric is judged Obstructed.
# Over seeds 0-149 no pass had more than 2 of any of them.
KNOWN_FAILURES = {
    ("desitter:1", "sampling-exhausted"): 4,
    ("perturbed-minkowski:0.1", "sampling-exhausted"): 4,
    ("desitter:1", "verdict-mismatch"): 4,
}


def over_ceiling(failures):
    """The (group, code) failures of one pass that make a run incorrect."""
    return {key: n for key, n in failures.items()
            if n > KNOWN_FAILURES.get(key, 0)}


# Errors an operation may raise without aborting the pass.
OP_ERRORS = (UmbilicLabError, ValueError, np.linalg.LinAlgError)


@dataclass
class Task:
    label: str
    group: str                             # catalog id the failures count under
    ops: int                               # operations the task covers
    run: Callable[[], object]              # timed
    check: Callable[[object], tuple]       # -> (payload, Counter of failures)


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failures: Counter                      # (group, code) -> operations
    digest: str
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def zero_runtime(obj):
    """Copy of a report with every ``runtime_ms`` set to 0."""
    if isinstance(obj, dict):
        return {k: 0 if k == "runtime_ms" else zero_runtime(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [zero_runtime(v) for v in obj]
    return obj


def run_pass(tasks, tracer=None):
    """Time every task, then gate the outputs and hash the reports."""
    results = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.op = i
        try:
            results.append((task.run(), None))
        except OP_ERRORS as exc:
            # keep only the code: the exception's traceback would hold the
            # whole pass alive in a reference cycle
            results.append((None, error_code(exc)))
    seconds = time.perf_counter() - start

    payloads, failures, attempted = [], Counter(), 0
    for task, (result, code) in zip(tasks, results):
        attempted += task.ops
        if code is not None:
            failures[task.group, code] += task.ops
            payloads.append({"task": task.label, "error": code})
            continue
        payload, fails = task.check(result)
        for code, n in fails.items():
            failures[task.group, code] += n
        payloads.append(payload)
    text = json.dumps(payloads, sort_keys=True)
    return PassResult(seconds, attempted, failures,
                      hashlib.sha256(text.encode()).hexdigest())


def run_passes(workload, seconds, min_passes, tracer=None):
    """Passes until ``seconds`` have gone by and at least ``min_passes`` ran."""
    passes = []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.install()
    try:
        while len(passes) < min_passes or time.perf_counter() < deadline:
            tasks = workload.tasks()
            if tracer is not None:
                tracer.reset()
            result = run_pass(tasks, tracer)
            if tracer is not None:
                result.layers = tracer.pass_metrics()
                result.spans = [span + [len(passes)] for span in tracer.spans]
            passes.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


class VerifyAll:
    """Every (suite, surface) pair `verify all` runs, one task each."""

    name = "verify-all"

    def __init__(self, seed, small=False):
        self.seed = seed
        self.points, self.grid = VERIFY_POINTS, VERIFY_GRID
        self.pairs = [(sid, t) for sid, targets in verifier.SUITE_TARGETS.items()
                      for t in (targets[:1] if small else targets)]
        if small:
            self.points, self.grid = 1, (2, 2)
        self.ids = sorted({("immersion", t) for _sid, t in self.pairs})

    def describe(self):
        return (f"{len(self.pairs)} (suite, surface) pairs, "
                f"{self.points} points per surface, grid "
                f"{self.grid[0]}x{self.grid[1]}, suite seed {self.seed}")

    def tasks(self):
        return [Task(f"{sid} {target}", target, 1,
                     self._run(sid, target), _check_verify)
                for sid, target in self.pairs]

    def _run(self, sid, target):
        def run():
            return verifier.run_suite(sid, target, n_points=self.points,
                                      seed=self.seed, grid=self.grid)
        return run


def _check_verify(reports):
    failures = Counter()
    if not all(r.overall for r in reports):
        failures["verdict-mismatch"] += 1
    return [zero_runtime(r.to_dict()) for r in reports], failures


class AnalyzeGrid:
    """`analyze` through the CLI with JSON output, one task per surface.

    The seed scales each surface; shapes and grid sizes, and so the work,
    do not depend on it.
    """

    name = "analyze-grid"

    def __init__(self, seed, small=False):
        self.seed = seed
        rng = np.random.default_rng([seed, 11])
        self.jobs = []
        for family, shape, grid in ANALYZE_SURFACES:
            dims = len(grid.split("x"))
            scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            args = [f"{scale * c:.6g}" for c in shape]
            if family == "hyperboloid-sheet":
                args.append(str(dims))
            if small:
                grid = "x".join(["3"] * dims)
            sid = f"{family}:{','.join(args)}"
            self.jobs.append((sid, grid, catalog.resolve(sid)))
        self.ids = [("immersion", sid) for sid, _g, _e in self.jobs]

    def describe(self):
        return ", ".join(f"{sid} at {grid}" for sid, grid, _e in self.jobs)

    def tasks(self):
        return [Task(f"analyze {sid} {grid}", sid, _rows(grid),
                     self._run(sid, grid), _analyze_check(entry, _rows(grid)))
                for sid, grid, entry in self.jobs]

    def _run(self, sid, grid):
        argv = ["analyze", "--surface", sid, "--grid", grid,
                "--seed", str(self.seed)]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        return run


def _rows(grid):
    return int(np.prod([int(c) for c in grid.split("x")]))


def _analyze_check(entry, rows):
    closed = entry.closed_form["principal_curvatures"]

    def check(result):
        code, text, err = result
        if code != 0:
            diag = json.loads(err.strip().splitlines()[-1])
            return {"exit": code, "stderr": err}, Counter({diag["code"]: rows})
        failures = Counter()
        payload = json.loads(text)
        for row in payload["rows"]:
            want = np.sort(closed(row["u"]))
            got = np.sort(np.asarray(row["principal_curvatures"]
                                     or [np.nan] * want.size))
            scale = max(1.0, float(np.max(np.abs(want))))
            if not np.all(np.abs(got - want) <= ANALYZE_REL_TOL * scale):
                failures["curvature-mismatch"] += 1
        if len(payload["rows"]) < rows:
            failures["missing-row"] += rows - len(payload["rows"])
        return text, failures
    return check


class CartanAudit:
    """One `cartan_audit` call per point drawn from each metric's sample box."""

    name = "cartan-audit"

    def __init__(self, seed, small=False):
        self.count = 5 if small else CARTAN_POINTS
        self.jobs = []
        for k, (mid, verdict) in enumerate(CARTAN_METRICS):
            space = catalog.resolve(mid, kind="ambient").obj
            rng = np.random.default_rng([seed, 23, k])
            lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
            for _ in range(self.count):
                x = lo + rng.random(space.dimension) * (hi - lo)
                self.jobs.append((mid, verdict, x, int(rng.integers(2 ** 31))))
        self.ids = [("ambient", mid) for mid, _v in CARTAN_METRICS]

    def describe(self):
        return (f"{self.count} points from the sample box of each of "
                + ", ".join(mid for mid, _v in CARTAN_METRICS)
                + f"; {CARTAN_TRIPLES} triples per point")

    def tasks(self):
        spaces = {}

        def run(mid, x, op_seed):
            # each metric is resolved once per pass, as `audit-cartan` would
            if mid not in spaces:
                spaces[mid] = catalog.resolve(mid, kind="ambient").obj
            return ambient.cartan_audit(spaces[mid], [x],
                                        triples_per_point=CARTAN_TRIPLES,
                                        seed=op_seed)

        return [Task(f"{mid} #{i}", mid, 1,
                     lambda m=mid, x=x, s=op_seed: run(m, x, s),
                     _cartan_check(verdict))
                for i, (mid, verdict, x, op_seed) in enumerate(self.jobs)]


def _cartan_check(verdict):
    def check(report):
        failures = Counter()
        if report.verdict != verdict:
            failures["verdict-mismatch"] += 1
        return report.to_dict(), failures
    return check


WORKLOADS = {w.name: w for w in (VerifyAll, AnalyzeGrid, CartanAudit)}
