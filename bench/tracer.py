"""Layer tracing from outside the program.

The tracer rebinds public functions of ``umbilic_lab`` in every module of
the package that imported them, records a span (name, start, end, parent,
operation id) per call of a layer function and an aggregated count and
time per call of a leaf method, and puts every original back on
``uninstall``.  Nothing in the package itself is edited or imported
differently, so untraced runs measure the unmodified program.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "umbilic_lab"

# Layer functions: each call becomes a span, reported as calls, total_s, self_s.
SPANNED = (
    "cli.main",
    "catalog.resolve",
    "verifier.run_suite",
    "slicer.make_slice_spec",
    "slicer.build_slice",
    "slicer.trace_slice",
    "slicer.slice_shape",
    "slicer.identity_check",
    "slicer.fit_sphere",
    "slicer.fit_hyperbolic",
    "immersion.frames",
    "immersion.shape_report",
    "ambient.christoffel",
    "ambient.riemann",
    "ambient.cartan_audit",
)

# Leaf methods: called too often to span; reported as calls and total_s.
LEAVES = (
    "immersion.Immersion.point",
    "immersion.Immersion.jacobian_at",
    "immersion.Immersion.hessian_at",
    "immersion.Immersion.in_domain",
    "ambient.AmbientSpace.metric_at",
    "frames.pseudo_gram_schmidt",
    "frames.complement_basis",
    "frames.draw_pseudo_orthonormal",
    "numdiff.central_diff",
    "numdiff.central_diff4",
    "numdiff.jacobian_fd",
    "numdiff.hessian_fd",
)

# Error codes reported as their own metric; any other code counts as "other".
REPORTED_CODES = ("sampling-exhausted", "degenerate-fit", "wrong-causal-type",
                  "degenerate-subspace", "newton-diverged", "value-error",
                  "linalg-error")

DERIVED = (
    "immersion.frames.distinct_points",
    "immersion.frames.calls_per_point",
    "immersion.shape_report.calls_per_point",
    "immersion.shape_report.self_s_per_point",
    "slicer.trace_slice.samples_attempted",
    "slicer.trace_slice.samples_converged",
    "slicer.trace_slice.samples_failed",
    "slicer.trace_slice.sample_yield",
    "slicer.trace_slice.radius_halvings",
    "slicer.trace_slice.newton_iters",
    "slicer.trace_slice.point_evals",
    "slicer.fit.errors",
    "ambient.riemann.christoffel_per_call",
) + tuple(f"raised.{code}" for code in REPORTED_CODES + ("other",)) + (
    "ops.fail_frac",
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_s",
)

PER_LAYER = (
    tuple(f"{n}.{k}" for n in SPANNED for k in ("calls", "total_s", "self_s"))
    + tuple(f"{n}.{k}" for n in LEAVES for k in ("calls", "total_s"))
    + DERIVED
)

PER_LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
                   "calls_per_point": "ratio", "self_s_per_point": "s",
                   "distinct_points": "count", "sample_yield": "ratio",
                   "christoffel_per_call": "ratio", "fail_frac": "ratio",
                   "untraced_wall_s": "s", "traced_wall_s": "s",
                   "overhead_s": "s"}


def metric_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def error_code(exc):
    """Machine-readable code of an exception the program may raise."""
    if isinstance(exc, np.linalg.LinAlgError):
        return "linalg-error"
    code = getattr(exc, "code", None)
    if isinstance(code, str):
        return code
    if isinstance(exc, ValueError):
        return "value-error"
    return type(exc).__name__


def self_times(spans):
    """Per-span self time: duration minus the union of its children.

    ``spans`` holds (name, start, end, parent, op) rows; ``parent`` is the
    index of the enclosing span or -1.  Child intervals are clipped to the
    parent and merged, so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters for one traced pass; ``reset`` between passes."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.leaf_calls = Counter()
        self.leaf_time = defaultdict(float)
        self.leaf_under = Counter()     # (leaf, innermost span name) -> calls
        self.point_rows = Counter()     # innermost span name -> points evaluated
        self.raised = Counter()         # code at the innermost traced boundary
        self.raised_at = Counter()      # (name, code) at every boundary passed
        self.points = set()             # (id(immersion), u bytes) at frames
        self._alive = []                # keeps ids in ``points`` unique
        self.slices = Counter()

    # -- installation -----------------------------------------------------

    def install(self):
        modules = self._package_modules()
        for name in SPANNED:
            self._rebind(modules, name, self._span_wrapper)
        for name in LEAVES:
            self._rebind(modules, name, self._leaf_wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _package_modules(self):
        for mod in {n.split(".")[0] for n in SPANNED + LEAVES}:
            importlib.import_module(f"{PACKAGE}.{mod}")
        return [m for key, m in sorted(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def _rebind(self, modules, name, make_wrapper):
        parts = name.split(".")
        home = sys.modules[f"{PACKAGE}.{parts[0]}"]
        if len(parts) == 3:             # method: patch the class attribute
            cls = getattr(home, parts[1])
            original = cls.__dict__[parts[2]]
            self._patches.append((cls, parts[2], original))
            setattr(cls, parts[2], make_wrapper(name, original))
            return
        original = getattr(home, parts[1])
        wrapper = make_wrapper(name, original)
        for module in modules:
            hits = [attr for attr, val in vars(module).items() if val is original]
            for attr in hits:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _count_raise(self, name, exc):
        code = error_code(exc)
        self.raised_at[name, code] += 1
        if not getattr(exc, "_bench_counted", False):
            self.raised[code] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def _span_wrapper(self, name, fn):
        before = self._note_point if name == "immersion.frames" else None
        after = self._note_slice if name == "slicer.trace_slice" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_raise(name, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        batched = name == "immersion.Immersion.point"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if batched:             # one call may evaluate a batch of rows
                under = self.spans[self.stack[-1]][0] if self.stack else None
                self.point_rows[under] += np.atleast_2d(args[1]).shape[0]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count_raise(name, exc)
                raise
            finally:
                self.leaf_time[name] += time.perf_counter() - start
                self.leaf_calls[name] += 1
                under = self.spans[self.stack[-1]][0] if self.stack else None
                self.leaf_under[name, under] += 1

        return wrapper

    def _note_point(self, args):
        im, u = args[0], args[1]
        key = np.atleast_1d(np.asarray(u, dtype=float)).tobytes()
        self.points.add((id(im), key))
        self._alive.append(im)

    def _note_slice(self, result):
        converged = int(result.points.shape[0])
        failed = int(result.failures)
        halvings = int(result.provenance.get("radius_halvings", 0))
        # the ball grid has the same size at every radius tried
        self.slices["attempted"] += (halvings + 1) * (converged + failed)
        self.slices["converged"] += converged
        self.slices["failed"] += failed
        self.slices["halvings"] += halvings

    # -- metrics ----------------------------------------------------------

    def pass_metrics(self):
        """Per-layer metrics of the pass recorded since the last reset."""
        out = {}
        selfs = self_times(self.spans)
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += own
            if span[3] < 0 or self.spans[span[3]][0] != span[0]:
                total[span[0]] += span[2] - span[1]     # recursion counted once
        for name in SPANNED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in LEAVES:
            out[f"{name}.calls"] = self.leaf_calls[name]
            out[f"{name}.total_s"] = self.leaf_time[name]

        n_points = len(self.points)
        out["immersion.frames.distinct_points"] = n_points
        out["immersion.frames.calls_per_point"] = _ratio(
            calls["immersion.frames"], n_points)
        out["immersion.shape_report.calls_per_point"] = _ratio(
            calls["immersion.shape_report"], n_points)
        out["immersion.shape_report.self_s_per_point"] = _ratio(
            self_s["immersion.shape_report"], n_points)

        traces = calls["slicer.trace_slice"]
        out["slicer.trace_slice.samples_attempted"] = self.slices["attempted"]
        out["slicer.trace_slice.samples_converged"] = self.slices["converged"]
        out["slicer.trace_slice.samples_failed"] = self.slices["failed"]
        out["slicer.trace_slice.sample_yield"] = _ratio(
            self.slices["converged"], self.slices["attempted"])
        out["slicer.trace_slice.radius_halvings"] = self.slices["halvings"]
        # one Jacobian at q per trace; every other one is a Newton iteration
        out["slicer.trace_slice.newton_iters"] = self.leaf_under[
            "immersion.Immersion.jacobian_at", "slicer.trace_slice"] - traces
        out["slicer.trace_slice.point_evals"] = self.point_rows[
            "slicer.trace_slice"]
        out["slicer.fit.errors"] = sum(
            n for (name, _code), n in self.raised_at.items()
            if name in ("slicer.fit_sphere", "slicer.fit_hyperbolic"))
        out["ambient.riemann.christoffel_per_call"] = _ratio(
            sum(1 for span in self.spans if span[0] == "ambient.christoffel"
                and span[3] >= 0 and self.spans[span[3]][0] == "ambient.riemann"),
            calls["ambient.riemann"])
        other = sum(self.raised.values())
        for code in REPORTED_CODES:
            out[f"raised.{code}"] = self.raised[code]
            other -= self.raised[code]
        out["raised.other"] = other
        return out


def _ratio(num, den):
    return num / den if den else 0.0
