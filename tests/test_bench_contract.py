"""The benchmark under bench/ reaches into the package by name: the tracer
rebinds module-level functions and methods, and the workloads call the
public API.  These tests keep the package to that contract."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from umbilic_lab import ambient, catalog, immersion

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """bench/<name>.py as the module ``name`` (the workloads import the
    tracer by that name)."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", tracer.SPANNED + tracer.LEAVES)
def test_traced_names_resolve(name):
    home, *path = name.split(".")
    obj = importlib.import_module(f"{tracer.PACKAGE}.{home}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_tracer_sees_the_frames_call_of_shape_report():
    im = catalog.resolve("ellipsoid:1,2,3").obj
    t = tracer.Tracer()
    t.install()
    try:
        # through the module, where the tracer rebinds it
        immersion.shape_report(im, [[1.0, 0.5], [1.2, 0.4]])
        immersion.shape_report(im, [1.0, 0.5])
    finally:
        t.uninstall()
    layers = t.pass_metrics()
    assert layers["immersion.shape_report.calls"] == 2
    assert layers["immersion.frames.calls"] == 2
    assert layers["frames.pseudo_gram_schmidt.calls"] == 4
    assert layers["frames.complement_basis.calls"] == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_pass_of_each_workload_is_correct(name):
    workload = workloads.WORKLOADS[name](42, small=True)
    result = workloads.run_pass(workload.tasks())
    assert result.attempted > 0
    assert workloads.over_ceiling(result.failures) == {}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_small_pass_makes_no_finite_difference_call(name):
    # every chart and metric of the workloads has analytic derivatives
    workload = workloads.WORKLOADS[name](42, small=True)
    t = tracer.Tracer()
    t.install()
    try:
        workloads.run_pass(workload.tasks(), t)
    finally:
        t.uninstall()
    layers = t.pass_metrics()
    assert t.spans
    leaves = [n for n in tracer.LEAVES if n.startswith("numdiff.")]
    assert len(leaves) == 4
    assert {n: layers[f"{n}.calls"] for n in leaves} == dict.fromkeys(leaves, 0)


def test_traced_small_verify_all_pass_makes_one_report_and_stack_per_task():
    # each task makes one (batched) shape report, whose normal frames take
    # one complement stack, and one trace_slices call, which takes another
    workload = workloads.VerifyAll(42, small=True)
    tasks = workload.tasks()
    t = tracer.Tracer()
    t.install()
    try:
        workloads.run_pass(tasks, t)
    finally:
        t.uninstall()
    layers = t.pass_metrics()
    assert layers["immersion.shape_report.calls"] == len(tasks)
    assert layers["frames.complement_basis.calls"] == 2 * len(tasks)


@pytest.mark.parametrize("seed", range(10))
def test_small_cartan_audit_pass_has_no_failures(seed):
    workload = workloads.CartanAudit(seed, small=True)
    result = workloads.run_pass(workload.tasks())
    assert result.attempted == 20
    assert result.failures == {}


def test_traced_riemann_makes_one_christoffel_call():
    space = catalog.resolve("desitter:1", kind="ambient").obj
    t = tracer.Tracer()
    t.install()
    try:
        ambient.riemann(space, np.array([1.0, 1.2, 0.9, 0.3]))
    finally:
        t.uninstall()
    layers = t.pass_metrics()
    assert layers["ambient.riemann.calls"] == 1
    assert layers["ambient.christoffel.calls"] == 1
    assert layers["ambient.riemann.christoffel_per_call"] == 1
    assert layers["ambient.AmbientSpace.metric_at.calls"] == 1
    assert layers["numdiff.central_diff4.calls"] == 0


def test_traced_one_point_cartan_audit_does_each_step_once(monkeypatch):
    # the per-point work of the benchmark's cartan-audit operation, with the
    # np.linalg decompositions that ambient and frames call counted
    space = catalog.resolve("desitter:1", kind="ambient").obj
    calls = dict.fromkeys(("eigh", "eigvalsh", "qr", "inv"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    t = tracer.Tracer()
    t.install()
    try:
        ambient.cartan_audit(space, [np.array([1.0, 1.2, 0.9, 0.3])], seed=7)
    finally:
        t.uninstall()
    assert calls == {"eigh": 1, "eigvalsh": 1, "qr": 0, "inv": 0}
    layers = t.pass_metrics()
    assert layers["ambient.cartan_audit.calls"] == 1
    assert layers["ambient.riemann.calls"] == 1
    assert layers["ambient.christoffel.calls"] == 1
    assert layers["ambient.AmbientSpace.metric_at.calls"] == 1
    assert layers["frames.draw_pseudo_orthonormal.calls"] == 1
    assert layers["numdiff.central_diff.calls"] == 0
    assert layers["numdiff.central_diff4.calls"] == 0
