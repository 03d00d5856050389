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
