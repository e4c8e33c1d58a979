"""The benchmark's hooks name functions that exist.

``benchmarks/workloads.py`` swaps a reference probe in for the functions its
workloads list in ``probe_points``, and ``benchmarks/tracing.py`` reads its
per-layer metrics from spans around the functions named in ``SPAN_METRICS``.
A change that deletes or renames such a function would break the benchmark
only when it runs; these tests catch it in the suite.  Both files are
compiled from their source text and nothing is written beside them.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    path = BENCHMARKS / f"{name}.py"
    module = types.ModuleType(f"_benchmark_{name}")
    module.__file__ = str(path)
    # dataclasses look their module up while the source runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_probe_point_resolves(workloads):
    probes = [
        (workload.name, module, name)
        for workload in workloads.WORKLOADS.values()
        for module, name in workload.probe_points
    ]
    assert probes  # the dual-path workload probes its sweep points
    for workload, module, name in probes:
        assert callable(getattr(module, name, None)), f"{workload}: {module.__name__}.{name}"


def test_every_span_metric_names_a_public_function(tracing):
    for span, _fields in tracing.SPAN_METRICS:
        layer, name = span.split(".")
        assert layer in tracing.LAYERS, span
        module = importlib.import_module(f"mwphoton.{layer}")
        assert name in module.__all__, span
        assert callable(getattr(module, name)), span
