"""Every public name of the package is read outside the tests.

A function that only its own tests call is dead surface: no pipeline, demo
or benchmark depends on what it computes, yet it has to be kept working.
Each name in the ``__all__`` of a module of ``src/mwphoton`` must be read,
as an ``ast.Name`` or ``ast.Attribute`` load, in one of these places:

* a module of ``src/mwphoton`` (the re-exports in ``__init__`` are imports,
  not reads);
* a demo in ``demos/``;
* the benchmark's hooks: a span of ``SPAN_METRICS`` in
  ``benchmarks/tracing.py`` or a probe point of ``benchmarks/workloads.py``,
  loaded as ``tests/test_benchmark_names.py`` loads them.

Names are matched without their module, so two modules may export the
same name only for the same object (a re-export).
"""

import ast
import importlib
from pathlib import Path

import pytest

from test_benchmark_names import _load

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mwphoton"

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

#: Public names that nothing outside the tests reads, kept on purpose, with the reason.
DELIBERATE = {
    ("qubit", "critical_photons"): (
        "acceptance criterion 1 checks it against the paper's sample parameters"
    ),
    ("qubit", "purcell_rate"): (
        "acceptance criterion 1 checks it against the paper's sample parameters"
    ),
    ("states", "moment_keys"): "the documented accessor of the moment key order",
}


def read_names(source: str) -> set:
    """Names that ``source`` loads, bare or as the attribute of another object."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _module(module):
    return importlib.import_module(f"mwphoton.{module}")


def _public(module):
    return getattr(_module(module), "__all__", ())


def _benchmark_names():
    spans = {span.split(".")[1] for span, _fields in _load("tracing").SPAN_METRICS}
    probes = {
        name
        for workload in _load("workloads").WORKLOADS.values()
        for _module, name in workload.probe_points
    }
    return spans | probes


@pytest.fixture(scope="module")
def read_outside_tests():
    sources = [PACKAGE / f"{module}.py" for module in MODULES]
    sources += sorted((ROOT / "demos").glob("*.py"))
    names = set().union(*(read_names(path.read_text()) for path in sources))
    return names | _benchmark_names()


def test_detector_finds_loads_only():
    source = (
        "from .states import imported\n"
        "stored = 1\n"
        "module.attribute = 2\n"
        "called(module.read_attribute, read_name)\n"
    )
    assert read_names(source) == {"called", "module", "read_attribute", "read_name"}


def test_a_public_name_is_one_object_in_every_module():
    objects = {}
    for module in MODULES:
        for name in _public(module):
            objects.setdefault(name, set()).add(id(getattr(_module(module), name)))
    assert [name for name, found in objects.items() if len(found) > 1] == []


def test_every_public_name_is_read_outside_the_tests(read_outside_tests):
    unread = [
        f"{module}.{name}"
        for module in MODULES
        for name in _public(module)
        if name not in read_outside_tests and (module, name) not in DELIBERATE
    ]
    assert unread == [], f"public names only the tests read: {unread}"


@pytest.mark.parametrize("module, name", sorted(DELIBERATE))
def test_deliberate_exceptions_are_still_public_and_unread(module, name, read_outside_tests):
    assert name in _public(module)
    assert name not in read_outside_tests
