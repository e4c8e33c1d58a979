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

The same holds one level down: every public method, property or
classmethod defined in the body of a class that an ``__all__`` names must
be loaded as an ``ast.Attribute`` in the package or a demo.  The benchmark's
hooks name module functions only.  Dataclass fields are left to the key and
column guards of ``tests/test_cli.py``, which cover the fields that reach a
result.
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
}

#: Public class members that nothing outside the tests reads, kept on purpose, with the reason.
DELIBERATE_MEMBERS = {}


def read_attributes(source: str) -> set:
    """Attribute names that ``source`` loads from another object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def read_names(source: str) -> set:
    """Names that ``source`` loads, bare or as the attribute of another object."""
    bare = {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bare | read_attributes(source)


def _module(module):
    return importlib.import_module(f"mwphoton.{module}")


def _public(module):
    return getattr(_module(module), "__all__", ())


def _public_members(module):
    """``(class, member)`` for every public function in the body of a public class."""
    public = set(_public(module))
    return [
        (node.name, member.name)
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name in public
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]


def _benchmark_names():
    spans = {span.split(".")[1] for span, _fields in _load("tracing").SPAN_METRICS}
    probes = {
        name
        for workload in _load("workloads").WORKLOADS.values()
        for _module, name in workload.probe_points
    }
    return spans | probes


def _sources():
    return [PACKAGE / f"{module}.py" for module in MODULES] + sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def read_outside_tests():
    names = set().union(*(read_names(path.read_text()) for path in _sources()))
    return names | _benchmark_names()


@pytest.fixture(scope="module")
def attributes_read_outside_tests():
    return set().union(*(read_attributes(path.read_text()) for path in _sources()))


def test_detector_finds_loads_only():
    source = (
        "from .states import imported\n"
        "stored = 1\n"
        "module.attribute = 2\n"
        "called(module.read_attribute, read_name)\n"
    )
    assert read_names(source) == {"called", "module", "read_attribute", "read_name"}
    assert read_attributes(source) == {"read_attribute"}


def test_member_finder_finds_public_functions_of_public_classes():
    members = _public_members("cavity")
    assert ("Resonator", "__post_init__") not in members
    assert ("Correlator", "variance") not in members  # a dataclass field
    members = _public_members("states")
    assert {("MicrowaveState", "thermal"), ("MomentSet", "missing_keys")} <= set(members)


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


def test_every_public_member_is_read_outside_the_tests(attributes_read_outside_tests):
    unread = [
        f"{module}.{cls}.{member}"
        for module in MODULES
        for cls, member in _public_members(module)
        if member not in attributes_read_outside_tests
        and (module, cls, member) not in DELIBERATE_MEMBERS
    ]
    assert unread == [], f"public class members only the tests read: {unread}"


def test_deliberate_member_exceptions_are_still_public_and_unread(attributes_read_outside_tests):
    for module, cls, member in DELIBERATE_MEMBERS:
        assert (cls, member) in _public_members(module)
        assert member not in attributes_read_outside_tests
