"""No module of the package imports a name it never reads, or imports
inside a function or class.

An unused import hides which helpers a module really depends on, and it
outlives the code that needed it; an import inside a function or class
hides a dependency from the top of the module.  Each module of
``src/mwphoton`` is read with the standard library's ``ast``: every name
that a module-level import binds must be read somewhere in the module or
listed in its ``__all__``, and no function or class body may import.
``__init__`` is exempt from the first rule, because its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mwphoton"

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

#: Names a module imports on purpose without reading them, with the reason.
DELIBERATE = {
    ("experiments", "simulate_detection"): (
        "benchmarks/workloads.py probes (experiments, 'simulate_detection') by that name"
    ),
}


def _module_level(body):
    """The statements of ``body`` and of the if/try blocks in it, but not of
    functions or classes."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _module_level(node.body + handlers + node.orelse + node.finalbody)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by a module-level import of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read | _exported(tree)]


def local_imports(source: str) -> list:
    """Line numbers of the imports inside a function or class body of ``source``."""
    lines = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines.update(
                node.lineno
                for node in ast.walk(scope)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def test_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, Optional\n"
        "from .states import exported\n"
        "__all__ = ['exported']\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import csv\n"
        "def f(x: Optional[int]) -> int:\n"
        "    import math  # a local import is not module level\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["os", "osp", "Dict", "json", "csv"]


def test_detector_finds_local_imports():
    source = (
        "import os\n"
        "if os.name:\n"
        "    import json\n"
        "def f():\n"
        "    from .states import helper\n"
        "    return helper\n"
        "class C:\n"
        "    import math\n"
        "    def g(self):\n"
        "        try:\n"
        "            import csv\n"
        "        except ImportError:\n"
        "            pass\n"
    )
    assert local_imports(source) == [5, 8, 11]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    unexpected = [name for name in unused if (module, name) not in DELIBERATE]
    assert unexpected == [], f"mwphoton.{module} imports names it never reads: {unexpected}"


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_import_inside_a_function_or_class(module):
    lines = local_imports((PACKAGE / f"{module}.py").read_text())
    assert lines == [], f"mwphoton.{module} imports inside a function or class at lines {lines}"


@pytest.mark.parametrize("module, name", sorted(DELIBERATE))
def test_deliberate_exceptions_are_still_unread_imports(module, name):
    assert name in unused_imports((PACKAGE / f"{module}.py").read_text())
