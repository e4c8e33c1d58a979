"""One kernel draws every batched sample of the package.

``states._draw_paths`` is the one place that builds a batch's generator:
it is the only caller of ``states._batch_seed`` in ``src/mwphoton`` and
the only code there that names ``SFC64``, so a second batched draw path
cannot come back unnoticed.  Each module is read with the standard
library's ``ast``.  Generators seeded by ``seed`` alone, the Ramsey
binomials and the Planck noise through ``default_rng``, draw no batches
and are not counted.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mwphoton"

KERNEL = [("states", "_draw_paths")]


def _sites(picks) -> list:
    """(module, innermost enclosing function) of each node of the package that ``picks``."""
    sites = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if picks(node):
            sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def _name(node):
    """The name a Name, an attribute or an imported alias node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_batch_seed_has_one_call_site_the_kernel():
    assert _sites(lambda node: isinstance(node, ast.Call) and _name(node.func) == "_batch_seed") == KERNEL


def test_sfc64_is_named_at_one_site_the_kernel():
    assert _sites(lambda node: _name(node) == "SFC64") == KERNEL
