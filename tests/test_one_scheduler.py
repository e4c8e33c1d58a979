"""One scheduler runs the package's work on threads.

``dualpath._map_shares`` is the only code in ``src/mwphoton`` that builds
a ``ThreadPoolExecutor``, and no module there imports ``threading``, so a
second task shape, or per-thread state kept beside the shares, cannot come
back unnoticed.  Each module is read with the standard library's ``ast``,
through the site finder of ``test_draw_kernel``.
"""

import ast

from test_draw_kernel import _name, _sites


def _imports_threading(node) -> bool:
    if isinstance(node, ast.alias):
        return node.name.split(".")[0] == "threading"
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading"


def test_thread_pool_is_built_at_one_site_the_share_map():
    built = _sites(
        lambda node: isinstance(node, ast.Call) and _name(node.func) == "ThreadPoolExecutor"
    )
    assert built == [("dualpath", "_map_shares")]


def test_no_module_imports_threading():
    assert _sites(_imports_threading) == []
