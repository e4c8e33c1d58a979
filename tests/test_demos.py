"""Every demo script must run to completion as a plain python invocation,
in an interpreter where ``import scipy`` fails."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))

#: ``python -c`` prelude that makes ``import scipy`` fail, then runs the
#: script named by the first argument as ``__main__``.
WITHOUT_SCIPY = (
    "import runpy, sys; sys.modules['scipy'] = None; del sys.argv[0]; "
    "runpy.run_path(sys.argv[0], run_name='__main__')"
)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "demo produced no narrative output"
