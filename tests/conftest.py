import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Demos and ``python -m mwphoton.cli`` run in subprocesses: let them import
# the package from the source tree too, as pytest's ``pythonpath`` does here.
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from mwphoton.defaults import SAMPLE_RESONATOR, SAMPLE_SYSTEM


@pytest.fixture(scope="session")
def resonator():
    return SAMPLE_RESONATOR


@pytest.fixture(scope="session")
def system():
    return SAMPLE_SYSTEM
