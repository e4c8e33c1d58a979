"""SHA-256 digests of every file that ``mwphoton run`` and ``report`` write at the CLI defaults.

    PYTHONPATH=src python tests/artifact_digests.py

runs each experiment at its defaults, ``ramsey_sweep`` once per state and
``jpa_sweep`` once per operating point, reports each run, and rewrites
``tests/artifact_digests.json`` with the digest of every file they wrote,
stamped with the Python version, the numpy version and the SIMD extensions
numpy found on this CPU.  ``tests/test_artifact_digests.py`` recomputes
the digests and compares them under the same stamp.  Rewrite the file only
for a change meant to move artifacts, and name each file that moved: under
the committed stamp the script prints the files that moved, were added or
were removed (:func:`changes`).  The script fails, naming the run, on a
run whose report has a failed check; the scipy-free CI job runs it twice
and compares the two files.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from mwphoton import cli
from mwphoton.defaults import JPA_OPERATING_POINTS
from mwphoton.experiments import EXPERIMENTS
from mwphoton.states import StateKind

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"


def runs() -> dict:
    """Run name -> ``mwphoton run`` arguments: each experiment at its defaults,
    ``ramsey_sweep`` once per state and ``jpa_sweep`` once per operating point."""
    arguments = {}
    for name in sorted(EXPERIMENTS):
        if name == "ramsey_sweep":
            for kind in StateKind:
                arguments[f"{name}-{kind.value}"] = [name, "--state", kind.value]
        elif name == "jpa_sweep":
            for point in JPA_OPERATING_POINTS:
                arguments[f"{name}-{point}"] = [name, "--set", f"operating_point={point}"]
        else:
            arguments[name] = [name]
    return arguments


def stamp() -> dict:
    """What the artifacts' last bits may depend on besides the source: the
    Python and numpy versions, and the SIMD extensions numpy dispatches to
    (the "found" list of ``np.show_runtime()``), which can change the last
    bits of float64 ``np.exp`` and ``np.cos``."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_found": [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]],
    }


def digests(root: Path) -> dict:
    """``"<run>/<file>"`` -> SHA-256 of every file each run of :func:`runs`
    writes into ``root/<run>``, after ``report`` on it.

    Raises RuntimeError, naming the run, if its ``run`` or ``report`` exits
    nonzero or its ``report.json`` has a failed check."""
    found = {}
    for name, arguments in runs().items():
        out = root / name
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["run", *arguments, "--out", str(out)]) != 0:
                raise RuntimeError(f"run {name} failed")
            if cli.main(["report", str(out)]) != 0:
                raise RuntimeError(f"report {name} failed")
        # report exits 0 after failed checks too; all_passed decides
        if not json.loads((out / "report.json").read_text())["all_passed"]:
            raise RuntimeError(f"report {name} has failed checks")
        for path in sorted(out.iterdir()):
            found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def changes(expected: dict, found: dict) -> dict:
    """The file names on which two digest maps differ: ``"moved"`` (a new
    digest), ``"added"`` (only in ``found``) and ``"removed"`` (only in
    ``expected``), each sorted."""
    return {
        "moved": sorted(n for n in expected.keys() & found.keys() if expected[n] != found[n]),
        "added": sorted(found.keys() - expected.keys()),
        "removed": sorted(expected.keys() - found.keys()),
    }


def main() -> None:
    recorded = json.loads(DIGESTS.read_text())
    with tempfile.TemporaryDirectory() as root:
        payload = {"stamp": stamp(), "digests": digests(Path(root))}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}", file=sys.stderr)
    # digests written under another stamp may differ in every file
    if recorded["stamp"] == payload["stamp"]:
        for kind, names in changes(recorded["digests"], payload["digests"]).items():
            if names:
                print(f"{kind}: {', '.join(names)}", file=sys.stderr)


if __name__ == "__main__":
    main()
