"""Every file a default run and its report write keeps its bytes.

``tests/artifact_digests.json`` holds the SHA-256 of each file of the runs
in ``artifact_digests.runs()``; this test reruns them and names each file
whose digest moved.  The digests hold only where they were written: the
same Python and numpy, and the same SIMD extensions found, since float64
``np.exp`` and ``np.cos`` can round their last bit differently on another
SIMD path.  Elsewhere the test skips, and its reason names both stamps.
A run whose report has a failed check stops the digests, naming the run.
"""

import json

import pytest

import artifact_digests
from mwphoton import experiments


def test_default_artifacts_keep_their_digests(tmp_path):
    recorded = json.loads(artifact_digests.DIGESTS.read_text())
    here = artifact_digests.stamp()
    if recorded["stamp"] != here:
        pytest.skip(f"digests were written under {recorded['stamp']}; this is {here}")
    changes = artifact_digests.changes(recorded["digests"], artifact_digests.digests(tmp_path))
    assert not any(changes.values()), (
        f"these artifacts changed: {changes}; if that is meant, rerun tests/artifact_digests.py "
        "and name each changed file in the change"
    )


def test_changes_name_moved_added_and_removed_files():
    expected = {"a/x.csv": "1", "a/y.json": "2", "b/z.json": "3"}
    found = {"a/x.csv": "1", "a/y.json": "9", "c/w.csv": "4"}
    assert artifact_digests.changes(expected, found) == {
        "moved": ["a/y.json"],
        "added": ["c/w.csv"],
        "removed": ["b/z.json"],
    }
    assert not any(artifact_digests.changes(expected, dict(expected)).values())


def test_a_failed_report_check_names_its_run(tmp_path, monkeypatch):
    passing = experiments.CHECKS["variance_curves"]

    def failing(*args):
        yield from passing(*args)
        yield ("never_passes", 1.0, (0.0, 0.5), "a check no run passes")

    monkeypatch.setitem(experiments.CHECKS, "variance_curves", failing)
    with pytest.raises(RuntimeError, match="report variance_curves has failed checks"):
        artifact_digests.digests(tmp_path)
