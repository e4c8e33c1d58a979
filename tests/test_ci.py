"""The CI workflow runs what the repository documents.

`.github/workflows/tests.yml` is checked here against ROADMAP.md's tier-1
command and the `requires-python` and numpy floors of pyproject.toml,
every ``mwphoton`` line against the CLI's parser, and every ``mwphoton
run`` line against the config table too, so that an edit to one of them
cannot leave the workflow behind.  The scipy-free job runs one pipeline
through the installed console script and reports on it, then walks
every default run of ``tests/artifact_digests.py`` twice, each walk
failing on a failed report check, and compares the two digest files byte
for byte.  The benchmark smoke job is held to the runs it must make
and to the check that fails it on any failed operation.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import yaml

from mwphoton import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())


def _commands(job):
    """Each line of the job's ``run`` scripts, split as the shell would split it."""
    for step in WORKFLOW["jobs"][job]["steps"]:
        for line in step.get("run", "").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                yield shlex.split(line)


def test_tier1_step_runs_the_roadmap_command():
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    steps = {step.get("name"): step for step in WORKFLOW["jobs"]["tier1"]["steps"]}
    assert steps["Tier-1 tests"]["run"].strip() == command.group(1)


def test_matrix_includes_the_requires_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M).group(1)
    versions = WORKFLOW["jobs"]["tier1"]["strategy"]["matrix"]["python-version"]
    assert floor in [str(version) for version in versions]


def test_matrix_pins_the_numpy_floor_on_the_oldest_python():
    pyproject = (ROOT / "pyproject.toml").read_text()
    numpy_floor = re.search(r'"numpy\s*>=\s*([\d.]+)"', pyproject).group(1)
    python_floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M).group(1)
    tier1 = WORKFLOW["jobs"]["tier1"]
    matrix = tier1["strategy"]["matrix"]
    # an include entry only becomes its own job when it overrides a matrix value
    assert matrix["numpy"] == [""]
    assert {"python-version": python_floor, "numpy": f"{numpy_floor}.*"} in matrix["include"]
    steps = [step.get("name") for step in tier1["steps"]]
    pin = tier1["steps"][steps.index("Pin numpy")]
    assert steps.index("Install the package with its test extras") < steps.index("Pin numpy")
    assert steps.index("Pin numpy") < steps.index("Tier-1 tests")
    assert pin["if"] == "matrix.numpy != ''"
    assert shlex.split(pin["run"]) == ["python", "-m", "pip", "install", "numpy==${{ matrix.numpy }}"]


def test_scipy_free_job_walks_the_default_runs_twice():
    # the script walks artifact_digests.runs() and fails on a nonzero exit
    # or a failed report check; a second walk in a fresh process must write
    # the same digests, report.json's included
    assert list(_commands("runtime-without-scipy")) == [
        ["python", "-m", "pip", "install", "-e", "."],
        ["python", "-c", 'import importlib.util; assert importlib.util.find_spec("scipy") is None'],
        ["mwphoton", "run", "variance_curves", "--out", "runs/variance_curves"],
        ["mwphoton", "report", "runs/variance_curves"],
        ["python", "tests/artifact_digests.py"],
        ["cp", "tests/artifact_digests.json", "runs/first_walk.json"],
        ["python", "tests/artifact_digests.py"],
        ["cmp", "runs/first_walk.json", "tests/artifact_digests.json"],
    ]


def _mwphoton_lines():
    """(job, words) of each ``mwphoton`` line of the workflow, in order."""
    return [
        (job, words) for job in WORKFLOW["jobs"] for words in _commands(job) if words[0] == "mwphoton"
    ]


def test_every_mwphoton_line_parses():
    lines = _mwphoton_lines()
    assert {words[1] for _, words in lines} == {"run", "report"}
    written = set()
    for job, words in lines:
        # a removed command or flag raises ConfigError here
        args = cli.build_parser().parse_args(words[1:])
        if args.command == "run":
            written.add((job, args.out))
        else:
            assert (job, args.run_dir) in written, f"{job} reports on a run it did not write"


def test_every_run_line_parses_and_resolves():
    runs = [words for _, words in _mwphoton_lines() if words[1] == "run"]
    assert runs
    for words in runs:
        # a removed flag or key raises ConfigError here
        args = cli.build_parser().parse_args(words[1:])
        file_config = None if args.config is None else cli._read_json_object(ROOT / args.config)
        config = cli.resolve_config(args.experiment, file_config, cli._collect_overrides(args))
        cli._experiment_kwargs(args.experiment, config)


def test_benchmark_smoke_job_fails_on_any_failed_operation(tmp_path):
    job = WORKFLOW["jobs"]["benchmark-smoke"]
    install = next(step for step in job["steps"] if "pip" in step.get("run", ""))
    assert shlex.split(install["run"]) == ["python", "-m", "pip", "install", "-e", ".[test]"]
    commands = list(_commands("benchmark-smoke"))
    run = ["python3", "benchmarks/run.py", "--workload", "all", "--seed", "1", "--seconds", "1"]
    runs = [i for i, words in enumerate(commands) if words[:2] == run[:2]]
    assert [commands[i][: len(run) + 2] for i in runs] == [
        [*run, "--trace", "0"],
        [*run, "--trace", "1"],
    ]
    for index in runs:
        # stdout goes to a file, and the next line reads that file's last line
        assert commands[index][-2] == ">"
        out = commands[index][-1]
        assert commands[index + 1] == ["python", "-c", "$NO_FAILED", out]
    check = next(step for step in job["steps"] if "NO_FAILED" in step.get("env", {}))
    verdicts = {}
    for failed in (0, 1):
        out = tmp_path / f"failed{failed}.txt"
        out.write_text(f'workload all\n{{"correct": true, "attempted": 9, "failed": {failed}}}\n')
        code = [sys.executable, "-c", check["env"]["NO_FAILED"], str(out)]
        verdicts[failed] = subprocess.run(code).returncode
    assert verdicts == {0: 0, 1: 1}
