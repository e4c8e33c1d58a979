"""Closed-loop benchmark of mwphoton, run from the root of a source checkout.

    python3 benchmarks/run.py --workload dualpath_pipelines --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process runs passes of the workload back to back, each
operation starting after the previous one has completed, for ``--seconds``
seconds and at least three timed passes after a first pass in a fresh process.  The
package is imported from ``src/`` of the current directory; BLAS pools are
capped at one thread.

``--trace 0`` reports the end-to-end metrics: the set-up time of a fresh
interpreter and the pass wall time, each scaled to a fixed host speed by a
reference work timed beside it (see ``reference_work``), the samples per
second at that pass time and the peak RSS of the fresh process that ran the
first pass.  ``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics read from spans around
the package's public functions, plus the tracing overhead.  Every pass is
checked (see ``workloads.py``), and repeated passes with the same seed must
give byte-identical outputs.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller result,
with the environment stamp, per-pass samples and (traced) the spans, goes to
``benchmarks/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from environment import cap_threads, stamp

# the keys of workloads.WORKLOADS, which can only be imported once the BLAS
# thread cap is set and src/ is on the path
WORKLOAD_NAMES = ("dualpath_pipelines", "record_replay", "spectroscopy")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
# timed passes per untraced run, after the fresh-process pass: the median of
# three drops one pass that met a sudden change of the host's speed
MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 120
SETUP_CODE = "import mwphoton.cli as cli; cli.build_parser()"
PROBES_PER_SETUP = 5  # reference runs just before, and again just after, each set-up

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_SOURCE = (BENCH_DIR / "workloads.py").read_text()
ROOT = Path.cwd()
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # runs one pass in a fresh process; reports its wall time, peak RSS and outcomes
    parser.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


#: Time of the reference work on the host speed that end-to-end times are
#: scaled to: about its fastest time on a 2-vCPU Xeon VM.
REFERENCE_S = 4e-3


def reference_work():
    """Compile a fixed source text: branchy interpreter work over much code,
    independent of mwphoton, whose time follows the host's speed."""
    compile(REFERENCE_SOURCE, "workloads.py", "exec")


class Probe:
    """Runs the reference work at each call and keeps when each run started and ended."""

    def __init__(self):
        self.calls = []  # (start, end) of each reference run

    def __call__(self):
        start = perf_counter()
        reference_work()
        self.calls.append((start, perf_counter()))

    def reference_seconds(self):
        return [end - start for start, end in self.calls]

    def gaps(self):
        """(length, mean time of the two reference runs around it) of each gap between them."""
        return [
            (start - end, (end - before + after - start) / 2)
            for (before, end), (start, after) in zip(self.calls, self.calls[1:])
        ]


def _scaled(seconds, reference_seconds):
    """``seconds`` at the reference speed, measured while the reference work took ``reference_seconds``."""
    return seconds * REFERENCE_S / reference_seconds


class Run:
    """Passes of one workload, with every operation checked and counted."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.reference = {}  # operation name -> digest of its first good outcome
        self.attempted = 0
        self.failures = []

    def record(self, name, error, digest):
        self.attempted += 1
        if error is None:
            expected = self.reference.setdefault(name, digest)
            if digest != expected:
                error = "determinism mismatch: output differs from an earlier pass with the same seed"
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def one_pass(self, tracer=None, probe=None):
        """Run, time and check one pass; returns (wall_s, samples, CLI artifact bytes, ops).

        With a ``probe``, the reference work also runs before the pass,
        before every operation, at the workload's probe points and after the
        pass; ``wall_s`` is then the pass time without it."""
        pass_dir = self.work_dir / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        self.workload.tracer = tracer
        start = perf_counter()
        if tracer is not None:
            with tracer:
                ops = self.workload.run_pass(pass_dir)
        elif probe is not None:
            probe()
            with self.workload.probing(probe):
                ops = self.workload.run_pass(pass_dir)
            probe()
        else:
            ops = self.workload.run_pass(pass_dir)
        wall = perf_counter() - start
        if probe is not None:
            wall = sum(length for length, _ in probe.gaps())
        self.workload.tracer = None
        samples, artifact_bytes = self.workload.verify(ops)
        for op in ops:
            self.record(op.name, op.error, op.digest)
        return wall, samples, artifact_bytes, ops


def _setup_once():
    """Wall time of a fresh interpreter that imports mwphoton and builds the CLI parser."""
    start = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env())
    # a blocking wait returns as soon as the child exits; waiting with a
    # timeout would poll, in steps of up to 50 ms
    killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise RuntimeError(f"importing mwphoton in a fresh interpreter failed with exit code {code}")
    return perf_counter() - start


def _child_pass(args, run):
    """One pass in a fresh process; returns its peak RSS in MB.

    Its outcomes are the reference of the determinism check."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--child-pass",
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        result = _last_json_line(done.stdout)
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        run.record("child_pass", f"fresh-process pass failed: {exc!r}", "")
        return 0.0
    for name, error, digest in result["ops"]:
        run.record(name, error, digest)
    return result["maxrss_kb"] / 1024.0


def _untraced_metrics(args, run):
    # On a shared host the CPU speed switches, every few seconds, between
    # modes up to 1.8x apart, in a mix that changes from run to run.  Every
    # time is therefore divided by the time of the reference work run around
    # it, and given in seconds at the reference speed REFERENCE_S.  A pass is
    # split by the reference runs into steps of at most about a second; each
    # step is scaled by the mean of the two runs around it.
    start = perf_counter()
    _setup_once()  # warms the bytecode and file caches; not kept
    peak_rss_mb = _child_pass(args, run)
    setups, walls, scaled_walls, references, samples = [], [], [], [], []
    while len(walls) < MIN_PASSES or perf_counter() - start < args.seconds:
        # the set-ups are spread over the run, so that they meet the same
        # host speeds as the passes
        if len(setups) < SETUP_REPEATS and perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS:
            probe = Probe()
            for _ in range(PROBES_PER_SETUP):
                probe()
            setup = _setup_once()
            for _ in range(PROBES_PER_SETUP):
                probe()
            setups.append((setup, _scaled(setup, statistics.median(probe.reference_seconds()))))
            continue
        probe = Probe()
        wall, pass_samples, _, _ = run.one_pass(probe=probe)
        walls.append(wall)
        scaled_walls.append(sum(_scaled(length, reference) for length, reference in probe.gaps()))
        references.append(statistics.median(probe.reference_seconds()))
        samples.append(pass_samples)
    wall_s = statistics.median(scaled_walls)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": wall_s,
        "samples_per_s": statistics.median(samples) / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_s_samples": [scaled for _, scaled in setups],
        "unscaled_setup_s_samples": [t for t, _ in setups],
        "wall_s_samples": scaled_walls,
        "unscaled_wall_s_samples": walls,
        "pass_reference_s": references,
        "samples_per_pass": samples,
    }
    return metrics, details


def _traced_metrics(args, run):
    from tracing import Tracer, layer_metrics, spans_payload

    traced, untraced = [], []
    artifact_bytes = 0
    start = perf_counter()
    while len(traced) < 2 or not untraced or perf_counter() - start < args.seconds:
        if len(traced) <= len(untraced):
            tracer = Tracer()
            wall, _, artifact_bytes, _ = run.one_pass(tracer)
            if traced and dict(tracer.counts) != dict(traced[0][0].counts):
                run.record("trace_counts", "per-layer counts differ between traced passes", "")
            elif traced:
                run.record("trace_counts", None, "")
            traced.append((tracer, wall))
        else:
            untraced.append(run.one_pass()[0])
    metrics = layer_metrics(traced, untraced, artifact_bytes)
    details = {
        "traced_wall_s_samples": [wall for _, wall in traced],
        "untraced_wall_s_samples": untraced,
        # the spans of the two traced passes whose counts were compared first
        "spans": spans_payload([tracer for tracer, _ in traced[:2]]),
    }
    return metrics, details


def _run_all(args):
    """Each workload in its own process, then one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode
        print(done.stdout, end="")
        result = _last_json_line(done.stdout)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(f"\nall workloads: {total['failed']} of {total['attempted']} operations failed")
    for metric, value in total["metrics"].items():
        print(f"  {metric:<70} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mwphoton" / "__init__.py").is_file():
        print(f"no mwphoton sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    cap_threads(os.environ)  # before numpy is imported, here and in every child
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    work_dir = BENCH_DIR / "_work" / str(os.getpid())
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, work_dir)
        if args.child_pass:
            ops = run.one_pass()[3]
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ops = [[op.name, op.error, op.digest] for op in ops]
            print(json.dumps({"maxrss_kb": maxrss, "ops": ops}))
            return 0
        if args.trace:
            metrics, details = _traced_metrics(args, run)
            from tracing import per_layer_metrics

            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            metrics, details = _untraced_metrics(args, run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    environment = stamp(ROOT, args.seed)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "environment": environment,
                "sample_kind": workload.sample_kind,
                "failures": run.failures,
                "report_failures": sorted(workload.report_failures),
                **details,
                **result,
            }
        )
        + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({out_file.relative_to(ROOT)})")
    print("environment " + json.dumps(environment))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        walls = details["traced_wall_s_samples"]
        print(f"traced passes: {len(walls)}  untraced passes: {len(details['untraced_wall_s_samples'])}")
    else:
        walls = details["unscaled_wall_s_samples"]
        print(
            f"timed passes: {len(walls)}  samples per pass: {details['samples_per_pass'][0]} "
            f"({workload.sample_kind})  unscaled pass wall time: median {statistics.median(walls):.4f} s, "
            f"max {max(walls):.4f} s  reference work: median {statistics.median(details['pass_reference_s']) * 1e3:.4f} ms"
        )
    for name, value in result["metrics"].items():
        print(f"  {name:<58} {value['value']:>16.6g} {value['unit']}")
    print(f"  {'error_rate':<58} {failed / run.attempted:>16.6g} ({failed} of {run.attempted} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
