"""Shares of sample batches run on worker threads: results must not depend
on the worker count, and no public function may run off the main thread.
Sweep points run one after another and build no record, so their memory
does not grow with the sample count, and each share is drawn and summed
in the same arrays, so a point does not fault its memory back in batch
after batch.

Instrumentation that wraps the public functions (those named in a
module's ``__all__``) keeps one stack of open calls, which only holds
while every such call is made from the calling thread.
"""

import importlib
import inspect
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mwphoton import dualpath, experiments
from mwphoton.dualpath import simulate_detection
from mwphoton.states import SAMPLE_BATCH, MicrowaveState, StateKind, _batch_layout

STATES = {
    "thermal": MicrowaveState.thermal(0.7),
    "coherent": MicrowaveState.coherent(0.9 * np.exp(0.4j)),
    "shot_noise": MicrowaveState.shot_noise(1.2),
    "vacuum": MicrowaveState.thermal(0.0),
}

WORKER_COUNTS = (1, 2, 3)


def _per_worker_count(monkeypatch, run):
    """``run()`` once for each worker count, with threads switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(dualpath, "_WORKERS", workers)
            results.append(run())
        return results
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [1, SAMPLE_BATCH, 2 * SAMPLE_BATCH + 1, 40 * SAMPLE_BATCH + 7])
def test_map_shares_cuts_the_layout_into_even_shares_on_worker_threads(monkeypatch, count):
    def task(share):
        return share, threading.current_thread() is threading.main_thread()

    layout = list(_batch_layout(count))
    runs = _per_worker_count(monkeypatch, lambda: dualpath._map_shares(task, count))
    for workers, results in zip(WORKER_COUNTS, runs):
        shares = [share for share, _ in results]
        assert [batch for share in shares for batch in share] == layout
        assert len(shares) == min(workers, len(layout))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        assert not any(on_main for _, on_main in results)


@pytest.mark.parametrize("kind", sorted(STATES))
def test_simulate_detection_bytes_independent_of_worker_count(kind, monkeypatch):
    def run():
        return simulate_detection(
            STATES[kind],
            chain_noise_photons=(0.4, 2.3),
            gains=(2.5, 0.8),
            count=3 * SAMPLE_BATCH + 5,
            seed=21,
            vacuum_port_photons=0.15,
        )

    first, *others = _per_worker_count(monkeypatch, run)
    for other in others:
        assert other.envelopes_1.tobytes() == first.envelopes_1.tobytes()
        assert other.envelopes_2.tobytes() == first.envelopes_2.tobytes()


def test_fused_sums_bytes_independent_of_worker_count(monkeypatch):
    inverted = []  # every product mean the fused route inverts: the total, then each block
    invert = dualpath._moments_from_products

    def recording(products, *args):
        inverted.append(np.array(list(products.values())).tobytes())
        return invert(products, *args)

    monkeypatch.setattr(dualpath, "_moments_from_products", recording)

    def run():
        inverted.clear()
        experiments._detect_point(STATES["thermal"], 60_013, 11, chain_noise_photons=(0.8, 1.9))
        return list(inverted)

    first, *others = _per_worker_count(monkeypatch, run)
    assert len(first) == 1 + dualpath.ERROR_BATCHES
    assert all(other == first for other in others)


def test_sweeps_independent_of_worker_count(monkeypatch):
    def run():
        return (
            experiments.dualpath_sweep(temperatures=[0.2, 0.35, 0.5], count=60_000, seed=3),
            experiments.quadrature_check(count=40_000, seed=2),
        )

    first, *others = _per_worker_count(monkeypatch, run)
    assert all(other == first for other in others)


def test_sweeps_build_no_record(monkeypatch):
    built = []
    post_init = dualpath.DetectionRecord.__post_init__

    def tracked(record):
        built.append(record.sample_count)
        post_init(record)

    monkeypatch.setattr(dualpath.DetectionRecord, "__post_init__", tracked)
    simulate_detection(STATES["thermal"], count=40)
    assert built == [40]  # the tracker sees every record that is built
    built.clear()
    experiments.dualpath_sweep(temperatures=[0.2, 0.35, 0.5], count=60_000, seed=3)
    experiments.quadrature_check(count=40_000, seed=2)
    assert built == []


def test_every_sweep_point_goes_through_the_experiments_binding(monkeypatch):
    # instrumentation that patches experiments._detect_point sees each point once
    counts = []
    detect = experiments._detect_point

    def counting(state, count, *args, **kwargs):
        counts.append(count)
        return detect(state, count, *args, **kwargs)

    monkeypatch.setattr(experiments, "_detect_point", counting)
    experiments.dualpath_sweep(temperatures=[0.2, 0.35, 0.5], count=4_000, seed=3)
    experiments.quadrature_check(occupations=(0.1, 1.0), count=2_000, seed=2)
    assert counts == [4_000] * 3 + [2_000] * 2


def test_point_memory_does_not_grow_with_count(monkeypatch):
    # numpy reports its buffers to tracemalloc; two workers hold at most
    # two batches at a time, whatever the count
    monkeypatch.setattr(dualpath, "_WORKERS", 2)
    peaks = {}
    for count in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            experiments._detect_point(STATES["thermal"], count, 5, chain_noise_photons=(1.0, 1.0))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] - peaks[200_000] < 1 << 20, peaks


_FAULTS_OF_THREE_POINTS = """
import resource
from mwphoton import dualpath, experiments
from mwphoton.states import MicrowaveState

dualpath._WORKERS = 2

def point(seed):
    experiments._detect_point(MicrowaveState.thermal(0.5), 1_000_000, seed, (1.0, 1.0))

point(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in (1, 2, 3):
    point(seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_sweep_points_reuse_freed_batch_memory():
    # a fresh process, so no earlier test has shaped its heap, and two
    # workers, as each faults its 1.5 MiB of arrays in once (~380 faults);
    # tasks that faulted their arrays back in for every batch would cost
    # ~70 000 over the 186 batches of three points
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_THREE_POINTS], capture_output=True, text=True, check=True
    )
    assert int(done.stdout) < 5_000, done.stdout


def test_public_calls_run_on_the_main_thread(monkeypatch):
    # three workers, so the pool runs tasks off the main thread on any host
    monkeypatch.setattr(dualpath, "_WORKERS", 3)
    calls = []  # (name, made on the main thread)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for layer in ("states", "dualpath", "chains", "experiments"):
        module = importlib.import_module(f"mwphoton.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = recording(f"{layer}.{attr}", fn)
    namespaces = [
        vars(module)
        for key, module in list(sys.modules.items())
        if key == "mwphoton" or key.startswith("mwphoton.")
    ]
    namespaces.append(experiments.EXPERIMENTS)
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            if id(value) in wrappers:
                monkeypatch.setitem(namespace, key, wrappers[id(value)])

    experiments.EXPERIMENTS["dualpath_sweep"](temperatures=[0.2, 0.4], count=3 * SAMPLE_BATCH + 5)
    experiments.EXPERIMENTS["quadrature_check"](count=3 * SAMPLE_BATCH + 5)

    names = {name for name, _ in calls}
    assert {
        "experiments.dualpath_sweep",
        "experiments.quadrature_check",
        "dualpath.quadrature_variances",
        "states.bose_einstein",
    } <= names
    assert sorted({name for name, on_main in calls if not on_main}) == []
