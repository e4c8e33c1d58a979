"""Sample batches and error blocks run on worker threads: results must not
depend on the worker count, and no public function may run off the main
thread.  Sweep points run one after another, holding one record at a time.

Instrumentation that wraps the public functions (those named in a
module's ``__all__``) keeps one stack of open calls, which only holds
while every such call is made from the calling thread.
"""

import importlib
import inspect
import sys
import threading
import weakref

import numpy as np
import pytest

from mwphoton import dualpath, experiments
from mwphoton.dualpath import _product_block_sums, simulate_detection
from mwphoton.states import SAMPLE_BATCH, MicrowaveState, moment_keys

STATES = {
    "thermal": MicrowaveState.thermal(0.7),
    "coherent": MicrowaveState.coherent(0.9 * np.exp(0.4j)),
    "shot_noise": MicrowaveState.shot_noise(1.2),
    "vacuum": MicrowaveState.vacuum(),
}

WORKER_COUNTS = (1, 3)


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


def test_map_on_cpus_keeps_order_and_runs_on_worker_threads(monkeypatch):
    def task(item):
        return item, threading.current_thread() is threading.main_thread()

    for result in _per_worker_count(monkeypatch, lambda: dualpath._map_on_cpus(task, range(40))):
        assert result == [(item, False) for item in range(40)]


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

    first, second = _per_worker_count(monkeypatch, run)
    assert first.envelopes_1.tobytes() == second.envelopes_1.tobytes()
    assert first.envelopes_2.tobytes() == second.envelopes_2.tobytes()


def test_product_block_sums_bytes_independent_of_worker_count(monkeypatch):
    record = simulate_detection(
        STATES["thermal"], chain_noise_photons=(0.8, 1.9), gains=(1.7, 0.6), count=60_013, seed=11
    )

    def run():
        return [
            (size, np.array([sums[key] for key in moment_keys()]).tobytes())
            for size, sums in _product_block_sums(record)
        ]

    first, second = _per_worker_count(monkeypatch, run)
    assert len(first) == dualpath.ERROR_BATCHES
    assert first == second


def test_sweeps_independent_of_worker_count(monkeypatch):
    def run():
        return (
            experiments.dualpath_sweep(temperatures=[0.2, 0.35, 0.5], count=60_000, seed=3),
            experiments.quadrature_check(count=40_000, seed=2),
        )

    first, second = _per_worker_count(monkeypatch, run)
    assert first == second


def test_sweeps_hold_one_record_at_a_time(monkeypatch):
    records = []
    live_at_each_call = []

    def tracked(*args, **kwargs):
        live_at_each_call.append(sum(ref() is not None for ref in records))
        record = simulate_detection(*args, **kwargs)
        records.append(weakref.ref(record))
        return record

    monkeypatch.setattr(experiments, "simulate_detection", tracked)
    experiments.dualpath_sweep(temperatures=[0.2, 0.35, 0.5], count=60_000, seed=3)
    experiments.quadrature_check(count=40_000, seed=2)
    assert live_at_each_call == [0] * 5


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
        "dualpath.simulate_detection",
        "dualpath.quadrature_variances",
        "states.bose_einstein",
        "chains.g2_unnormalized",
    } <= names
    assert sorted({name for name, on_main in calls if not on_main}) == []
