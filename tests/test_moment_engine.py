"""The single-pass moment engine, the Gram-product I/Q table and the
copy-free samplers against the routes they replaced, kept here as oracles.

The engine sums the 15 cross-path products once per error block; the old
route estimated the 70-entry I/Q table over the whole record and again
over every block.  The I/Q table now takes each block's sums from one
15 x 15 Gram matrix of single-path monomials; the old loop formed every
entry as its own product of four power arrays.  Summation order differs,
so each pair agrees to rounding (relative 1e-12).  The samplers draw the
same numbers in the same order, so their output bytes must be identical.
"""

import math

import numpy as np
import pytest

from mwphoton.chains import g2_unnormalized
from mwphoton.dualpath import (
    CROSS_MOMENT_KEYS,
    CrossMomentSet,
    DetectionRecord,
    cross_moments,
    hybrid_split,
    quadrature_variances,
    reconstruct_signal_moments,
    simulate_detection,
)
from mwphoton.experiments import _reconstruct_with_errors
from mwphoton.states import (
    MAX_MOMENT_ORDER,
    SAMPLE_BATCH,
    MicrowaveState,
    StateKind,
    _batch_seed,
    moment_keys,
    sample_envelopes,
)

RTOL = 1e-12

STATES = {
    "thermal": MicrowaveState.thermal(0.7),
    "coherent": MicrowaveState.coherent(0.9 * np.exp(0.4j)),
    "shot_noise": MicrowaveState.shot_noise(1.2),
    "vacuum": MicrowaveState.vacuum(),
}


# ---------------------------------------------------------------------------
# Oracles: the routes before the single-pass engine
# ---------------------------------------------------------------------------

def _old_cross_moments(rec):
    """The per-key loop: each entry a product of four power arrays, summed per block."""
    count = rec.sample_count
    i1 = rec.envelopes_1.real
    q1 = rec.envelopes_1.imag
    i2 = rec.envelopes_2.real
    q2 = rec.envelopes_2.imag
    batch_sums = {key: [] for key in CROSS_MOMENT_KEYS}
    batch_sizes = []
    bounds = np.linspace(0, count, 21).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        batch_sizes.append(hi - lo)
        powers = {}
        for name, arr in (("i1", i1[lo:hi]), ("i2", i2[lo:hi]), ("q1", q1[lo:hi]), ("q2", q2[lo:hi])):
            acc = [np.ones(hi - lo)]
            for _ in range(MAX_MOMENT_ORDER):
                acc.append(acc[-1] * arr)
            powers[name] = acc
        for n, m, k, l in CROSS_MOMENT_KEYS:
            product = powers["i1"][n] * powers["i2"][m] * powers["q1"][k] * powers["q2"][l]
            batch_sums[(n, m, k, l)].append(float(np.sum(product)))
    entries = {}
    std_errors = {}
    sizes = np.asarray(batch_sizes, dtype=float)
    for key in CROSS_MOMENT_KEYS:
        sums = batch_sums[key]
        entries[key] = math.fsum(sums) / count
        means = np.asarray(sums) / sizes
        std_errors[key] = float(np.std(means, ddof=1) / math.sqrt(len(sums)))
    entries[(0, 0, 0, 0)] = 1.0
    std_errors[(0, 0, 0, 0)] = 0.0
    return CrossMomentSet(entries, std_errors, count)


def _old_point(moments):
    n = moments.entry(1, 1).real
    variance = moments.entry(2, 2).real + n - n * n
    var_p, var_q = quadrature_variances(moments)
    return {
        "n": n,
        "g2": g2_unnormalized(max(n, 0.0), max(variance, 0.0)),
        "var_p": var_p,
        "var_q": var_q,
    }


def _old_reconstruct_with_errors(record, gains, block_count=20):
    moments = reconstruct_signal_moments(_old_cross_moments(record), gains)
    bounds = np.linspace(0, record.sample_count, block_count + 1).astype(int)
    block_values = {"n": [], "g2": [], "var_p": [], "var_q": []}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        block = DetectionRecord(
            record.envelopes_1[lo:hi], record.envelopes_2[lo:hi], record.chain_gains
        )
        for key, value in _old_point(reconstruct_signal_moments(_old_cross_moments(block), gains)).items():
            block_values[key].append(value)
    errors = {
        key: float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        for key, vals in block_values.items()
    }
    return moments, _old_point(moments), errors


def _old_sample_envelopes(state, count, seed):
    parts = []
    n = state.mean_photons
    for index, start in enumerate(range(0, count, SAMPLE_BATCH)):
        size = min(SAMPLE_BATCH, count - start)
        rng = np.random.default_rng(_batch_seed(seed, index))
        if state.kind in (StateKind.THERMAL, StateKind.VACUUM):
            quads = rng.normal(0.0, math.sqrt((2.0 * n + 1.0) / 4.0), size=(size, 2))
            z = quads[:, 0] + 1j * quads[:, 1]
        elif state.kind is StateKind.COHERENT:
            quads = rng.normal(0.0, 0.5, size=(size, 2))
            z = state.amplitude + quads[:, 0] + 1j * quads[:, 1]
        else:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            carrier = math.sqrt(n) * np.exp(1j * phase)
            quads = rng.normal(0.0, 0.5, size=(size, 2))
            z = carrier + quads[:, 0] + 1j * quads[:, 1]
        parts.append(z)
    return np.concatenate(parts)


def _old_chain_noise(n_photons, count, seed):
    if n_photons == 0.0:
        return np.zeros(count, dtype=complex)
    sigma = math.sqrt(n_photons / 2.0)
    parts = []
    for index, start in enumerate(range(0, count, SAMPLE_BATCH)):
        size = min(SAMPLE_BATCH, count - start)
        quads = np.random.default_rng(_batch_seed(seed, index)).normal(0.0, sigma, size=(size, 2))
        parts.append(quads[:, 0] + 1j * quads[:, 1])
    return np.concatenate(parts)


def _old_simulate_detection(state, chain_noise_photons, gains, count, seed, vacuum_port_photons):
    root = np.random.SeedSequence(seed)
    streams = [np.random.SeedSequence(entropy=root.entropy, spawn_key=(s,)) for s in range(4)]
    signal = _old_sample_envelopes(state, count, streams[0])
    port = _old_sample_envelopes(MicrowaveState.thermal(vacuum_port_photons), count, streams[1])
    root_half = 1.0 / math.sqrt(2.0)
    out1, out2 = (signal + port) * root_half, (signal - port) * root_half
    z1 = math.sqrt(gains[0]) * (out1 + _old_chain_noise(chain_noise_photons[0], count, streams[2]))
    z2 = math.sqrt(gains[1]) * (out2 + _old_chain_noise(chain_noise_photons[1], count, streams[3]))
    return z1, z2


# ---------------------------------------------------------------------------
# Single-pass moment engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["thermal", "coherent", "shot_noise"])
def test_single_pass_engine_matches_block_route(kind):
    gains = (1.7, 0.6)
    record = simulate_detection(
        STATES[kind], chain_noise_photons=(0.8, 1.9), gains=gains, count=60_013, seed=11
    )
    moments, point, errors = _reconstruct_with_errors(record, gains)
    old_moments, old_point, old_errors = _old_reconstruct_with_errors(record, gains)
    for key in moment_keys():
        new, old = moments.entry(*key), old_moments.entry(*key)
        assert new.real == pytest.approx(old.real, rel=RTOL, abs=0.0), key
        assert new.imag == pytest.approx(old.imag, rel=RTOL, abs=0.0), key
    for name in ("n", "g2", "var_p", "var_q"):
        assert point[name] == pytest.approx(old_point[name], rel=RTOL, abs=0.0), name
        assert errors[name] == pytest.approx(old_errors[name], rel=RTOL, abs=0.0), name


# ---------------------------------------------------------------------------
# Gram-product I/Q table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["thermal", "coherent", "shot_noise"])
@pytest.mark.parametrize("count", [2, 3, 19, 21, 10_000, 60_013])
def test_cross_moments_match_per_key_loop(kind, count):
    # 2, 3 and 19 samples leave some of the 20 blocks empty and the rest
    # one sample long; 21 and 60 013 give blocks of unequal size
    record = simulate_detection(
        STATES[kind], chain_noise_photons=(0.8, 1.9), gains=(1.7, 0.6), count=count, seed=count
    )
    new = cross_moments(record)
    old = _old_cross_moments(record)
    assert new.sample_count == old.sample_count == count
    assert list(new.entries) == list(old.entries) == list(CROSS_MOMENT_KEYS)
    assert list(new.std_errors) == list(CROSS_MOMENT_KEYS)
    for key in CROSS_MOMENT_KEYS:
        assert new.entries[key] == pytest.approx(old.entries[key], rel=RTOL, abs=1e-15), key
        assert new.std_errors[key] == pytest.approx(old.std_errors[key], rel=RTOL, abs=1e-15), key
    assert new.entries[(0, 0, 0, 0)] == 1.0 and new.std_errors[(0, 0, 0, 0)] == 0.0


def test_cross_moments_same_bits_for_strided_record_and_its_copy():
    wide = simulate_detection(
        STATES["thermal"], chain_noise_photons=(0.8, 1.9), gains=(1.7, 0.6), count=20_026, seed=5
    )
    strided = DetectionRecord(wide.envelopes_1[1::2], wide.envelopes_2[1::2], wide.chain_gains)
    assert not strided.envelopes_1.flags.c_contiguous
    copy = DetectionRecord(
        np.ascontiguousarray(strided.envelopes_1),
        np.ascontiguousarray(strided.envelopes_2),
        wide.chain_gains,
    )
    a, b, again = cross_moments(strided), cross_moments(copy), cross_moments(copy)
    for result in (b, again):
        assert np.array(list(result.entries.values())).tobytes() == (
            np.array(list(a.entries.values())).tobytes()
        )
        assert np.array(list(result.std_errors.values())).tobytes() == (
            np.array(list(a.std_errors.values())).tobytes()
        )


# ---------------------------------------------------------------------------
# Copy-free sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(STATES))
def test_sample_envelopes_bytes_unchanged(kind):
    count = 3 * SAMPLE_BATCH + 5
    for seed in (3, np.random.SeedSequence(9, spawn_key=(2,))):
        new = sample_envelopes(STATES[kind], count, seed)
        assert new.tobytes() == _old_sample_envelopes(STATES[kind], count, seed).tobytes()


@pytest.mark.parametrize("kind", sorted(STATES))
def test_simulate_detection_bytes_unchanged(kind):
    count = 3 * SAMPLE_BATCH + 5
    args = dict(chain_noise_photons=(0.4, 2.3), gains=(2.5, 0.8), count=count, seed=21)
    record = simulate_detection(STATES[kind], vacuum_port_photons=0.15, **args)
    z1, z2 = _old_simulate_detection(STATES[kind], vacuum_port_photons=0.15, **args)
    assert record.envelopes_1.tobytes() == z1.tobytes()
    assert record.envelopes_2.tobytes() == z2.tobytes()


def test_hybrid_split_bytes_unchanged_and_inputs_untouched():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(SAMPLE_BATCH + 3, 2)) @ np.array([1.0, 1j])
    v = rng.normal(size=(SAMPLE_BATCH + 3, 2)) @ np.array([1.0, 1j])
    s_before, v_before = s.copy(), v.copy()
    out1, out2 = hybrid_split(s, v)
    root_half = 1.0 / math.sqrt(2.0)
    assert out1.tobytes() == ((s + v) * root_half).tobytes()
    assert out2.tobytes() == ((s - v) * root_half).tobytes()
    assert s.tobytes() == s_before.tobytes() and v.tobytes() == v_before.tobytes()
