"""The fused moment engine, the record route, the copy-free hybrid split
and the joint-law sampler against the routes they replaced, kept here as
oracles.

Sweep points and exported records sum the cross-path products
z1^m conj(z2)^n over the same 20 error blocks: a record all 15 with
n + m <= 4, a sweep point only the 7 of ``_POINT_KEYS`` that its values
read.  A sweep point draws each sample batch and sums the products over
every block segment it overlaps, building no record; ``cross_moments``
sums each block of a record of ``simulate_detection``.  The old sweep
route built that record and estimated the product means over the whole
record and again over every block.  The oracle,
``oracles.product_block_means``, forms each product as its own power of
z1 times its own power of conj(z2), one block at a time.  Summation order
differs, so each pair agrees to rounding (relative 1e-12).  A sweep
point's 7 sums are the same operations as among all 15, so its values and
block errors equal those of the 15-key inversion bit for bit, and the key
set is closed under the inversion's conjugation and Gaussian shift.
Every route forms a span's products once, into one buffer of rows, and
sums all rows of each segment in one call.  Two tests pin what the bits
rest on: segments of one span sum as separate spans do, and numpy sums
each row of a 2-D slice as it sums that row alone.
``simulate_detection`` draws each sample of the record from its joint
law, where the layered route of ``oracles.layered_detection`` splits and
adds noise draw by draw: the two agree in law, exactly in their second
moments and within block errors in their 15 cross-path product means.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mwphoton import dualpath
from mwphoton.dualpath import (
    _POINT_KEYS,
    CrossMomentSet,
    DetectionRecord,
    _detect_point,
    _point_values,
    _record_model,
    cross_moments,
    hybrid_split,
    quadrature_variances,
    reconstruct_signal_moments,
    simulate_detection,
)
from mwphoton.states import (
    MOMENT_KEYS,
    SAMPLE_BATCH,
    MicrowaveState,
    MomentSet,
    Ordering,
    _conjugate_symmetrize,
    _gaussian_shift,
    _row_count,
    _segment_sums,
    analytic_moments,
    empirical_moments,
    sample_envelopes,
)

RTOL = 1e-12

STATES = {
    "thermal": MicrowaveState.thermal(0.7),
    "coherent": MicrowaveState.coherent(0.9 * np.exp(0.4j)),
    "shot_noise": MicrowaveState.shot_noise(1.2),
    "vacuum": MicrowaveState.thermal(0.0),
}


# ---------------------------------------------------------------------------
# Oracles: the routes before the single-pass engine
# ---------------------------------------------------------------------------

def _per_key_cross_moments(rec):
    """Product means from per-key block means, the block sums added with ``math.fsum``."""
    sizes, means = oracles.product_block_means(rec.envelopes_1, rec.envelopes_2, MOMENT_KEYS)
    sums = sizes[:, None] * means
    entries = {
        key: complex(math.fsum(sums[:, j].real), math.fsum(sums[:, j].imag)) / rec.sample_count
        for j, key in enumerate(MOMENT_KEYS)
    }
    return CrossMomentSet(entries, rec.sample_count)


def _old_point(moments):
    var_p, var_q = quadrature_variances(moments)
    return {
        "n": moments.entry(1, 1).real,
        "g2": moments.entry(2, 2).real,
        "var_p": var_p,
        "var_q": var_q,
    }


def _old_reconstruct_with_errors(record, gains, block_count=20):
    moments = reconstruct_signal_moments(_per_key_cross_moments(record), gains)
    bounds = np.linspace(0, record.sample_count, block_count + 1).astype(int)
    block_values = {"n": [], "g2": [], "var_p": [], "var_q": []}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        block = DetectionRecord(
            record.envelopes_1[lo:hi], record.envelopes_2[lo:hi], record.chain_gains
        )
        for key, value in _old_point(reconstruct_signal_moments(_per_key_cross_moments(block), gains)).items():
            block_values[key].append(value)
    errors = {
        key: float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        for key, vals in block_values.items()
    }
    return _old_point(moments), errors


# ---------------------------------------------------------------------------
# Single-pass moment engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["thermal", "coherent", "shot_noise"])
def test_single_pass_engine_matches_block_route(kind):
    detection = dict(chain_noise_photons=(0.8, 1.9), gains=(1.7, 0.6))
    point, errors = _detect_point(STATES[kind], 60_013, 11, **detection)
    record = simulate_detection(STATES[kind], count=60_013, seed=11, **detection)
    old_point, old_errors = _old_reconstruct_with_errors(record, detection["gains"])
    for name in ("n", "g2", "var_p", "var_q"):
        assert point[name] == pytest.approx(old_point[name], rel=RTOL, abs=0.0), name
        assert errors[name] == pytest.approx(old_errors[name], rel=RTOL, abs=0.0), name


FUSED = dict(chain_noise_photons=(0.4, 2.3), gains=(2.5, 0.8), vacuum_port_photons=0.15)


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize(
    "count", [40, SAMPLE_BATCH - 1, SAMPLE_BATCH + 1, 3 * SAMPLE_BATCH + 5, 1_000_007]
)
def test_fused_moments_match_export_route(kind, count):
    # 40 samples give 20 blocks of two inside one batch; the other counts
    # end in a short batch, and 1e6 + 7 puts block edges inside batches
    point, _ = _detect_point(STATES[kind], count, count + 3, **FUSED)
    record = simulate_detection(STATES[kind], count=count, seed=count + 3, **FUSED)
    moments = reconstruct_signal_moments(
        cross_moments(record), FUSED["gains"], FUSED["vacuum_port_photons"]
    )
    exported = _point_values(moments)
    assert list(point) == list(exported)
    for name, old in exported.items():
        assert abs(point[name] - old) <= 1e-12 * max(1.0, abs(old)), name


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("count", [40, SAMPLE_BATCH - 1, SAMPLE_BATCH + 1, 1_000_007])
def test_point_keeps_the_bits_of_the_full_key_sums(monkeypatch, kind, count):
    point, errors = _detect_point(STATES[kind], count, count + 5, **FUSED)
    # the reference sums and inverts all 15 products, as sweep points once did
    monkeypatch.setattr(dualpath, "_POINT_KEYS", MOMENT_KEYS)
    full_point, full_errors = _detect_point(STATES[kind], count, count + 5, **FUSED)
    assert point == full_point
    assert errors == full_errors


def _whole_span_sums(z1, z2, keys):
    """:func:`_segment_sums` of one segment, the whole span, in a buffer of its own."""
    rows = np.empty((_row_count(keys), z1.size), dtype=complex)
    return _segment_sums(z1, z2, keys, rows, [(0, z1.size)])[0]


def test_segment_sums_of_a_key_subset_keep_their_bits():
    rng = np.random.default_rng(8)
    z1, z2 = (rng.normal(size=(1001, 2)).view(complex)[:, 0] for _ in range(2))
    full = _whole_span_sums(z1, z2, MOMENT_KEYS)
    assert list(full) == list(MOMENT_KEYS)
    for keys in (_POINT_KEYS, ((1, 1),), ((0, 0),), ((3, 1), (0, 1), (2, 0)), MOMENT_KEYS[::-1]):
        subset = _whole_span_sums(z1, z2, keys)
        assert list(subset) == list(keys)
        assert all(subset[key] == full[key] for key in keys), keys


@pytest.mark.parametrize("keys", [_POINT_KEYS, MOMENT_KEYS], ids=["point", "all"])
def test_segments_of_one_span_keep_the_bits_of_separate_spans(keys):
    rng = np.random.default_rng(9)
    z1, z2 = (rng.normal(size=(1001, 2)).view(complex)[:, 0] for _ in range(2))
    segments = [(0, 1), (1, 3), (3, 500), (500, 1001)]
    # the span fills the front of a wider buffer, as a short final batch does
    rows = np.empty((_row_count(keys), 2048), dtype=complex)[:, :1001]
    rows[0], rows[1] = z1, z2
    sums = _segment_sums(rows[0], rows[1], keys, rows, segments)
    assert sums == [_whole_span_sums(z1[a:b], z2[a:b], keys) for a, b in segments]


@pytest.mark.parametrize("length", [1, 7, 8, 9, 127, 128, 129, 5_000, 16_383, 16_384, 50_000])
@pytest.mark.parametrize("offset", [None, 5])
def test_row_sums_of_a_slice_are_each_rows_own_sum(length, offset):
    # _segment_sums sums all rows of a segment in one call, and keeps the
    # bits of the per-row sums only because numpy reduces each C-contiguous
    # row of a 2-D slice as it reduces that row alone; the artifact digests
    # skip under other numpy builds, so this is what guards those bits there
    rng = np.random.default_rng(length)
    width = length if offset is None else length + 2 * offset
    buf = rng.normal(size=(6, width, 2)).view(complex)[..., 0]
    view = buf if offset is None else buf[:, offset : offset + length]
    assert view.flags.c_contiguous is (offset is None)
    assert view.sum(axis=1).tobytes() == np.array([row.sum() for row in view]).tobytes()


def test_record_routes_hold_one_product_buffer():
    """Peak traced memory of the record routes is one product buffer.

    Each route forms its 14 products (``_row_count(MOMENT_KEYS)``) in one
    complex buffer as long as its longest span and reuses it for every span.
    Measured with tracemalloc (numpy 2.4.6):

    * ``empirical_moments`` of 5e5 samples: 3 706 768 B, one
      ``(14, SAMPLE_BATCH)`` buffer (3 670 016 B).  When it summed the
      whole array at once, four 8 MB temporaries: 32 002 704 B.
    * ``cross_moments`` of a 1e5-sample record: 1 144 328 B, one
      ``(14, 5000)`` buffer (1 120 000 B) for its 5 000-sample error blocks.
      When it summed each block key by key, four 5 000-sample temporaries:
      345 704 B.  Summing all 14 rows of a block in one call needs them
      all at once, so this route holds more than that.
    """
    z = sample_envelopes(STATES["thermal"], 500_000, 3)
    record = simulate_detection(STATES["thermal"], (0.8, 1.9), (1.7, 0.6), 100_000, 5)
    rows = _row_count(MOMENT_KEYS)
    for estimate, span in (
        (lambda: empirical_moments(z), SAMPLE_BATCH),
        (lambda: cross_moments(record), 5_000),
    ):
        estimate()
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * span * 16 + (64 << 10), peak


# ---------------------------------------------------------------------------
# The keys a sweep point sums
# ---------------------------------------------------------------------------

def test_point_keys_closed_under_conjugation_and_gaussian_shift():
    keys = set(_POINT_KEYS)
    assert len(_POINT_KEYS) == len(keys) == 7 and keys <= set(MOMENT_KEYS)
    assert all((m, n) in keys for n, m in keys)
    assert all((n - k, m - k) in keys for n, m in keys for k in range(min(n, m) + 1))
    # both maps run on the set alone and return exactly its keys
    entries = {(n, m): complex(n + 1, m - n) for n, m in _POINT_KEYS}
    _conjugate_symmetrize(entries)
    assert list(entries) == list(_POINT_KEYS)
    assert list(_gaussian_shift(entries, 0.15)) == list(_POINT_KEYS)


@pytest.mark.parametrize("kind", sorted(STATES))
def test_point_values_read_only_the_point_keys(kind):
    full = analytic_moments(STATES[kind]).entries
    restricted = {key: full[key] for key in _POINT_KEYS}
    # a warm fourth port shifts each set as the inversion does
    expected = _point_values(MomentSet(Ordering.NORMAL, _gaussian_shift(full, 0.15)))
    assert _point_values(MomentSet(Ordering.NORMAL, _gaussian_shift(restricted, 0.15))) == expected
    # and every key of the set is read
    for key in _POINT_KEYS[1:]:
        entries = {k: v for k, v in restricted.items() if k != key}
        with pytest.raises(ValueError, match="not present|required"):
            _point_values(MomentSet(Ordering.NORMAL, entries))


# ---------------------------------------------------------------------------
# Record route
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
    old = _per_key_cross_moments(record)
    assert new.sample_count == old.sample_count == count
    assert list(new.entries) == list(old.entries) == list(MOMENT_KEYS)
    for key in MOMENT_KEYS:
        assert new.entries[key] == pytest.approx(old.entries[key], rel=RTOL, abs=1e-15), key
    assert new.entries[(0, 0)] == 1.0


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


# ---------------------------------------------------------------------------
# Copy-free sampling
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Joint record sampling against the layered route
# ---------------------------------------------------------------------------

LAYERED = dict(chain_noise_photons=(0.4, 2.3), gains=(2.5, 0.8), vacuum_port_photons=0.15)


@pytest.mark.parametrize("kind", sorted(STATES))
def test_record_model_matches_layered_second_moments(kind):
    state = STATES[kind]
    carrier, random_phase, cov = _record_model(
        state, LAYERED["chain_noise_photons"], LAYERED["vacuum_port_photons"]
    )
    g1, g2 = LAYERED["gains"]
    # z_j = sqrt(g_j) (mu / sqrt(2) + x_j) with E[x_i conj(x_j)] = 2 cov[i][j]
    carrier_power = abs(carrier) ** 2 / 2.0
    model = (
        g1 * (carrier_power + 2.0 * cov[0, 0]),
        g2 * (carrier_power + 2.0 * cov[1, 1]),
        math.sqrt(g1 * g2) * (carrier_power + 2.0 * cov[0, 1]),
    )
    expected = oracles.layered_second_moments(
        state.mean_photons,
        LAYERED["chain_noise_photons"],
        LAYERED["gains"],
        LAYERED["vacuum_port_photons"],
    )
    assert model == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert cov[0, 1] == cov[1, 0]
    assert np.linalg.det(cov) > 0.0
    # the layered mean is the split carrier, or zero under a random phase
    assert random_phase is (kind == "shot_noise")
    if not random_phase:
        assert carrier == state.amplitude


@pytest.mark.parametrize("kind", sorted(STATES))
def test_joint_sampler_agrees_in_law_with_layered_route(kind):
    count = 200_000

    def product_means(z1, z2):
        sizes, means = oracles.product_block_means(z1, z2, MOMENT_KEYS)
        spread = np.sqrt(np.var(means.real, axis=0, ddof=1) + np.var(means.imag, axis=0, ddof=1))
        return sizes @ means / count, spread / math.sqrt(len(sizes))

    # seeds fixed before the first run; a miss is a finding, not a reason to re-seed
    for seed in (31, 32, 33):
        record = simulate_detection(STATES[kind], count=count, seed=seed, **LAYERED)
        joint, joint_err = product_means(record.envelopes_1, record.envelopes_2)
        layered, layered_err = product_means(
            *oracles.layered_detection(STATES[kind], count=count, seed=seed, **LAYERED)
        )
        budget = 4.0 * np.hypot(joint_err, layered_err)
        for j, key in enumerate(MOMENT_KEYS[1:], 1):
            assert abs(joint[j] - layered[j]) <= budget[j], (seed, key)
