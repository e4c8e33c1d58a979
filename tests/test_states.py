import math
import re

import numpy as np
import pytest

import oracles
from mwphoton import states
from mwphoton.defaults import SAMPLE_SYSTEM
from mwphoton.dualpath import simulate_detection
from mwphoton.qubit import EnvelopeForm, dephasing_rate, ramsey_envelope, simulate_ramsey
from mwphoton.states import (
    MAX_MOMENT_ORDER,
    MOMENT_KEYS,
    MicrowaveState,
    ModeSpec,
    MomentSet,
    Ordering,
    StateKind,
    analytic_moments,
    bose_einstein,
    effective_temperature,
    empirical_moments,
    ordering_convert,
    photon_variance,
    sample_envelopes,
)

MODE = ModeSpec(6.07e9)


class TestBoseEinstein:
    def test_freezes_out_at_low_temperature(self):
        assert bose_einstein(MODE, 1e-4) == pytest.approx(0.0, abs=1e-300)

    def test_effective_mode_temperature_of_background(self):
        # 0.15 photons at 6.07 GHz correspond to roughly 140 mK
        assert bose_einstein(MODE, 0.143) == pytest.approx(0.15, abs=0.002)

    def test_against_independent_high_precision_evaluation(self):
        import mpmath

        t = 0.2914
        x = mpmath.mpf("1.054571817e-34") * 2 * mpmath.pi * mpmath.mpf("6.07e9") / (
            mpmath.mpf("1.380649e-23") * mpmath.mpf(t)
        )
        expected = float(1 / mpmath.expm1(x))
        assert expected == pytest.approx(0.5822, abs=2e-4)
        assert bose_einstein(MODE, t) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.03, 2.0, 40)
        occ = [bose_einstein(MODE, float(t)) for t in temps]
        assert np.all(np.diff(occ) > 0)

    def test_array_of_temperatures_gives_each_occupation(self):
        temps = np.array([1e-4, 0.03, 0.143, 0.2914, 2.0])
        occ = bose_einstein(MODE, temps)
        assert isinstance(occ, np.ndarray) and occ.shape == temps.shape
        assert occ.tolist() == [bose_einstein(MODE, float(t)) for t in temps]
        assert type(bose_einstein(MODE, np.float64(0.143))) is float

    @pytest.mark.parametrize("temperature", [0.0, -0.1, np.array([0.1, 0.0, 0.2])])
    def test_rejects_nonpositive_temperature(self, temperature):
        with pytest.raises(ValueError):
            bose_einstein(MODE, temperature)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ModeSpec(0.0)


class TestEffectiveTemperature:
    def test_background_photon_temperature(self):
        assert effective_temperature(MODE, 0.15) == pytest.approx(0.143, abs=0.001)

    def test_shot_noise_background_temperature(self):
        # n = 0.19 maps to ~0.16 K, consistent with the quoted ~150 mK scale
        t = effective_temperature(MODE, 0.19)
        assert t == pytest.approx(0.1588, abs=0.001)
        assert abs(t - 0.150) < 0.01

    @pytest.mark.parametrize("n", [0.05, 0.5, 1.5])
    def test_round_trip_identity(self, n):
        assert bose_einstein(MODE, effective_temperature(MODE, n)) == pytest.approx(
            n, rel=1e-12
        )

    def test_rejects_nonpositive_occupation(self):
        with pytest.raises(ValueError):
            effective_temperature(MODE, 0.0)


class TestPhotonVariance:
    def test_thermal_super_poissonian(self):
        assert photon_variance(StateKind.THERMAL, 1.0) == 2.0

    def test_coherent_poissonian(self):
        assert photon_variance(StateKind.COHERENT, 1.0) == 1.0

    def test_shot_noise_poissonian(self):
        assert photon_variance(StateKind.SHOT_NOISE, 0.7) == 0.7

    def test_vacuum(self):
        assert photon_variance(StateKind.THERMAL, 0.0) == 0.0


class TestStateValidation:
    def test_coherent_amplitude_consistency(self):
        with pytest.raises(ValueError):
            MicrowaveState(StateKind.COHERENT, 2.0, 1.0 + 0j)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            MicrowaveState.thermal(-0.1)


class TestMomentKeys:
    def test_each_key_up_to_the_highest_order_once(self):
        # (n, m) for n + m <= 4: 1 + 2 + 3 + 4 + 5 keys, lower total order first
        assert "MOMENT_KEYS" in states.__all__
        assert isinstance(MOMENT_KEYS, tuple) and len(MOMENT_KEYS) == 15
        expected = {(n, m) for n in range(5) for m in range(5) if n + m <= MAX_MOMENT_ORDER}
        assert set(MOMENT_KEYS) == expected
        orders = [n + m for n, m in MOMENT_KEYS]
        assert orders == sorted(orders)

    @pytest.mark.parametrize("state", [MicrowaveState.thermal(0.7), MicrowaveState.coherent(0.9 + 0.1j)])
    def test_analytic_entries_follow_the_key_order(self, state):
        assert list(analytic_moments(state).entries) == list(MOMENT_KEYS)


class TestAnalyticMoments:
    def test_thermal_fourth_moment(self):
        # k! n^k at k = 2, n = 1; frozen against the Fock oracle and a direct
        # Monte Carlo average of geometric photon-number samples
        moments = analytic_moments(MicrowaveState.thermal(1.0))
        assert moments.entry(2, 2) == pytest.approx(2.0)
        oracle = oracles.fock_normal_moment_thermal(1.0, 2, 2)
        assert moments.entry(2, 2) == pytest.approx(oracle, rel=1e-9)
        rng = np.random.default_rng(7)
        photons = rng.geometric(0.5, size=1_000_000) - 1
        mc = np.mean(photons * (photons - 1.0))
        assert moments.entry(2, 2).real == pytest.approx(mc, rel=0.02)

    def test_coherent_fourth_moment(self):
        assert analytic_moments(MicrowaveState.coherent(1.0)).entry(2, 2) == pytest.approx(1.0)

    def test_vacuum_occupation(self):
        assert analytic_moments(MicrowaveState.thermal(0.0)).entry(1, 1) == 0.0

    def test_shot_noise_intensity_moments(self):
        moments = analytic_moments(MicrowaveState.shot_noise(0.8))
        assert moments.entry(2, 2) == pytest.approx(0.64)
        assert moments.entry(1, 0) == 0.0
        assert moments.entry(2, 1) == 0.0

    @pytest.mark.parametrize(
        "state",
        [
            MicrowaveState.thermal(0.7),
            MicrowaveState.coherent(1.3 - 0.4j),
            MicrowaveState.shot_noise(0.4),
            MicrowaveState.thermal(0.0),
        ],
    )
    def test_occupation_entry_matches_mean_photons(self, state):
        assert analytic_moments(state).entry(1, 1).real == pytest.approx(
            state.mean_photons, abs=1e-15
        )

    @pytest.mark.parametrize(
        "state",
        [
            MicrowaveState.thermal(0.7),
            MicrowaveState.coherent(0.9 + 0.1j),
            MicrowaveState.thermal(0.0),
        ],
    )
    def test_variance_from_moments_matches_closed_form(self, state):
        m = analytic_moments(state)
        n = m.entry(1, 1).real
        variance = m.entry(2, 2).real + n - n * n
        assert variance == pytest.approx(photon_variance(state.kind, state.mean_photons), abs=1e-12)

    @pytest.mark.parametrize("n_mean", [0.3, 1.0, 1.5])
    def test_thermal_moments_match_fock_oracle(self, n_mean):
        moments = analytic_moments(MicrowaveState.thermal(n_mean))
        for n, m in MOMENT_KEYS:
            oracle = oracles.fock_normal_moment_thermal(n_mean, n, m)
            assert moments.entry(n, m) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_coherent_moments_match_fock_oracle(self):
        alpha = 0.8 + 0.5j
        moments = analytic_moments(MicrowaveState.coherent(alpha))
        for n, m in MOMENT_KEYS:
            oracle = oracles.fock_normal_moment_coherent(alpha, n, m, cutoff=40)
            assert moments.entry(n, m) == pytest.approx(oracle, rel=1e-6, abs=1e-9)


class TestSampleEnvelopes:
    def test_vacuum_quadrature_variance(self):
        z = sample_envelopes(MicrowaveState.thermal(0.0), 1_000_000, seed=1)
        # variance-of-variance for a Gaussian: sigma = var * sqrt(2/N)
        stat = 0.25 * math.sqrt(2.0 / z.size)
        assert np.var(z.real) == pytest.approx(0.25, abs=3 * stat)
        assert np.var(z.imag) == pytest.approx(0.25, abs=3 * stat)

    def test_thermal_symmetrized_power(self):
        z = sample_envelopes(MicrowaveState.thermal(1.0), 1_000_000, seed=2)
        # <|z|^2> = n + 1/2; |z|^2 is exponential so sigma = 1.5 / sqrt(N)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.5, abs=5 * 1.5e-3)

    def test_coherent_mean(self):
        z = sample_envelopes(MicrowaveState.coherent(2.0), 200_000, seed=3)
        assert np.mean(z) == pytest.approx(2.0 + 0j, abs=5e-3)

    def test_empty_request(self):
        assert sample_envelopes(MicrowaveState.thermal(0.0), 0, seed=0).size == 0

    def test_deterministic_and_partition_independent(self):
        state = MicrowaveState.thermal(0.5)
        full = sample_envelopes(state, 50_000, seed=9)
        again = sample_envelopes(state, 50_000, seed=9)
        prefix = sample_envelopes(state, 20_000, seed=9)
        np.testing.assert_array_equal(full, again)
        np.testing.assert_array_equal(full[:20_000], prefix)

    def test_shot_noise_poissonian_intensity(self):
        n = 0.9
        z = sample_envelopes(MicrowaveState.shot_noise(n), 1_000_000, seed=4)
        normal = ordering_convert(empirical_moments(z), Ordering.NORMAL)
        assert normal.entry(1, 1).real == pytest.approx(n, abs=0.01)
        assert normal.entry(2, 2).real == pytest.approx(n * n, abs=0.03)

    def test_shot_noise_phase_averages_out(self):
        z = sample_envelopes(MicrowaveState.shot_noise(1.0), 2_000_000, seed=5)
        # independent phases: E|mean|^2 = E|z|^2 / N = (n + 1/2) / N, and
        # |mean|^2 is exponential, so exceeding 5 rms has probability e^-25
        assert abs(np.mean(z)) < 5.0 * math.sqrt(1.5 / z.size)


class TestEmpiricalMoments:
    def test_constant_sequence(self):
        m = empirical_moments(np.ones(16, dtype=complex))
        assert m.entry(1, 1) == pytest.approx(1.0)

    def test_vacuum_occupation_moment(self):
        z = sample_envelopes(MicrowaveState.thermal(0.0), 1_000_000, seed=6)
        # Wick: symmetrized <a^dag a> of vacuum is 1/2
        assert empirical_moments(z).entry(1, 1).real == pytest.approx(0.5, abs=0.003)

    def test_thermal_fourth_moment_matches_converted_analytic(self):
        state = MicrowaveState.thermal(1.0)
        z = sample_envelopes(state, 1_000_000, seed=7)
        expected = ordering_convert(analytic_moments(state), Ordering.SYMMETRIZED)
        observed = empirical_moments(z)
        assert observed.entry(2, 2).real == pytest.approx(
            expected.entry(2, 2).real, rel=0.02
        )

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            empirical_moments(np.array([1.0 + 0j]))

    @pytest.mark.parametrize(
        "state", [MicrowaveState.thermal(0.7), MicrowaveState.coherent(0.9 * np.exp(0.4j))]
    )
    def test_matches_per_key_means(self, state):
        z = sample_envelopes(state, 10_000, seed=8)
        observed = empirical_moments(z)
        for n, m in MOMENT_KEYS:
            expected = complex(np.mean(np.conj(z) ** n * z ** m))
            assert observed.entry(n, m) == pytest.approx(expected, rel=1e-12), (n, m)

    @pytest.mark.parametrize("n_mean", [0.2, 1.0])
    def test_error_scales_as_inverse_root_count(self, n_mean):
        state = MicrowaveState.thermal(n_mean)
        expected = ordering_convert(analytic_moments(state), Ordering.SYMMETRIZED)

        def rms_error(count, seed):
            observed = empirical_moments(sample_envelopes(state, count, seed))
            errs = [
                abs(observed.entry(n, m) - expected.entry(n, m))
                for n, m in MOMENT_KEYS
            ]
            return math.sqrt(sum(e * e for e in errs) / len(errs))

        e4 = np.mean([rms_error(10_000, s) for s in (11, 12, 13)])
        e5 = np.mean([rms_error(100_000, s) for s in (11, 12, 13)])
        e6 = np.mean([rms_error(1_000_000, s) for s in (11, 12, 13)])
        assert e5 < e4 / 2.0
        assert e6 < e5 / 2.0


class TestOrderingConvert:
    def test_vacuum_commutator_half(self):
        converted = ordering_convert(
            analytic_moments(MicrowaveState.thermal(0.0)), Ordering.SYMMETRIZED
        )
        assert converted.entry(1, 1) == pytest.approx(0.5)

    @pytest.mark.parametrize("n_mean", [0.25, 1.0, 1.5])
    def test_thermal_occupation_shift(self, n_mean):
        converted = ordering_convert(
            analytic_moments(MicrowaveState.thermal(n_mean)), Ordering.SYMMETRIZED
        )
        oracle = oracles.fock_symmetrized_moment_thermal(n_mean, 1, 1)
        assert converted.entry(1, 1) == pytest.approx(n_mean + 0.5, rel=1e-12)
        assert converted.entry(1, 1) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("n_mean", [0.4, 1.2])
    def test_all_thermal_entries_match_fock_symmetrized_oracle(self, n_mean):
        converted = ordering_convert(
            analytic_moments(MicrowaveState.thermal(n_mean)), Ordering.SYMMETRIZED
        )
        for n, m in MOMENT_KEYS:
            oracle = oracles.fock_symmetrized_moment_thermal(n_mean, n, m)
            assert converted.entry(n, m) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_coherent_entries_match_fock_symmetrized_oracle(self):
        alpha = 0.6 - 0.7j
        converted = ordering_convert(
            analytic_moments(MicrowaveState.coherent(alpha)), Ordering.SYMMETRIZED
        )
        for n, m in MOMENT_KEYS:
            oracle = oracles.fock_symmetrized_moment_coherent(alpha, n, m, cutoff=40)
            assert converted.entry(n, m) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_round_trip_identity_on_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            entries = {}
            for n, m in MOMENT_KEYS:
                if n == m:
                    entries[(n, m)] = complex(rng.uniform(0.0, 3.0))
                elif n < m:
                    value = complex(rng.normal(), rng.normal())
                    entries[(n, m)] = value
                    entries[(m, n)] = value.conjugate()
            entries[(0, 0)] = 1.0 + 0j
            original = MomentSet(Ordering.NORMAL, entries)
            there = ordering_convert(original, Ordering.SYMMETRIZED)
            back = ordering_convert(there, Ordering.NORMAL)
            for key, value in original.entries.items():
                assert back.entries[key] == pytest.approx(value, abs=1e-12)

    def test_incomplete_set_names_missing_entries(self):
        partial = MomentSet(Ordering.NORMAL, {(0, 0): 1.0, (1, 1): 0.5})
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            ordering_convert(partial, Ordering.SYMMETRIZED)

    def test_same_ordering_is_copy(self):
        original = analytic_moments(MicrowaveState.thermal(0.5))
        copy = ordering_convert(original, Ordering.NORMAL)
        assert copy.entries == original.entries
        assert copy is not original


class TestMomentSetValidation:
    def test_requires_unit_zeroth_entry(self):
        with pytest.raises(ValueError):
            MomentSet(Ordering.NORMAL, {(0, 0): 2.0})

    def test_conjugation_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetry"):
            MomentSet(Ordering.NORMAL, {(0, 0): 1.0, (1, 0): 1j, (0, 1): 1j})

    def test_negative_occupation_rejected_for_normal_ordering(self):
        with pytest.raises(ValueError):
            MomentSet(Ordering.NORMAL, {(0, 0): 1.0, (1, 1): -0.5})

    @pytest.mark.parametrize(
        "entries, key",
        [
            # finite parts whose modulus exceeds the float range
            ({(0, 0): complex(1.5e308, 1.5e308)}, "(0, 0)"),
            ({(0, 0): 1.0, (1, 2): complex(1.5e308, 1.5e308)}, "(1, 2)"),
            # each entry fits, but its distance to its mirror does not
            ({(0, 0): 1.0, (1, 0): complex(1e308, 1e308), (0, 1): complex(-5e307, 5e307)}, "(1, 0)"),
        ],
    )
    def test_modulus_overflow_names_the_key(self, entries, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            MomentSet(Ordering.NORMAL, entries)


# The vacuum is the n = 0 limit of every kind, so a zero-photon field of any
# kind reads with the bits of MicrowaveState.thermal(0.0) wherever a state
# or its kind enters: no kind needs a vacuum of its own.
RAMSEY_DELAYS = np.linspace(0.0, 2e-6, 9)

ZERO_PHOTON_READS = {
    "analytic_moments": lambda state: analytic_moments(state).entries,
    "photon_variance": lambda state: photon_variance(state.kind, state.mean_photons),
    "sample_envelopes": lambda state: sample_envelopes(
        state, 3 * states.SAMPLE_BATCH // 2, seed=4
    ),
    "simulate_detection": lambda state: [
        getattr(simulate_detection(state, (1.5, 2.0), (2.0, 3.0), 3000, 4, 0.1), name)
        for name in ("envelopes_1", "envelopes_2")
    ],
    "relaxation_rate": lambda state: SAMPLE_SYSTEM.qubit.relaxation_rate(
        state.kind, state.mean_photons
    ),
    "dephasing_rate": lambda state: dephasing_rate(state.kind, state.mean_photons, SAMPLE_SYSTEM),
    "ramsey_envelope_asymptotic_rate": lambda state: ramsey_envelope(
        SAMPLE_SYSTEM, state.kind, state.mean_photons, RAMSEY_DELAYS, EnvelopeForm.ASYMPTOTIC_RATE
    ),
    "ramsey_envelope_gaussian_integral": lambda state: ramsey_envelope(
        SAMPLE_SYSTEM, state.kind, state.mean_photons, RAMSEY_DELAYS, EnvelopeForm.GAUSSIAN_INTEGRAL
    ),
    "simulate_ramsey": lambda state: simulate_ramsey(
        SAMPLE_SYSTEM, state.kind, state.mean_photons, RAMSEY_DELAYS, shots=500, seed=8
    ),
}


class TestZeroPhotonFieldIsTheVacuum:
    @pytest.mark.parametrize("read", ZERO_PHOTON_READS.values(), ids=ZERO_PHOTON_READS.keys())
    @pytest.mark.parametrize(
        "state",
        [MicrowaveState.coherent(0.0), MicrowaveState.shot_noise(0.0)],
        ids=["coherent", "shot_noise"],
    )
    def test_reads_as_thermal_at_zero_photons(self, state, read):
        vacuum = read(MicrowaveState.thermal(0.0))
        if isinstance(vacuum, dict):
            assert read(state) == vacuum
        else:
            np.testing.assert_array_equal(read(state), vacuum, strict=True)
