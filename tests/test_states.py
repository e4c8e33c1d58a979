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
    SAMPLE_BATCH,
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
    _require_finite,
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

    # an infinite temperature once made expm1(0) divide by zero
    @pytest.mark.parametrize(
        "temperature", [0.0, -0.1, np.array([0.1, 0.0, 0.2]), math.inf, np.array([0.1, math.inf])]
    )
    def test_rejects_temperature_outside_its_domain(self, temperature):
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

    @pytest.mark.parametrize("n", [0.0, math.inf])  # log1p(1 / inf) = 0 once divided by zero
    def test_rejects_occupation_outside_its_domain(self, n):
        with pytest.raises(ValueError):
            effective_temperature(MODE, n)


class TestPhotonVariance:
    def test_thermal_super_poissonian(self):
        assert photon_variance(StateKind.THERMAL, 1.0) == 2.0

    def test_coherent_poissonian(self):
        assert photon_variance(StateKind.COHERENT, 1.0) == 1.0

    def test_shot_noise_poissonian(self):
        assert photon_variance(StateKind.SHOT_NOISE, 0.7) == 0.7

    def test_vacuum(self):
        assert photon_variance(StateKind.THERMAL, 0.0) == 0.0

    @pytest.mark.parametrize("n", [-0.1, math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(StateKind))
    def test_occupation_outside_its_domain_rejected(self, kind, n):
        with pytest.raises(ValueError, match="occupation n must be finite and >= 0"):
            photon_variance(kind, n)


class TestRequireFinite:
    @pytest.mark.parametrize(
        "value, sign",
        [(0.0, ">= 0"), (0, ">= 0"), (1e-300, "> 0"), (-2.0, None), (np.float64(3.0), "> 0"),
         (np.array([0.0, 1.0]), ">= 0"), ((1.0, 2.0), "> 0"), (np.array(-1.0), None), ([], "> 0")],
    )
    def test_accepts_finite_values_obeying_the_sign(self, value, sign):
        _require_finite("x", value, sign)

    @pytest.mark.parametrize(
        "value, sign, message",
        [
            (math.nan, None, "x must be finite, got nan"),
            (-math.inf, None, "x must be finite, got -inf"),
            (0.0, "> 0", "x must be finite and > 0, got 0.0"),
            (-1, ">= 0", "x must be finite and >= 0, got -1"),
            (np.array(-1.0), ">= 0", "x must be finite and >= 0, got -1.0"),
            ((1.0, math.inf, -1.0), "> 0", "x must be finite and > 0, got inf at index 1"),
            (
                np.array([[1.0, 2.0], [3.0, math.nan]]),
                None,
                "x must be finite, got nan at index (1, 1)",
            ),
        ],
    )
    def test_names_the_argument_and_its_first_bad_value(self, value, sign, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_finite("x", value, sign)

    @pytest.mark.parametrize("value", ["1.0", None, ["1.0"]])
    def test_a_value_that_is_not_a_number_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            _require_finite("x", value, "> 0")


class TestStateValidation:
    def test_coherent_amplitude_consistency(self):
        with pytest.raises(ValueError):
            MicrowaveState(StateKind.COHERENT, 2.0, 1.0 + 0j)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            MicrowaveState.thermal(-0.1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MicrowaveState.thermal(math.inf),
            lambda: MicrowaveState.shot_noise(math.nan),
            lambda: MicrowaveState.coherent(complex(math.inf, 0.0)),
        ],
        ids=["thermal_inf", "shot_noise_nan", "coherent_inf"],
    )
    def test_non_finite_occupation_rejected(self, make):
        with pytest.raises(ValueError, match="must be finite"):
            make()


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
        # only a field without a random phase: shot noise draws its phases
        # after all of a batch's normals, so its short final batch is no prefix
        detection = dict(chain_noise_photons=(0.4, 1.3), gains=(2.0, 0.7), vacuum_port_photons=0.1)
        for state in (MicrowaveState.thermal(0.5), MicrowaveState.coherent(0.8 - 0.3j)):
            full = sample_envelopes(state, 50_000, seed=9)
            again = sample_envelopes(state, 50_000, seed=9)
            prefix = sample_envelopes(state, 20_000, seed=9)
            np.testing.assert_array_equal(full, again)
            np.testing.assert_array_equal(full[:20_000], prefix)
            record = simulate_detection(state, count=50_000, seed=9, **detection)
            again = simulate_detection(state, count=50_000, seed=9, **detection)
            prefix = simulate_detection(state, count=20_000, seed=9, **detection)
            for path in ("envelopes_1", "envelopes_2"):
                np.testing.assert_array_equal(getattr(record, path), getattr(again, path))
                np.testing.assert_array_equal(
                    getattr(record, path)[:20_000], getattr(prefix, path)
                )

    @pytest.mark.parametrize(
        "state, carrier, var_s",
        [
            (MicrowaveState.thermal(0.7), 0j, (2.0 * 0.7 + 1.0) / 4.0),
            (MicrowaveState.coherent(0.9 - 0.4j), 0.9 - 0.4j, 0.25),
            (MicrowaveState.shot_noise(1.3), complex(math.sqrt(1.3)), 0.25),
        ],
        ids=["thermal", "coherent", "shot_noise"],
    )
    def test_stream_is_sfc64_through_the_root_variance(self, state, carrier, var_s):
        # the one-path case of the dual-path stream pin in test_dualpath.py:
        # a change of generator, of the normals' layout or of the phase draw
        # fails here under any numpy version
        seed = 31

        def batch(index, size):
            seeds = np.random.SeedSequence(seed, spawn_key=(index,))
            rng = np.random.Generator(np.random.SFC64(seeds))
            z = rng.standard_normal((size, 2)).view(complex)[:, 0] * math.sqrt(var_s)
            if state.kind is StateKind.SHOT_NOISE:
                z += np.exp(rng.random(size) * (2j * math.pi)) * carrier
            elif carrier:
                z += carrier
            return z

        z = sample_envelopes(state, SAMPLE_BATCH + 257, seed)
        np.testing.assert_array_equal(z[:SAMPLE_BATCH], batch(0, SAMPLE_BATCH))
        np.testing.assert_array_equal(z[SAMPLE_BATCH:], batch(1, 257))

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


#: (state, |carrier|^2, s) of each kind's Wigner law: a circular Gaussian of
#: E|z - carrier|^2 = s (twice the per-quadrature variance) around the carrier.
SCALING_CASES = {
    "thermal": (MicrowaveState.thermal(1.0), 0.0, 1.5),
    "coherent": (MicrowaveState.coherent(0.9 * np.exp(0.4j)), 0.81, 0.5),
    "shot_noise": (MicrowaveState.shot_noise(1.2), 1.2, 0.5),
}

#: Bound on :func:`_normalized_rms_error`: the largest reading over 300 PCG64
#: seed triples (1.80), rounded up to 2.0, plus 0.5.  None of 2 700 held-out
#: cases under PCG64 or SFC64 reached it (CHANGES.md).
SCALING_BOUND = 2.5


def _abs_moment(carrier_sq: float, s: float, k: int) -> float:
    """E|z|^(2k) = k! s^k L_k(-|c|^2/s) of the law of ``SCALING_CASES``, L_k Laguerre's.

    |z| does not depend on the carrier's phase, so this holds for shot noise too.
    """
    x = -carrier_sq / s
    laguerre = sum(math.comb(k, i) * (-x) ** i / math.factorial(i) for i in range(k + 1))
    return math.factorial(k) * s**k * laguerre


def _normalized_rms_error(sampler, kind, count, seeds=(11, 12, 13)):
    """RMS over ``seeds`` and the 14 keys other than (0, 0) of each symmetrized
    moment's error in units of its exact sigma.

    The sample mean of conj(z)^n z^m over N draws has
    sigma^2 = (E|z|^(2(n+m)) - |mu_nm|^2) / N, so each term has mean 1.
    """
    state, carrier_sq, s = SCALING_CASES[kind]
    expected = ordering_convert(analytic_moments(state), Ordering.SYMMETRIZED)
    keys = MOMENT_KEYS[1:]
    total = 0.0
    for seed in seeds:
        observed = empirical_moments(sampler(state, count, seed))
        for n, m in keys:
            mu = expected.entry(n, m)
            variance = (_abs_moment(carrier_sq, s, n + m) - abs(mu) ** 2) / count
            total += abs(observed.entry(n, m) - mu) ** 2 / variance
    return math.sqrt(total / (len(seeds) * len(keys)))


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

    @pytest.mark.parametrize("kind", sorted(SCALING_CASES))
    def test_exact_abs_moments_match_the_closed_forms(self, kind):
        state, carrier_sq, s = SCALING_CASES[kind]
        expected = ordering_convert(analytic_moments(state), Ordering.SYMMETRIZED)
        for k in (0, 1, 2):
            assert _abs_moment(carrier_sq, s, k) == pytest.approx(expected.entry(k, k).real, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(SCALING_CASES))
    def test_error_scales_as_inverse_root_count(self, kind):
        # each key's error in units of its exact sigma at N samples stays of
        # order 1 as N grows a hundredfold; an error that stops falling with N
        # grows as sqrt(N) in those units (the test below)
        for count in (10_000, 100_000, 1_000_000):
            assert _normalized_rms_error(sample_envelopes, kind, count) < SCALING_BOUND, count

    @pytest.mark.parametrize("kind", sorted(SCALING_CASES))
    def test_error_scaling_fails_a_sampler_that_repeats_its_first_draws(self, kind):
        def tiled(state, count, seed):
            return np.resize(sample_envelopes(state, 10_000, seed), count)

        assert _normalized_rms_error(tiled, kind, 1_000_000) > SCALING_BOUND


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
