import csv
import json
import math

import numpy as np
import pytest

import oracles
from mwphoton.chains import compression_power, db_to_linear, linear_to_db, watts_to_dbm
from mwphoton.defaults import JPA_METADATA, JPA_OPERATING_POINTS
from mwphoton import dualpath
from mwphoton.dualpath import (
    CrossMomentSet,
    DetectionRecord,
    PlanckSweep,
    _detect_point,
    cross_moments,
    hybrid_split,
    jpa_planck_fit,
    jpa_planck_power,
    load_record_binary,
    load_record_csv,
    planck_fit,
    planck_power,
    quadrature_variances,
    reconstruct_signal_moments,
    saturation_power_for_t1db,
    save_record_binary,
    save_record_csv,
    simulate_detection,
    wigner_gaussian_contour,
)
from mwphoton.states import (
    MOMENT_KEYS,
    SAMPLE_BATCH,
    MicrowaveState,
    ModeSpec,
    Ordering,
    StateKind,
    analytic_moments,
    sample_envelopes,
)

MODE = ModeSpec(5.4e9)
VACUUM = MicrowaveState.thermal(0.0)


# ---------------------------------------------------------------------------
# Gaussian oracle for cross moments
# ---------------------------------------------------------------------------

def analytic_cross_moments(
    signal_power,
    signal_mean=0.0 + 0.0j,
    vacuum_port_power=0.5,
    chain_noise=(0.0, 0.0),
    gains=(1.0, 1.0),
):
    """Exact product means E[z1^m conj(z2)^n] for a Gaussian input, via Isserlis pairing.

    ``signal_power`` is the symmetrized fluctuation power <|ds|^2> of the
    signal (n + 1/2 for thermal, 1/2 for coherent), ``signal_mean`` its
    displacement.  Covariances of the two chain envelopes follow from the
    hybrid-ring split and independent chain noise.
    """
    g1, g2 = gains
    sum_power = (signal_power + vacuum_port_power) / 2.0
    diff_power = (signal_power - vacuum_port_power) / 2.0
    cov = {
        1: {1: g1 * (sum_power + chain_noise[0]), 2: math.sqrt(g1 * g2) * diff_power},
        2: {1: math.sqrt(g1 * g2) * diff_power, 2: g2 * (sum_power + chain_noise[1])},
    }
    means = {
        1: math.sqrt(g1) * signal_mean / math.sqrt(2.0),
        2: math.sqrt(g2) * signal_mean / math.sqrt(2.0),
    }
    entries = {
        (n, m): oracles.gaussian_product_moment([(1, False)] * m + [(2, True)] * n, cov, means)
        for n, m in MOMENT_KEYS
    }
    return CrossMomentSet(entries, sample_count=0)


class TestHybridSplit:
    def test_signal_only(self):
        out1, out2 = hybrid_split(np.array([math.sqrt(2.0)]), np.array([0.0]))
        assert out1[0] == pytest.approx(1.0)
        assert out2[0] == pytest.approx(1.0)

    def test_vacuum_port_only(self):
        out1, out2 = hybrid_split(np.array([0.0]), np.array([math.sqrt(2.0)]))
        assert out1[0] == pytest.approx(1.0)
        assert out2[0] == pytest.approx(-1.0)

    def test_energy_conserved_per_sample(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=500) + 1j * rng.normal(size=500)
        v = rng.normal(size=500) + 1j * rng.normal(size=500)
        out1, out2 = hybrid_split(s, v)
        np.testing.assert_allclose(
            np.abs(out1) ** 2 + np.abs(out2) ** 2,
            np.abs(s) ** 2 + np.abs(v) ** 2,
            rtol=1e-12,
        )

    def test_cross_correlation_reveals_signal_photons(self):
        n = 0.8
        s = sample_envelopes(MicrowaveState.thermal(n), 1_000_000, seed=5)
        v = sample_envelopes(VACUUM, 1_000_000, seed=6)
        out1, out2 = hybrid_split(s, v)
        observed = np.mean(out1 * np.conj(out2))
        # Wick oracle: <out1 conj(out2)> = (<|s|^2> - <|v|^2>)/2 = n/2
        expected = oracles.gaussian_product_moment(
            [(1, False), (2, True)],
            {1: {1: (n + 1) / 2.0, 2: n / 2.0}, 2: {1: n / 2.0, 2: (n + 1) / 2.0}},
        )
        assert expected == pytest.approx(n / 2.0, rel=1e-12)
        assert observed.real == pytest.approx(n / 2.0, abs=0.005)
        assert abs(observed.imag) < 0.005

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hybrid_split(np.zeros(3), np.zeros(4))


class TestSimulateDetection:
    def test_vacuum_noiseless_power(self):
        rec = simulate_detection(VACUUM, count=1_000_000, seed=1)
        assert np.mean(np.abs(rec.envelopes_1) ** 2) == pytest.approx(0.5, abs=0.004)
        assert np.mean(np.abs(rec.envelopes_2) ** 2) == pytest.approx(0.5, abs=0.004)

    def test_cross_correlation_immune_to_chain_noise(self):
        state = MicrowaveState.thermal(1.0)
        quiet = simulate_detection(state, (0.0, 0.0), count=400_000, seed=7)
        loud = simulate_detection(state, (12.0, 12.0), count=400_000, seed=8)
        cc_quiet = np.mean(quiet.envelopes_1 * np.conj(quiet.envelopes_2))
        cc_loud = np.mean(loud.envelopes_1 * np.conj(loud.envelopes_2))
        # independent seeds: difference is purely statistical
        sigma = 4.0 * 13.0 / math.sqrt(400_000)
        assert abs(cc_quiet - cc_loud) < sigma

    def test_gain_scales_second_moments(self):
        state = MicrowaveState.thermal(0.5)
        unit = simulate_detection(state, (0.5, 0.5), (1.0, 1.0), count=50_000, seed=9)
        double = simulate_detection(state, (0.5, 0.5), (2.0, 2.0), count=50_000, seed=9)
        np.testing.assert_allclose(
            np.abs(double.envelopes_1) ** 2, 2.0 * np.abs(unit.envelopes_1) ** 2, rtol=1e-12
        )

    def test_chain_noise_adds_exactly_requested_power(self):
        quiet = simulate_detection(VACUUM, (0.0, 0.0), count=500_000, seed=10)
        loud = simulate_detection(VACUUM, (3.0, 0.0), count=500_000, seed=10)
        added = np.mean(np.abs(loud.envelopes_1) ** 2) - np.mean(np.abs(quiet.envelopes_1) ** 2)
        assert added == pytest.approx(3.0, rel=0.02)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_detection(VACUUM, (-1.0, 0.0), count=100, seed=0)

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("gains", (-1.0, 1.0)),
            ("gains", (1.0, 0.0)),
            ("gains", (math.nan, 1.0)),
            ("gains", (math.inf, 1.0)),
            ("chain_noise_photons", (-1.0, 0.0)),
            ("chain_noise_photons", (0.0, math.nan)),
            ("chain_noise_photons", (math.inf, 0.0)),
            ("vacuum_port_photons", -0.5),
            ("vacuum_port_photons", math.nan),
            ("vacuum_port_photons", math.inf),
        ],
    )
    @pytest.mark.parametrize("route", [simulate_detection, _detect_point])
    def test_bad_argument_named_before_any_draw(self, monkeypatch, route, argument, value):
        def no_draw(fn, items):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(dualpath, "_map_on_cpus", no_draw)
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            route(MicrowaveState.thermal(0.5), count=1000, seed=0, **{argument: value})

    def test_deterministic(self):
        a = simulate_detection(MicrowaveState.thermal(0.3), count=1000, seed=3)
        b = simulate_detection(MicrowaveState.thermal(0.3), count=1000, seed=3)
        np.testing.assert_array_equal(a.envelopes_1, b.envelopes_1)
        np.testing.assert_array_equal(a.envelopes_2, b.envelopes_2)

    @pytest.mark.parametrize(
        "state, carrier, var_s",
        [
            (MicrowaveState.thermal(0.7), 0j, (2.0 * 0.7 + 1.0) / 4.0),
            (MicrowaveState.coherent(0.9 - 0.4j), 0.9 - 0.4j, 0.25),
            (MicrowaveState.shot_noise(1.3), complex(math.sqrt(1.3)), 0.25),
        ],
        ids=["thermal", "coherent", "shot_noise"],
    )
    def test_stream_is_sfc64_through_the_folded_factor(self, state, carrier, var_s):
        # the reference draws with the numpy under test, so this holds under
        # any numpy version, and a change of generator, of the normals' layout
        # or of the phase draw fails here even where the artifact digests skip
        (n1, n2), (g1, g2), n_v, seed = (0.6, 2.2), (1.7, 0.45), 0.12, 31
        var_v = (2.0 * n_v + 1.0) / 4.0
        l11 = math.sqrt(0.5 * (var_s + var_v + n1))
        l21 = 0.5 * (var_s - var_v) / l11
        l22 = math.sqrt(0.5 * (var_s + var_v + n2) - l21 * l21)
        mean = carrier / math.sqrt(2.0)

        def batch(index, size):
            seeds = np.random.SeedSequence(seed, spawn_key=(index,))
            rng = np.random.Generator(np.random.SFC64(seeds))
            e = rng.standard_normal((size, 4)).view(complex)
            z1 = e[:, 0] * (math.sqrt(g1) * l11)
            z2 = e[:, 0] * (math.sqrt(g2) * l21) + e[:, 1] * (math.sqrt(g2) * l22)
            if state.kind is StateKind.SHOT_NOISE:
                turn = np.exp(rng.random(size) * (2j * math.pi))
                z1 += turn * (math.sqrt(g1) * mean)
                z2 += turn * (math.sqrt(g2) * mean)
            elif mean:
                z1 += math.sqrt(g1) * mean
                z2 += math.sqrt(g2) * mean
            return z1, z2

        record = simulate_detection(
            state, (n1, n2), (g1, g2), count=SAMPLE_BATCH + 257, seed=seed, vacuum_port_photons=n_v
        )
        for index, part in ((0, slice(0, SAMPLE_BATCH)), (1, slice(SAMPLE_BATCH, None))):
            z1, z2 = batch(index, record.envelopes_1[part].size)
            np.testing.assert_array_equal(record.envelopes_1[part], z1)
            np.testing.assert_array_equal(record.envelopes_2[part], z2)


class TestCrossMoments:
    def test_entry_count_is_fifteen(self):
        rec = simulate_detection(MicrowaveState.thermal(0.4), count=1_000, seed=14)
        cm = cross_moments(rec)
        assert list(cm.entries) == list(MOMENT_KEYS)
        # pairs (n, m) with n + m <= 4: C(6, 2) = 15
        assert len(cm.entries) == math.comb(6, 2) == 15
        assert cm.sample_count == 1_000

    def test_constant_record(self):
        rec = DetectionRecord(np.ones(100, complex), np.ones(100, complex), (1.0, 1.0))
        cm = cross_moments(rec)
        assert cm.entries[(0, 0)] == 1.0
        assert cm.entries[(1, 1)] == pytest.approx(1.0)
        assert cm.entries[(2, 1)] == pytest.approx(1.0)

    def test_vacuum_odd_moments_vanish(self):
        rec = simulate_detection(VACUUM, count=400_000, seed=11)
        cm = cross_moments(rec)
        _, means = oracles.product_block_means(rec.envelopes_1, rec.envelopes_2, MOMENT_KEYS)
        spread = np.hypot(np.std(means.real, axis=0, ddof=1), np.std(means.imag, axis=0, ddof=1))
        errors = spread / math.sqrt(len(means))
        for key, error in zip(MOMENT_KEYS, errors):
            if sum(key) % 2 == 1:
                sigma = max(error, 1e-6)
                assert abs(cm.entries[key]) < 5.0 * sigma, key

    def test_matches_plain_averages(self):
        rec = simulate_detection(MicrowaveState.thermal(0.7), count=60_000, seed=12)
        cm = cross_moments(rec)
        z1, z2 = rec.envelopes_1, rec.envelopes_2
        for key in ((0, 1), (1, 1), (2, 2), (1, 3), (0, 4)):
            n, m = key
            direct = complex(np.mean(z1 ** m * np.conj(z2) ** n))
            assert cm.entries[key] == pytest.approx(direct, rel=1e-12, abs=1e-13)

    def test_reproducible_to_machine_precision(self):
        rec = simulate_detection(MicrowaveState.thermal(1.2), count=100_000, seed=13)
        a = cross_moments(rec)
        b = cross_moments(rec)
        for key in MOMENT_KEYS:
            assert a.entries[key] == b.entries[key]


class TestReconstruction:
    @pytest.mark.parametrize("n_thermal", [0.2, 1.0, 1.5])
    @pytest.mark.parametrize("chain_noise", [(0.0, 0.0), (5.0, 12.0)])
    def test_exact_inversion_of_gaussian_oracle_thermal(self, n_thermal, chain_noise):
        # the inversion applied to analytically exact cross moments must give
        # the analytic signal moments with no statistical slack at all
        gains = (1.7, 0.8)
        cm = analytic_cross_moments(
            n_thermal + 0.5, chain_noise=chain_noise, gains=gains
        )
        moments = reconstruct_signal_moments(cm, gains)
        expected = analytic_moments(MicrowaveState.thermal(n_thermal))
        for key in MOMENT_KEYS:
            assert moments.entries[key] == pytest.approx(
                expected.entries[key], abs=1e-9
            ), key

    def test_exact_inversion_of_gaussian_oracle_coherent(self):
        alpha = 0.9 - 0.6j
        gains = (1.0, 2.5)
        cm = analytic_cross_moments(
            0.5, signal_mean=alpha, chain_noise=(2.0, 1.0), gains=gains
        )
        moments = reconstruct_signal_moments(cm, gains)
        expected = analytic_moments(MicrowaveState.coherent(alpha))
        for key in MOMENT_KEYS:
            assert moments.entries[key] == pytest.approx(
                expected.entries[key], abs=1e-9
            ), key

    def test_exact_inversion_with_warm_vacuum_port(self):
        n_port = 0.05
        cm = analytic_cross_moments(1.0 + 0.5, vacuum_port_power=n_port + 0.5)
        moments = reconstruct_signal_moments(cm, (1.0, 1.0), vacuum_port_photons=n_port)
        expected = analytic_moments(MicrowaveState.thermal(1.0))
        for key in MOMENT_KEYS:
            assert moments.entries[key] == pytest.approx(expected.entries[key], abs=1e-9)

    def test_thermal_occupation_recovered_statistically(self):
        rec = simulate_detection(
            MicrowaveState.thermal(1.0), (1.0, 1.0), count=1_000_000, seed=15
        )
        moments = reconstruct_signal_moments(cross_moments(rec), rec.chain_gains)
        assert moments.entry(1, 1).real == pytest.approx(1.0, abs=0.02)

    def test_vacuum_occupation_is_statistical_zero(self):
        rec = simulate_detection(VACUUM, count=500_000, seed=16)
        moments = reconstruct_signal_moments(cross_moments(rec), rec.chain_gains)
        assert abs(moments.entry(1, 1).real) < 0.01

    def test_thermal_g2_near_two(self):
        rec = simulate_detection(
            MicrowaveState.thermal(1.0), (0.5, 0.5), count=1_000_000, seed=17
        )
        moments = reconstruct_signal_moments(cross_moments(rec), rec.chain_gains)
        n = moments.entry(1, 1).real
        g2 = moments.entry(2, 2).real  # Var - n + n^2 for the reconstructed state
        assert g2 / (n * n) == pytest.approx(2.0, abs=0.15)

    def test_noise_cancellation_across_levels(self):
        # the central dual-path claim: <a^dag a> does not move with chain noise
        state = MicrowaveState.thermal(0.8)
        values = {}
        for index, noise in enumerate((0.0, 5.0, 12.0)):
            rec = simulate_detection(
                state, (noise, noise), count=400_000, seed=500 + index
            )
            moments = reconstruct_signal_moments(cross_moments(rec), rec.chain_gains)
            sigma = (2.0 * (0.9 + noise)) / math.sqrt(400_000)
            values[noise] = (moments.entry(1, 1).real, sigma)
        for noise, (value, sigma) in values.items():
            assert value == pytest.approx(0.8, abs=4.0 * max(sigma, values[0.0][1])), noise

    @pytest.mark.parametrize(
        "state",
        [
            MicrowaveState.thermal(0.1),
            MicrowaveState.thermal(0.5),
            MicrowaveState.thermal(1.0),
            MicrowaveState.thermal(1.5),
            MicrowaveState.coherent(0.5),
            MicrowaveState.coherent(1.0),
        ],
    )
    def test_error_scaling_with_record_length(self, state):
        expected = analytic_moments(state)

        def rms_error(count, seed):
            rec = simulate_detection(state, (0.5, 0.5), count=count, seed=seed)
            moments = reconstruct_signal_moments(cross_moments(rec), rec.chain_gains)
            errs = [
                abs(moments.entries[key] - expected.entries[key]) for key in MOMENT_KEYS
            ]
            return math.sqrt(sum(e * e for e in errs) / len(errs))

        e4 = np.mean([rms_error(10_000, 60 + s) for s in range(3)])
        e6 = np.mean([rms_error(1_000_000, 70 + s) for s in range(3)])
        # 1/sqrt(N) predicts a factor 10; allow generous statistical slack
        assert e6 < e4 / 4.0

    def test_zero_gain_rejected(self):
        cm = analytic_cross_moments(1.0)
        with pytest.raises(ValueError):
            reconstruct_signal_moments(cm, (0.0, 1.0))

    @pytest.mark.parametrize(
        "gains, port", [((math.inf, 1.0), 0.0), ((1.0, math.nan), 0.0), ((1.0, 1.0), math.inf)]
    )
    def test_gain_or_port_not_finite_rejected(self, gains, port):
        # an infinite gain would rescale every product to zero without a word
        cm = analytic_cross_moments(1.0)
        with pytest.raises(ValueError, match="must be finite"):
            reconstruct_signal_moments(cm, gains, vacuum_port_photons=port)

    def test_incomplete_set_rejected(self):
        cm = analytic_cross_moments(1.0)
        del cm.entries[(2, 2)]
        with pytest.raises(ValueError, match="incomplete"):
            reconstruct_signal_moments(cm, (1.0, 1.0))


class TestPlanckCalibration:
    GAIN = db_to_linear(145.0)
    BANDWIDTH = 400e3

    def _sweep(self, t_chain=3.0, noise=0.0, seed=0, points=30):
        temps = np.linspace(0.05, 1.5, points)
        powers = planck_power(temps, MODE, self.BANDWIDTH, self.GAIN, t_chain)
        if noise:
            rng = np.random.default_rng(seed)
            powers = powers * (1.0 + noise * rng.standard_normal(points))
        return PlanckSweep(temps, powers, MODE, self.BANDWIDTH)

    def test_noiseless_round_trip_exact(self):
        cal = planck_fit(self._sweep())
        assert cal.chain_gain == pytest.approx(self.GAIN, rel=1e-10)
        assert cal.chain_noise_temperature == pytest.approx(3.0, rel=1e-10)
        assert cal.chain_gain_db == pytest.approx(145.0, abs=1e-9)

    def test_cold_chain_leaves_only_vacuum_offset(self):
        cal = planck_fit(self._sweep(t_chain=0.0))
        assert cal.chain_noise_photons == pytest.approx(0.0, abs=1e-10)

    def test_scatter_consistent_with_covariance(self):
        # 100 noisy repetitions: the empirical scatter of the fitted gain
        # must match the reported standard error
        gains, reported = [], []
        for seed in range(100):
            cal = planck_fit(self._sweep(noise=0.01, seed=seed, points=60))
            gains.append(cal.chain_gain)
            reported.append(cal.chain_gain_std)
        scatter = np.std(gains, ddof=1)
        assert scatter == pytest.approx(np.mean(reported), rel=0.35)

    def test_recovery_within_two_percent_under_one_percent_noise(self):
        cal = planck_fit(self._sweep(noise=0.01, seed=1, points=200))
        assert cal.chain_gain == pytest.approx(self.GAIN, rel=0.02)
        assert cal.chain_noise_temperature == pytest.approx(3.0, rel=0.02)

    def test_degenerate_sweep_rejected(self):
        with pytest.raises(ValueError):
            PlanckSweep(np.array([0.1, 0.1, 0.2, 0.3]), np.ones(4), MODE, self.BANDWIDTH)

    def test_narrow_span_rejected(self):
        temps = np.linspace(0.5, 1.0, 6)
        powers = planck_power(temps, MODE, self.GAIN, self.BANDWIDTH, 3.0)
        with pytest.raises(ValueError, match="factor 3"):
            planck_fit(PlanckSweep(temps, powers, MODE, self.BANDWIDTH))


class TestJpaPlanckFit:
    BANDWIDTH = 400e3
    TEMPS = np.linspace(0.05, 1.5, 30)

    def _sweep(self, gain_db=15.8, n_n=0.66, t_1db=0.59, noise=0.0, rng=None):
        gain = db_to_linear(gain_db)
        saturation = (
            saturation_power_for_t1db(t_1db, MODE, self.BANDWIDTH, gain, n_n)
            if t_1db
            else None
        )
        powers = jpa_planck_power(self.TEMPS, MODE, self.BANDWIDTH, gain, n_n, saturation)
        if noise:
            powers = powers * (1.0 + noise * rng.standard_normal(self.TEMPS.size))
        return PlanckSweep(self.TEMPS, powers, MODE, self.BANDWIDTH)

    def _operating_points(self, noise=0.0, rng=None):
        return [
            self._sweep(
                linear_to_db(stage.gain),
                stage.added_noise_photons,
                JPA_METADATA[name]["t_1db"],
                noise,
                rng,
            )
            for name, stage in JPA_OPERATING_POINTS.items()
        ]

    def test_reference_operating_point_recovery(self):
        # the sweep has no chain behind the JPA, so the total gain is the JPA's
        (cal,) = jpa_planck_fit([self._sweep()])
        assert cal.added_photons == pytest.approx(0.66, rel=0.05)
        assert linear_to_db(cal.total_gain) == pytest.approx(15.8, abs=0.2)
        assert cal.t_1db == pytest.approx(0.59, abs=0.02)
        assert watts_to_dbm(compression_power(14.9e6, cal.t_1db)) == pytest.approx(-129.0, abs=0.4)

    def test_noiseless_round_trip_of_every_operating_point(self):
        # the fit model is the generator's, so a noiseless sweep comes back whole
        fits = jpa_planck_fit(self._operating_points())
        for (name, stage), cal in zip(JPA_OPERATING_POINTS.items(), fits):
            assert cal.total_gain == pytest.approx(stage.gain, rel=1e-9), name
            assert cal.added_photons == pytest.approx(stage.added_noise_photons, rel=1e-9), name
            assert cal.t_1db == pytest.approx(JPA_METADATA[name]["t_1db"], rel=1e-9), name

    def test_stacked_fit_equals_each_sweep_alone(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            sweeps = self._operating_points(noise=0.01, rng=rng)
            stacked = jpa_planck_fit(sweeps)
            assert stacked == [jpa_planck_fit([sweep])[0] for sweep in sweeps]

    def test_added_photons_scatter_under_one_percent_noise(self):
        # seeds 0-99, fixed before the first run.  The mean bound is 2.4
        # standard errors, a 5 % false-alarm rate over the three devices (a
        # 2-se bound on each would fail an unbiased fit 13 % of the time)
        ratios = np.array([
            [
                cal.added_photons / stage.added_noise_photons
                for cal, stage in zip(
                    jpa_planck_fit(self._operating_points(0.01, np.random.default_rng(seed))),
                    JPA_OPERATING_POINTS.values(),
                )
            ]
            for seed in range(100)
        ])
        mean = ratios.mean(axis=0)
        sd = ratios.std(axis=0, ddof=1)
        assert np.all(np.abs(mean - 1.0) < 2.4 * sd / math.sqrt(len(ratios))), mean
        assert np.all(sd < [0.05, 0.05, 0.08]), sd

    def test_no_saturation_reports_absent_compression(self):
        (cal,) = jpa_planck_fit([self._sweep(t_1db=None)])
        assert cal.t_1db is None
        assert cal.added_photons == pytest.approx(0.66, rel=1e-9)

    def test_sweeps_on_different_grids_rejected(self):
        other = self._sweep()
        other = PlanckSweep(other.temperatures * 1.01, other.powers, MODE, self.BANDWIDTH)
        with pytest.raises(ValueError, match="one temperature grid"):
            jpa_planck_fit([self._sweep(), other])

    def test_requires_four_points(self):
        sweep = self._sweep()
        short = PlanckSweep(sweep.temperatures[:3], sweep.powers[:3], MODE, self.BANDWIDTH)
        with pytest.raises(ValueError, match="at least 4"):
            jpa_planck_fit([short])

    def test_compression_power_from_table_values(self):
        assert watts_to_dbm(compression_power(14.9e6, 0.59)) == pytest.approx(-129.0, abs=0.3)


class TestQuadratures:
    def test_vacuum(self):
        var_p, var_q = quadrature_variances(analytic_moments(VACUUM))
        assert (var_p, var_q) == (0.25, 0.25)

    def test_thermal(self):
        var_p, var_q = quadrature_variances(analytic_moments(MicrowaveState.thermal(1.0)))
        assert var_p == pytest.approx(0.75)
        assert var_q == pytest.approx(0.75)

    @pytest.mark.parametrize("n", [0.1, 0.7, 1.5])
    def test_no_squeezing_for_thermal(self, n):
        var_p, var_q = quadrature_variances(analytic_moments(MicrowaveState.thermal(n)))
        assert var_p == var_q
        assert var_p == pytest.approx(n / 2.0 + 0.25)

    def test_displaced_state_keeps_vacuum_variance(self):
        var_p, var_q = quadrature_variances(
            analytic_moments(MicrowaveState.coherent(1.2 + 0.8j))
        )
        assert var_p == pytest.approx(0.25, abs=1e-12)
        assert var_q == pytest.approx(0.25, abs=1e-12)

    def test_requires_normal_ordering(self):
        from mwphoton.states import ordering_convert

        symmetrized = ordering_convert(
            analytic_moments(MicrowaveState.thermal(0.5)), Ordering.SYMMETRIZED
        )
        with pytest.raises(ValueError):
            quadrature_variances(symmetrized)


class TestWignerContour:
    def test_vacuum(self):
        assert wigner_gaussian_contour(0.0) == pytest.approx(math.sqrt(0.5))

    def test_thermal(self):
        assert wigner_gaussian_contour(1.0) == pytest.approx(math.sqrt(1.5))

    @pytest.mark.parametrize("n", [0.2, 1.0, 2.5])
    def test_ratio_to_vacuum(self, n):
        ratio = wigner_gaussian_contour(n) / wigner_gaussian_contour(0.0)
        assert ratio == pytest.approx(math.sqrt(2.0 * n + 1.0), rel=1e-12)


class TestRecordIO:
    def _record(self):
        return simulate_detection(
            MicrowaveState.thermal(0.8), (0.3, 0.1), (1.5, 2.0), count=257, seed=23
        )

    def test_binary_round_trip(self, tmp_path):
        rec = self._record()
        path = tmp_path / "record.bin"
        save_record_binary(rec, path)
        restored = load_record_binary(path)
        np.testing.assert_array_equal(restored.envelopes_1, rec.envelopes_1)
        np.testing.assert_array_equal(restored.envelopes_2, rec.envelopes_2)
        assert restored.chain_gains == rec.chain_gains
        assert restored.if_frequency == rec.if_frequency
        assert restored.seed == rec.seed

    def test_binary_layout_is_interleaved_little_endian(self, tmp_path):
        # more than one sample batch too, with -0.0, subnormal and huge parts
        for count in (257, SAMPLE_BATCH + 5):
            rec = simulate_detection(
                MicrowaveState.thermal(0.8), (0.3, 0.1), (1.5, 2.0), count=count, seed=23
            )
            z1 = rec.envelopes_1.copy()
            z1[:3] = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(-5e-324, -1e300)]
            rec = DetectionRecord(z1, rec.envelopes_2, rec.chain_gains, rec.if_frequency, rec.seed)
            path = tmp_path / f"record-{count}.bin"
            save_record_binary(rec, path)
            raw = np.frombuffer(path.read_bytes(), dtype="<f8")
            assert raw[0] == rec.envelopes_1[0].real
            assert raw[1] == rec.envelopes_1[0].imag
            assert raw[2] == rec.envelopes_2[0].real
            assert raw[3] == rec.envelopes_2[0].imag
            # oracle: the four strided scatters of the layout's first writer
            interleaved = np.empty(4 * count, dtype="<f8")
            interleaved[0::4] = rec.envelopes_1.real
            interleaved[1::4] = rec.envelopes_1.imag
            interleaved[2::4] = rec.envelopes_2.real
            interleaved[3::4] = rec.envelopes_2.imag
            assert path.read_bytes() == interleaved.tobytes()
            restored = load_record_binary(path)
            assert restored.envelopes_1.tobytes() == rec.envelopes_1.tobytes()
            assert restored.envelopes_2.tobytes() == rec.envelopes_2.tobytes()

    @pytest.mark.parametrize("gains", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0), (-2.0, 1.0)])
    def test_record_rejects_gain_not_finite_and_positive(self, gains):
        z = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="chain_gains must be finite and > 0"):
            DetectionRecord(z, z, gains)

    def test_binary_sidecar_with_infinite_gain_rejected(self, tmp_path):
        rec = self._record()
        path = tmp_path / "record.bin"
        save_record_binary(rec, path)
        sidecar = tmp_path / "record.bin.json"
        meta = json.loads(sidecar.read_text())
        meta["chain_gains"] = [math.inf, 1.0]
        sidecar.write_text(json.dumps(meta))
        assert "Infinity" in sidecar.read_text()
        with pytest.raises(ValueError, match="chain_gains must be finite and > 0"):
            load_record_binary(path)

    def test_binary_size_mismatch_detected(self, tmp_path):
        rec = self._record()
        path = tmp_path / "record.bin"
        save_record_binary(rec, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_record_binary(path)

    def test_csv_round_trip(self, tmp_path):
        rec = self._record()
        path = tmp_path / "record.csv"
        save_record_csv(rec, path)
        header = path.read_text().splitlines()[0]
        assert header == "index,I1,Q1,I2,Q2"
        restored = load_record_csv(path, chain_gains=rec.chain_gains, seed=rec.seed)
        np.testing.assert_allclose(restored.envelopes_1, rec.envelopes_1, rtol=0, atol=0)
        np.testing.assert_allclose(restored.envelopes_2, rec.envelopes_2, rtol=0, atol=0)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_record_csv(path)

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"index,I1,Q1,I2,Q2\r\n")
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="at least 2 samples"):
            load_record_csv(path)

    def test_csv_bytes_match_csv_writer_and_parse_exactly(self, tmp_path):
        # more than one batch of rows, so the writer's row numbering carries over
        rec = simulate_detection(
            MicrowaveState.thermal(0.8), (0.3, 0.1), (1.5, 2.0), count=SAMPLE_BATCH + 5, seed=23
        )
        z1 = rec.envelopes_1.copy()
        z1[:4] = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(-5e-324, -1e300), 0j]
        rec = DetectionRecord(z1, rec.envelopes_2, rec.chain_gains, rec.if_frequency, rec.seed)
        path = tmp_path / "record.csv"
        save_record_csv(rec, path)
        # oracle: the row-by-row csv.writer loop the writer replaced
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "I1", "Q1", "I2", "Q2"])
            for i in range(rec.sample_count):
                writer.writerow(
                    [
                        i,
                        repr(float(rec.envelopes_1[i].real)),
                        repr(float(rec.envelopes_1[i].imag)),
                        repr(float(rec.envelopes_2[i].real)),
                        repr(float(rec.envelopes_2[i].imag)),
                    ]
                )
        assert path.read_bytes() == oracle.read_bytes()
        restored = load_record_csv(path)
        # every cell parses back to its float64 bits, -0.0 parts included
        assert restored.envelopes_1.tobytes() == rec.envelopes_1.tobytes()
        assert restored.envelopes_2.tobytes() == rec.envelopes_2.tobytes()

    def test_csv_bytes_of_a_short_record_across_batches(self, tmp_path, monkeypatch):
        # two-row batches, so the five rows are written as three batch strings
        monkeypatch.setattr(dualpath, "SAMPLE_BATCH", 2)
        z1 = np.array([complex(-0.0, 1e-05), complex(0.1, -2.5), complex(1.0, 0.0), 3j, -1e-05])
        z2 = np.array([complex(2.0, -0.0), complex(-0.0, -0.0), complex(1e300, 5e-324), 0.5, 1.25])
        save_record_csv(DetectionRecord(z1, z2, (1.0, 1.0)), tmp_path / "record.csv")
        assert (tmp_path / "record.csv").read_bytes() == (
            b"index,I1,Q1,I2,Q2\r\n"
            b"0,-0.0,1e-05,2.0,-0.0\r\n"
            b"1,0.1,-2.5,-0.0,-0.0\r\n"
            b"2,1.0,0.0,1e+300,5e-324\r\n"
            b"3,0.0,3.0,0.5,0.0\r\n"
            b"4,-1e-05,0.0,1.25,0.0\r\n"
        )

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_round_trip_keeps_extreme_values_in_every_column(self, tmp_path, fmt):
        specials = [-0.0, 5e-324, 1e300, -5e-324, -1e300, 0.0]
        # every column (I1, Q1, I2, Q2) holds every special value, each at its own offset
        z1 = np.empty(len(specials), dtype=complex)
        z2 = np.empty(len(specials), dtype=complex)
        z1.real, z1.imag, z2.real, z2.imag = (np.roll(specials, shift) for shift in range(4))
        rec = DetectionRecord(z1, z2, (1.5, 2.0), seed=7)
        if fmt == "binary":
            save_record_binary(rec, tmp_path / "record.bin")
            restored = load_record_binary(tmp_path / "record.bin")
        else:
            save_record_csv(rec, tmp_path / "record.csv")
            restored = load_record_csv(tmp_path / "record.csv", rec.chain_gains, seed=rec.seed)
        assert restored.envelopes_1.tobytes() == rec.envelopes_1.tobytes()
        assert restored.envelopes_2.tobytes() == rec.envelopes_2.tobytes()
