import math

import numpy as np
import pytest

import oracles
from mwphoton.chains import (
    BeamSplitterStage,
    JpaStage,
    amplify,
    amplify_commutator_free,
    attenuate,
    compression_power,
    db_to_linear,
    g2_jpa_referred,
    g2_unnormalized,
    linear_to_db,
    watts_to_dbm,
)
from mwphoton.analysis import VarianceLawModel, fit_variance_law
from mwphoton.defaults import JPA_OPERATING_POINTS
from mwphoton.experiments import jpa_sweep
from mwphoton.states import StateKind, photon_variance


class TestAttenuate:
    def test_transparent_stage_keeps_thermal_statistics(self):
        n_tot, variance = attenuate(StateKind.THERMAL, 0.8, BeamSplitterStage(1.0, 0.3))
        assert n_tot == pytest.approx(0.8)
        assert variance == pytest.approx(photon_variance(StateKind.THERMAL, 0.8))

    def test_opaque_stage_keeps_background_statistics(self):
        n_tot, variance = attenuate(StateKind.THERMAL, 0.8, BeamSplitterStage(0.0, 0.3))
        assert n_tot == pytest.approx(0.3)
        assert variance == pytest.approx(0.3 ** 2 + 0.3)

    def test_transparent_coherent_is_poissonian(self):
        _, variance = attenuate(StateKind.COHERENT, 1.0, BeamSplitterStage(1.0, 0.0))
        assert variance == pytest.approx(1.0)

    @pytest.mark.parametrize("eta,n_b,n_n", [(0.7, 0.9, 0.2), (0.35, 1.4, 0.6), (0.93, 0.25, 0.05)])
    def test_thermal_variance_matches_two_mode_fock_oracle(self, eta, n_b, n_n):
        n_tot, variance = attenuate(StateKind.THERMAL, n_b, BeamSplitterStage(eta, n_n))
        mean_oracle, var_oracle = oracles.beamsplitter_mean_and_variance(eta, n_b, n_n)
        assert n_tot == pytest.approx(mean_oracle, rel=1e-6)
        assert variance == pytest.approx(var_oracle, rel=1e-6)

    def test_invalid_transmissivity_rejected(self):
        with pytest.raises(ValueError):
            BeamSplitterStage(1.2, 0.0)

    def test_shot_noise_not_supported(self):
        with pytest.raises(ValueError):
            attenuate(StateKind.SHOT_NOISE, 0.5, BeamSplitterStage(0.5, 0.0))

    def test_two_stage_composition_on_means(self):
        # cascaded attenuators act like one stage with the mixed background
        n_b = 1.1
        first = BeamSplitterStage(0.8, 0.25)
        second = BeamSplitterStage(0.6, 0.4)
        n_mid, _ = attenuate(StateKind.THERMAL, n_b, first)
        n_out, _ = attenuate(StateKind.THERMAL, n_mid, second)
        eta_total = first.transmissivity * second.transmissivity
        mixed_background = (
            second.transmissivity * (1 - first.transmissivity) * first.background_photons
            + (1 - second.transmissivity) * second.background_photons
        ) / (1 - eta_total)
        n_combined, _ = attenuate(
            StateKind.THERMAL, n_b, BeamSplitterStage(eta_total, mixed_background)
        )
        assert n_out == pytest.approx(n_combined, rel=1e-12)


class TestAmplify:
    def test_unit_gain_is_transparent(self):
        n_bs, variance = amplify(0.7, JpaStage(1.0, 0.4))
        assert n_bs == pytest.approx(0.7)
        assert variance == pytest.approx(0.7 ** 2 + 0.7)

    def test_continuity_just_above_unit_gain(self):
        n_bs, variance = amplify(0.7, JpaStage(1.0 + 1e-6, 0.4))
        assert n_bs == pytest.approx(0.7, abs=1e-5)
        assert variance == pytest.approx(0.7 ** 2 + 0.7, abs=2e-5)

    def test_strong_gain_variance_approaches_square(self):
        stage = JpaStage(db_to_linear(40.0), 0.5)
        n_bs, variance = amplify(0.3, stage)
        assert variance / n_bs ** 2 == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "gain,n_jpa,n_n", [(10.0, 0.5, 1.0), (4.0, 0.2, 0.66), (2.0, 1.0, 0.3), (10.0, 1.0, 0.0)]
    )
    def test_matches_two_mode_fock_oracle(self, gain, n_jpa, n_n):
        n_bs, variance = amplify(n_jpa, JpaStage(gain, n_n))
        mean_oracle, var_oracle = oracles.amplifier_mean_and_variance(gain, n_jpa, n_n)
        assert n_bs == pytest.approx(mean_oracle, rel=1e-6)
        assert variance == pytest.approx(var_oracle, rel=1e-6)

    @pytest.mark.parametrize("gain,n_jpa,n_n", [(6.0, 0.5, 0.8), (12.0, 0.2, 1.5)])
    def test_commutator_free_matches_semi_analytic_oracle(self, gain, n_jpa, n_n):
        n_bs, variance = amplify_commutator_free(n_jpa, gain, n_n)
        mean_oracle, var_oracle = oracles.commutator_free_mean_and_variance(gain, n_jpa, n_n)
        assert n_bs == pytest.approx(mean_oracle, rel=1e-6)
        assert variance == pytest.approx(var_oracle, rel=1e-6)

    def test_gain_below_unity_rejected(self):
        with pytest.raises(ValueError):
            JpaStage(0.5, 0.0)


class TestG2Unnormalized:
    def test_thermal(self):
        n = 0.8
        assert g2_unnormalized(n, n * n + n) == pytest.approx(2.0 * n * n)

    def test_coherent(self):
        assert g2_unnormalized(1.3, 1.3) == pytest.approx(1.3 ** 2)

    def test_vacuum(self):
        assert g2_unnormalized(0.0, 0.0) == 0.0


class TestG2JpaReferred:
    def test_vacuum_amplifier_limit(self):
        g2, offset = g2_jpa_referred(0.0, JpaStage(db_to_linear(15.0), 0.0))
        assert g2 == pytest.approx(2.0)
        assert offset == pytest.approx(2.0)

    def test_noisy_amplifier_offset_model(self):
        # model offset for n_n = 1.47 (measured comparator is 7.1 -- the
        # deviation is the observed classical-noise anomaly)
        _, offset = g2_jpa_referred(0.0, JpaStage(db_to_linear(14.3), 1.47))
        assert offset == pytest.approx(2.0 * 2.47 ** 2, rel=1e-9)
        assert offset == pytest.approx(12.2, abs=0.01)

    def test_xi_model_for_reference_operating_point(self):
        # xi = 4 + 4 n_n = 6.64 at n_n = 0.66 (measured comparator 3.29)
        stage = JpaStage(db_to_linear(15.8), 0.66)
        points = [(n, g2_jpa_referred(n, stage)[0] - g2_jpa_referred(n, stage)[1])
                  for n in np.linspace(0.0, 1.2, 9)]
        fit = fit_variance_law(np.asarray(points), VarianceLawModel.QUADRATIC_PLUS_LINEAR)
        assert fit.parameters["xi"] == pytest.approx(6.64, abs=1e-9)

    @pytest.mark.parametrize("gain_db", [10.0, 15.0, 20.0])
    @pytest.mark.parametrize("n_n", [0.0, 0.66, 1.47])
    def test_polynomial_identity_exact(self, gain_db, n_n):
        stage = JpaStage(db_to_linear(gain_db), n_n)
        points = []
        for n in np.linspace(0.0, 2.0, 11):
            g2, offset = g2_jpa_referred(float(n), stage)
            points.append((float(n), g2 - offset))
        fit = fit_variance_law(np.asarray(points), VarianceLawModel.QUADRATIC_PLUS_LINEAR)
        assert fit.parameters["rho"] == pytest.approx(2.0, abs=1e-9)
        assert fit.parameters["xi"] == pytest.approx(4.0 + 4.0 * n_n, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(JPA_OPERATING_POINTS))
    def test_jpa_sweep_summary_offsets(self, name):
        # the classical offset drops the linear idler variance n_n; the
        # summary's commutator-free offset is the strong-gain limit of the
        # finite-gain offset the sweep takes off its commutator-free column
        gain = JPA_OPERATING_POINTS[name].gain
        summary = jpa_sweep(n_points=5, operating_point=name)["summary"]
        n_n = summary["n_n"]
        assert summary["offset_classical_model"] == summary["offset_thermal_model"] - n_n
        n_bs, variance = amplify_commutator_free(0.0, gain, n_n)
        assert g2_unnormalized(n_bs, variance) / gain ** 2 == pytest.approx(
            (1.0 - 1.0 / gain) ** 2 * summary["offset_commutator_free"], rel=1e-12
        )

    def test_weak_gain_flagged(self):
        with pytest.warns(UserWarning, match="strong gain"):
            g2_jpa_referred(0.1, JpaStage(5.0, 0.1))

    def test_referred_form_is_strong_gain_limit_of_exact_variance(self):
        n_jpa, n_n = 0.4, 0.66
        stage = JpaStage(db_to_linear(50.0), n_n)
        n_bs, variance = amplify(n_jpa, stage)
        exact = g2_unnormalized(n_bs, variance) / stage.gain ** 2
        referred, _ = g2_jpa_referred(n_jpa, stage)
        assert exact == pytest.approx(referred, rel=1e-4)


class TestCompressionPower:
    def test_reference_operating_point(self):
        assert watts_to_dbm(compression_power(14.9e6, 0.59)) == pytest.approx(-129.0, abs=0.3)

    def test_second_operating_point(self):
        assert watts_to_dbm(compression_power(14.6e6, 0.44)) == pytest.approx(-130.5, abs=0.3)

    def test_doubling_temperature_adds_three_db(self):
        low = watts_to_dbm(compression_power(14.9e6, 0.3))
        high = watts_to_dbm(compression_power(14.9e6, 0.6))
        assert high - low == pytest.approx(10.0 * math.log10(2.0), rel=1e-9)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            compression_power(0.0, 0.59)


class TestUnitHelpers:
    def test_db_round_trip(self):
        assert linear_to_db(db_to_linear(15.8)) == pytest.approx(15.8, rel=1e-12)

    def test_jpa_stage_from_db(self):
        stage = JpaStage.from_db(15.8, 0.66)
        assert stage.gain == pytest.approx(10 ** 1.58)
        assert stage.gain_db == pytest.approx(15.8)
