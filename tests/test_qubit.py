import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from mwphoton.cavity import Resonator, correlator, correlator_value, dephasing_gaussian
from mwphoton.chains import BeamSplitterStage, attenuate
from mwphoton.defaults import SAMPLE_QUBIT, SAMPLE_SYSTEM
from mwphoton.qubit import (
    DispersiveSystem,
    EnvelopeForm,
    QubitParams,
    accumulated_phase,
    critical_photons,
    dephasing_rate,
    dispersive_shift,
    purcell_rate,
    ramsey_envelope,
    simulate_ramsey,
)
from mwphoton.states import StateKind

TWO_PI = 2.0 * math.pi


class TestDispersiveShift:
    def test_reference_sample(self):
        chi = dispersive_shift(67e6, 850e6, -315e6)
        assert chi == pytest.approx(-3.11e6, rel=0.01)

    def test_two_level_limit(self):
        chi = dispersive_shift(67e6, 850e6, -1e18)
        assert chi == pytest.approx(67e6 ** 2 / 850e6, rel=1e-6)

    def test_negative_detuning_arithmetic(self):
        # direct evaluation: (g^2/delta) * alpha/(delta + alpha)
        g, delta, alpha = 67e6, -850e6, -315e6
        expected = (g * g / delta) * (alpha / (delta + alpha))
        assert expected == pytest.approx(-1.42797e6, rel=1e-4)
        assert dispersive_shift(g, delta, alpha) == pytest.approx(expected, rel=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ZeroDivisionError):
            dispersive_shift(67e6, 0.0, -315e6)

    def test_straddling_point_named(self):
        with pytest.raises(ZeroDivisionError, match="straddling"):
            dispersive_shift(67e6, 315e6, -315e6)


class TestAccumulatedPhase:
    def test_zero_pull(self):
        assert accumulated_phase(0.0, 8.5e6) == 0.0

    def test_reference_sample(self):
        theta0 = accumulated_phase(-3.11e6, 8.5e6)
        assert theta0 == pytest.approx(-0.632, abs=0.001)
        assert 8.5e6 * theta0 ** 2 == pytest.approx(3.4e6, rel=0.02)

    def test_quarter_turn(self):
        assert accumulated_phase(4.25e6, 8.5e6) == pytest.approx(math.pi / 4.0)

    def test_odd_in_chi(self):
        assert accumulated_phase(-2e6, 8.5e6) == -accumulated_phase(2e6, 8.5e6)


class TestCriticalPhotons:
    def test_reference_sample(self):
        assert critical_photons(850e6, 67e6) == pytest.approx(40.0, rel=0.02)

    def test_unit_value_at_double_coupling(self):
        assert critical_photons(2.0 * 67e6, 67e6) == 1.0

    def test_half_detuning(self):
        assert critical_photons(425e6, 67e6) == pytest.approx(10.06, rel=0.001)


class TestPurcellRate:
    def test_reference_sample(self):
        rate = purcell_rate(8.55e6, 67e6, 850e6)
        assert rate == pytest.approx(53e3, rel=0.03)

    def test_zero_coupling(self):
        assert purcell_rate(8.55e6, 0.0, 850e6) == 0.0

    def test_inverse_square_detuning(self):
        assert purcell_rate(8.55e6, 67e6, 2 * 850e6) == pytest.approx(
            purcell_rate(8.55e6, 67e6, 850e6) / 4.0
        )


class TestDispersiveSystem:
    def test_derived_parameters(self, system):
        assert system.detuning == pytest.approx(850e6)
        assert system.chi == pytest.approx(-3.11e6, rel=0.01)
        assert system.theta0 == math.atan(2.0 * system.chi / system.resonator.external_rate)

    @pytest.mark.parametrize(
        "qubit_change, resonator_change, g, delta, alpha",
        [
            ({"max_frequency": 7.1e9}, {}, 67e6, 7.1e9 - 6.07e9, -315e6),
            ({"coupling": 90e6}, {}, 90e6, 6.92e9 - 6.07e9, -315e6),
            ({"anharmonicity": -200e6}, {}, 67e6, 6.92e9 - 6.07e9, -200e6),
            ({}, {"resonance_frequency": 5.0e9}, 67e6, 6.92e9 - 5.0e9, -315e6),
        ],
        ids=["max_frequency", "coupling", "anharmonicity", "resonance_frequency"],
    )
    def test_replaced_part_reports_its_own_derived_parameters(
        self, system, qubit_change, resonator_change, g, delta, alpha
    ):
        moved = replace(
            system,
            qubit=replace(system.qubit, **qubit_change),
            resonator=replace(system.resonator, **resonator_change),
        )
        assert moved.detuning == delta
        assert moved.chi == dispersive_shift(g, delta, alpha)
        assert moved.chi != system.chi
        assert moved.theta0 == math.atan(2.0 * moved.chi / moved.resonator.external_rate)

    @pytest.mark.parametrize(
        "max_frequency, match", [(6.07e9, "resonance"), (6.385e9, "straddling")]
    )
    def test_chi_diverges_on_resonance_and_at_the_straddling_point(
        self, system, max_frequency, match
    ):
        # the system is built, and the divergence shows when chi is read
        moved = replace(system, qubit=replace(system.qubit, max_frequency=max_frequency))
        with pytest.raises(ZeroDivisionError, match=match):
            _ = moved.chi

    def test_relaxation_rate_by_kind(self, system):
        q = system.qubit
        assert q.relaxation_rate(StateKind.THERMAL, 1.0) == pytest.approx(4.7e6)
        assert q.relaxation_rate(StateKind.COHERENT, 1.0) == pytest.approx(3.87e6)
        # shot noise relaxes like a coherent tone
        assert q.relaxation_rate(StateKind.SHOT_NOISE, 0.7) == q.relaxation_rate(
            StateKind.COHERENT, 0.7
        )

    @pytest.mark.parametrize("n_r", [-5.0, math.nan, math.inf])
    def test_relaxation_rate_rejects_an_occupation_outside_its_domain(self, n_r, system):
        # -5 photons once gave a relaxation rate of -1e5 Hz, and nan gave nan
        with pytest.raises(ValueError, match="mean occupation n_r must be finite and >= 0"):
            system.qubit.relaxation_rate(StateKind.THERMAL, n_r)

    def test_anharmonicity_sign_enforced(self):
        with pytest.raises(ValueError):
            QubitParams(6.92e9, 67e6, +315e6, 3.9e6, 0.0, 0.0, 0.05e6)


OTHER_SYSTEM = DispersiveSystem(SAMPLE_QUBIT, Resonator(5.9e9, 13.3e6, 0.05e6))


class TestDephasingRate:
    def test_thermal_small_n_slope(self, system):
        scale = system.resonator.external_rate * system.theta0 ** 2
        eps = 1e-7
        slope = dephasing_rate(StateKind.THERMAL, eps, system) / eps
        assert slope == pytest.approx(scale, rel=1e-5)
        assert scale == pytest.approx(3.4e6, rel=0.02)

    @pytest.mark.parametrize("n_r", [0.05, 0.4, 1.0, 1.5])
    def test_coherent_exactly_twice_shot(self, n_r, system):
        coherent = dephasing_rate(StateKind.COHERENT, n_r, system)
        shot = dephasing_rate(StateKind.SHOT_NOISE, n_r, system)
        assert coherent == 2.0 * shot

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_zero_photons_zero_rate(self, kind, system):
        assert dephasing_rate(kind, 0.0, system) == 0.0

    @pytest.mark.parametrize("n_r", [-0.1, math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(StateKind))
    def test_population_outside_its_domain_rejected(self, kind, n_r, system):
        with pytest.raises(ValueError, match="occupation n must be finite and >= 0"):
            dephasing_rate(kind, n_r, system)

    @pytest.mark.parametrize("n_r", [0.1, 0.7, 1.5])
    def test_super_poissonian_excess(self, n_r, system):
        excess = dephasing_rate(StateKind.THERMAL, n_r, system) - dephasing_rate(
            StateKind.SHOT_NOISE, n_r, system
        )
        scale = system.resonator.external_rate * system.theta0 ** 2
        assert excess == pytest.approx(scale * n_r * n_r, rel=1e-12)

    def test_factor_two_holds_for_random_parameter_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            qubit = QubitParams(
                max_frequency=rng.uniform(5e9, 8e9),
                coupling=rng.uniform(30e6, 120e6),
                anharmonicity=-rng.uniform(150e6, 400e6),
                intrinsic_relaxation=rng.uniform(0.5e6, 5e6),
                thermal_relaxation_per_photon=0.0,
                coherent_relaxation_per_photon=0.0,
                intrinsic_dephasing=rng.uniform(0.0, 1e6),
            )
            resonator = Resonator(rng.uniform(4e9, 7e9), rng.uniform(2e6, 20e6))
            system = DispersiveSystem(qubit, resonator)
            n_r = rng.uniform(0.01, 2.0)
            assert dephasing_rate(StateKind.COHERENT, n_r, system) == pytest.approx(
                2.0 * dephasing_rate(StateKind.SHOT_NOISE, n_r, system), rel=1e-12
            )

    def test_background_mixing_enhances_slope(self, system):
        # a thermal field behind a beam splitter with a thermal background stays
        # thermal: its mean is attenuate's n_tot and its variance n_tot^2 + n_tot
        stage = BeamSplitterStage(transmissivity=0.9, background_photons=0.15)
        scale = system.resonator.external_rate * system.theta0 ** 2
        for n_b in (0.0, 0.3):
            n_tot, variance = attenuate(StateKind.THERMAL, n_b, stage)
            mixed = dephasing_rate(StateKind.THERMAL, n_tot, system)
            assert mixed == pytest.approx(scale * variance, rel=1e-12)
            # residual background photons dephase the qubit even without signal
            assert mixed > 0
        n_tot, _ = attenuate(StateKind.THERMAL, 0.3, BeamSplitterStage(1.0, 0.15))
        assert dephasing_rate(StateKind.THERMAL, n_tot, system) == pytest.approx(
            dephasing_rate(StateKind.THERMAL, 0.3, system), rel=1e-12
        )

    @pytest.mark.parametrize("n_r", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("stage", [(0.9, 0.15), (0.4, 1.2), (1.0, 0.0)])
    @pytest.mark.parametrize("sys", [SAMPLE_SYSTEM, OTHER_SYSTEM], ids=["sample", "other"])
    def test_thermal_field_behind_beam_splitter(self, n_r, stage, sys):
        # the rate at the mixed mean is the Gaussian law on attenuate's variance
        n_tot, variance = attenuate(StateKind.THERMAL, n_r, BeamSplitterStage(*stage))
        scale = sys.resonator.external_rate * sys.theta0 ** 2
        assert dephasing_rate(StateKind.THERMAL, n_tot, sys) == pytest.approx(
            scale * variance, rel=1e-12, abs=0.0
        )


class TestDephasingRateBitIdentity:
    """One law for every kind gives the bits of the per-kind expressions,
    because kappa_x / kappa_tilde is exactly 1.0 or 2.0."""

    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("n_r", [0.0, 0.05, 0.3, 1.0, 1.5, 7.25])
    @pytest.mark.parametrize("sys", [SAMPLE_SYSTEM, OTHER_SYSTEM], ids=["sample", "other"])
    def test_plain_field(self, kind, n_r, sys):
        expected = oracles.gaussian_dephasing_by_kind(
            kind.value, n_r, sys.resonator.external_rate, sys.theta0
        )
        assert dephasing_rate(kind, n_r, sys) == expected


class TestGaussianPhaseLawValidity:
    """The rates above are the second cumulant of the phase, exact to O(x^2)
    in x = 2 chi / kappa; exact closed forms bound them at finite pull."""

    @pytest.mark.parametrize("n_r", [0.05, 0.5, 1.5])
    def test_thermal_exact_rate_meets_law_at_small_pull(self, n_r, system):
        # without internal loss the exact rate's kappa_x + kappa_i is kappa_x, and
        # exact / law = 1 - x^2 (1/3 + 5 n + 5 n^2) + O(x^4); kappa_x sets the
        # pull x = 2 chi / kappa_x, which is negative because chi is
        for x in (-1e-2, -1e-3):
            lossless = replace(
                system.resonator, internal_rate=0.0, external_rate=2.0 * system.chi / x
            )
            small = replace(system, resonator=lossless)
            exact = oracles.thermal_dephasing_exact(
                lossless.external_rate + lossless.internal_rate, small.chi, n_r
            )
            ratio = exact / dephasing_rate(StateKind.THERMAL, n_r, small)
            assert (1.0 - ratio) / x ** 2 == pytest.approx(
                1.0 / 3.0 + 5.0 * n_r + 5.0 * n_r * n_r, rel=0.01
            )

    @pytest.mark.parametrize("n_r", [0.05, 0.5, 1.5])
    def test_coherent_exact_rate_meets_law_at_small_pull(self, n_r, system):
        # with kappa = kappa_x, exact / law = sin^2(theta0) / theta0^2 = 1 - x^2/3 + O(x^4)
        for x in (-1e-2, -1e-3):
            kappa_x = 2.0 * system.chi / x
            small = replace(system, resonator=replace(system.resonator, external_rate=kappa_x))
            exact = oracles.coherent_dephasing_exact(kappa_x, small.chi, n_r)
            ratio = exact / dephasing_rate(StateKind.COHERENT, n_r, small)
            assert (1.0 - ratio) / x ** 2 == pytest.approx(1.0 / 3.0, rel=0.01)

    @pytest.mark.parametrize("n_r, expected", [(0.05, 0.820), (0.5, 0.517), (1.5, 0.261)])
    def test_thermal_law_overestimates_at_the_sample_point(self, n_r, expected, system):
        res = system.resonator
        exact = oracles.thermal_dephasing_exact(
            res.external_rate + res.internal_rate, system.chi, n_r
        )
        ratio = exact / dephasing_rate(StateKind.THERMAL, n_r, system)
        assert ratio == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("n_r", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("kind", [StateKind.THERMAL, StateKind.COHERENT], ids=lambda k: k.value)
    def test_law_and_exact_rates_are_even_in_the_pull(self, kind, n_r, system):
        # the sample's pull x = 2 chi / kappa_x is negative; flipping chi leaves
        # the law's theta0^2 bit for bit and the exact rates to rounding, so
        # the law's error at the sample point depends on |x| only
        res = system.resonator
        law = [
            dephasing_gaussian(1.0, res, accumulated_phase(chi, res.external_rate))
            for chi in (system.chi, -system.chi)
        ]
        assert law[0] == law[1] > 0
        if kind is StateKind.THERMAL:
            kappa, exact = res.external_rate + res.internal_rate, oracles.thermal_dephasing_exact
        else:
            kappa, exact = res.external_rate, oracles.coherent_dephasing_exact
        assert exact(kappa, -system.chi, n_r) == pytest.approx(
            exact(kappa, system.chi, n_r), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("n_r", [0.05, 0.5, 1.5])
    def test_coherent_law_overestimates_at_the_sample_point(self, n_r, system):
        exact = oracles.coherent_dephasing_exact(system.resonator.external_rate, system.chi, n_r)
        ratio = exact / dephasing_rate(StateKind.COHERENT, n_r, system)
        assert ratio == pytest.approx(0.874, abs=5e-4)


class TestRamseyEnvelope:
    def test_unity_at_zero_delay(self, system):
        for form in EnvelopeForm:
            assert ramsey_envelope(system, StateKind.THERMAL, 0.8, 0.0, form=form) == 1.0

    @pytest.mark.parametrize(
        "kind,n_r", [(StateKind.THERMAL, 0.3), (StateKind.COHERENT, 0.5), (StateKind.SHOT_NOISE, 0.4)]
    )
    def test_gaussian_integral_asymptotic_log_slope(self, kind, n_r, system):
        c = correlator(kind, n_r, system.resonator)
        k_ang = TWO_PI * c.decay_rate
        t1, t2 = 8.0 / k_ang, 12.0 / k_ang
        e1 = ramsey_envelope(system, kind, n_r, t1, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
        e2 = ramsey_envelope(system, kind, n_r, t2, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
        slope = (math.log(e1) - math.log(e2)) / (t2 - t1)
        gamma1 = system.qubit.relaxation_rate(kind, n_r)
        expected = TWO_PI * (
            gamma1 / 2.0
            + system.qubit.intrinsic_dephasing
            + dephasing_rate(kind, n_r, system)
        )
        assert slope == pytest.approx(expected, rel=0.01)

    def test_phase_variance_matches_direct_quadrature(self, system):
        # independent oracle: numerically integrate 2 K^2 (tau - s) C(s)
        kind, n_r, tau = StateKind.THERMAL, 0.7, 60e-9
        c = correlator(kind, n_r, system.resonator)
        kick = TWO_PI * system.resonator.external_rate * system.theta0

        def integrand(s):
            return 2.0 * kick * kick * (tau - s) * correlator_value(c, s)

        oracle, _ = quad(integrand, 0.0, tau, limit=200)
        asym = ramsey_envelope(system, kind, n_r, tau, form=EnvelopeForm.ASYMPTOTIC_RATE)
        gauss = ramsey_envelope(system, kind, n_r, tau, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
        gamma1 = system.qubit.relaxation_rate(kind, n_r)
        base = TWO_PI * (gamma1 / 2.0 + system.qubit.intrinsic_dephasing) * tau
        assert gauss == pytest.approx(math.exp(-base - oracle / 2.0), rel=1e-8)
        assert asym == pytest.approx(
            math.exp(-base - TWO_PI * dephasing_rate(kind, n_r, system) * tau), rel=1e-12
        )

    def test_exponent_additivity(self, system):
        # the envelope factorizes into relaxation, intrinsic, and photon parts
        kind, n_r, tau = StateKind.THERMAL, 0.5, 80e-9
        full = ramsey_envelope(system, kind, n_r, tau)
        gamma1 = system.qubit.relaxation_rate(kind, n_r)
        relax = math.exp(-TWO_PI * (gamma1 / 2.0 + system.qubit.intrinsic_dephasing) * tau)
        photon = math.exp(-TWO_PI * dephasing_rate(kind, n_r, system) * tau)
        assert full == pytest.approx(relax * photon, rel=1e-12)

    @pytest.mark.parametrize("kind", [StateKind.THERMAL, StateKind.COHERENT, StateKind.SHOT_NOISE])
    def test_finite_time_deficit(self, kind, system):
        # finite correlator memory only ever slows the decay down
        n_r = 0.9
        taus = np.geomspace(1e-10, 3e-6, 40)
        gauss = np.array(
            [ramsey_envelope(system, kind, n_r, t, form=EnvelopeForm.GAUSSIAN_INTEGRAL) for t in taus]
        )
        asym = np.array(
            [ramsey_envelope(system, kind, n_r, t, form=EnvelopeForm.ASYMPTOTIC_RATE) for t in taus]
        )
        assert np.all(gauss >= asym)
        c = correlator(kind, n_r, system.resonator)
        late = 20.0 / (TWO_PI * c.decay_rate)
        ratio_slope = (
            math.log(
                ramsey_envelope(system, kind, n_r, late, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
                / ramsey_envelope(system, kind, n_r, 1.5 * late, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
            )
            / math.log(
                ramsey_envelope(system, kind, n_r, late, form=EnvelopeForm.ASYMPTOTIC_RATE)
                / ramsey_envelope(system, kind, n_r, 1.5 * late, form=EnvelopeForm.ASYMPTOTIC_RATE)
            )
        )
        assert ratio_slope == pytest.approx(1.0, rel=1e-6)

    def test_negative_delay_rejected(self, system):
        with pytest.raises(ValueError):
            ramsey_envelope(system, StateKind.THERMAL, 0.5, -1e-9)

    @pytest.mark.parametrize("form", list(EnvelopeForm))
    def test_negative_delay_in_an_array_rejected(self, form, system):
        taus = np.array([0.0, 1e-9, -1e-9, 2e-9])
        with pytest.raises(ValueError, match="delay"):
            ramsey_envelope(system, StateKind.THERMAL, 0.5, taus, form=form)

    @pytest.mark.parametrize("form", list(EnvelopeForm))
    @pytest.mark.parametrize("kind", list(StateKind))
    def test_array_delays_match_scalar_calls_bit_for_bit(self, kind, form, system):
        n_r = 0.7
        taus = np.concatenate([[0.0], np.geomspace(1e-16, 3e-6, 1000)])
        # the grid reaches into the small-x branch of the Gaussian integral
        k_ang = TWO_PI * correlator(kind, n_r, system.resonator).decay_rate
        assert np.count_nonzero(k_ang * taus[1:] < 1e-6) > 10
        scalars = [ramsey_envelope(system, kind, n_r, float(t), form=form) for t in taus]
        assert all(type(value) is np.float64 for value in scalars)
        envelope = ramsey_envelope(system, kind, n_r, taus, form=form)
        assert envelope.shape == taus.shape
        np.testing.assert_array_equal(envelope, np.array(scalars))


class TestSimulateRamsey:
    def test_pure_cosine_without_decay(self, system):
        quiet = DispersiveSystem(
            QubitParams(6.92e9, 67e6, -315e6, 0.0, 0.0, 0.0, 0.0), system.resonator
        )
        taus = np.linspace(1e-9, 200e-9, 40)
        # the fringe detuning is 5 / max(tau) = 25 MHz
        trace = simulate_ramsey(quiet, StateKind.THERMAL, 0.0, taus, shots=100_000, seed=3)
        expected = 0.5 * (1.0 + np.cos(TWO_PI * 25e6 * taus))
        sigma = np.sqrt(np.clip(expected * (1 - expected), 1e-12, None) / 100_000) + 1e-4
        assert np.all(np.abs(trace[:, 1] - expected) < 5 * sigma)

    def test_hot_emitter_decays_faster(self, system):
        from mwphoton.states import ModeSpec, bose_einstein

        mode = ModeSpec(system.resonator.resonance_frequency)
        n_cold = bose_einstein(mode, 0.05)
        n_hot = bose_einstein(mode, 1.0)
        tau = 60e-9
        cold = ramsey_envelope(system, StateKind.THERMAL, n_cold, tau)
        hot = ramsey_envelope(system, StateKind.THERMAL, n_hot, tau)
        assert hot < 0.5 * cold

    def test_deterministic_given_seed(self, system):
        taus = np.linspace(1e-9, 150e-9, 30)
        a = simulate_ramsey(system, StateKind.THERMAL, 0.4, taus, shots=2000, seed=11)
        b = simulate_ramsey(system, StateKind.THERMAL, 0.4, taus, shots=2000, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_fit_recovers_injected_decay(self, system):
        from mwphoton.analysis import fit_ramsey
        from mwphoton.qubit import dephasing_rate as rate

        n_r = 0.6
        gamma2 = (
            system.qubit.relaxation_rate(StateKind.THERMAL, n_r) / 2.0
            + system.qubit.intrinsic_dephasing
            + rate(StateKind.THERMAL, n_r, system)
        )
        tau_max = 3.0 / (TWO_PI * gamma2)
        taus = np.linspace(tau_max / 120, tau_max, 120)
        trace = simulate_ramsey(system, StateKind.THERMAL, n_r, taus, shots=10_000, seed=21)
        fit = fit_ramsey(trace)
        assert fit.converged
        assert abs(fit.parameters["gamma2"] - gamma2) < 3.0 * fit.std_error("gamma2")

    def test_one_envelope_evaluation_per_trace(self, system, monkeypatch):
        from mwphoton import qubit

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ramsey_envelope(*args, **kwargs)

        monkeypatch.setattr(qubit, "ramsey_envelope", counted)
        taus = np.linspace(1e-9, 150e-9, 161)
        for form in EnvelopeForm:
            trace = simulate_ramsey(system, StateKind.THERMAL, 0.4, taus, shots=100, form=form)
            assert trace.shape == (161, 2)
        assert len(calls) == len(EnvelopeForm)

    def test_empty_grid_rejected(self, system):
        with pytest.raises(ValueError):
            simulate_ramsey(system, StateKind.THERMAL, 0.4, [], shots=100, seed=0)

    @pytest.mark.parametrize("form", list(EnvelopeForm))
    def test_infinite_population_rejected(self, form, system):
        taus = np.linspace(1e-9, 150e-9, 161)
        with pytest.raises(ValueError, match="occupation n_r must be finite"):
            simulate_ramsey(system, StateKind.THERMAL, math.inf, taus, shots=100, form=form)

    @pytest.mark.parametrize("taus", [[0.0], [0.0, 0.0]])
    def test_grid_without_positive_delay_rejected(self, taus, system):
        # the fringe detuning is 5 / max(tau)
        with pytest.raises(ValueError, match="tau grid"):
            simulate_ramsey(system, StateKind.THERMAL, 0.5, taus)
