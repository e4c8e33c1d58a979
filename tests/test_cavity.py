import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter

from mwphoton.cavity import (
    Correlator,
    correlator,
    correlator_value,
    dephasing_gaussian,
    lorentzian_dos,
)
from mwphoton.states import MicrowaveState, StateKind, photon_variance

#: Window of the spectral quadrature oracle, in units of kappa_x around the
#: resonance.  The Lorentzian-squared tail beyond 40 kappa_x contributes less
#: than 9e-7 of the total integral (2 * (k/2)^4 / (3 X^3) relative to
#: pi k / 4 at X = 40 k), below the 1e-6 agreement target.
QUAD_WINDOW = 40.0


def gaussian_rate_by_quadrature(var_n, res, theta0):
    """Oracle: theta0^2 (4/pi) * integral of (k/2)^2 F(omega)^2 Var(n) over the window."""
    half = res.external_rate / 2.0
    center = res.resonance_frequency
    window = QUAD_WINDOW * res.external_rate
    integral, abserr = quad(
        lambda omega: half * half * lorentzian_dos(omega, res) ** 2 * var_n,
        center - window, center + window,
        epsrel=1e-8, epsabs=0.0, limit=200, points=[center],
    )
    assert abserr <= 1e-6 * abs(integral)
    return theta0 * theta0 * (4.0 / math.pi) * integral


class TestCorrelator:
    def test_thermal_variance_and_rate(self, resonator):
        c = correlator(StateKind.THERMAL, 1.0, resonator)
        assert c.variance == pytest.approx(2.0)
        assert c.decay_rate == resonator.external_rate

    def test_coherent_amplitude_decay(self, resonator):
        c = correlator(StateKind.COHERENT, 1.0, resonator)
        assert c.decay_rate == pytest.approx(resonator.external_rate / 2.0)

    def test_shot_noise_energy_decay(self, resonator):
        c = correlator(StateKind.SHOT_NOISE, 0.4, resonator)
        assert c.variance == pytest.approx(0.4)
        assert c.decay_rate == resonator.external_rate

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_zero_population_zero_variance(self, kind, resonator):
        assert correlator(kind, 0.0, resonator).variance == 0.0

    @pytest.mark.parametrize(
        "state",
        [
            MicrowaveState.thermal(0.8),
            MicrowaveState.coherent(0.9),
            MicrowaveState.shot_noise(1.2),
            MicrowaveState.thermal(0.0),
        ],
    )
    def test_variance_agrees_with_state_statistics(self, state, resonator):
        c = correlator(state.kind, state.mean_photons, resonator)
        assert c.variance == photon_variance(state.kind, state.mean_photons)

    def test_incoherent_to_coherent_rate_ratio_exactly_two(self, resonator):
        thermal = correlator(StateKind.THERMAL, 0.5, resonator)
        shot = correlator(StateKind.SHOT_NOISE, 0.5, resonator)
        coherent = correlator(StateKind.COHERENT, 0.5, resonator)
        assert thermal.decay_rate == shot.decay_rate
        assert thermal.decay_rate / coherent.decay_rate == 2.0

    def test_negative_population_rejected(self, resonator):
        with pytest.raises(ValueError):
            correlator(StateKind.THERMAL, -0.1, resonator)

    @pytest.mark.parametrize("n_r", [math.inf, math.nan])
    def test_non_finite_population_rejected(self, resonator, n_r):
        with pytest.raises(ValueError, match="occupation n must be finite and >= 0"):
            correlator(StateKind.THERMAL, n_r, resonator)


class TestCorrelatorValue:
    def test_equal_time_value(self):
        c = Correlator(2.0, 8.5e6)
        assert correlator_value(c, 0.0) == 2.0

    def test_coherent_decays_slower_at_half_life(self, resonator):
        kappa_angular = 2.0 * math.pi * resonator.external_rate
        tau = math.log(2.0) / kappa_angular
        thermal = correlator(StateKind.THERMAL, 1.0, resonator)
        coherent = correlator(StateKind.COHERENT, 1.0, resonator)
        thermal_norm = correlator_value(thermal, tau) / thermal.variance
        coherent_norm = correlator_value(coherent, tau) / coherent.variance
        assert thermal_norm == pytest.approx(0.5, rel=1e-12)
        assert coherent_norm == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert coherent_norm > thermal_norm

    def test_long_time_limit(self):
        assert correlator_value(Correlator(1.0, 8.5e6), 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            correlator_value(Correlator(1.0, 8.5e6), -1e-9)


class TestDensityOfStates:
    def test_peak_value(self, resonator):
        peak = lorentzian_dos(resonator.resonance_frequency, resonator)
        assert peak == pytest.approx(2.0 / resonator.external_rate, rel=1e-12)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_half_width_at_half_maximum(self, sign, resonator):
        omega = resonator.resonance_frequency + sign * resonator.external_rate / 2.0
        assert lorentzian_dos(omega, resonator) == pytest.approx(
            1.0 / resonator.external_rate, rel=1e-12
        )

    def test_unit_normalization(self, resonator):
        center = resonator.resonance_frequency
        window = 4000.0 * resonator.external_rate
        integral, _ = quad(
            lambda w: lorentzian_dos(w, resonator), center - window, center + window,
            points=[center], limit=400,
        )
        assert integral / math.pi == pytest.approx(1.0, rel=1e-3)


class TestDephasingGaussian:
    def test_reference_rate(self, resonator, system):
        rate = dephasing_gaussian(1.0, resonator, system.theta0)
        assert rate == pytest.approx(3.4e6, rel=0.02)

    def test_zero_variance(self, resonator, system):
        assert dephasing_gaussian(0.0, resonator, system.theta0) == 0.0

    def test_linearity_in_variance(self, resonator, system):
        # quadrature oracle: the spectral integral doubles with the variance
        doubled = gaussian_rate_by_quadrature(2.0, resonator, system.theta0)
        assert doubled == pytest.approx(6.8e6, rel=0.02)
        assert doubled == pytest.approx(
            2.0 * dephasing_gaussian(1.0, resonator, system.theta0), rel=1e-6
        )

    @pytest.mark.parametrize("theta0", np.linspace(0.05, 0.7, 6))
    def test_quadrature_matches_closed_form(self, theta0, resonator):
        closed = dephasing_gaussian(1.3, resonator, theta0)
        numeric = gaussian_rate_by_quadrature(1.3, resonator, theta0)
        assert numeric == pytest.approx(closed, rel=1e-6)


class TestDampedModeStochastics:
    """Stochastic single-mode check of the correlator decay rates.

    An exactly discretized damped mode driven by white noise provides an
    independent realization of the input-output prediction: the intensity
    autocorrelation decays at kappa_x while the amplitude autocorrelation
    decays at kappa_x / 2.
    """

    KAPPA = 1.0  # angular rate; results are scale-free
    DT = 0.01  # <= 0.01 / kappa
    STEPS = 1_000_000

    def _damped_mode(self, seed):
        decay = math.exp(-self.KAPPA * self.DT / 2.0)
        drive = math.sqrt(1.0 - decay * decay)  # unit stationary power
        rng = np.random.default_rng(seed)
        noise = (rng.normal(size=self.STEPS) + 1j * rng.normal(size=self.STEPS)) / math.sqrt(2.0)
        return lfilter([drive], [1.0, -decay], noise)

    @staticmethod
    def _acf(series, max_lag):
        centered = series - np.mean(series)
        padded = 1 << (2 * centered.size - 1).bit_length()
        spectrum = np.fft.fft(centered, padded)
        acf = np.fft.ifft(spectrum * np.conj(spectrum))[:max_lag].real
        return acf / acf[0]

    def _averaged_rate(self, intensity, seeds, max_lag):
        acfs = []
        for seed in seeds:
            a = self._damped_mode(seed)
            series = np.abs(a) ** 2 if intensity else a
            acfs.append(self._acf(series, max_lag))
        acf = np.mean(acfs, axis=0)
        lags = np.arange(max_lag) * self.DT
        keep = acf > 0.2
        return -np.polyfit(lags[keep], np.log(acf[keep]), 1)[0]

    def test_intensity_autocorrelation_decays_at_kappa(self):
        rate = self._averaged_rate(intensity=True, seeds=range(10), max_lag=250)
        assert rate == pytest.approx(self.KAPPA, rel=0.05)

    def test_amplitude_autocorrelation_decays_at_half_kappa(self):
        rate = self._averaged_rate(intensity=False, seeds=range(50, 60), max_lag=500)
        assert rate == pytest.approx(self.KAPPA / 2.0, rel=0.05)
