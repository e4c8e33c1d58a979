import math

import numpy as np
import pytest

from mwphoton.analysis import (
    FitResult,
    NumericalError,
    VarianceLawModel,
    extract_dephasing,
    fit_ramsey,
    fit_ramsey_traces,
    fit_variance_law,
)

TWO_PI = 2.0 * math.pi


def ramsey_model(tau, offset, amplitude, frequency, gamma2, phase):
    return offset + amplitude * np.cos(TWO_PI * frequency * tau + phase) * np.exp(
        -TWO_PI * gamma2 * tau
    )


class TestFitRamsey:
    TRUTH = dict(offset=0.5, amplitude=0.45, frequency=21e6, gamma2=2.0e6, phase=0.4)

    def _trace(self, noise=0.0, seed=0, points=90):
        tau = np.linspace(2e-9, 260e-9, points)
        p = ramsey_model(tau, **self.TRUTH)
        if noise:
            rng = np.random.default_rng(seed)
            p = rng.binomial(int(1.0 / noise ** 2), np.clip(p, 0, 1)) * noise ** 2
        return np.column_stack([tau, p])

    def test_noiseless_exact_recovery(self):
        fit = fit_ramsey(self._trace())
        assert fit.converged
        for name, value in self.TRUTH.items():
            assert fit.parameters[name] == pytest.approx(value, rel=1e-6), name

    def test_decay_time_scale(self):
        # gamma2/2pi ~ 2 MHz corresponds to an 80 ns decay time
        fit = fit_ramsey(self._trace())
        decay_time = 1.0 / (TWO_PI * fit.parameters["gamma2"])
        assert decay_time == pytest.approx(80e-9, rel=0.01)

    def test_binomial_noise_three_sigma_coverage(self):
        # 3 sigma intervals from the covariance must cover the truth in at
        # least 99% of correctly specified trials
        trials = 500
        covered = 0
        for seed in range(trials):
            fit = fit_ramsey(self._trace(noise=0.01, seed=seed))
            if not fit.converged:
                continue
            err = abs(fit.parameters["gamma2"] - self.TRUTH["gamma2"])
            covered += err <= 3.0 * fit.std_error("gamma2")
        assert covered / trials >= 0.99

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            fit_ramsey(self._trace()[:5])

    @staticmethod
    def _overflowing_trace():
        """20 points at delays near 1e300 s with p_e near 1e10: the Jacobian overflows."""
        tau = np.linspace(1e300, 2e300, 20)
        p = 1e10 * (1.0 + 0.1 * np.random.default_rng(0).standard_normal(20))
        return np.column_stack([tau, p])

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_overflowing_trace_is_a_numerical_error(self):
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="trace 0"):
            fit_ramsey(self._overflowing_trace())

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_overflowing_trace_is_named_in_its_stack(self):
        stack = np.stack([self._trace(points=20), self._overflowing_trace()])
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="trace 1"):
            fit_ramsey_traces(stack)

    def test_serialization_contract(self):
        payload = fit_ramsey(self._trace()).to_json_dict()
        assert set(payload) == {
            "parameters",
            "standard_errors",
            "correlation_matrix",
            "residual_norm",
            "converged",
            "iterations",
        }
        assert set(payload["parameters"]) == set(self.TRUTH)
        matrix = np.asarray(payload["correlation_matrix"])
        assert matrix.shape == (5, 5)
        assert np.all(np.diag(matrix) == 1.0)

    def test_correlation_diagonal_is_exact(self):
        # 2 / sqrt(2)**2 = 0.9999999999999998; a sigma = 0 parameter correlates 0
        covariance = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 0.0]])
        fit = FitResult({"a": 1.0, "b": 2.0, "c": 3.0}, covariance, 0.0, True, 1)
        assert 2.0 / math.sqrt(2.0) ** 2 != 1.0
        matrix = fit.correlation_matrix()
        np.testing.assert_array_equal(np.diag(matrix), [1.0, 1.0, 0.0])
        assert matrix[0, 1] == matrix[1, 0] == 0.5 / (math.sqrt(2.0) * math.sqrt(3.0))
        assert not np.any(matrix[2, :2]) and not np.any(matrix[:2, 2])


class TestExtractDephasing:
    def test_relaxation_limited_zero(self):
        assert extract_dephasing(2e6, 4e6, 0.0) == 0.0

    def test_simple_arithmetic(self):
        assert extract_dephasing(3e6, 4e6, 0.0) == pytest.approx(1e6)

    def test_negative_reported_with_warning(self):
        with pytest.warns(UserWarning, match="negative"):
            value = extract_dephasing(1.8e6, 4e6, 0.0)
        assert value == pytest.approx(-0.2e6)


class TestFitVarianceLaw:
    def test_exact_thermal_law(self):
        scale = 3.4e6
        n = np.linspace(0.05, 1.5, 12)
        points = np.column_stack([n, scale * (n * n + n)])
        fit = fit_variance_law(points, VarianceLawModel.QUADRATIC_PLUS_LINEAR)
        assert fit.parameters["rho"] == pytest.approx(scale, rel=1e-12)
        assert fit.parameters["xi"] == pytest.approx(scale, rel=1e-12)

    def test_pure_quadratic_in_correlation_regime(self):
        # noisy 2 n^2 points recover rho near 2
        rng = np.random.default_rng(8)
        n = np.linspace(0.1, 1.5, 10)
        g2 = 2.0 * n * n + 0.03 * rng.standard_normal(n.size)
        fit = fit_variance_law(
            np.column_stack([n, g2]), VarianceLawModel.PURE_QUADRATIC,
            weights=np.full(n.size, 1.0 / 0.03 ** 2),
        )
        assert fit.parameters["rho"] == pytest.approx(2.0, abs=0.1)

    def test_jpa_referred_slope(self):
        from mwphoton.chains import JpaStage, db_to_linear, g2_jpa_referred

        stage = JpaStage(db_to_linear(15.8), 0.66)
        pts = []
        for n in np.linspace(0.0, 1.5, 8):
            g2, offset = g2_jpa_referred(float(n), stage)
            pts.append((float(n), g2 - offset))
        fit = fit_variance_law(np.asarray(pts), VarianceLawModel.QUADRATIC_PLUS_LINEAR)
        assert fit.parameters["xi"] == pytest.approx(4.0 + 4.0 * 0.66, abs=1e-9)

    def test_linear_model(self):
        n = np.array([0.2, 0.5, 1.0])
        fit = fit_variance_law(np.column_stack([n, 4.6e6 * n]), VarianceLawModel.LINEAR)
        assert fit.parameters["s"] == pytest.approx(4.6e6, rel=1e-12)

    def test_duplicate_abscissa_rejected(self):
        points = np.array([[0.5, 1.0], [0.5, 1.1], [0.5, 0.9]])
        with pytest.raises(ValueError):
            fit_variance_law(points, VarianceLawModel.QUADRATIC_PLUS_LINEAR)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_variance_law(np.array([[0.1, 1.0], [0.2, 2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected_with_its_row(self, bad):
        # a nan value once came back as rho = xi = nan, marked converged
        points = [(0.1, 0.2), (0.5, 2.0), (1.0, bad)]
        message = rf"points must be finite, got {bad} at index \(2, 1\)"
        with pytest.raises(ValueError, match=message):
            fit_variance_law(points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_weight_not_finite_and_non_negative_rejected_with_its_row(self, bad):
        # a nan weight once raised numpy's "SVD did not converge"
        points = [(0.1, 0.2), (0.5, 2.0), (1.0, 3.5)]
        message = rf"weights must be finite and >= 0, got {bad} at index 1"
        with pytest.raises(ValueError, match=message):
            fit_variance_law(points, weights=[1.0, bad, 1.0])

    def test_negative_points_are_fitted(self):
        # negative dephasing extractions are statistical nulls and stay in the fit
        n = np.array([0.1, 0.5, 1.0])
        fit = fit_variance_law(np.column_stack([n, -2.0 * n * n - n]))
        assert fit.converged
        assert fit.parameters["rho"] == pytest.approx(-2.0, rel=1e-12)

    def test_consistent_under_abscissa_rescaling(self):
        # fitting in rescaled units and mapping the coefficients back changes
        # nothing beyond 1e-10
        rng = np.random.default_rng(5)
        n = np.linspace(0.05, 1.5, 12)
        y = 3.3e6 * n * n + 3.5e6 * n + 2e4 * rng.standard_normal(n.size)
        direct = fit_variance_law(np.column_stack([n, y]))
        scale = 37.0
        scaled = fit_variance_law(np.column_stack([n * scale, y]))
        assert scaled.parameters["rho"] * scale ** 2 == pytest.approx(
            direct.parameters["rho"], rel=1e-10
        )
        assert scaled.parameters["xi"] * scale == pytest.approx(
            direct.parameters["xi"], rel=1e-10
        )

    def test_gaussian_three_sigma_coverage(self):
        trials = 500
        n = np.linspace(0.05, 1.5, 12)
        sigma = 5e4
        truth_rho, truth_xi = 3.4e6, 3.4e6
        clean = truth_rho * n * n + truth_xi * n
        weights = np.full(n.size, 1.0 / sigma ** 2)
        covered = 0
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            fit = fit_variance_law(
                np.column_stack([n, clean + sigma * rng.standard_normal(n.size)]),
                VarianceLawModel.QUADRATIC_PLUS_LINEAR,
                weights,
            )
            covered += abs(fit.parameters["rho"] - truth_rho) <= 3.0 * fit.std_error("rho")
        assert covered / trials >= 0.99
