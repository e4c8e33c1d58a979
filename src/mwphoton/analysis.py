"""Fitting and parameter extraction.

Everything measured in this package funnels through a handful of fits: an
exponentially decaying sinusoid for Ramsey fringes, polynomial photon-
statistics laws (rho n^2 + xi n and its degenerate forms) and the
dephasing-rate decomposition.  Linear-in-parameter models are solved by
normal equations with column scaling; the Ramsey fit uses an unweighted,
damped Gauss-Newton iteration with analytic Jacobians (max 200
iterations, relative step tolerance 1e-10).  Fits never fabricate
parameters: when the iteration fails to converge the result carries
``converged=False`` and the last iterate.

All rates handed in and out are "/2pi" values in Hz, matching the rest of
the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NumericalError",
    "FitResult",
    "VarianceLawModel",
    "fit_ramsey",
    "extract_dephasing",
    "fit_variance_law",
]

_TWO_PI = 2.0 * math.pi

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10


class NumericalError(ValueError):
    """A fit or solve cannot produce a trustworthy number from its input."""


@dataclass
class FitResult:
    """Named parameters with covariance and convergence diagnostics."""

    parameters: Dict[str, float]
    parameter_order: Tuple[str, ...]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)

    def std_error(self, name: str) -> float:
        index = self.parameter_order.index(name)
        return math.sqrt(max(self.covariance[index, index], 0.0))

    @property
    def std_errors(self) -> Dict[str, float]:
        return {name: self.std_error(name) for name in self.parameter_order}

    def correlation_matrix(self) -> np.ndarray:
        sigma = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = self.covariance / np.outer(sigma, sigma)
        corr[~np.isfinite(corr)] = 0.0
        return corr

    def to_json_dict(self) -> dict:
        return {
            "parameters": {k: self.parameters[k] for k in self.parameter_order},
            "standard_errors": self.std_errors,
            "correlation_matrix": self.correlation_matrix().tolist(),
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
        }


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _linear_least_squares(design: np.ndarray, y: np.ndarray, weights: Optional[np.ndarray]):
    """Weighted normal equations with column scaling.

    Returns (beta, covariance, residuals).  When ``weights`` are supplied
    they are treated as inverse variances and the covariance is absolute;
    otherwise it is scaled by the reduced chi-square estimate.
    """
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    scale = np.sqrt(np.sum(design * design * w[:, None], axis=0))
    if np.any(scale == 0):
        raise NumericalError("rank-deficient design matrix (zero column)")
    scaled = design / scale
    lhs = scaled.T @ (w[:, None] * scaled)
    rhs = scaled.T @ (w * y)
    cond = np.linalg.cond(lhs)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"rank-deficient design matrix (condition number {cond:.2e})")
    beta_scaled = np.linalg.solve(lhs, rhs)
    beta = beta_scaled / scale
    residuals = y - design @ beta
    cov_scaled = np.linalg.inv(lhs)
    dof = max(y.size - beta.size, 1)
    if weights is None:
        cov_scaled = cov_scaled * float(residuals @ (w * residuals)) / dof
    covariance = cov_scaled / np.outer(scale, scale)
    return beta, covariance, residuals


def _damped_gauss_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
):
    """Levenberg-damped Gauss-Newton for unweighted least squares.

    Deterministic: the damping parameter follows a fixed multiplicative
    schedule, shrinking on accepted steps and growing on rejected ones.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    cost = float(np.sum(r * r))
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(x)
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = np.diag(np.clip(np.diag(hess), 1e-300, None))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + lam * diag, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + step
            r_try = residual(x_try)
            cost_try = float(np.sum(r_try * r_try))
            if np.isfinite(cost_try) and cost_try <= cost:
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            break
        if np.all(np.abs(step) <= STEP_TOLERANCE * (np.abs(x) + STEP_TOLERANCE)):
            converged = True
            break
    # covariance at the solution, on column-scaled normal equations so mixed
    # parameter magnitudes (Hz next to dimensionless) stay well conditioned;
    # pinv keeps genuinely degenerate directions finite
    jac = jacobian(x)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0] = 1.0
    jn = jac / scale
    dof = max(r.size - x.size, 1)
    cov = np.linalg.pinv(jn.T @ jn) / np.outer(scale, scale) * cost / dof
    return x, cov, r, converged, iterations


# ---------------------------------------------------------------------------
# Ramsey fringes
# ---------------------------------------------------------------------------

def _ramsey_model(tau, offset, amplitude, frequency, gamma2, phase):
    return offset + amplitude * np.cos(_TWO_PI * frequency * tau + phase) * np.exp(
        -_TWO_PI * gamma2 * tau
    )


def _ramsey_initial_guess(tau: np.ndarray, p: np.ndarray):
    offset = float(np.mean(p))
    detrended = p - offset
    amplitude = max(float(np.max(np.abs(detrended))), 1e-6)
    # frequency and phase from the FFT peak on a uniform resampling
    uniform_tau = np.linspace(tau[0], tau[-1], 4 * tau.size)
    uniform = np.interp(uniform_tau, tau, detrended)
    spectrum = np.fft.rfft(uniform)
    freqs = np.fft.rfftfreq(uniform_tau.size, uniform_tau[1] - uniform_tau[0])
    peak = 1 + int(np.argmax(np.abs(spectrum[1:])))
    frequency = float(freqs[peak])
    phase = float(np.angle(spectrum[peak]))
    # decay from a log-envelope regression on block maxima
    blocks = max(4, tau.size // 8)
    edges = np.linspace(0, tau.size, blocks + 1).astype(int)
    env_t, env_v = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            env_t.append(float(np.mean(tau[lo:hi])))
            env_v.append(float(np.max(np.abs(detrended[lo:hi]))))
    env_t = np.asarray(env_t)
    env_v = np.clip(np.asarray(env_v), 1e-9, None)
    slope = np.polyfit(env_t, np.log(env_v), 1)[0]
    gamma2 = max(-slope / _TWO_PI, 1e-3 / (tau[-1] - tau[0]))
    return offset, amplitude, frequency, gamma2, phase


def fit_ramsey(trace: np.ndarray) -> FitResult:
    """Fit p(tau) = offset + amplitude cos(2 pi f tau + phi) exp(-2 pi gamma2 tau).

    ``trace`` holds (tau, p_e) rows.  Initial guesses come from the FFT
    peak (frequency, phase) and a log-envelope regression (gamma2); the
    returned ``gamma2`` is the "/2pi" decay rate in Hz.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2 or trace.shape[1] != 2 or trace.shape[0] < 8:
        raise ValueError("Ramsey trace must be an (n >= 8, 2) array of (tau, p_e)")
    tau = trace[:, 0]
    p = trace[:, 1]
    x0 = _ramsey_initial_guess(tau, p)

    def residual(x):
        return p - _ramsey_model(tau, *x)

    def jacobian(x):
        offset, amplitude, frequency, gamma2, phase = x
        arg = _TWO_PI * frequency * tau + phase
        damp = np.exp(-_TWO_PI * gamma2 * tau)
        cos_term = np.cos(arg) * damp
        sin_term = np.sin(arg) * damp
        return -np.column_stack(
            [
                np.ones_like(tau),
                cos_term,
                -amplitude * _TWO_PI * tau * sin_term,
                -amplitude * _TWO_PI * tau * cos_term,
                -amplitude * sin_term,
            ]
        )

    x, cov, r, converged, iterations = _damped_gauss_newton(residual, jacobian, x0)
    names = ("offset", "amplitude", "frequency", "gamma2", "phase")
    params = dict(zip(names, (float(v) for v in x)))
    # canonicalize: positive amplitude, phase folded into (-pi, pi]
    if params["amplitude"] < 0:
        params["amplitude"] = -params["amplitude"]
        params["phase"] += math.pi
    params["phase"] = math.remainder(params["phase"], _TWO_PI)
    result_x = np.array([params[name] for name in names])
    res = p - _ramsey_model(tau, *result_x)
    return FitResult(params, names, cov, float(np.linalg.norm(res)), converged, iterations)


def extract_dephasing(gamma2: float, gamma1: float, gamma_phi0: float) -> float:
    """Photon-induced dephasing gamma_phi_n = gamma2 - gamma1/2 - gamma_phi0.

    Negative extractions are statistically meaningful nulls; they are
    returned as-is with a warning, never clamped.
    """
    value = gamma2 - gamma1 / 2.0 - gamma_phi0
    if value < 0:
        warnings.warn(
            f"extracted dephasing rate is negative ({value:.4g} Hz); keeping the "
            "value so statistical nulls remain testable",
            stacklevel=2,
        )
    return value


# ---------------------------------------------------------------------------
# Photon-statistics laws
# ---------------------------------------------------------------------------

class VarianceLawModel(Enum):
    QUADRATIC_PLUS_LINEAR = "quadratic_plus_linear"  # rho n^2 + xi n
    PURE_QUADRATIC = "pure_quadratic"                # rho n^2
    LINEAR = "linear"                                # s n


_MODEL_COLUMNS = {
    VarianceLawModel.QUADRATIC_PLUS_LINEAR: (("rho", 2), ("xi", 1)),
    VarianceLawModel.PURE_QUADRATIC: (("rho", 2),),
    VarianceLawModel.LINEAR: (("s", 1),),
}


def _points_needed(model: VarianceLawModel) -> int:
    """Points a :func:`fit_variance_law` of ``model`` needs: one per coefficient, plus one."""
    return len(_MODEL_COLUMNS[model]) + 1


def fit_variance_law(
    points: np.ndarray,
    model: VarianceLawModel = VarianceLawModel.QUADRATIC_PLUS_LINEAR,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Weighted linear least squares of a photon-statistics power law.

    ``points`` holds (n, value) rows where value is a dephasing rate or a
    g2_tilde readout.  The models are linear in their coefficients, so the
    normal equations are exact; coefficients and covariance come back in
    the input units.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be (n, value) rows")
    n = points[:, 0]
    y = points[:, 1]
    columns = _MODEL_COLUMNS[model]
    minimum = _points_needed(model)
    if points.shape[0] < minimum:
        raise ValueError(f"{model.value} fit needs at least {minimum} points")
    if np.unique(n).size < len(columns):
        raise ValueError("abscissa values must be distinct")
    design = np.column_stack([n ** power for _, power in columns])
    beta, cov, residuals = _linear_least_squares(design, y, weights)
    names = tuple(name for name, _ in columns)
    params = dict(zip(names, (float(b) for b in beta)))
    return FitResult(params, names, cov, float(np.linalg.norm(residuals)), True, 1)
