"""Fitting and parameter extraction.

Everything measured in this package funnels through a handful of fits: an
exponentially decaying sinusoid for Ramsey fringes, polynomial photon-
statistics laws (rho n^2 + xi n and its degenerate forms) and the
dephasing-rate decomposition.  Linear-in-parameter models are solved by
normal equations with column scaling; the Ramsey fit uses an unweighted,
damped Gauss-Newton iteration with analytic Jacobians (max 200
iterations, relative step tolerance 1e-10, and a flat-cost stop once a
rejected trial's cost is within the rounding bound ``cost * n * eps`` of
the current one).  Fits never fabricate parameters: when the iteration
fails to converge the result carries ``converged=False`` and the last
iterate.

The Gauss-Newton engine solves a stack of problems in lockstep: one call
fits an (m, n, 2) stack in :func:`fit_ramsey_traces` (:func:`fit_ramsey` is
a stack of one) or the sweeps of ``dualpath.jpa_planck_fit``.  Each problem
keeps its own damping schedule, stop rule and arithmetic order, so it gets
the same bits, step for step, alone or in any stack; only the numpy call
overhead is shared.

All rates handed in and out are "/2pi" values in Hz, matching the rest of
the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "NumericalError",
    "FitResult",
    "VarianceLawModel",
    "fit_ramsey",
    "fit_ramsey_traces",
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
    """Named parameters with covariance and convergence diagnostics.

    The covariance rows and columns follow the key order of ``parameters``.
    """

    parameters: Dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)

    def std_error(self, name: str) -> float:
        index = tuple(self.parameters).index(name)
        return math.sqrt(max(self.covariance[index, index], 0.0))

    @property
    def std_errors(self) -> Dict[str, float]:
        return {name: self.std_error(name) for name in self.parameters}

    def correlation_matrix(self) -> np.ndarray:
        sigma = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = self.covariance / np.outer(sigma, sigma)
        corr[~np.isfinite(corr)] = 0.0
        # cov_ii / sigma_i^2 rounds; a parameter with sigma > 0 correlates 1 with itself
        corr[np.diag_indices_from(corr)] = np.where(sigma > 0, 1.0, 0.0)
        return corr

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
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


def _solve_each(matrices: np.ndarray, rhs: np.ndarray):
    """Solve a stack of linear systems; a singular one gets no solution.

    ``matrices`` is (k, p, p) and ``rhs`` (k, p, 1), the shape numpy 1.x and
    2.x both read as one right-hand side per system.  Returns the (k, p)
    solutions and a (k,) mask of the systems that were solved.  A stacked
    solve raises if any system is singular, so on that call the systems are
    solved one at a time and only the singular ones are left out.
    """
    try:
        return np.linalg.solve(matrices, rhs)[:, :, 0], np.ones(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    solutions = np.zeros(rhs.shape[:2])
    solved = np.ones(len(matrices), dtype=bool)
    for index, (matrix, column) in enumerate(zip(matrices, rhs)):
        try:
            solutions[index] = np.linalg.solve(matrix, column)[:, 0]
        except np.linalg.LinAlgError:
            solved[index] = False
    return solutions, solved


def _require_finite(normal: np.ndarray, rows: np.ndarray) -> None:
    """Raise NumericalError naming the first of ``rows`` whose (p, p) normal matrix is not finite.

    A non-finite Jacobian entry makes its column's diagonal entry non-finite,
    so this covers the Jacobian too.
    """
    if not np.isfinite(normal).all():
        bad = rows[~np.isfinite(normal).all(axis=(1, 2))][0]
        raise NumericalError(f"trace {bad}: the fit's Jacobian or normal matrix is not finite")


def _damped_gauss_newton(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
):
    """Levenberg-damped Gauss-Newton for a stack of unweighted least-squares problems.

    ``x0`` is an (m, p) stack of starting points.  ``residual(x, rows)`` and
    ``jacobian(x, rows)`` evaluate the problems numbered ``rows`` at their
    parameters ``x`` (one row each) and return (k, n) residuals and
    (k, n, p) Jacobians; only the problems still searching are evaluated.
    The problems run in lockstep but never mix: each keeps its own damping
    parameter on a fixed multiplicative schedule (shrinking on accepted
    steps, growing on rejected or singular trials) and its own stop rules, so
    it takes exactly the steps it would take alone, in the same arithmetic.
    A problem converges when an accepted step is within the relative step
    tolerance, or when a rejected trial's cost exceeds its current cost by
    no more than ``cost * n * eps`` (``n`` residuals, float64 ``eps``), the
    rounding bound of an n-term sum: its cost is flat, so it stops where it
    stands instead of raising the damping until some tiny step rounds down.
    A problem whose Jacobian or normal matrix is not finite raises
    NumericalError naming its row.  Returns the (m, p) solutions, the
    (m, p, p) covariances and the per-problem ``converged`` flags and
    iteration counts.
    """
    x = np.array(x0, dtype=float)
    count, size = x.shape
    everyone = np.arange(count)
    r = residual(x, everyone)
    cost = np.sum(r * r, axis=1)
    flat_bound = 1.0 + r.shape[1] * np.finfo(float).eps
    lam = np.full(count, 1e-3)
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    diagonal = np.arange(size)
    searching = everyone
    for iteration in range(1, MAX_ITERATIONS + 1):
        if searching.size == 0:
            break
        iterations[searching] = iteration
        jac = jacobian(x[searching], searching)
        jac_t = jac.transpose(0, 2, 1)
        grad = jac_t @ r[searching][:, :, None]
        hess = jac_t @ jac
        _require_finite(hess, searching)
        diag = np.zeros_like(hess)
        diag[:, diagonal, diagonal] = np.clip(hess[:, diagonal, diagonal], 1e-300, None)
        step = np.zeros((searching.size, size))
        accepted = np.zeros(searching.size, dtype=bool)
        flat_stop = np.zeros(searching.size, dtype=bool)
        trying = np.ones(searching.size, dtype=bool)
        for _ in range(60):
            if not trying.any():
                break
            slots = np.flatnonzero(trying)
            rows = searching[slots]
            steps, solved = _solve_each(
                hess[slots] + lam[rows, None, None] * diag[slots], -grad[slots]
            )
            # a singular trial only grows the damping, as a rejected one
            # does, but never stops the search on its own
            lam[rows[~solved]] *= 10.0
            slots, rows, steps = slots[solved], rows[solved], steps[solved]
            x_try = x[rows] + steps
            # a trial may overflow; its non-finite cost rejects it below
            with np.errstate(over="ignore", invalid="ignore"):
                r_try = residual(x_try, rows)
                cost_try = np.sum(r_try * r_try, axis=1)
            better = np.isfinite(cost_try) & (cost_try <= cost[rows])
            won = rows[better]
            x[won], r[won], cost[won] = x_try[better], r_try[better], cost_try[better]
            lam[won] = np.maximum(lam[won] / 10.0, 1e-14)
            accepted[slots[better]] = True
            step[slots[better]] = steps[better]
            trying[slots[better]] = False
            # a rejected trial within the rounding bound of the n-term cost
            # sum is flat: the problem has converged where it stands
            flat = ~better & (cost_try <= cost[rows] * flat_bound)
            flat_stop[slots[flat]] = True
            trying[slots[flat]] = False
            worse = ~better & ~flat
            lost = rows[worse]
            lam[lost] *= 10.0
            trying[slots[worse][lam[lost] > 1e14]] = False
        done = np.all(
            np.abs(step) <= STEP_TOLERANCE * (np.abs(x[searching]) + STEP_TOLERANCE), axis=1
        )
        converged[searching[(accepted & done) | flat_stop]] = True
        searching = searching[accepted & ~done]
    # covariance at the solution, on column-scaled normal equations so mixed
    # parameter magnitudes (Hz next to dimensionless) stay well conditioned;
    # pinv keeps genuinely degenerate directions finite.  Keep the order
    # pinv / (scale x scale) * cost / dof: grouping cost / dof first moves
    # the last bits.
    jac = jacobian(x, everyone)
    scale = np.linalg.norm(jac, axis=1)
    scale[scale == 0] = 1.0
    jn = jac / scale[:, None, :]
    dof = max(r.shape[1] - size, 1)
    outer = scale[:, :, None] * scale[:, None, :]
    normal = jn.transpose(0, 2, 1) @ jn
    _require_finite(normal, everyone)
    cov = np.linalg.pinv(normal) / outer * cost[:, None, None] / dof
    return x, cov, converged, iterations


# ---------------------------------------------------------------------------
# Ramsey fringes
# ---------------------------------------------------------------------------

def _ramsey_model(tau, offset, amplitude, frequency, gamma2, phase):
    return offset + amplitude * np.cos(_TWO_PI * frequency * tau + phase) * np.exp(
        -_TWO_PI * gamma2 * tau
    )


def _ramsey_initial_guesses(tau: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Starting (offset, amplitude, frequency, gamma2, phase) of each (tau, p) row.

    One pass over the (m, n) stack: row means and maxima, a uniform
    resampling whose grids come from one ``np.linspace`` with array
    endpoints, one 2-D FFT and block maxima from one gather.  Each row gets
    the bits a one-trace guess gives it.  Three parts stay per row because
    only they keep those bits: ``np.interp``, the ``polyfit`` and the block
    means of tau (a stacked (m * blocks, size) mean sums in another order).
    """
    count, size = tau.shape
    offset = np.mean(p, axis=1)
    detrended = p - offset[:, None]
    amplitude = np.maximum(np.max(np.abs(detrended), axis=1), 1e-6)
    # frequency and phase from the FFT peak on a uniform resampling;
    # rfftfreq's bin k is k * (1 / (N d))
    points = 4 * size
    uniform_tau = np.linspace(tau[:, 0], tau[:, -1], points, axis=1)
    uniform = np.array([np.interp(u, t, d) for u, t, d in zip(uniform_tau, tau, detrended)])
    spectrum = np.fft.rfft(uniform, axis=1)
    peak = 1 + np.argmax(np.abs(spectrum[:, 1:]), axis=1)
    frequency = peak * (1.0 / (points * (uniform_tau[:, 1] - uniform_tau[:, 0])))
    phase = np.angle(spectrum[np.arange(count), peak])
    # decay from a log-envelope regression on block maxima; the np.linspace
    # blocks come in at most two sizes, and the blocks of one size are
    # gathered into one (blocks, size) array per row, whose row means keep
    # the bits of np.mean on each slice (np.add.reduceat would sum in sequence)
    edges = np.linspace(0, size, max(4, size // 8) + 1).astype(int)
    starts, sizes = edges[:-1], np.diff(edges)
    env_t = np.empty((count, starts.size))
    env_v = np.empty((count, starts.size))
    for block in np.unique(sizes):
        same = sizes == block
        gather = starts[same, None] + np.arange(block)
        env_v[:, same] = np.max(np.abs(detrended[:, gather]), axis=2)
        for row in range(count):
            env_t[row, same] = np.mean(tau[row, gather], axis=1)
    env_v = np.clip(env_v, 1e-9, None)
    slope = np.array([np.polyfit(t, np.log(v), 1)[0] for t, v in zip(env_t, env_v)])
    gamma2 = np.maximum(-slope / _TWO_PI, 1e-3 / (tau[:, -1] - tau[:, 0]))
    return np.column_stack([offset, amplitude, frequency, gamma2, phase])


_RAMSEY_NAMES = ("offset", "amplitude", "frequency", "gamma2", "phase")


def fit_ramsey_traces(traces: np.ndarray) -> List[FitResult]:
    """Fit p(tau) = offset + amplitude cos(2 pi f tau + phi) exp(-2 pi gamma2 tau) to each trace.

    ``traces`` is an (m, n, 2) stack of traces that each hold (tau, p_e)
    rows.  Initial guesses come from the FFT peak (frequency, phase) and a
    log-envelope regression (gamma2), computed for the whole stack in one
    pass with the bits each trace would get alone; the Gauss-Newton
    iterations of all traces then run in one lockstep solve, each trace
    taking the steps it would take alone and stopping once its step is
    within tolerance or its cost is flat to rounding.  The returned
    ``gamma2`` is the "/2pi" decay rate in Hz.  Non-finite values and
    delays that do not strictly increase are rejected with a
    ``ValueError``; a trace whose Jacobian or normal matrix overflows
    raises ``NumericalError`` naming its index in the stack.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 3 or traces.shape[2] != 2 or traces.shape[1] < 8:
        raise ValueError(
            "Ramsey traces must be an (m, n >= 8, 2) stack of (tau, p_e) rows, "
            f"got shape {traces.shape}"
        )
    for column, name in ((0, "delays tau"), (1, "populations p_e")):
        if not np.all(np.isfinite(traces[:, :, column])):
            raise ValueError(f"Ramsey {name} must be finite")
    if np.any(np.diff(traces[:, :, 0], axis=1) <= 0):
        raise ValueError("Ramsey delays tau must be strictly increasing")
    tau = traces[:, :, 0]
    p = traces[:, :, 1]
    x0 = _ramsey_initial_guesses(tau, p)

    def residual(x, rows):
        return p[rows] - _ramsey_model(tau[rows], *x.T[:, :, None])

    def jacobian(x, rows):
        _, amplitude, frequency, gamma2, phase = x.T[:, :, None]
        t = tau[rows]
        arg = _TWO_PI * frequency * t + phase
        damp = np.exp(-_TWO_PI * gamma2 * t)
        cos_term = np.cos(arg) * damp
        sin_term = np.sin(arg) * damp
        return -np.stack(
            [
                np.ones_like(t),
                cos_term,
                -amplitude * _TWO_PI * t * sin_term,
                -amplitude * _TWO_PI * t * cos_term,
                -amplitude * sin_term,
            ],
            axis=2,
        )

    x, cov, converged, iterations = _damped_gauss_newton(residual, jacobian, x0)
    fitted = []
    for row in x:
        params = dict(zip(_RAMSEY_NAMES, (float(v) for v in row)))
        # canonicalize: positive amplitude, phase folded into (-pi, pi]
        if params["amplitude"] < 0:
            params["amplitude"] = -params["amplitude"]
            params["phase"] += math.pi
        params["phase"] = math.remainder(params["phase"], _TWO_PI)
        fitted.append(params)
    canonical = np.array([[params[name] for name in _RAMSEY_NAMES] for params in fitted])
    res = p - _ramsey_model(tau, *canonical.T[:, :, None])
    return [
        FitResult(
            params,
            cov[index],
            float(np.linalg.norm(res[index])),
            bool(converged[index]),
            int(iterations[index]),
        )
        for index, params in enumerate(fitted)
    ]


def fit_ramsey(trace: np.ndarray) -> FitResult:
    """Fit one (tau, p_e) trace: :func:`fit_ramsey_traces` on a stack of one."""
    return fit_ramsey_traces(np.asarray(trace, dtype=float)[None])[0]


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
    params = {name: float(b) for (name, _), b in zip(columns, beta)}
    return FitResult(params, cov, float(np.linalg.norm(residuals)), True, 1)
