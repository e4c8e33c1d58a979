"""End-to-end experiment pipelines.

Each function here reproduces one of the measurement campaigns at desk
scale: the variance comparison curves, Ramsey dephasing sweeps against
photon number for each field flavour, the dual-path temperature sweep with
moment reconstruction, the JPA-referred correlation table, the Planck
calibrations, and the quadrature/no-squeezing check.  They return plain
dictionaries (tables, fit summaries, headline numbers) so the CLI can
serialize them and the demos can pick out what they need.  The dual-path
pipelines estimate each sweep point with ``dualpath._detect_point``
through this module's binding, which instrumentation may patch.

Everything is deterministic given the seed in the configuration.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .analysis import (
    NumericalError,
    VarianceLawModel,
    _points_needed,
    extract_dephasing,
    fit_ramsey_traces,
    fit_variance_law,
)
from .cavity import dephasing_gaussian
from .chains import (
    JpaStage,
    NoiseStatistics,
    amplify_commutator_free,
    compression_power,
    db_to_linear,
    g2_jpa_referred,
    g2_unnormalized,
    linear_to_db,
)
from .defaults import (
    DETECTION_MODE,
    JPA_METADATA,
    JPA_OPERATING_POINTS,
    SAMPLE_CHAIN,
    SAMPLE_SYSTEM,
)
from .dualpath import (
    PlanckSweep,
    _detect_point,
    jpa_planck_fit,
    jpa_planck_power,
    planck_fit,
    planck_power,
    saturation_power_for_t1db,
    simulate_detection,  # unused here; benchmarks/workloads.py probes it by this name
    wigner_gaussian_contour,
)
from .qubit import DispersiveSystem, _rate_per_variance, dephasing_rate, simulate_ramsey
from .states import (
    MicrowaveState,
    ModeSpec,
    StateKind,
    bose_einstein,
    effective_temperature,
    photon_variance,
)

__all__ = [
    "EXPERIMENTS",
    "PipelineArgumentError",
    "variance_curves",
    "ramsey_sweep",
    "dualpath_sweep",
    "jpa_sweep",
    "planck_calibration",
    "quadrature_check",
    "run_experiment",
]


class PipelineArgumentError(ValueError):
    """A pipeline argument, named in the message, that the pipeline rejects before any work.

    The CLI reports it as a configuration error; any other ``ValueError`` a
    pipeline raises comes from inside its computation.
    """


# ---------------------------------------------------------------------------
# variance_curves
# ---------------------------------------------------------------------------

def variance_curves(n_max: float = 10.0, n_points: int = 201) -> dict:
    """sqrt(Var(n)) versus n for thermal, classical-limit, and coherent fields."""
    rows = []
    for n in np.linspace(0.0, n_max, n_points):
        n = float(n)
        thermal = MicrowaveState.thermal(n)
        rows.append(["thermal", n, math.sqrt(photon_variance(thermal))])
        rows.append(["classical_limit", n, math.sqrt(photon_variance(thermal, classical_limit=True))])
        rows.append(["coherent", n, math.sqrt(n)])
    return {
        "tables": {
            "variance_curves": {"columns": ["state", "n", "sqrt_var"], "rows": rows}
        },
        "fits": {},
        "summary": {"n_max": n_max, "n_points": n_points},
    }


# ---------------------------------------------------------------------------
# ramsey_sweep
# ---------------------------------------------------------------------------

def _fit_weights(name: str, points: Sequence[float], errors: Sequence[float]) -> np.ndarray:
    """Law-fit weights 1/sigma^2; NumericalError names the first ``name`` whose sigma is not > 0."""
    errors = np.asarray(errors, dtype=float)
    for point, error in zip(points, errors):
        if not 0 < error < math.inf:  # a runaway fit can report sigma = 0
            raise NumericalError(
                f"{name} = {float(point)!r}: standard error {error:g} cannot weight the law fit"
            )
    return 1.0 / errors ** 2


def _require_fit_points(arg: str, points: int, model: VarianceLawModel) -> None:
    """Reject a sweep too short for its photon-statistics fit, naming the argument ``arg``."""
    needed = _points_needed(model)
    if points < needed:
        raise PipelineArgumentError(
            f"{arg!r} must give at least {needed} points for the {model.value} fit, got {points}"
        )


def ramsey_sweep(
    state: str = "thermal",
    n_points: int = 12,
    n_min: float = 0.05,
    n_max: float = 1.5,
    shots: int = 10_000,
    seed: int = 0,
    system: DispersiveSystem = SAMPLE_SYSTEM,
    tau_points: int = 161,
    decay_spans: float = 3.0,
) -> dict:
    """Dephasing rate versus photon number from simulated Ramsey fringes.

    For each photon number the Ramsey trace is simulated with binomial shot
    noise.  All traces are fitted with the decaying-sinusoid model in one
    lockstep solve, and each decay rate is corrected for relaxation and
    intrinsic dephasing; the resulting gamma_phi_n(n) points are fitted
    with the photon-statistics law of the field (quadratic plus linear for
    thermal, linear for coherent and shot noise).
    """
    kind = StateKind(state)
    if kind is StateKind.VACUUM:
        raise PipelineArgumentError("'state' must be a non-vacuum field for a photon-number sweep")
    if kind is StateKind.THERMAL:
        model, slope_name = VarianceLawModel.QUADRATIC_PLUS_LINEAR, "xi"
    else:
        model, slope_name = VarianceLawModel.LINEAR, "s"
    _require_fit_points("n_points", n_points, model)
    if not n_min < n_max:
        raise PipelineArgumentError(f"'n_min' must be below 'n_max', got {n_min!r} >= {n_max!r}")
    grid = [float(n_r) for n_r in np.geomspace(n_min, n_max, n_points)]
    gamma1s, truths, traces = [], [], []
    for index, n_r in enumerate(grid):
        gamma1 = system.qubit.relaxation_rate(kind, n_r)
        truth = dephasing_rate(kind, n_r, system)
        # span ``decay_spans`` predicted decay times with the trace
        gamma2_pred = gamma1 / 2.0 + system.qubit.intrinsic_dephasing + truth
        tau_max = decay_spans / (2.0 * math.pi * gamma2_pred)
        taus = np.linspace(tau_max / tau_points, tau_max, tau_points)
        gamma1s.append(gamma1)
        truths.append(truth)
        traces.append(
            simulate_ramsey(system, kind, n_r, taus, shots=shots, seed=seed + 1000 * index)
        )
    # every trace in one lockstep fit; the rates are then read point by
    # point, so extraction warnings come in sweep order
    fits = fit_ramsey_traces(np.stack(traces))
    rows = []
    for n_r, gamma1, truth, fit in zip(grid, gamma1s, truths, fits):
        gamma2, sigma2 = fit.parameters["gamma2"], fit.std_error("gamma2")
        gphi = extract_dephasing(gamma2, gamma1, system.qubit.intrinsic_dephasing)
        # gamma1 and gamma_phi0 are known exactly, so gamma_phi_n has gamma2's error
        rows.append([n_r, gamma2, sigma2, gphi, sigma2, truth, int(fit.converged)])
    table = np.asarray(rows)
    law = fit_variance_law(table[:, [0, 3]], model, _fit_weights("n_r", grid, table[:, 4]))
    return {
        "tables": {
            "dephasing_vs_n": {
                "columns": [
                    "n_r",
                    "gamma2_hz",
                    "gamma2_err_hz",
                    "gamma_phi_n_hz",
                    "gamma_phi_n_err_hz",
                    "gamma_phi_n_model_hz",
                    "fit_converged",
                ],
                "rows": rows,
            }
        },
        "fits": {"photon_statistics_law": law.to_json_dict()},
        "summary": {
            "state": state,
            "slope_hz": law.parameters[slope_name],
            "slope_err_hz": law.std_error(slope_name),
            "expected_slope_hz": _rate_per_variance(kind, system),
            "kappa_theta0_sq_hz": dephasing_gaussian(1.0, system.resonator, system.theta0),
            "shots": shots,
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# dualpath_sweep
# ---------------------------------------------------------------------------

def dualpath_sweep(
    temperatures: Optional[Sequence[float]] = None,
    count: int = 1_000_000,
    chain_noise_photons: Tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
    mode: ModeSpec = DETECTION_MODE,
) -> dict:
    """Thermal temperature sweep through the simulated dual-path receiver.

    Per temperature the input occupation follows the Bose-Einstein law;
    the detection record is reconstructed into signal moments, and the
    unnormalized g2 versus the reconstructed photon number is fitted with
    rho n^2.
    """
    if temperatures is None:
        temperatures = [
            float(effective_temperature(mode, n)) for n in np.geomspace(0.1, 1.5, 10)
        ]
    _require_fit_points("temperatures", len(temperatures), VarianceLawModel.PURE_QUADRATIC)
    rows = []
    for index, temp in enumerate(temperatures):
        n_true = bose_einstein(mode, float(temp))
        point, errors = _detect_point(
            MicrowaveState.thermal(n_true), count, seed + 7919 * index, chain_noise_photons
        )
        rows.append(
            [
                float(temp),
                n_true,
                point["n"],
                errors["n"],
                point["g2"],
                errors["g2"],
                2.0 * n_true * n_true,
            ]
        )
    table = np.asarray(rows)
    weights = _fit_weights("temperature", table[:, 0], table[:, 5])
    law = fit_variance_law(table[:, [2, 4]], VarianceLawModel.PURE_QUADRATIC, weights)
    return {
        "tables": {
            "g2_vs_n": {
                "columns": [
                    "temperature_k",
                    "n_input",
                    "n_reconstructed",
                    "n_err",
                    "g2_tilde",
                    "g2_tilde_err",
                    "g2_tilde_model",
                ],
                "rows": rows,
            }
        },
        "fits": {"g2_quadratic": law.to_json_dict()},
        "summary": {
            "rho": law.parameters["rho"],
            "rho_err": law.std_error("rho"),
            "count_per_point": count,
            "chain_noise_photons": list(chain_noise_photons),
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# jpa_sweep
# ---------------------------------------------------------------------------

def jpa_sweep(
    n_max: float = 1.5,
    n_points: int = 16,
    operating_point: str = "jpa2a",
) -> dict:
    """JPA-referred correlation table g2 - offset versus input photons.

    The amplifier is the tabulated operating point.  Emits the strong-gain
    law for thermal amplifier noise next to the two alternative noise
    conventions (classical variance and commutator-free idler) so the
    offset/xi sensitivity to the noise model is explicit.  The
    rho n^2 + xi n fit runs on the thermal column; the summary carries
    the point's measured coefficients as comparators.
    """
    _require_fit_points("n_points", n_points, VarianceLawModel.QUADRATIC_PLUS_LINEAR)
    stage = JPA_OPERATING_POINTS[operating_point]
    meta = JPA_METADATA[operating_point]
    n_n = stage.added_noise_photons
    classical_stage = JpaStage(stage.gain, n_n, NoiseStatistics.CLASSICAL)

    rows = []
    n_cf0, var_cf0 = amplify_commutator_free(0.0, stage.gain, n_n)
    off_cf = g2_unnormalized(n_cf0, var_cf0) / stage.gain ** 2
    for n_jpa in np.linspace(0.0, n_max, n_points):
        n_jpa = float(n_jpa)
        g2_q, off_q = g2_jpa_referred(n_jpa, stage)
        g2_c, off_c = g2_jpa_referred(n_jpa, classical_stage)
        n_cf, var_cf = amplify_commutator_free(n_jpa, stage.gain, n_n)
        g2_cf = g2_unnormalized(n_cf, var_cf) / stage.gain ** 2
        rows.append([n_jpa, g2_q - off_q, g2_c - off_c, g2_cf - off_cf, off_q, off_c, off_cf])
    law = fit_variance_law(np.asarray(rows)[:, :2], VarianceLawModel.QUADRATIC_PLUS_LINEAR)
    summary = {
        "n_n": n_n,
        "gain_db": stage.gain_db,
        "rho": law.parameters["rho"],
        "xi": law.parameters["xi"],
        "xi_thermal_model": 4.0 + 4.0 * n_n,
        "xi_commutator_free": 4.0 * n_n + 1.0,
        "offset_thermal_model": 2.0 * (n_n + 1.0) ** 2,
        "offset_classical_model": 2.0 * (n_n + 1.0) ** 2 - n_n,
        "offset_commutator_free": 2.0 * n_n * n_n + n_n,
        "measured_xi": meta["measured_xi"],
        "measured_offset": meta["measured_offset"],
        "measured_rho": meta["measured_rho"],
    }
    return {
        "tables": {
            "g2_minus_offset": {
                "columns": [
                    "n_jpa",
                    "g2_minus_offset_thermal",
                    "g2_minus_offset_classical",
                    "g2_minus_offset_commutator_free",
                    "offset_thermal",
                    "offset_classical",
                    "offset_commutator_free",
                ],
                "rows": rows,
            }
        },
        "fits": {"g2_law": law.to_json_dict()},
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# planck_calibration
# ---------------------------------------------------------------------------

def planck_calibration(
    t_min: float = 0.05,
    t_max: float = 1.5,
    n_temperatures: int = 30,
    mode: ModeSpec = DETECTION_MODE,
    bandwidth: float = SAMPLE_CHAIN.bandwidth,
    chain_gain_db: float = SAMPLE_CHAIN.gain_db,
    chain_noise_temperature: float = SAMPLE_CHAIN.noise_temperature,
    power_noise_fraction: float = 0.0,
    seed: int = 0,
) -> dict:
    """Synthetic Planck spectroscopy: generate sweeps, fit them back.

    The emitter is swept over ``n_temperatures`` evenly spaced temperatures
    from ``t_min`` to ``t_max`` (K).  The chain sweep recovers the total
    gain and noise temperature; the sweeps of the JPA operating points
    (with a soft saturation placing the 1 dB compression at the tabulated
    temperature) are fitted whole in one :func:`jpa_planck_fit` call for
    the added photons, the compression temperature and power.
    """
    temps = np.linspace(t_min, t_max, n_temperatures)
    chain_gain = db_to_linear(chain_gain_db)
    rng = np.random.default_rng(seed)

    def measured(powers):
        if power_noise_fraction > 0:
            powers = powers * (1.0 + power_noise_fraction * rng.standard_normal(temps.size))
        return powers

    powers = measured(planck_power(temps, mode, bandwidth, chain_gain, chain_noise_temperature))
    cal = planck_fit(PlanckSweep(temps, powers, mode, bandwidth))
    chain_rows = [
        [float(t), float(p), float(f)] for t, p, f in zip(temps, powers, cal.fitted_powers)
    ]

    jpa_sweeps, jpa_rows = [], []
    for name, stage in JPA_OPERATING_POINTS.items():
        device = (mode, bandwidth, stage.gain, stage.added_noise_photons, chain_gain)
        saturation = saturation_power_for_t1db(JPA_METADATA[name]["t_1db"], *device)
        jpa_powers = measured(jpa_planck_power(temps, *device, saturation))
        jpa_sweeps.append(PlanckSweep(temps, jpa_powers, mode, bandwidth))
        jpa_rows.extend([name, float(t), float(p)] for t, p in zip(temps, jpa_powers))
    jpa_fits = {}
    for (name, stage), jcal in zip(JPA_OPERATING_POINTS.items(), jpa_planck_fit(jpa_sweeps)):
        meta = JPA_METADATA[name]
        p_1db = None if jcal.t_1db is None else compression_power(meta["kappa_x"], jcal.t_1db)
        jpa_fits[name] = {
            "jpa_gain_db": linear_to_db(jcal.total_gain / chain_gain),
            "n_n": jcal.added_photons,
            "n_n_true": stage.added_noise_photons,
            "t_1db": jcal.t_1db,
            "p_1db_dbm": None if p_1db is None else p_1db.dbm,
        }
    return {
        "tables": {
            "chain_sweep": {
                "columns": ["temperature_k", "power_w", "fitted_power_w"],
                "rows": chain_rows,
            },
            "jpa_sweeps": {
                "columns": ["device", "temperature_k", "power_w"],
                "rows": jpa_rows,
            },
        },
        "fits": {"jpa_calibrations": jpa_fits},
        "summary": {
            "chain_gain_db": cal.chain_gain_db,
            "chain_gain_db_true": chain_gain_db,
            "chain_noise_temperature_k": cal.chain_noise_temperature,
            "chain_noise_temperature_true_k": chain_noise_temperature,
            "power_noise_fraction": power_noise_fraction,
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# quadrature_check
# ---------------------------------------------------------------------------

def quadrature_check(
    occupations: Sequence[float] = (0.1, 1.0),
    count: int = 400_000,
    seed: int = 0,
) -> dict:
    """Reconstructed quadrature variances and Wigner contours for thermal states."""
    rows = []
    for index, n in enumerate(occupations):
        n = float(n)
        point, errors = _detect_point(MicrowaveState.thermal(n), count, seed + 104729 * index)
        rows.append(
            [
                n,
                point["var_p"],
                errors["var_p"],
                point["var_q"],
                errors["var_q"],
                n / 2.0 + 0.25,
                wigner_gaussian_contour(n),
                wigner_gaussian_contour(n) / wigner_gaussian_contour(0.0),
                math.sqrt(2.0 * n + 1.0),
            ]
        )
    return {
        "tables": {
            "quadratures": {
                "columns": [
                    "n",
                    "var_p",
                    "var_p_err",
                    "var_q",
                    "var_q_err",
                    "var_model",
                    "contour_radius",
                    "contour_ratio_to_vacuum",
                    "contour_ratio_model",
                ],
                "rows": rows,
            }
        },
        "fits": {},
        "summary": {"count_per_point": count, "seed": seed},
    }


EXPERIMENTS = {
    "variance_curves": variance_curves,
    "ramsey_sweep": ramsey_sweep,
    "dualpath_sweep": dualpath_sweep,
    "jpa_sweep": jpa_sweep,
    "planck_calibration": planck_calibration,
    "quadrature_check": quadrature_check,
}


def run_experiment(name: str, **kwargs) -> dict:
    """Dispatch to one of the named experiment pipelines."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose one of {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
