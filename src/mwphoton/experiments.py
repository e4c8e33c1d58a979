"""End-to-end experiment pipelines.

Each function here reproduces one of the measurement campaigns at desk
scale: the variance comparison curves, Ramsey dephasing sweeps against
photon number for each field flavour, the dual-path temperature sweep with
moment reconstruction, the JPA-referred correlation table, the Planck
calibrations, and the quadrature/no-squeezing check.  They return plain
dictionaries (tables, fit summaries, headline numbers) so the CLI can
serialize them and the demos can pick out what they need.

Everything is deterministic given the seed in the configuration.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    VarianceLawModel,
    dephasing_uncertainty,
    extract_dephasing,
    fit_ramsey,
    fit_variance_law,
)
from .chains import (
    JpaStage,
    NoiseStatistics,
    amplify_commutator_free,
    g2_jpa_referred,
    g2_unnormalized,
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
    _moments_from_products,
    _product_block_sums,
    jpa_planck_fit,
    jpa_planck_power,
    planck_fit,
    planck_power,
    quadrature_variances,
    saturation_power_for_t1db,
    simulate_detection,
    wigner_gaussian_contour,
)
from .qubit import DispersiveSystem, dephasing_rate, simulate_ramsey
from .states import (
    MicrowaveState,
    ModeSpec,
    StateKind,
    bose_einstein,
    effective_temperature,
    moment_keys,
    photon_variance,
)

__all__ = [
    "EXPERIMENTS",
    "variance_curves",
    "ramsey_sweep",
    "dualpath_sweep",
    "jpa_sweep",
    "planck_calibration",
    "quadrature_check",
    "run_experiment",
    "PLANCK_TEMPERATURE_GRID",
]

#: Default temperature grid of :func:`planck_calibration`, as the
#: ``np.linspace`` arguments (first K, last K, count).
PLANCK_TEMPERATURE_GRID = (0.05, 1.5, 30)


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
        "experiment": "variance_curves",
        "tables": {
            "variance_curves": {"columns": ["state", "n", "sqrt_var"], "rows": rows}
        },
        "fits": {},
        "summary": {"n_max": n_max, "n_points": n_points},
    }


# ---------------------------------------------------------------------------
# ramsey_sweep
# ---------------------------------------------------------------------------

def _ramsey_point(
    sys: DispersiveSystem,
    kind: StateKind,
    n_r: float,
    shots: int,
    seed: int,
    tau_points: int,
    decay_spans: float,
):
    """Simulate and fit one Ramsey trace; returns (gamma2, sigma, fit)."""
    gamma2_pred = (
        sys.qubit.relaxation_rate(kind, n_r) / 2.0
        + sys.qubit.intrinsic_dephasing
        + dephasing_rate(kind, n_r, sys)
    )
    tau_max = decay_spans / (2.0 * math.pi * gamma2_pred)
    taus = np.linspace(tau_max / tau_points, tau_max, tau_points)
    trace = simulate_ramsey(sys, kind, n_r, taus, shots=shots, seed=seed)
    fit = fit_ramsey(trace)
    return fit.parameters["gamma2"], fit.std_error("gamma2"), fit


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
    noise, fitted with the decaying-sinusoid model, and corrected for
    relaxation and intrinsic dephasing; the resulting gamma_phi_n(n) points
    are fitted with the photon-statistics law of the field (quadratic plus
    linear for thermal, linear for coherent and shot noise).
    """
    kind = StateKind(state)
    if kind is StateKind.VACUUM:
        raise ValueError("a photon-number sweep needs a non-vacuum field")
    grid = np.geomspace(n_min, n_max, n_points)
    rows = []
    extracted = []
    sigmas = []
    for index, n_r in enumerate(grid):
        n_r = float(n_r)
        gamma2, sigma2, fit = _ramsey_point(
            system, kind, n_r, shots, seed + 1000 * index, tau_points, decay_spans
        )
        gamma1 = system.qubit.relaxation_rate(kind, n_r)
        gphi = extract_dephasing(gamma2, gamma1, system.qubit.intrinsic_dephasing)
        sigma_phi = dephasing_uncertainty(sigma2)
        truth = dephasing_rate(kind, n_r, system)
        rows.append([n_r, gamma2, sigma2, gphi, sigma_phi, truth, int(fit.converged)])
        extracted.append((n_r, gphi))
        sigmas.append(sigma_phi)
    points = np.asarray(extracted)
    weights = 1.0 / np.asarray(sigmas) ** 2
    if kind is StateKind.THERMAL:
        law = fit_variance_law(points, VarianceLawModel.QUADRATIC_PLUS_LINEAR, weights)
        slope_name = "xi"
    else:
        law = fit_variance_law(points, VarianceLawModel.LINEAR, weights)
        slope_name = "s"
    scale = system.resonator.external_rate * system.theta0 ** 2
    expected_slope = 2.0 * scale if kind is StateKind.COHERENT else scale
    return {
        "experiment": "ramsey_sweep",
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
            "expected_slope_hz": expected_slope,
            "kappa_theta0_sq_hz": scale,
            "shots": shots,
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# dualpath_sweep
# ---------------------------------------------------------------------------

def _point_values(moments) -> Dict[str, float]:
    """Photon number, unnormalized g2 and quadrature variances of one estimate."""
    n = moments.entry(1, 1).real
    fourth = moments.entry(2, 2).real
    variance = fourth + n - n * n
    point = {"n": n, "g2": g2_unnormalized(max(n, 0.0), max(variance, 0.0))}
    point["var_p"], point["var_q"] = quadrature_variances(moments)
    return point


def _reconstruct_with_errors(record, gains):
    """Full-record reconstruction plus block-scatter standard errors.

    One pass over the record yields the block sums of the cross-path
    products; the full estimate inverts their compensated total and each
    block of at least 2 samples inverts its own mean.
    """
    blocks = _product_block_sums(record)
    count = record.sample_count
    full = {
        key: complex(
            math.fsum(sums[key].real for _, sums in blocks),
            math.fsum(sums[key].imag for _, sums in blocks),
        )
        / count
        for key in moment_keys()
    }
    moments = _moments_from_products(full, gains, 0.0, count)
    block_values = {"n": [], "g2": [], "var_p": [], "var_q": []}
    for size, sums in blocks:
        if size < 2:
            continue
        means = {key: value / size for key, value in sums.items()}
        for key, value in _point_values(_moments_from_products(means, gains, 0.0, size)).items():
            block_values[key].append(value)
    errors = {
        key: float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        for key, vals in block_values.items()
    }
    return moments, _point_values(moments), errors


def _detect_point(state, count, seed, chain_noise_photons=(0.0, 0.0), gains=(1.0, 1.0)):
    """Point values and block errors of one simulated sweep point.

    The record lives only inside this call, so a sweep holds one record at
    a time.
    """
    record = simulate_detection(
        state, chain_noise_photons=chain_noise_photons, gains=gains, count=count, seed=seed
    )
    _, point, errors = _reconstruct_with_errors(record, record.chain_gains)
    return point, errors


def dualpath_sweep(
    temperatures: Optional[Sequence[float]] = None,
    count: int = 1_000_000,
    chain_noise_photons: Tuple[float, float] = (1.0, 1.0),
    gains: Tuple[float, float] = (1.0, 1.0),
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
    rows = []
    g2_points = []
    g2_weights = []
    for index, temp in enumerate(temperatures):
        n_true = bose_einstein(mode, float(temp))
        point, errors = _detect_point(
            MicrowaveState.thermal(n_true), count, seed + 7919 * index, chain_noise_photons, gains
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
        g2_points.append((point["n"], point["g2"]))
        g2_weights.append(1.0 / max(errors["g2"], 1e-12) ** 2)
    law = fit_variance_law(
        np.asarray(g2_points), VarianceLawModel.PURE_QUADRATIC, np.asarray(g2_weights)
    )
    return {
        "experiment": "dualpath_sweep",
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
    noise_statistics: str = "thermal",
    n_n: float = 0.66,
    gain_db: float = 15.8,
    n_max: float = 1.5,
    n_points: int = 16,
    operating_point: Optional[str] = None,
) -> dict:
    """JPA-referred correlation table g2 - offset versus input photons.

    Emits the strong-gain law for the requested noise statistics next to
    the two alternative noise conventions (classical variance and
    commutator-free idler) so the offset/xi sensitivity to the noise model
    is explicit.  The rho n^2 + xi n fit runs on the requested variant.
    """
    stats = {
        "thermal": NoiseStatistics.QUANTUM_THERMAL,
        "quantum_thermal": NoiseStatistics.QUANTUM_THERMAL,
        "classical": NoiseStatistics.CLASSICAL,
    }[noise_statistics]
    meta = {}
    if operating_point is not None:
        stage = JPA_OPERATING_POINTS[operating_point]
        stage = JpaStage(stage.gain, stage.added_noise_photons, stats)
        meta = JPA_METADATA[operating_point]
        n_n = stage.added_noise_photons
        gain_db = stage.gain_db
    else:
        stage = JpaStage.from_db(gain_db, n_n, stats)
    quantum_stage = JpaStage(stage.gain, n_n, NoiseStatistics.QUANTUM_THERMAL)
    classical_stage = JpaStage(stage.gain, n_n, NoiseStatistics.CLASSICAL)

    rows = []
    fit_points = []
    n_cf0, var_cf0 = amplify_commutator_free(0.0, stage.gain, n_n)
    off_cf = g2_unnormalized(n_cf0, var_cf0) / stage.gain ** 2
    for n_jpa in np.linspace(0.0, n_max, n_points):
        n_jpa = float(n_jpa)
        g2_q, off_q = g2_jpa_referred(n_jpa, quantum_stage)
        g2_c, off_c = g2_jpa_referred(n_jpa, classical_stage)
        n_cf, var_cf = amplify_commutator_free(n_jpa, stage.gain, n_n)
        g2_cf = g2_unnormalized(n_cf, var_cf) / stage.gain ** 2
        rows.append([n_jpa, g2_q - off_q, g2_c - off_c, g2_cf - off_cf, off_q, off_c, off_cf])
        selected = (g2_c - off_c) if stats is NoiseStatistics.CLASSICAL else (g2_q - off_q)
        fit_points.append((n_jpa, selected))
    law = fit_variance_law(np.asarray(fit_points), VarianceLawModel.QUADRATIC_PLUS_LINEAR)
    summary = {
        "noise_statistics": stats.value,
        "n_n": n_n,
        "gain_db": gain_db,
        "rho": law.parameters["rho"],
        "xi": law.parameters["xi"],
        "xi_thermal_model": 4.0 + 4.0 * n_n,
        "xi_commutator_free": 4.0 * n_n + 1.0,
        "offset_thermal_model": 2.0 * (n_n + 1.0) ** 2,
        "offset_classical_model": 2.0 * (n_n + 1.0) ** 2 - n_n,
        "offset_commutator_free": 2.0 * n_n * n_n + n_n,
    }
    if meta:
        summary["measured_xi"] = meta["measured_xi"]
        summary["measured_offset"] = meta["measured_offset"]
        summary["measured_rho"] = meta["measured_rho"]
    return {
        "experiment": "jpa_sweep",
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
    temperatures: Optional[Sequence[float]] = None,
    mode: ModeSpec = DETECTION_MODE,
    bandwidth: float = SAMPLE_CHAIN.bandwidth,
    chain_gain_db: float = 145.0,
    chain_noise_temperature: float = 3.0,
    power_noise_fraction: float = 0.0,
    seed: int = 0,
    jpa_points: Optional[Dict[str, JpaStage]] = None,
) -> dict:
    """Synthetic Planck spectroscopy: generate sweeps, fit them back.

    The chain sweep recovers the total gain and noise temperature; each
    JPA sweep (with a soft saturation placing the 1 dB compression at the
    tabulated temperature) recovers the added photons, the compression
    temperature, and the compression power.
    """
    if temperatures is None:
        temperatures = np.linspace(*PLANCK_TEMPERATURE_GRID)
    temps = np.asarray(temperatures, dtype=float)
    chain_gain = 10.0 ** (chain_gain_db / 10.0)
    rng = np.random.default_rng(seed)
    powers = planck_power(temps, mode, bandwidth, chain_gain, chain_noise_temperature)
    if power_noise_fraction > 0:
        powers = powers * (1.0 + power_noise_fraction * rng.standard_normal(temps.size))
    sweep = PlanckSweep(temps, powers, mode, bandwidth)
    cal = planck_fit(sweep)
    chain_rows = [
        [float(t), float(p), float(f)] for t, p, f in zip(temps, powers, cal.fitted_powers)
    ]

    if jpa_points is None:
        jpa_points = JPA_OPERATING_POINTS
    jpa_rows = []
    jpa_fits = {}
    for name, stage in jpa_points.items():
        meta = JPA_METADATA.get(name, {})
        t_1db_true = meta.get("t_1db")
        saturation = (
            saturation_power_for_t1db(
                t_1db_true, mode, bandwidth, stage.gain, stage.added_noise_photons, chain_gain
            )
            if t_1db_true
            else None
        )
        jpa_powers = jpa_planck_power(
            temps, mode, bandwidth, stage.gain, stage.added_noise_photons, chain_gain, saturation
        )
        if power_noise_fraction > 0:
            jpa_powers = jpa_powers * (
                1.0 + power_noise_fraction * rng.standard_normal(temps.size)
            )
        jpa_sweep_data = PlanckSweep(temps, jpa_powers, mode, bandwidth)
        jcal = jpa_planck_fit(
            jpa_sweep_data, 0.2, reference_chain_gain=chain_gain, kappa_x=meta.get("kappa_x")
        )
        jpa_fits[name] = {
            "jpa_gain_db": jcal.jpa_gain_db,
            "n_n": jcal.added_photons,
            "n_n_true": stage.added_noise_photons,
            "t_1db": jcal.t_1db,
            "p_1db_dbm": None if jcal.p_1db is None else jcal.p_1db.dbm,
        }
        for t, p in zip(temps, jpa_powers):
            jpa_rows.append([name, float(t), float(p)])
    return {
        "experiment": "planck_calibration",
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
        "experiment": "quadrature_check",
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
    result = runner(**kwargs)
    result["package_version"] = __version__
    return result
