"""End-to-end experiment pipelines.

Each function here reproduces one of the measurement campaigns at desk
scale: the variance comparison curves, Ramsey dephasing sweeps against
photon number for each field flavour, the dual-path temperature sweep with
moment reconstruction, the JPA-referred correlation table, the Planck
calibrations, and the quadrature/no-squeezing check.  Each returns a dict
of ``tables``, ``fits`` and ``summary`` of JSON-ready values, which the CLI
writes as they are: every leaf is a ``str``, ``int``, ``float``, ``bool``
or ``None`` (a ``np.float64`` is a float), inside dicts with string keys
and lists, never a numpy integer, numpy bool, array or tuple.  A table
is a list of rows, each a dict from column name to cell in column order,
so each column is named beside its value and every reader picks cells by
name; the CLI writes the first row's keys as the CSV header.  The summary
copies three fit numbers only, because ``benchmarks/workloads.py`` reads
them there: ``dualpath_sweep``'s ``rho`` and ``ramsey_sweep``'s
``slope_hz`` and ``slope_err_hz``; the report checks read the fit
entries.  The dual-path pipelines estimate each sweep point with
``dualpath._detect_point`` through this module's binding, which
instrumentation may patch.

Below each pipeline sits the private generator of its report checks,
which reads back what the pipeline wrote; ``CHECKS`` maps each name of
``EXPERIMENTS`` to it.  A check generator takes the manifest's
``config``, the ``fits`` and ``summary`` of ``fits.json`` and
``table(name)``, the columns of a run table by name as strings, and
yields ``(name, value, band, reference)``; ``mwphoton report`` turns each
into a pass/fail entry of ``report.json``.

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
from .chains import (
    amplify_commutator_free,
    compression_power,
    db_to_linear,
    g2_jpa_referred,
    g2_unnormalized,
    linear_to_db,
    watts_to_dbm,
)
from .defaults import (
    DETECTION_MODE,
    JPA_METADATA,
    JPA_OPERATING_POINTS,
    SAMPLE_SYSTEM,
)
from .dualpath import (
    ERROR_BATCHES,
    PLANCK_MIN_SPAN,
    PlanckSweep,
    _detect_point,
    jpa_planck_fit,
    jpa_planck_power,
    planck_fit,
    planck_power,
    saturation_power_for_t1db,
    simulate_detection,  # unused here; benchmarks/workloads.py probes it by this name
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
    "CHECKS",
    "EXPERIMENTS",
    "PipelineArgumentError",
    "variance_curves",
    "ramsey_sweep",
    "dualpath_sweep",
    "jpa_sweep",
    "planck_calibration",
    "quadrature_check",
]


class PipelineArgumentError(ValueError):
    """Pipeline arguments that the pipeline rejects before any work.

    ``arguments`` names them, each an argument or a dotted part of one
    (``system.qubit.anharmonicity``), and ``requirement`` says what they
    must meet; the message is the quoted names followed by the requirement.
    The CLI reports it as a configuration error naming the config fields
    that feed those arguments or parts; any other ``ValueError`` a pipeline
    raises comes from inside its computation.
    """

    def __init__(self, arguments: Tuple[str, ...], requirement: str):
        super().__init__(arguments, requirement)  # both in args, so a copy or pickle rebuilds it
        self.arguments = arguments
        self.requirement = requirement

    def __str__(self) -> str:
        return f"{' and '.join(map(repr, self.arguments))} {self.requirement}"


# ---------------------------------------------------------------------------
# variance_curves
# ---------------------------------------------------------------------------

def variance_curves(n_max: float = 10.0, n_points: int = 201) -> dict:
    """sqrt(Var(n)) versus n for thermal, classical-limit, and coherent fields."""
    rows = []
    for n in np.linspace(0.0, n_max, n_points):
        n = float(n)
        thermal = math.sqrt(photon_variance(StateKind.THERMAL, n))
        rows.append({"state": "thermal", "n": n, "sqrt_var": thermal})
        rows.append({"state": "classical_limit", "n": n, "sqrt_var": n})  # classical Var(n) = n^2
        coherent = math.sqrt(photon_variance(StateKind.COHERENT, n))
        rows.append({"state": "coherent", "n": n, "sqrt_var": coherent})
    return {
        "tables": {"variance_curves": rows},
        "fits": {},
        "summary": {},
    }


def _variance_curves_checks(config, fits, summary, table):
    table = table("variance_curves")
    state = np.array(table["state"])
    n = np.array(table["n"], dtype=float)
    sqrt_var = np.array(table["sqrt_var"], dtype=float)
    closed_forms = (
        ("thermal", np.sqrt(n * n + n)),
        ("classical_limit", n),
        ("coherent", np.sqrt(n)),
    )
    for name, model in closed_forms:
        rows = state == name
        deviation = np.abs(sqrt_var[rows] - model[rows])
        scale = np.where(model[rows] > 0, model[rows], 1.0)  # absolute at sqrt_var = 0
        yield (
            f"{name}_sqrt_var_closed_form",
            float(np.max(deviation / scale)) if rows.any() else math.nan,  # no rows fail
            (0.0, 1e-12),
            "largest relative deviation of any row from its closed form",
        )


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
            (arg,), f"must give at least {needed} points for the {model.value} fit, got {points}"
        )


def _require_error_blocks(count: int) -> None:
    """Reject a dual-path ``count`` too short to give every error block the 2 samples it needs."""
    if count < 2 * ERROR_BATCHES:
        raise PipelineArgumentError(("count",), f"must be at least {2 * ERROR_BATCHES}, got {count}")


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
    try:
        kind = StateKind(state)
    except ValueError:
        raise PipelineArgumentError(
            ("state",), f"must be one of {[k.value for k in StateKind]}, got {state!r}"
        ) from None
    if kind is StateKind.THERMAL:
        model, slope_name = VarianceLawModel.QUADRATIC_PLUS_LINEAR, "xi"
    else:
        model, slope_name = VarianceLawModel.LINEAR, "s"
    _require_fit_points("n_points", n_points, model)
    if not n_min < n_max:
        raise PipelineArgumentError(
            ("n_min", "n_max"), f"must be in increasing order, got {n_min!r} >= {n_max!r}"
        )
    try:
        _ = system.chi
    except ZeroDivisionError as exc:  # a qubit on resonance or at the straddling point
        raise PipelineArgumentError(
            ("system.qubit.max_frequency", "system.resonator.resonance_frequency", "system.qubit.anharmonicity"),
            f"must give a finite dispersive shift: {exc}",
        ) from None
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
        rows.append(
            {
                "n_r": n_r,
                "gamma2_hz": gamma2,
                "gamma2_err_hz": sigma2,
                "gamma_phi_n_hz": gphi,
                "gamma_phi_n_model_hz": truth,
                "fit_converged": int(fit.converged),
            }
        )
    # gamma1 and gamma_phi0 are known exactly, so gamma_phi_n has gamma2's error
    points = [(row["n_r"], row["gamma_phi_n_hz"]) for row in rows]
    errors = [row["gamma2_err_hz"] for row in rows]
    law = fit_variance_law(points, model, _fit_weights("n_r", grid, errors))
    return {
        "tables": {"dephasing_vs_n": rows},
        "fits": {"photon_statistics_law": law.to_json_dict()},
        "summary": {
            "slope_hz": law.parameters[slope_name],
            "slope_err_hz": law.std_error(slope_name),
            "expected_slope_hz": _rate_per_variance(kind, system),
        },
    }


def _ramsey_sweep_checks(config, fits, summary, table):
    law = fits["photon_statistics_law"]["parameters"]
    slope = law["xi" if config["state"] == StateKind.THERMAL.value else "s"]
    yield (
        "photon_statistics_slope_vs_model",
        slope / summary["expected_slope_hz"],
        (0.9, 1.1),
        "slope / (kappa_x theta0^2 scale) = 1",
    )
    if law.get("xi"):  # thermal runs only
        yield ("thermal_rho_over_xi", law["rho"] / law["xi"], (0.95, 1.05), "n^2 + n law: rho = xi")
    converged = np.array(table("dephasing_vs_n")["fit_converged"], dtype=float)
    yield (
        "ramsey_fits_converged",
        float(np.count_nonzero(converged != 1.0)),
        (0.0, 0.0),
        "number of points whose Ramsey fit did not converge",
    )


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
    _require_error_blocks(count)
    rows = []
    for index, temp in enumerate(temperatures):
        n_true = bose_einstein(mode, float(temp))
        point, errors = _detect_point(
            MicrowaveState.thermal(n_true), count, seed + 7919 * index, chain_noise_photons
        )
        rows.append(
            {
                "temperature_k": float(temp),
                "n_input": n_true,
                "n_reconstructed": point["n"],
                "n_err": errors["n"],
                "g2_tilde": point["g2"],
                "g2_tilde_err": errors["g2"],
                "g2_tilde_model": 2.0 * n_true * n_true,
            }
        )
    points = [(row["n_reconstructed"], row["g2_tilde"]) for row in rows]
    weights = _fit_weights("temperature", temperatures, [row["g2_tilde_err"] for row in rows])
    law = fit_variance_law(points, VarianceLawModel.PURE_QUADRATIC, weights)
    return {
        "tables": {"g2_vs_n": rows},
        "fits": {"g2_quadratic": law.to_json_dict()},
        "summary": {"rho": law.parameters["rho"]},
    }


def _dualpath_sweep_checks(config, fits, summary, table):
    rho = fits["g2_quadratic"]["parameters"]["rho"]
    yield ("g2_quadratic_rho", rho, (1.9, 2.1), "thermal g2 = 2 n^2; measured comparator rho = 2.07")


# ---------------------------------------------------------------------------
# jpa_sweep
# ---------------------------------------------------------------------------

def jpa_sweep(
    n_max: float = 1.5,
    n_points: int = 16,
    operating_point: str = "jpa2a",
) -> dict:
    """JPA-referred correlation table g2 - offset versus input photons.

    The amplifier is the tabulated operating point.  The table has three
    columns: ``n_jpa``, the strong-gain law for a thermal idler, and the
    finite-gain law for a commutator-free idler, each with its offset at
    n_jpa = 0 taken off.  The rho n^2 + xi n fit runs on the thermal
    column.  The summary's offsets are strong-gain closed forms: thermal
    2 (n_n + 1)^2, classical 2 (n_n + 1)^2 - n_n (the linear idler
    variance dropped) and commutator-free 2 n_n^2 + n_n.  The offset taken
    off the commutator-free column is its finite-gain value
    (1 - 1/G)^2 (2 n_n^2 + n_n).  The summary also carries the point's
    measured coefficients as comparators.
    """
    _require_fit_points("n_points", n_points, VarianceLawModel.QUADRATIC_PLUS_LINEAR)
    stage = JPA_OPERATING_POINTS[operating_point]
    meta = JPA_METADATA[operating_point]
    n_n = stage.added_noise_photons

    rows = []
    n_cf0, var_cf0 = amplify_commutator_free(0.0, stage.gain, n_n)
    off_cf = g2_unnormalized(n_cf0, var_cf0) / stage.gain ** 2
    for n_jpa in np.linspace(0.0, n_max, n_points):
        n_jpa = float(n_jpa)
        g2_q, off_q = g2_jpa_referred(n_jpa, stage)
        n_cf, var_cf = amplify_commutator_free(n_jpa, stage.gain, n_n)
        g2_cf = g2_unnormalized(n_cf, var_cf) / stage.gain ** 2
        rows.append(
            {
                "n_jpa": n_jpa,
                "g2_minus_offset_thermal": g2_q - off_q,
                "g2_minus_offset_commutator_free": g2_cf - off_cf,
            }
        )
    points = [(row["n_jpa"], row["g2_minus_offset_thermal"]) for row in rows]
    law = fit_variance_law(points, VarianceLawModel.QUADRATIC_PLUS_LINEAR)
    summary = {
        "n_n": n_n,
        "gain_db": stage.gain_db,
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
        "tables": {"g2_minus_offset": rows},
        "fits": {"g2_law": law.to_json_dict()},
        "summary": summary,
    }


def _jpa_sweep_checks(config, fits, summary, table):
    law = fits["g2_law"]["parameters"]
    yield ("rho", law["rho"], (2.0 - 1e-9, 2.0 + 1e-9), "rho = 2")
    xi_ref = summary["xi_thermal_model"]
    yield ("xi_vs_4_plus_4nn", law["xi"], (xi_ref - 1e-9, xi_ref + 1e-9), "xi = 4 + 4 n_n")
    yield (
        "classical_offset_below_thermal",
        summary["offset_thermal_model"] - summary["offset_classical_model"],
        (0.0, math.inf),
        "classical noise lowers the offset",
    )


# ---------------------------------------------------------------------------
# planck_calibration
# ---------------------------------------------------------------------------

def planck_calibration(
    t_min: float = 0.05,
    t_max: float = 1.5,
    n_temperatures: int = 30,
    mode: ModeSpec = DETECTION_MODE,
    bandwidth: float = 400e3,
    chain_gain_db: float = 145.0,
    chain_noise_temperature: float = 3.0,
    power_noise_fraction: float = 0.0,
    seed: int = 0,
) -> dict:
    """Synthetic Planck spectroscopy: generate sweeps, fit them back.

    The emitter is swept over ``n_temperatures`` evenly spaced temperatures
    from ``t_min`` to ``t_max`` (K).  The receiver's cryogenic-plus-room-
    temperature chain has a total gain of ``chain_gain_db``, a noise
    temperature of ``chain_noise_temperature`` (K) and a measurement
    bandwidth of ``bandwidth`` (Hz).  The chain sweep recovers the total
    gain and noise temperature; the sweeps of the JPA operating points
    (with a soft saturation placing the 1 dB compression at the tabulated
    temperature) are fitted whole in one :func:`jpa_planck_fit` call for
    the added photons, the compression temperature and power.
    """
    if t_min > 0 and t_max / t_min < PLANCK_MIN_SPAN:  # a t_min <= 0 meets the sweep's own check
        raise PipelineArgumentError(
            ("t_min", "t_max"), f"must span t_max / t_min >= {PLANCK_MIN_SPAN:g}, got {t_min!r} and {t_max!r}"
        )
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
        {"temperature_k": float(t), "power_w": float(p), "fitted_power_w": float(f)}
        for t, p, f in zip(temps, powers, cal.fitted_powers)
    ]

    jpa_sweeps, jpa_rows = [], []
    for name, stage in JPA_OPERATING_POINTS.items():
        device = (mode, bandwidth, stage.gain * chain_gain, stage.added_noise_photons)
        saturation = saturation_power_for_t1db(JPA_METADATA[name]["t_1db"], *device)
        jpa_powers = measured(jpa_planck_power(temps, *device, saturation))
        jpa_sweeps.append(PlanckSweep(temps, jpa_powers, mode, bandwidth))
        jpa_rows.extend(
            {"device": name, "temperature_k": float(t), "power_w": float(p)}
            for t, p in zip(temps, jpa_powers)
        )
    jpa_fits = {}
    for (name, stage), jcal in zip(JPA_OPERATING_POINTS.items(), jpa_planck_fit(jpa_sweeps)):
        meta = JPA_METADATA[name]
        p_1db = None if jcal.t_1db is None else compression_power(meta["kappa_x"], jcal.t_1db)
        jpa_fits[name] = {
            "jpa_gain_db": linear_to_db(jcal.total_gain / chain_gain),
            "n_n": jcal.added_photons,
            "n_n_true": stage.added_noise_photons,
            "t_1db": jcal.t_1db,
            "p_1db_dbm": None if p_1db is None else watts_to_dbm(p_1db),
        }
    return {
        "tables": {"chain_sweep": chain_rows, "jpa_sweeps": jpa_rows},
        "fits": {"jpa_calibrations": jpa_fits},
        "summary": {
            "chain_gain_db": cal.chain_gain_db,
            "chain_noise_temperature_k": cal.chain_noise_temperature,
        },
    }


def _planck_calibration_checks(config, fits, summary, table):
    yield (
        "chain_gain_recovery_db",
        abs(summary["chain_gain_db"] - config["chain_gain_db"]),
        (0.0, 0.09),
        "recovered within 2% (0.09 dB)",
    )
    ratio = summary["chain_noise_temperature_k"] / config["t_chain_k"]
    yield ("chain_noise_temperature_recovery", ratio, (0.98, 1.02), None)
    for name, cal in fits["jpa_calibrations"].items():
        yield (f"{name}_n_n_recovery", cal["n_n"] / cal["n_n_true"], (0.95, 1.05), "added photons within 5%")


# ---------------------------------------------------------------------------
# quadrature_check
# ---------------------------------------------------------------------------

def quadrature_check(
    occupations: Sequence[float] = (0.1, 1.0),
    count: int = 400_000,
    seed: int = 0,
) -> dict:
    """Reconstructed quadrature variances of thermal states beside their model n/2 + 1/4."""
    _require_error_blocks(count)
    rows = []
    for index, n in enumerate(occupations):
        n = float(n)
        point, errors = _detect_point(MicrowaveState.thermal(n), count, seed + 104729 * index)
        rows.append(
            {
                "n": n,
                "var_p": point["var_p"],
                "var_p_err": errors["var_p"],
                "var_q": point["var_q"],
                "var_q_err": errors["var_q"],
                "var_model": n / 2.0 + 0.25,
            }
        )
    return {
        "tables": {"quadratures": rows},
        "fits": {},
        "summary": {},
    }


#: Width, in standard errors, of the quadrature-variance report checks.
_QUADRATURE_K_SIGMA = 5.0


def _quadrature_check_checks(config, fits, summary, table):
    k = _QUADRATURE_K_SIGMA
    table = table("quadratures")
    for row, n in enumerate(table["n"]):
        model = float(n) / 2.0 + 0.25
        for quad in ("var_p", "var_q"):
            err = float(table[f"{quad}_err"][row])
            pull = (float(table[quad][row]) - model) / err if err > 0 else math.inf
            yield (
                f"{quad}_at_n_{n}",
                pull,
                (-k, k),
                f"({quad} - (n/2 + 1/4)) / {quad}_err within {k:g} sigma",
            )


EXPERIMENTS = {
    "variance_curves": variance_curves,
    "ramsey_sweep": ramsey_sweep,
    "dualpath_sweep": dualpath_sweep,
    "jpa_sweep": jpa_sweep,
    "planck_calibration": planck_calibration,
    "quadrature_check": quadrature_check,
}

CHECKS = {
    "variance_curves": _variance_curves_checks,
    "ramsey_sweep": _ramsey_sweep_checks,
    "dualpath_sweep": _dualpath_sweep_checks,
    "jpa_sweep": _jpa_sweep_checks,
    "planck_calibration": _planck_calibration_checks,
    "quadrature_check": _quadrature_check_checks,
}
