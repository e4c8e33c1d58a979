"""Command-line experiment runner and report generator.

Subcommands:

* ``run <experiment>``: execute one of the experiment pipelines and write
  plot-ready CSV tables, a ``fits.json`` with all fit results, and a
  ``manifest.json`` holding the fully resolved configuration, seed, and
  package version (enough to reproduce a run bit-identically).
* ``report <run_dir>``: consolidate a completed run into a machine-readable
  summary with pass/fail checks against the reference expectations, plus a
  human-readable table on stdout.
* ``schema``: emit the JSON schemas the artifacts validate against.

Configuration comes from an optional JSON file plus command-line
overrides; overrides win.  Keys carry their units explicitly
(``kappa_x_mhz``, ``t_chain_k``, ...).  Output defaults to
``$MWPHOTON_OUTPUT_ROOT/<experiment>`` (``runs/<experiment>`` when the
variable is unset) unless ``--out`` is given.  Exit codes: 0 success, 1
configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, Optional

from . import __version__
from .cavity import Resonator
from .experiments import EXPERIMENTS, run_experiment
from .qubit import DispersiveSystem, QubitParams
from .states import ModeSpec, StateKind

__all__ = ["main", "build_parser", "ConfigError", "NumericalError"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class NumericalError(Exception):
    """Numerical failure during a run; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------

_SYSTEM_KEYS = {
    "omega_q_ghz": 6.92,
    "omega_r_ghz": 6.07,
    "g_mhz": 67.0,
    "alpha_mhz": -315.0,
    "kappa_x_mhz": 8.5,
    "kappa_i_khz": 50.0,
    "gamma1_mhz": 3.9,
    "gamma1_d_thermal_khz": 800.0,
    "gamma1_d_coherent_khz": -30.0,
    "gamma_phi0_mhz": 0.05,
}

_EXPERIMENT_DEFAULTS: Dict[str, Dict] = {
    "variance_curves": {"n_max": 10.0, "n_points": 201},
    "ramsey_sweep": {
        "state": "thermal",
        "n_points": 12,
        "n_min": 0.05,
        "n_max": 1.5,
        "shots": 10_000,
        "tau_points": 161,
        "decay_spans": 3.0,
        "seed": 0,
        **_SYSTEM_KEYS,
    },
    "dualpath_sweep": {
        "count": 1_000_000,
        "n_chain_1": 1.0,
        "n_chain_2": 1.0,
        "gain_1": 1.0,
        "gain_2": 1.0,
        "mode_ghz": 5.4,
        "temperatures_k": None,
        "seed": 0,
    },
    "jpa_sweep": {
        "noise_statistics": "thermal",
        "n_n": 0.66,
        "gain_db": 15.8,
        "n_max": 1.5,
        "n_points": 16,
        "operating_point": None,
    },
    "planck_calibration": {
        "chain_gain_db": 145.0,
        "t_chain_k": 3.0,
        "bandwidth_khz": 400.0,
        "power_noise_fraction": 0.0,
        "mode_ghz": 5.4,
        "t_min_k": 0.05,
        "t_max_k": 1.5,
        "n_temperatures": 30,
        "seed": 0,
    },
    "quadrature_check": {"occupations": [0.1, 1.0], "count": 400_000, "seed": 0},
}


def _coerce(key: str, value, reference):
    if reference is None or isinstance(reference, str) or value is None:
        return value
    if isinstance(reference, bool):
        return bool(value)
    if isinstance(reference, int) and not isinstance(reference, bool):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config field {key!r} must be an integer, got {value}")
        return int(value)
    if isinstance(reference, float):
        return float(value)
    if isinstance(reference, list):
        return list(value)
    return value


_ENUM_FIELDS = {
    "state": ("thermal", "coherent", "shot_noise"),
    "noise_statistics": ("thermal", "quantum_thermal", "classical"),
    "operating_point": ("jpa1", "jpa2a", "jpa2b", None),
}


def resolve_config(experiment: str, file_config: Optional[dict], overrides: dict) -> dict:
    """Merge defaults <- config file <- flag overrides, validating keys."""
    if experiment not in _EXPERIMENT_DEFAULTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose one of {sorted(EXPERIMENTS)}"
        )
    config = dict(_EXPERIMENT_DEFAULTS[experiment])
    for source_name, source in (("config file", file_config), ("override", overrides)):
        if not source:
            continue
        for key, value in source.items():
            if key not in config:
                raise ConfigError(
                    f"unknown {source_name} field {key!r} for experiment "
                    f"{experiment!r}; allowed: {sorted(config)}"
                )
            try:
                config[key] = _coerce(key, value, _EXPERIMENT_DEFAULTS[experiment][key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config field {key!r}: {exc}") from exc
    for key, allowed in _ENUM_FIELDS.items():
        if key in config and config[key] not in allowed:
            raise ConfigError(
                f"config field {key!r} must be one of {allowed}, got {config[key]!r}"
            )
    return config


def _system_from_config(config: dict) -> DispersiveSystem:
    qubit = QubitParams(
        max_frequency=config["omega_q_ghz"] * 1e9,
        coupling=config["g_mhz"] * 1e6,
        anharmonicity=config["alpha_mhz"] * 1e6,
        intrinsic_relaxation=config["gamma1_mhz"] * 1e6,
        relaxation_per_photon={
            StateKind.THERMAL: config["gamma1_d_thermal_khz"] * 1e3,
            StateKind.COHERENT: config["gamma1_d_coherent_khz"] * 1e3,
            StateKind.SHOT_NOISE: config["gamma1_d_coherent_khz"] * 1e3,
            StateKind.VACUUM: 0.0,
        },
        intrinsic_dephasing=config["gamma_phi0_mhz"] * 1e6,
    )
    resonator = Resonator(
        resonance_frequency=config["omega_r_ghz"] * 1e9,
        external_rate=config["kappa_x_mhz"] * 1e6,
        internal_rate=config["kappa_i_khz"] * 1e3,
    )
    return DispersiveSystem.derive(qubit, resonator)


def _experiment_kwargs(experiment: str, config: dict) -> dict:
    """Translate unit-suffixed config keys into pipeline arguments."""
    if experiment == "variance_curves":
        return {"n_max": config["n_max"], "n_points": config["n_points"]}
    if experiment == "ramsey_sweep":
        return {
            "state": config["state"],
            "n_points": config["n_points"],
            "n_min": config["n_min"],
            "n_max": config["n_max"],
            "shots": config["shots"],
            "seed": config["seed"],
            "system": _system_from_config(config),
            "tau_points": config["tau_points"],
            "decay_spans": config["decay_spans"],
        }
    if experiment == "dualpath_sweep":
        return {
            "temperatures": config["temperatures_k"],
            "count": config["count"],
            "chain_noise_photons": (config["n_chain_1"], config["n_chain_2"]),
            "gains": (config["gain_1"], config["gain_2"]),
            "seed": config["seed"],
            "mode": ModeSpec(config["mode_ghz"] * 1e9),
        }
    if experiment == "jpa_sweep":
        return {
            "noise_statistics": config["noise_statistics"],
            "n_n": config["n_n"],
            "gain_db": config["gain_db"],
            "n_max": config["n_max"],
            "n_points": config["n_points"],
            "operating_point": config["operating_point"],
        }
    if experiment == "planck_calibration":
        import numpy as np

        return {
            "temperatures": np.linspace(
                config["t_min_k"], config["t_max_k"], config["n_temperatures"]
            ),
            "mode": ModeSpec(config["mode_ghz"] * 1e9),
            "bandwidth": config["bandwidth_khz"] * 1e3,
            "chain_gain_db": config["chain_gain_db"],
            "chain_noise_temperature": config["t_chain_k"],
            "power_noise_fraction": config["power_noise_fraction"],
            "seed": config["seed"],
        }
    if experiment == "quadrature_check":
        return {
            "occupations": config["occupations"],
            "count": config["count"],
            "seed": config["seed"],
        }
    raise ConfigError(f"unknown experiment {experiment!r}")


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    import numpy as np

    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    import numpy as np

    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


def _write_run_outputs(out_dir: Path, experiment: str, config: dict, result: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in result["tables"].items():
        lines = [",".join(table["columns"])]
        for row in table["rows"]:
            lines.append(",".join(_format_cell(cell) for cell in row))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    fits_payload = _plain(
        {
            "experiment": experiment,
            "fits": result["fits"],
            "summary": result["summary"],
        }
    )
    (out_dir / "fits.json").write_text(
        json.dumps(fits_payload, indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "experiment": experiment,
        "config": config,
        "seed": config.get("seed"),
        "package_version": __version__,
        "tables": sorted(result["tables"]),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# Report generation
# ---------------------------------------------------------------------------

def _check(name, value, band, reference=None):
    passed = band[0] <= value <= band[1] if math.isfinite(value) else False
    return {
        "name": name,
        "value": value,
        "band": list(band),
        "reference": reference,
        "passed": bool(passed),
    }


def _build_checks(experiment: str, fits: dict, summary: dict) -> list:
    checks = []
    if experiment == "ramsey_sweep":
        slope = summary["slope_hz"]
        expected = summary["expected_slope_hz"]
        checks.append(
            _check(
                "photon_statistics_slope_vs_model",
                slope / expected,
                (0.9, 1.1),
                "slope / (kappa_x theta0^2 scale) = 1",
            )
        )
        law = fits["photon_statistics_law"]["parameters"]
        if "xi" in law and law.get("xi"):
            checks.append(
                _check(
                    "thermal_rho_over_xi",
                    law["rho"] / law["xi"],
                    (0.95, 1.05),
                    "n^2 + n law: rho = xi",
                )
            )
    elif experiment == "dualpath_sweep":
        checks.append(
            _check("g2_quadratic_rho", summary["rho"], (1.9, 2.1), "thermal g2 = 2 n^2; measured comparator rho = 2.07")
        )
    elif experiment == "jpa_sweep":
        checks.append(_check("rho", summary["rho"], (2.0 - 1e-9, 2.0 + 1e-9), "rho = 2"))
        xi_ref = summary["xi_thermal_model"]
        if summary["noise_statistics"] == "quantum_thermal":
            checks.append(
                _check("xi_vs_4_plus_4nn", summary["xi"], (xi_ref - 1e-9, xi_ref + 1e-9), "xi = 4 + 4 n_n")
            )
        checks.append(
            _check(
                "classical_offset_below_thermal",
                summary["offset_thermal_model"] - summary["offset_classical_model"],
                (0.0, math.inf),
                "classical noise lowers the offset",
            )
        )
    elif experiment == "planck_calibration":
        checks.append(
            _check(
                "chain_gain_recovery_db",
                abs(summary["chain_gain_db"] - summary["chain_gain_db_true"]),
                (0.0, 0.09),
                "recovered within 2% (0.09 dB)",
            )
        )
        ratio = summary["chain_noise_temperature_k"] / summary["chain_noise_temperature_true_k"]
        checks.append(_check("chain_noise_temperature_recovery", ratio, (0.98, 1.02)))
        for name, cal in fits.get("jpa_calibrations", {}).items():
            checks.append(
                _check(
                    f"{name}_n_n_recovery",
                    cal["n_n"] / cal["n_n_true"],
                    (0.95, 1.05),
                    "added photons within 5%",
                )
            )
    elif experiment == "quadrature_check":
        checks.append(
            _check("runs_present", 1.0, (0.5, 1.5), "quadrature table emitted")
        )
    elif experiment == "variance_curves":
        checks.append(_check("tables_present", 1.0, (0.5, 1.5)))
    return checks


def generate_report(run_dir: Path) -> dict:
    expected = ["manifest.json", "fits.json"]
    missing = [name for name in expected if not (run_dir / name).exists()]
    if missing:
        raise ConfigError(
            f"run directory {run_dir} is missing artifacts: {missing}; expected "
            f"at least {expected} plus the CSV tables listed in the manifest"
        )
    manifest = json.loads((run_dir / "manifest.json").read_text())
    fits_payload = json.loads((run_dir / "fits.json").read_text())
    missing_tables = [
        f"{name}.csv"
        for name in manifest.get("tables", [])
        if not (run_dir / f"{name}.csv").exists()
    ]
    if missing_tables:
        raise ConfigError(f"run directory {run_dir} is missing tables: {missing_tables}")
    experiment = manifest["experiment"]
    checks = _build_checks(experiment, fits_payload["fits"], fits_payload["summary"])
    return {
        "experiment": experiment,
        "package_version": manifest["package_version"],
        "seed": manifest.get("seed"),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "summary": fits_payload["summary"],
    }


def _print_report(report: dict) -> None:
    print(f"experiment: {report['experiment']}  (mwphoton {report['package_version']})")
    width = max((len(c["name"]) for c in report["checks"]), default=10)
    for check in report["checks"]:
        band = check["band"]
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"  {check['name']:<{width}}  value={check['value']:.6g}  "
            f"band=[{band[0]:.6g}, {band[1]:.6g}]  {status}"
        )
    print("overall:", "PASS" if report["all_passed"] else "FAIL")


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

_SCHEMA_FILES = ("config.schema.json", "fits.schema.json", "manifest.schema.json", "report.schema.json")


def _emit_schemas(out_dir: Optional[Path]) -> None:
    for name in _SCHEMA_FILES:
        text = resources.files("mwphoton.schemas").joinpath(name).read_text()
        if out_dir is None:
            print(f"--- {name} ---")
            print(text, end="")
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_text(text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mwphoton", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"mwphoton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write its artifacts")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--config", type=Path, help="JSON configuration file")
    run.add_argument(
        "--out",
        type=Path,
        help="output directory (default $MWPHOTON_OUTPUT_ROOT/<experiment> or runs/<experiment>)",
    )
    run.add_argument("--seed", type=int, help="override the random seed")
    run.add_argument("--state", help="field kind for ramsey_sweep")
    run.add_argument("--n-points", type=int, dest="n_points")
    run.add_argument("--shots", type=int)
    run.add_argument("--count", type=int)
    run.add_argument("--n-n", type=float, dest="n_n")
    run.add_argument("--noise-statistics", dest="noise_statistics", choices=["thermal", "classical"])
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field (JSON-typed value); repeatable",
    )

    report = sub.add_parser("report", help="summarize a completed run with pass/fail checks")
    report.add_argument("run_dir", type=Path)
    report.add_argument("--out", type=Path, help="where to write report.json (default: run_dir)")

    schema = sub.add_parser("schema", help="emit the JSON schemas for all artifacts")
    schema.add_argument("--out", type=Path, help="directory to write schema files (default: stdout)")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in ("seed", "state", "n_points", "shots", "count", "n_n", "noise_statistics"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key.strip()] = value
    return overrides


def _command_run(args: argparse.Namespace) -> int:
    file_config = None
    if args.config is not None:
        if not args.config.exists():
            raise ConfigError(f"config file not found: {args.config}")
        try:
            file_config = json.loads(args.config.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_config, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = _collect_overrides(args)
    config = resolve_config(args.experiment, file_config, overrides)
    kwargs = _experiment_kwargs(args.experiment, config)
    try:
        result = run_experiment(args.experiment, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except Exception as exc:
        raise NumericalError(f"experiment {args.experiment} failed: {exc}") from exc
    root = os.environ.get("MWPHOTON_OUTPUT_ROOT", "runs")
    out_dir = args.out or Path(root) / args.experiment
    _write_run_outputs(out_dir, args.experiment, config, result)
    print(f"wrote {sorted(p.name for p in out_dir.iterdir())} to {out_dir}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    report = generate_report(args.run_dir)
    out_dir = args.out or args.run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print_report(report)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _command_run(args)
        if args.command == "report":
            return _command_report(args)
        if args.command == "schema":
            _emit_schemas(args.out)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
