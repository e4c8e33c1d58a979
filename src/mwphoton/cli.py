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
(``kappa_x_mhz``, ``t_chain_k``, ...).  One table, ``_TABLE``, holds
every key: the pipeline argument it feeds, its unit scale and its JSON
schema; defaults are read from the pipeline signatures.  ``run`` checks
every value against that table (a mistyped or out-of-range value exits 1
naming the field), and ``config.schema.json`` is generated from the same
table, so the schema ``schema`` emits is the one ``run`` enforces.

Output defaults to ``$MWPHOTON_OUTPUT_ROOT/<experiment>``
(``runs/<experiment>`` when the variable is unset) unless ``--out`` is
given.  Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math
import operator
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, NamedTuple, Optional

import numpy as np

from . import __version__
from .defaults import JPA_OPERATING_POINTS
from .dualpath import ERROR_BATCHES
from .experiments import EXPERIMENTS, PLANCK_TEMPERATURE_GRID, run_experiment
from .qubit import DispersiveSystem
from .states import StateKind

__all__ = ["main", "build_parser", "ConfigError", "NumericalError"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class NumericalError(Exception):
    """Numerical failure during a run; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------

class _Key(NamedTuple):
    """One config key.

    ``arg`` is the pipeline argument the key feeds and ``part`` the entry
    of that argument it sets (attribute names, tuple indices or mapping
    keys; empty for the whole argument).  ``scale`` is the pipeline's unit
    in config units (1e9 for a ``_ghz`` key), ``schema`` the key's JSON
    schema, and ``pipelines`` limits the key to some of the pipelines that
    take ``arg``.  Defaults are not restated: they are read from the
    pipeline signatures.
    """

    arg: str
    schema: dict
    part: tuple = ()
    scale: float = 1.0
    pipelines: tuple = ()


def _number(**bounds) -> dict:
    return {"type": "number", **bounds}


def _integer(**bounds) -> dict:
    return {"type": "integer", **bounds}


_POSITIVE = _number(exclusiveMinimum=0)
_NON_NEGATIVE = _number(minimum=0)
_RATES = ("qubit", "relaxation_per_photon")

_TABLE = {
    "seed": _Key("seed", _integer(minimum=0)),
    "state": _Key("state", {"enum": [k.value for k in StateKind if k is not StateKind.VACUUM]}),
    "n_points": _Key("n_points", _integer(minimum=2)),
    "n_min": _Key("n_min", _POSITIVE),
    "n_max": _Key("n_max", _POSITIVE),
    "shots": _Key("shots", _integer(minimum=1)),
    "tau_points": _Key("tau_points", _integer(minimum=8)),
    "decay_spans": _Key("decay_spans", _POSITIVE),
    "omega_q_ghz": _Key("system", _POSITIVE, ("qubit", "max_frequency"), 1e9),
    "omega_r_ghz": _Key("system", _POSITIVE, ("resonator", "resonance_frequency"), 1e9),
    "g_mhz": _Key("system", _POSITIVE, ("qubit", "coupling"), 1e6),
    "alpha_mhz": _Key("system", _number(exclusiveMaximum=0), ("qubit", "anharmonicity"), 1e6),
    "kappa_x_mhz": _Key("system", _POSITIVE, ("resonator", "external_rate"), 1e6),
    "kappa_i_khz": _Key("system", _NON_NEGATIVE, ("resonator", "internal_rate"), 1e3),
    "gamma1_mhz": _Key("system", _NON_NEGATIVE, ("qubit", "intrinsic_relaxation"), 1e6),
    "gamma1_d_thermal_khz": _Key("system", _number(), (*_RATES, StateKind.THERMAL), 1e3),
    # also sets the shot-noise rate, see _derive_system
    "gamma1_d_coherent_khz": _Key("system", _number(), (*_RATES, StateKind.COHERENT), 1e3),
    "gamma_phi0_mhz": _Key("system", _NON_NEGATIVE, ("qubit", "intrinsic_dephasing"), 1e6),
    # every error block needs two samples
    "count": _Key("count", _integer(minimum=2 * ERROR_BATCHES)),
    "n_chain_1": _Key("chain_noise_photons", _NON_NEGATIVE, (0,)),
    "n_chain_2": _Key("chain_noise_photons", _NON_NEGATIVE, (1,)),
    "gain_1": _Key("gains", _POSITIVE, (0,)),
    "gain_2": _Key("gains", _POSITIVE, (1,)),
    "mode_ghz": _Key("mode", _POSITIVE, ("frequency",), 1e9),
    "temperatures_k": _Key(
        "temperatures",
        {"type": ["array", "null"], "items": _POSITIVE, "minItems": 1},
        pipelines=("dualpath_sweep",),
    ),
    "noise_statistics": _Key(
        "noise_statistics", {"enum": ["thermal", "quantum_thermal", "classical"]}
    ),
    "n_n": _Key("n_n", _NON_NEGATIVE),
    "gain_db": _Key("gain_db", _number(minimum=0)),
    "operating_point": _Key("operating_point", {"enum": [*JPA_OPERATING_POINTS, None]}),
    "chain_gain_db": _Key("chain_gain_db", _number()),
    "t_chain_k": _Key("chain_noise_temperature", _NON_NEGATIVE),
    "bandwidth_khz": _Key("bandwidth", _POSITIVE, scale=1e3),
    "power_noise_fraction": _Key("power_noise_fraction", _NON_NEGATIVE),
    "t_min_k": _Key("temperatures", _POSITIVE, (0,), pipelines=("planck_calibration",)),
    "t_max_k": _Key("temperatures", _POSITIVE, (1,), pipelines=("planck_calibration",)),
    "n_temperatures": _Key(
        "temperatures", _integer(minimum=4), (2,), pipelines=("planck_calibration",)
    ),
    "occupations": _Key("occupations", {"type": "array", "items": _NON_NEGATIVE, "minItems": 1}),
}

#: Keys that also have a ``run`` flag of their own (``--n-points`` for ``n_points``).
_FLAGS = ("seed", "state", "n_points", "shots", "count", "n_n", "noise_statistics")


def _derive_system(system: DispersiveSystem) -> DispersiveSystem:
    """Re-derive detuning and chi; shot noise relaxes like a coherent tone."""
    rates = dict(system.qubit.relaxation_per_photon)
    rates[StateKind.SHOT_NOISE] = rates[StateKind.COHERENT]
    qubit = dataclasses.replace(system.qubit, relaxation_per_photon=rates)
    return DispersiveSystem.derive(qubit, system.resonator)


#: Parts of an argument whose pipeline default is None start from here: the
#: Planck grid keys fill (first, last, count) of ``np.linspace``.
_PART_STARTS = {"temperatures": PLANCK_TEMPERATURE_GRID}

#: What turns an argument filled part by part into the pipeline argument.
_FINISH = {"system": _derive_system, "temperatures": lambda grid: np.linspace(*grid)}

# Read once at import: a tracing wrapper installed later around a pipeline
# (benchmarks/tracing.py) has no defaults in its signature.
_PIPELINE_DEFAULTS = {
    name: {arg: param.default for arg, param in inspect.signature(fn).parameters.items()}
    for name, fn in EXPERIMENTS.items()
}


def _rows(experiment: str) -> Dict[str, _Key]:
    """The table rows the experiment accepts."""
    args = _PIPELINE_DEFAULTS[experiment]
    return {
        key: row
        for key, row in _TABLE.items()
        if row.arg in args and (not row.pipelines or experiment in row.pipelines)
    }


def _start(experiment: str, row: _Key):
    """The value the row's part is read from and written into."""
    if row.part and row.arg in _PART_STARTS:
        return _PART_STARTS[row.arg]
    return _PIPELINE_DEFAULTS[experiment][row.arg]


def _get(value, part: tuple):
    for step in part:
        value = getattr(value, step) if isinstance(step, str) else value[step]
    return value


def _put(value, part: tuple, item):
    """A copy of ``value`` with its entry at ``part`` replaced by ``item``."""
    if not part:
        return item
    step, rest = part[0], part[1:]
    if isinstance(step, str):
        return dataclasses.replace(value, **{step: _put(getattr(value, step), rest, item)})
    if isinstance(value, tuple):
        return value[:step] + (_put(value[step], rest, item),) + value[step + 1 :]
    return {**value, step: _put(value[step], rest, item)}


_BOUNDS = (
    ("minimum", operator.ge, ">="),
    ("exclusiveMinimum", operator.gt, ">"),
    ("exclusiveMaximum", operator.lt, "<"),
)


def _conform(key: str, value, schema: dict):
    """``value`` in the schema's type; ConfigError naming ``key`` if it does not conform."""
    if "enum" in schema:
        if value not in schema["enum"]:
            raise ConfigError(
                f"config field {key!r} must be one of {tuple(schema['enum'])}, got {value!r}"
            )
        return value
    kind = schema["type"]
    if "array" in kind:
        if value is None and "null" in kind:
            return None
        least = schema.get("minItems", 0)
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise ConfigError(
                f"config field {key!r} must be an array of at least {least} items, got {value!r}"
            )
        return [_conform(key, item, schema["items"]) for item in value]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or (kind == "integer" and value != int(value))
    ):
        raise ConfigError(f"config field {key!r} must be a finite {kind}, got {value!r}")
    value = int(value) if kind == "integer" else float(value)
    for bound, holds, sign in _BOUNDS:
        if bound in schema and not holds(value, schema[bound]):
            raise ConfigError(f"config field {key!r} must be {sign} {schema[bound]}, got {value!r}")
    return value


def resolve_config(experiment: str, file_config: Optional[dict], overrides: dict) -> dict:
    """Merge defaults <- config file <- flag overrides, checking every value."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose one of {sorted(EXPERIMENTS)}"
        )
    rows = _rows(experiment)
    config = {}
    for key, row in rows.items():
        value = _get(_start(experiment, row), row.part)
        config[key] = value / row.scale if row.scale != 1 else _plain(value)
    for source_name, source in (("config file", file_config), ("override", overrides)):
        for key, value in (source or {}).items():
            if key not in rows:
                raise ConfigError(
                    f"unknown {source_name} field {key!r} for experiment "
                    f"{experiment!r}; allowed: {sorted(rows)}"
                )
            config[key] = _conform(key, value, rows[key].schema)
    return config


def _config_schema() -> dict:
    """The JSON schema of the configuration, generated from the table."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": "mwphoton/config.schema.json",
        "title": "Experiment configuration",
        "description": (
            "JSON configuration accepted by `mwphoton run --config`. Keys carry explicit "
            "units in their names; any subset may be given and flag overrides win. "
            "`run` enforces exactly these types and bounds."
        ),
        "type": "object",
        "additionalProperties": False,
        "properties": {key: row.schema for key, row in _TABLE.items()},
    }


def _experiment_kwargs(experiment: str, config: dict) -> dict:
    """Translate unit-suffixed config keys into pipeline arguments."""
    rows = _rows(experiment)
    kwargs = {}
    for key, value in config.items():
        row = rows[key]
        if row.scale != 1:
            value = value * row.scale
        start = kwargs[row.arg] if row.arg in kwargs else _start(experiment, row)
        kwargs[row.arg] = _put(start, row.part, value)
    for arg in {row.arg for row in rows.values() if row.part} & _FINISH.keys():
        kwargs[arg] = _FINISH[arg](kwargs[arg])
    return kwargs


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
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


def _write_run_outputs(out_dir: Path, experiment: str, config: dict, result: dict) -> list:
    """Write the tables, ``fits.json`` and ``manifest.json``; return the names written, sorted."""
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
    return sorted([f"{name}.csv" for name in result["tables"]] + ["fits.json", "manifest.json"])


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


#: Width, in standard errors, of the quadrature-variance report checks.
_QUADRATURE_K_SIGMA = 5.0


def _read_table(path: Path) -> Dict[str, list]:
    """The columns of a CSV table written by ``run``, by name, as strings."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    columns = list(zip(*rows)) or [()] * len(header)
    return {name: list(column) for name, column in zip(header, columns)}


def _build_checks(experiment: str, fits: dict, summary: dict, read_table) -> list:
    """Pass/fail checks of a run; ``read_table(name)`` gives the columns of one of its tables."""
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
        k = _QUADRATURE_K_SIGMA
        table = read_table("quadratures")
        for row, n in enumerate(table["n"]):
            model = float(n) / 2.0 + 0.25
            for quad in ("var_p", "var_q"):
                err = float(table[f"{quad}_err"][row])
                pull = (float(table[quad][row]) - model) / err if err > 0 else math.inf
                checks.append(
                    _check(
                        f"{quad}_at_n_{n}",
                        pull,
                        (-k, k),
                        f"({quad} - (n/2 + 1/4)) / {quad}_err within {k:g} sigma",
                    )
                )
    elif experiment == "variance_curves":
        table = read_table("variance_curves")
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
            checks.append(
                _check(
                    f"{name}_sqrt_var_closed_form",
                    float(np.max(deviation / scale, initial=0.0)),
                    (0.0, 1e-12),
                    "largest relative deviation of any row from its closed form",
                )
            )
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
    checks = _build_checks(
        experiment,
        fits_payload["fits"],
        fits_payload["summary"],
        lambda name: _read_table(run_dir / f"{name}.csv"),
    )
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

_SCHEMA_FILES = ("fits.schema.json", "manifest.schema.json", "report.schema.json")


def _emit_schemas(out_dir: Optional[Path]) -> None:
    texts = {"config.schema.json": json.dumps(_config_schema(), indent=2) + "\n"}
    for name in _SCHEMA_FILES:
        texts[name] = resources.files("mwphoton.schemas").joinpath(name).read_text()
    for name, text in texts.items():
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
    for key in _FLAGS:
        schema = _TABLE[key].schema
        run.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type={"integer": int, "number": float}.get(schema.get("type")),
            choices=schema.get("enum"),
            help=f"set config field {key}",
        )
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
    overrides = {key: getattr(args, key) for key in _FLAGS if getattr(args, key) is not None}
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
    try:
        kwargs = _experiment_kwargs(args.experiment, config)
    except (ValueError, ZeroDivisionError) as exc:  # e.g. a qubit on resonance
        raise ConfigError(str(exc)) from exc
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
    written = _write_run_outputs(out_dir, args.experiment, config, result)
    print(f"wrote {written} to {out_dir}")
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
