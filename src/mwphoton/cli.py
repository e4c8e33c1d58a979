"""Command-line experiment runner and report generator.

Subcommands:

* ``run <experiment>``: execute one of the experiment pipelines and write
  plot-ready CSV tables, a ``fits.json`` and a ``manifest.json``.  A
  pipeline's table is a list of rows, each a dict from column name to
  cell; its CSV header is the first row's keys.  Each number has one home.
  A pipeline returns JSON-ready values (see :mod:`mwphoton.experiments`),
  and ``run`` writes them unconverted.  The manifest's ``config`` holds
  every run key, the seed included, and with the package version it
  reproduces a run bit-identically.
  ``fits.json`` holds the fit entries (parameters, standard errors,
  correlations) and a ``summary`` of derived numbers that restates no run
  key.
* ``report <run_dir>``: check a completed run against the reference
  expectations and write the pass/fail checks to ``report.json``, which
  restates no number of the run, plus a human-readable table on stdout.
  The manifest's fields must have the JSON types of its schema and its
  ``config`` must pass ``run``'s config check; otherwise ``report`` exits
  1 naming the field or key.  Each experiment's checks live beside its
  pipeline, in ``experiments.CHECKS``; this module reads the run's files
  and names no experiment, table, column or entry.
* ``schema``: emit the JSON schemas the artifacts validate against.

Configuration comes from an optional JSON file plus command-line
overrides; overrides win.  Keys carry their units explicitly
(``kappa_x_mhz``, ``t_chain_k``, ...).  One table, ``_TABLE``, holds
every key: the pipeline argument it feeds, its unit scale and its JSON
schema; defaults are read from the pipeline signatures.  ``_checked``,
the one config check of ``run`` and ``report``, reads that table alone:
a mistyped or out-of-range value, or one that overflows in the pipeline's
unit, exits 1 naming the field.  ``config.schema.json`` is generated from
the same table, so it states exactly what ``run`` checks; a rule across
keys is its pipeline's ``PipelineArgumentError``.  ``_conform`` is the one
conversion of a config value, a default (in config units), a config-file
value and a ``--set`` or flag value alike.

Output defaults to ``$MWPHOTON_OUTPUT_ROOT/<experiment>``
(``runs/<experiment>`` when the variable is unset) unless ``--out`` is
given.  ``run`` swaps its files in only once all are written; it replaces
an empty directory or an earlier run (one holding ``manifest.json``) and
refuses any other existing path.  Exit codes: 0 success, 1 configuration
error (a pipeline's ``PipelineArgumentError`` included, reported with the
config fields that feed the arguments or dotted parts it names), 2 numerical
failure (anything else a pipeline raises).  The parser is built once per
process and shared; see :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Dict, NamedTuple, Optional

from . import __version__
from .analysis import NumericalError
from .defaults import JPA_OPERATING_POINTS
from .dualpath import ERROR_BATCHES
from .experiments import CHECKS, EXPERIMENTS, PipelineArgumentError
from .states import StateKind

__all__ = ["main", "build_parser", "ConfigError", "NumericalError"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------

class _Key(NamedTuple):
    """One config key.

    ``arg`` is the pipeline argument the key feeds; a pipeline accepts the
    key exactly when its signature has ``arg``.  ``part`` is the entry of
    that argument the key sets (attribute names or tuple indices; empty for
    the whole argument).  ``scale`` is the pipeline's unit in config units
    (1e9 for a ``_ghz`` key) and ``schema`` the key's JSON schema.  Defaults
    are not restated: they are read from the pipeline signatures.
    """

    arg: str
    schema: dict
    part: tuple = ()
    scale: float = 1.0


def _number(**bounds) -> dict:
    return {"type": "number", **bounds}


def _integer(**bounds) -> dict:
    return {"type": "integer", **bounds}


_POSITIVE = _number(exclusiveMinimum=0)
_NON_NEGATIVE = _number(minimum=0)

_TABLE = {
    "seed": _Key("seed", _integer(minimum=0)),
    "state": _Key("state", {"enum": [k.value for k in StateKind]}),
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
    "gamma1_d_thermal_khz": _Key("system", _number(), ("qubit", "thermal_relaxation_per_photon"), 1e3),
    # shot noise relaxes like a coherent tone, so this also sets the shot-noise rate
    "gamma1_d_coherent_khz": _Key("system", _number(), ("qubit", "coherent_relaxation_per_photon"), 1e3),
    "gamma_phi0_mhz": _Key("system", _NON_NEGATIVE, ("qubit", "intrinsic_dephasing"), 1e6),
    # every error block needs two samples
    "count": _Key("count", _integer(minimum=2 * ERROR_BATCHES)),
    "n_chain_1": _Key("chain_noise_photons", _NON_NEGATIVE, (0,)),
    "n_chain_2": _Key("chain_noise_photons", _NON_NEGATIVE, (1,)),
    "mode_ghz": _Key("mode", _POSITIVE, ("frequency",), 1e9),
    "temperatures_k": _Key(
        "temperatures", {"type": ["array", "null"], "items": _POSITIVE, "minItems": 1}
    ),
    "operating_point": _Key("operating_point", {"enum": list(JPA_OPERATING_POINTS)}),
    "chain_gain_db": _Key("chain_gain_db", _number()),
    # report judges its recovery as a ratio to it
    "t_chain_k": _Key("chain_noise_temperature", _POSITIVE),
    "bandwidth_khz": _Key("bandwidth", _POSITIVE, scale=1e3),
    "power_noise_fraction": _Key("power_noise_fraction", _NON_NEGATIVE),
    "t_min_k": _Key("t_min", _POSITIVE),
    "t_max_k": _Key("t_max", _POSITIVE),
    "n_temperatures": _Key("n_temperatures", _integer(minimum=4)),
    "occupations": _Key("occupations", {"type": "array", "items": _NON_NEGATIVE, "minItems": 1}),
}

#: Keys that also have a ``run`` flag of their own (``--n-points`` for ``n_points``).
_FLAGS = ("seed", "state", "n_points", "shots", "count")


# Read once at import: a tracing wrapper installed later around a pipeline
# (benchmarks/tracing.py) has no defaults in its signature.
_PIPELINE_DEFAULTS = {
    name: {arg: param.default for arg, param in inspect.signature(fn).parameters.items()}
    for name, fn in EXPERIMENTS.items()
}


def _rows(experiment: str) -> Dict[str, _Key]:
    """The table rows the experiment accepts."""
    args = _PIPELINE_DEFAULTS[experiment]
    return {key: row for key, row in _TABLE.items() if row.arg in args}


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
    return value[:step] + (_put(value[step], rest, item),) + value[step + 1 :]


_BOUNDS = (
    ("minimum", operator.ge, ">="),
    ("exclusiveMinimum", operator.gt, ">"),
    ("exclusiveMaximum", operator.lt, "<"),
)


def _conform(key: str, value, schema: dict, scale: float = 1.0):
    """``value`` in the schema's type; ConfigError naming ``key`` unless it conforms and stays
    finite times ``scale``, in the pipeline's unit."""
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
        return [_conform(key, item, schema["items"], scale) for item in value]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max  # NaN, inf and ints too large for a float
        or (kind == "integer" and value != int(value))
    ):
        raise ConfigError(f"config field {key!r} must be a finite {kind}, got {value!r}")
    if not abs(value * scale) <= sys.float_info.max:
        raise ConfigError(
            f"config field {key!r} must be finite times {scale:g}, in the pipeline's unit, "
            f"got {value!r}"
        )
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
    defaults = _PIPELINE_DEFAULTS[experiment]
    config = {}
    for key, row in rows.items():
        value = _get(defaults[row.arg], row.part)
        config[key] = value / row.scale if row.scale != 1 else value
    for source_name, source in (("config file", file_config), ("override", overrides)):
        for key in source or {}:
            if key not in rows:
                raise ConfigError(
                    f"unknown {source_name} field {key!r} for experiment "
                    f"{experiment!r}; allowed: {sorted(rows)}"
                )
        config.update(source or {})
    return _checked(experiment, config)


def _checked(experiment: str, config: dict) -> dict:
    """``config`` conformed key by key; ConfigError unless it holds exactly the experiment's keys."""
    rows = _rows(experiment)
    unknown = {key: value for key, value in config.items() if key not in rows}
    missing = [key for key in rows if key not in config]
    if unknown or missing:
        raise ConfigError(
            f"config must hold exactly the {experiment} keys; unknown: {unknown}, missing: {missing}"
        )
    return {key: _conform(key, config[key], row.schema, row.scale) for key, row in rows.items()}


def _config_schema() -> dict:
    """The JSON schema of the configuration, generated from the table."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": "mwphoton/config.schema.json",
        "title": "Experiment configuration",
        "description": (
            "JSON configuration accepted by `mwphoton run --config`. Keys carry explicit "
            "units in their names; any subset may be given and flag overrides win. "
            "`run` checks exactly these types and bounds, and that each number stays "
            "finite in its pipeline's unit."
        ),
        "type": "object",
        "additionalProperties": False,
        "properties": {key: row.schema for key, row in _TABLE.items()},
    }


def _experiment_kwargs(experiment: str, config: dict) -> dict:
    """Translate unit-suffixed config keys into pipeline arguments."""
    defaults = _PIPELINE_DEFAULTS[experiment]
    kwargs = {}
    for key, value in config.items():
        row = _TABLE[key]
        if row.scale != 1:
            value = value * row.scale
        kwargs[row.arg] = _put(kwargs.get(row.arg, defaults[row.arg]), row.part, value)
    return kwargs


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _write_run_outputs(out_dir: Path, experiment: str, config: dict, result: dict) -> list:
    """Write the tables, ``fits.json`` and ``manifest.json``; return the names written, sorted.

    Each table is a list of rows, each a dict from column name to cell; the
    first row's keys are the CSV header, and each cell is written as
    ``str(cell)``, unconverted.  ValueError naming the table if it
    has no rows, or a row whose keys differ from the header's, in order too.
    """
    out_dir.mkdir()
    for name, rows in result["tables"].items():
        if not rows:
            raise ValueError(f"table {name!r} has no rows")
        header = list(rows[0])
        lines = [",".join(header)]
        for number, row in enumerate(rows, start=1):
            if list(row) != header:
                raise ValueError(
                    f"table {name!r} row {number} has the columns {list(row)}, "
                    f"but its header has {header}"
                )
            lines.append(",".join(map(str, row.values())))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    fits_payload = {"experiment": experiment, "fits": result["fits"], "summary": result["summary"]}
    (out_dir / "fits.json").write_text(
        json.dumps(fits_payload, indent=2, sort_keys=True) + "\n"
    )
    manifest = {
        "experiment": experiment,
        "config": config,
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

def _check(name, value, band, reference):
    """The ``report.json`` entry of one ``(name, value, band, reference)`` check."""
    passed = band[0] <= value <= band[1] if math.isfinite(value) else False
    return {
        "name": name,
        "value": value,
        "band": list(band),
        "reference": reference,
        "passed": bool(passed),
    }


def _read_table(path: Path) -> Dict[str, list]:
    """The columns of a CSV table written by ``run``, by name, as strings.

    ConfigError naming the file unless it has a header, at least one row
    and as many cells in each row as in the header.
    """
    try:
        with open(path, newline="") as handle:
            header, *rows = list(csv.reader(handle)) or [[]]
    except (OSError, ValueError, csv.Error) as exc:  # unreadable or not UTF-8
        raise ConfigError(f"cannot read {path} as CSV: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} holds no rows")
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ConfigError(
                f"{path} row {number} has {len(row)} cells, but its header has {len(header)}"
            )
    return {name: list(column) for name, column in zip(header, zip(*rows))}


def _leaves(value, path: str = ""):
    """(dotted path, leaf) of every leaf of a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, (dict, list)):
            yield from _leaves(item, f"{path}{key}.")
        else:
            yield f"{path}{key}", item


def _read_json_object(path: Path, keys: tuple = ()) -> dict:
    """The JSON object in ``path``; ConfigError naming the file unless it is one with ``keys``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ConfigError(f"{path} lacks the keys {missing}")
    return payload


def generate_report(run_dir: Path) -> dict:
    expected = ["manifest.json", "fits.json"]
    missing = [name for name in expected if not (run_dir / name).exists()]
    if missing:
        raise ConfigError(
            f"run directory {run_dir} is missing artifacts: {missing}; expected "
            f"at least {expected} plus the CSV tables listed in the manifest"
        )
    manifest_path = run_dir / "manifest.json"
    manifest = _read_json_object(
        manifest_path, ("experiment", "config", "package_version", "tables")
    )
    experiment, tables = manifest["experiment"], manifest["tables"]
    # the fields manifest.schema.json requires, in the JSON types it gives them
    for field, shape, holds in (
        ("experiment", "a string", isinstance(experiment, str)),
        ("config", "a JSON object", isinstance(manifest["config"], dict)),
        ("package_version", "a string", isinstance(manifest["package_version"], str)),
        (
            "tables",
            "a list of strings",
            isinstance(tables, list) and all(isinstance(name, str) for name in tables),
        ),
    ):
        if not holds:
            raise ConfigError(
                f"{manifest_path} must hold its {field} as {shape}, got {manifest[field]!r}"
            )
    fits_payload = _read_json_object(run_dir / "fits.json", ("fits", "summary"))
    missing_tables = [f"{name}.csv" for name in tables if not (run_dir / f"{name}.csv").exists()]
    if missing_tables:
        raise ConfigError(f"run directory {run_dir} is missing tables: {missing_tables}")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"run directory {run_dir} holds unknown experiment {experiment!r}; "
            f"choose one of {sorted(EXPERIMENTS)}"
        )
    # the checks read the config, so it must hold the keys and values run would write
    try:
        config = _checked(experiment, manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    entries = CHECKS[experiment](
        config,
        fits_payload["fits"],
        fits_payload["summary"],
        lambda name: _read_table(run_dir / f"{name}.csv"),
    )
    try:
        checks = [_check(*entry) for entry in entries]
    except KeyError as exc:  # a fits.json entry or a table column the checks read
        raise ConfigError(
            f"run directory {run_dir} lacks the key {exc.args[0]!r} that the "
            f"{experiment} report reads"
        ) from exc
    except ValueError as exc:  # a table cell that is not a number
        raise ConfigError(
            f"run directory {run_dir} holds a value that the {experiment} report "
            f"cannot read as a number: {exc}"
        ) from exc
    except TypeError as exc:  # a fits.json value that is not a number
        strays = {
            path: leaf
            for path, leaf in _leaves({key: fits_payload[key] for key in ("fits", "summary")})
            if leaf is None or isinstance(leaf, str)
        }
        raise ConfigError(
            f"run directory {run_dir} holds a value that the {experiment} report "
            f"cannot compute with ({exc}); the fits.json values that are not numbers: {strays}"
        ) from exc
    return {
        "experiment": experiment,
        "package_version": manifest["package_version"],
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared; do not mutate it."""
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
        served = ", ".join(name for name in sorted(EXPERIMENTS) if key in _rows(name))
        run.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type={"integer": int, "number": float}.get(schema.get("type")),
            choices=schema.get("enum"),
            help=f"set config field {key} ({served})",
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
    file_config = None if args.config is None else _read_json_object(args.config)
    overrides = _collect_overrides(args)
    config = resolve_config(args.experiment, file_config, overrides)
    kwargs = _experiment_kwargs(args.experiment, config)
    out_dir = args.out or Path(os.environ.get("MWPHOTON_OUTPUT_ROOT", "runs")) / args.experiment
    if out_dir.exists() and not (out_dir / "manifest.json").is_file():
        if out_dir.is_file() or any(out_dir.iterdir()):
            raise ConfigError(f"--out {out_dir} holds files but no manifest.json; not replacing it")
    try:
        result = EXPERIMENTS[args.experiment](**kwargs)
    except PipelineArgumentError as exc:  # name the config fields that feed the arguments
        keys = [
            key
            for name in exc.arguments
            for key, row in _rows(args.experiment).items()
            if (row.arg, *map(str, row.part))[: name.count(".") + 1] == tuple(name.split("."))
        ]
        raise ConfigError(f"{' and '.join(map(repr, keys))} {exc.requirement}") from exc
    except NumericalError:
        raise
    except Exception as exc:  # e.g. a ValueError from inside a fit
        raise NumericalError(f"experiment {args.experiment} failed: {exc}") from exc
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    # write beside out_dir, then swap the finished run in
    with tempfile.TemporaryDirectory(prefix=f".{out_dir.name}.", dir=out_dir.parent) as work:
        written = _write_run_outputs(Path(work, "run"), args.experiment, config, result)
        if out_dir.exists():
            out_dir.rename(Path(work, "old"))
        Path(work, "run").rename(out_dir)
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _command_run(args)
        if args.command == "report":
            return _command_report(args)
        _emit_schemas(args.out)  # the parser admits no other command
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
