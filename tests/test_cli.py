import argparse
import ast
import csv
import functools
import inspect
import itertools
import json
import math
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mwphoton import cli, experiments
from mwphoton.analysis import VarianceLawModel, fit_variance_law
from mwphoton.cli import (
    ConfigError,
    NumericalError,
    _experiment_kwargs,
    _rows,
    generate_report,
    main,
    resolve_config,
)
from mwphoton.defaults import JPA_OPERATING_POINTS, SAMPLE_QUBIT, SAMPLE_RESONATOR
from mwphoton.dualpath import ERROR_BATCHES
from mwphoton.experiments import EXPERIMENTS, PipelineArgumentError
from mwphoton.qubit import DispersiveSystem
from mwphoton.states import StateKind


def run_cli(*argv):
    return main(list(argv))


# Oracle: the per-experiment defaults the CLI resolved when they were written
# out by hand, device keys included.
SYSTEM_DEFAULTS = {
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

DEFAULTS = {
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
        **SYSTEM_DEFAULTS,
    },
    "dualpath_sweep": {
        "count": 1_000_000,
        "n_chain_1": 1.0,
        "n_chain_2": 1.0,
        "mode_ghz": 5.4,
        "temperatures_k": None,
        "seed": 0,
    },
    "jpa_sweep": {
        "n_max": 1.5,
        "n_points": 16,
        "operating_point": "jpa2a",
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

# A value just outside the bound or enum of every bounded or enumerated key.
OUT_OF_RANGE = {
    "seed": -1,
    "state": "vacuum",
    "n_points": 1,
    "n_min": 0.0,
    "n_max": 0.0,
    "shots": 0,
    "tau_points": 7,
    "decay_spans": 0.0,
    "omega_q_ghz": 0.0,
    "omega_r_ghz": 0.0,
    "g_mhz": 0.0,
    "alpha_mhz": 0.0,
    "kappa_x_mhz": 0.0,
    "kappa_i_khz": -1e-3,
    "gamma1_mhz": -1e-3,
    "gamma_phi0_mhz": -1e-3,
    "count": 39,
    "n_chain_1": -1e-3,
    "n_chain_2": -1e-3,
    "mode_ghz": 0.0,
    "temperatures_k": [0.3, 0.0],
    "operating_point": "jpa3",
    "t_chain_k": 0.0,
    "bandwidth_khz": 0.0,
    "power_noise_fraction": -1e-3,
    "t_min_k": 0.0,
    "t_max_k": 0.0,
    "n_temperatures": 3,
    "occupations": [-1e-3],
}

BOUNDS = {"minimum", "exclusiveMinimum", "exclusiveMaximum"}

# Inclusive bounds accept the bound itself.
AT_BOUND = {
    "seed": 0,
    "n_points": 2,
    "shots": 1,
    "tau_points": 8,
    "kappa_i_khz": 0.0,
    "gamma1_mhz": 0.0,
    "gamma_phi0_mhz": 0.0,
    "count": 40,
    "n_chain_1": 0.0,
    "n_chain_2": 0.0,
    "power_noise_fraction": 0.0,
    "n_temperatures": 4,
    "occupations": [0.0],
}


def _taking(key):
    """An experiment that accepts ``key``."""
    return next(name for name, defaults in DEFAULTS.items() if key in defaults)


def _config_schema(tmp_path):
    out = tmp_path / "schemas"
    assert run_cli("schema", "--out", str(out)) == 0
    return json.loads((out / "config.schema.json").read_text())


class TestConfigResolution:
    def test_defaults_applied(self):
        config = resolve_config("ramsey_sweep", None, {})
        assert config["state"] == "thermal"
        assert config["shots"] == 10_000

    def test_file_then_flags_precedence(self):
        config = resolve_config(
            "ramsey_sweep", {"shots": 500, "n_points": 6}, {"shots": 999}
        )
        assert config["shots"] == 999  # flag wins
        assert config["n_points"] == 6

    def test_unknown_field_named(self):
        from mwphoton.cli import ConfigError

        with pytest.raises(ConfigError, match="kappa_y_mhz"):
            resolve_config("ramsey_sweep", {"kappa_y_mhz": 1.0}, {})

    def test_unknown_experiment(self):
        from mwphoton.cli import ConfigError

        with pytest.raises(ConfigError, match="unknown experiment"):
            resolve_config("spectroscopy", None, {})


class TestConfigTable:
    @pytest.mark.parametrize("experiment", sorted(DEFAULTS))
    def test_resolved_defaults_match_oracle(self, experiment):
        config = resolve_config(experiment, None, {})
        assert config == DEFAULTS[experiment]
        assert {k: type(v) for k, v in config.items()} == {
            k: type(v) for k, v in DEFAULTS[experiment].items()
        }

    @pytest.mark.parametrize("experiment", sorted(DEFAULTS))
    def test_default_config_feeds_the_pipeline_defaults(self, experiment):
        kwargs = _experiment_kwargs(experiment, resolve_config(experiment, None, {}))
        params = inspect.signature(EXPERIMENTS[experiment]).parameters
        for arg, value in kwargs.items():
            default = params[arg].default
            if isinstance(default, tuple):
                assert tuple(value) == default, arg
            else:
                assert value == default, arg

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_every_pipeline_argument_is_a_config_argument(self, experiment):
        params = set(inspect.signature(EXPERIMENTS[experiment]).parameters)
        assert params == {row.arg for row in _rows(experiment).values()}

    def test_keys_fill_their_parts_in_pipeline_units(self):
        config = resolve_config(
            "ramsey_sweep",
            None,
            {"omega_q_ghz": 7.1, "kappa_x_mhz": 9.5, "gamma1_d_coherent_khz": -10},
        )
        system = _experiment_kwargs("ramsey_sweep", config)["system"]
        assert system.resonator.external_rate == 9.5e6
        assert system.detuning == 7.1e9 - 6.07e9
        assert system.qubit.coherent_relaxation_per_photon == -10e3
        assert system.qubit.thermal_relaxation_per_photon == 800e3
        # shot noise relaxes like a coherent tone
        assert system.qubit.relaxation_rate(StateKind.SHOT_NOISE, 1.0) == 3.9e6 - 10e3

        config = resolve_config("dualpath_sweep", None, {"n_chain_2": 0.5})
        kwargs = _experiment_kwargs("dualpath_sweep", config)
        assert kwargs["chain_noise_photons"] == (1.0, 0.5)

        config = resolve_config(
            "planck_calibration", None, {"t_max_k": 1.2, "n_temperatures": 24, "bandwidth_khz": 300}
        )
        kwargs = _experiment_kwargs("planck_calibration", config)
        assert kwargs["t_max"] == 1.2
        assert kwargs["n_temperatures"] == 24
        rows = EXPERIMENTS["planck_calibration"](**kwargs)["tables"]["chain_sweep"]
        np.testing.assert_array_equal(
            [row["temperature_k"] for row in rows], np.linspace(0.05, 1.2, 24)
        )
        assert kwargs["bandwidth"] == 300e3

    # Guard: a state kind that no run accepts is surface that only tests reach.
    @pytest.mark.parametrize("kind", list(StateKind), ids=lambda kind: kind.value)
    def test_every_state_kind_is_a_state_the_cli_accepts(self, kind):
        args = cli.build_parser().parse_args(["run", "ramsey_sweep", "--state", kind.value])
        config = resolve_config("ramsey_sweep", None, cli._collect_overrides(args))
        assert _experiment_kwargs("ramsey_sweep", config)["state"] == kind.value

    def test_every_bounded_key_has_an_out_of_range_case(self, tmp_path):
        bounded = {
            key
            for key, fragment in _config_schema(tmp_path)["properties"].items()
            if "enum" in fragment or set(fragment.get("items", fragment)) & BOUNDS
        }
        assert bounded == set(OUT_OF_RANGE)

    @pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_names_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            resolve_config(_taking(key), None, {key: OUT_OF_RANGE[key]})

    @pytest.mark.parametrize("key", sorted(AT_BOUND))
    def test_inclusive_bound_accepted(self, key):
        assert resolve_config(_taking(key), None, {key: AT_BOUND[key]})[key] == AT_BOUND[key]

    @pytest.mark.parametrize("key", ["temperatures_k", "occupations"])
    def test_empty_list_names_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            resolve_config(_taking(key), None, {key: []})

    # chain_gain_db has no bound, so only the type check can reject these
    @pytest.mark.parametrize("value", ["140", True, None, [140.0], float("nan"), float("inf")])
    def test_mistyped_number_names_the_key(self, value):
        with pytest.raises(ConfigError, match="chain_gain_db"):
            resolve_config("planck_calibration", {"chain_gain_db": value}, {})

    def test_schema_validates_resolved_defaults(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = _config_schema(tmp_path)
        jsonschema.Draft7Validator.check_schema(schema)
        for experiment in DEFAULTS:
            jsonschema.validate(resolve_config(experiment, None, {}), schema)

    def test_schema_states_each_key_by_type_and_bounds_only(self, tmp_path):
        # a rule across keys is its pipeline's, so no key needs a description
        properties = _config_schema(tmp_path)["properties"]
        assert [key for key, fragment in properties.items() if "description" in fragment] == []

    # Guard: a rule across keys is its pipeline's, so cli.py names a config
    # key or a pipeline argument only in the key table and the flag tuple.
    def test_cli_names_keys_and_arguments_only_in_its_table(self):
        tree = ast.parse(inspect.getsource(cli))
        tables = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] in (["_TABLE"], ["_FLAGS"])
        ]
        assert len(tables) == 2
        inside = {id(node) for table in tables for node in ast.walk(table)}
        names = set(cli._TABLE) | {row.arg for row in cli._TABLE.values()}
        strays = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names and id(node) not in inside
        }
        assert sorted(strays) == []

    def test_schema_properties_are_the_accepted_keys(self, tmp_path):
        accepted = set().union(*(resolve_config(name, None, {}) for name in EXPERIMENTS))
        assert set(_config_schema(tmp_path)["properties"]) == accepted


#: The parts of a ramsey_sweep ``system`` that set its dispersive shift chi.
CHI_PARTS = (
    "system.qubit.max_frequency",
    "system.resonator.resonance_frequency",
    "system.qubit.anharmonicity",
)


def _sample_system(**qubit):
    """The sample system with the qubit fields ``qubit`` replaced."""
    return DispersiveSystem(replace(SAMPLE_QUBIT, **qubit), SAMPLE_RESONATOR)


class TestRunCommand:
    def test_variance_curves_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        csv_path = out / "variance_curves.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "state,n,sqrt_var"
        # thermal sqrt(Var) at the largest n should be sqrt(n^2 + n)
        thermal = [l for l in lines[1:] if l.startswith("thermal")]
        n, sqrt_var = (float(tok) for tok in thermal[-1].split(",")[1:])
        assert sqrt_var == pytest.approx((n * n + n) ** 0.5, rel=1e-12)
        assert (out / "fits.json").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_byte_identical_reruns(self, tmp_path, experiment):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE[experiment]))
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert run_cli("run", experiment, "--config", str(config), "--out", str(out)) == 0
        names = sorted(path.name for path in runs[0].iterdir())
        assert names == sorted(path.name for path in runs[1].iterdir())
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_points": 4, "shots": 300, "tau_points": 24}))
        out = tmp_path / "run"
        code = run_cli(
            "run", "ramsey_sweep", "--config", str(config), "--state", "coherent",
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["state"] == "coherent"
        assert manifest["config"]["shots"] == 300

    def test_law_is_weighted_by_the_gamma2_error(self, tmp_path):
        # gamma1 and gamma_phi0 enter the extraction as exact model values, so
        # gamma_phi_n carries gamma2's error, and the law refits from the CSV
        out = tmp_path / "run"
        args = ("--shots", "300", "--n-points", "4", "--set", "tau_points=24")
        assert run_cli("run", "ramsey_sweep", *args, "--out", str(out)) == 0
        with (out / "dephasing_vs_n.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        n_r, gamma_phi_n, error = (
            [float(row[name]) for row in rows] for name in ("n_r", "gamma_phi_n_hz", "gamma2_err_hz")
        )
        law = fit_variance_law(
            np.column_stack([n_r, gamma_phi_n]),
            VarianceLawModel.QUADRATIC_PLUS_LINEAR,
            experiments._fit_weights("n_r", n_r, error),
        )
        fits = json.loads((out / "fits.json").read_text())["fits"]["photon_statistics_law"]
        assert law.parameters == fits["parameters"]
        assert law.std_errors == fits["standard_errors"]

    @pytest.mark.parametrize("coherent_khz", [-10, 25])
    def test_shot_noise_sweep_matches_the_library(self, tmp_path, coherent_khz):
        # the CLI and a direct call share one relaxation rule for shot noise
        out = tmp_path / "run"
        args = ("--state", "shot_noise", "--shots", "300", "--n-points", "4",
                "--set", "tau_points=24", "--set", f"gamma1_d_coherent_khz={coherent_khz}")
        assert run_cli("run", "ramsey_sweep", *args, "--out", str(out)) == 0
        qubit = replace(SAMPLE_QUBIT, coherent_relaxation_per_photon=coherent_khz * 1e3)
        result = EXPERIMENTS["ramsey_sweep"](
            state="shot_noise", n_points=4, shots=300, tau_points=24,
            system=DispersiveSystem(qubit, SAMPLE_RESONATOR),
        )
        with (out / "dephasing_vs_n.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        expected = result["tables"]["dephasing_vs_n"]
        assert [row["gamma2_hz"] for row in rows] == [
            str(float(row["gamma2_hz"])) for row in expected
        ]

    # One case per PipelineArgumentError that a run can reach; the state
    # check is not one, since the config schema rejects an unknown state first.
    @pytest.mark.parametrize(
        "args, keys",
        [
            (("ramsey_sweep", "--set", "n_min=1.5"), ("n_min", "n_max")),
            (("ramsey_sweep", "--n-points", "2"), ("n_points",)),
            (("jpa_sweep", "--n-points", "2"), ("n_points",)),
            (("dualpath_sweep", "--count", "40", "--set", "temperatures_k=[0.1]"), ("temperatures_k",)),
            (("planck_calibration", "--set", "t_min_k=0.5", "--set", "t_max_k=1.0"), ("t_min_k", "t_max_k")),
            (("planck_calibration", "--set", "t_min_k=1.0", "--set", "t_max_k=0.5"), ("t_min_k", "t_max_k")),
            (("ramsey_sweep", "--set", "omega_q_ghz=6.07"), ("omega_q_ghz", "omega_r_ghz", "alpha_mhz")),
            (("ramsey_sweep", "--set", "alpha_mhz=-850"), ("omega_q_ghz", "omega_r_ghz", "alpha_mhz")),
        ],
    )
    def test_unfittable_sweep_names_the_key(self, tmp_path, capsys, args, keys):
        code = run_cli("run", *args, "--out", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert {key for key in _rows(args[0]) if repr(key) in err} == set(keys)
        assert not (tmp_path / "r").exists()

    # the rules across keys, each raised by its pipeline before any work
    @pytest.mark.parametrize(
        "experiment, kwargs, work, arguments",
        [
            ("planck_calibration", {"t_min": 0.5, "t_max": 1.0}, "planck_power", ("t_min", "t_max")),
            ("planck_calibration", {"t_min": 1.0, "t_max": 0.5}, "planck_power", ("t_min", "t_max")),
            (
                "ramsey_sweep",
                {"system": _sample_system(max_frequency=SAMPLE_RESONATOR.resonance_frequency)},
                "simulate_ramsey",
                CHI_PARTS,
            ),
            # delta + alpha = 0
            ("ramsey_sweep", {"system": _sample_system(anharmonicity=-850e6)}, "simulate_ramsey", CHI_PARTS),
        ],
    )
    def test_rule_across_arguments_is_raised_before_any_work(
        self, monkeypatch, experiment, kwargs, work, arguments
    ):
        def no_work(*args, **named):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(experiments, work, no_work)
        with pytest.raises(PipelineArgumentError) as raised:
            EXPERIMENTS[experiment](**kwargs)
        assert raised.value.arguments == arguments

    def test_vacuum_sweep_names_the_state(self):
        # the vacuum is a thermal field at n = 0, not a state kind; a direct
        # call with an unknown state meets the pipeline's check
        with pytest.raises(PipelineArgumentError, match="'state'"):
            EXPERIMENTS["ramsey_sweep"](state="vacuum")

    @pytest.mark.parametrize("name", ["dualpath_sweep", "quadrature_check"])
    def test_short_dualpath_count_is_named_before_any_point(self, monkeypatch, name):
        # the config schema holds count >= 2 * ERROR_BATCHES for the CLI; a
        # direct call meets the pipeline's own check, as a shorter count
        # leaves error blocks too small for an error bar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EXPERIMENTS[name](count=2 * ERROR_BATCHES)

        def no_point(*args, **kwargs):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(experiments, "_detect_point", no_point)
        for count in (21, 2 * ERROR_BATCHES - 1):
            with pytest.raises(PipelineArgumentError, match="'count'") as raised:
                EXPERIMENTS[name](count=count)
            assert raised.value.arguments == ("count",)

    def test_value_error_inside_a_fit_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("abscissa values must be distinct")

        monkeypatch.setattr(experiments, "fit_variance_law", fail)
        code = run_cli("run", "jpa_sweep", "--out", str(tmp_path / "j"))
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "abscissa values must be distinct" in err
        assert not (tmp_path / "j").exists()

    def test_jpa_sweep_reference_slope(self, tmp_path):
        out = tmp_path / "jpa"
        code = run_cli("run", "jpa_sweep", "--out", str(out))
        assert code == 0
        fits = json.loads((out / "fits.json").read_text())
        assert fits["fits"]["g2_law"]["parameters"]["xi"] == pytest.approx(6.64, abs=1e-9)

    def test_wrote_lists_only_this_runs_files(self, tmp_path, capsys):
        out = tmp_path / "shared"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        assert capsys.readouterr().out == (
            f"wrote ['fits.json', 'manifest.json', 'variance_curves.csv'] to {out}\n"
        )
        assert run_cli("run", "jpa_sweep", "--out", str(out)) == 0
        # the earlier run is replaced, not merged
        assert not (out / "variance_curves.csv").exists()
        assert capsys.readouterr().out == (
            f"wrote ['fits.json', 'g2_minus_offset.csv', 'manifest.json'] to {out}\n"
        )

    def test_later_run_replaces_earlier_run(self, tmp_path):
        out = tmp_path / "shared"
        assert run_cli("run", "quadrature_check", "--count", "400", "--out", str(out)) == 0
        assert (out / "quadratures.csv").exists()
        assert run_cli("run", "jpa_sweep", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fits.json", "g2_minus_offset.csv", "manifest.json"
        ]
        assert list(tmp_path.iterdir()) == [out]  # no temporary sibling is left

    def test_empty_out_dir_is_replaced(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        assert (out / "variance_curves.csv").exists()

    @pytest.mark.parametrize("stage", ["pipeline", "writer"])
    def test_failed_run_leaves_earlier_run_intact(self, tmp_path, monkeypatch, stage):
        out = tmp_path / "run"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail(*args, **kwargs):
            raise NumericalError("injected failure")

        if stage == "pipeline":
            monkeypatch.setitem(EXPERIMENTS, "jpa_sweep", fail)
        else:
            write = cli._write_run_outputs

            def write_then_fail(out_dir, *args):
                write(out_dir, *args)  # every file of the new run is on disk
                fail()

            monkeypatch.setattr(cli, "_write_run_outputs", write_then_fail)
        assert run_cli("run", "jpa_sweep", "--out", str(out)) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("foreign", ["directory", "file"])
    def test_foreign_out_is_refused(self, tmp_path, capsys, foreign):
        out = tmp_path / "mine"
        if foreign == "directory":
            out.mkdir()
            (out / "notes.txt").write_text("keep me\n")
        else:
            out.write_text("keep me\n")
        assert run_cli("run", "variance_curves", "--out", str(out)) == 1
        assert f"--out {out}" in capsys.readouterr().err
        kept = out / "notes.txt" if foreign == "directory" else out
        assert kept.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "ramsey_sweep", "--set", "bogus_key=1", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_unparseable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = run_cli("run", "variance_curves", "--config", str(bad), "--out", str(tmp_path / "y"))
        assert code == 1

    @pytest.mark.parametrize("config", ["missing.json", "."])
    def test_unreadable_config_file_names_it(self, tmp_path, capsys, config):
        path = tmp_path / config
        code = run_cli("run", "variance_curves", "--config", str(path), "--out", str(tmp_path / "y"))
        assert code == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, count", [("quadrature_check", "3"), ("dualpath_sweep", "2")]
    )
    def test_count_below_two_per_error_block(self, tmp_path, capsys, experiment, count):
        code = run_cli("run", experiment, "--count", count, "--out", str(tmp_path / "c"))
        assert code == 1
        assert "'count'" in capsys.readouterr().err

    def test_scalar_temperature_list_rejected(self, tmp_path, capsys):
        code = run_cli(
            "run", "dualpath_sweep", "--set", "temperatures_k=5", "--out", str(tmp_path / "t")
        )
        assert code == 1
        assert "temperatures_k" in capsys.readouterr().err

    # a JSON integer no float can hold, and numbers that a key's unit scale
    # carries past the largest float
    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_max", "1" + "0" * 400),
            ("bandwidth_khz", "1e306"),
            ("omega_q_ghz", "1e300"),
            ("mode_ghz", "1e300"),
            ("g_mhz", "1e303"),
            ("alpha_mhz", "-1e303"),
            ("gamma1_d_thermal_khz", "1e306"),
        ],
    )
    def test_value_beyond_float_range_names_the_key(self, tmp_path, capsys, key, value):
        code = run_cli("run", _taking(key), "--set", f"{key}={value}", "--out", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(key) in err
        assert not (tmp_path / "r").exists()

    def test_qubit_on_resonance_is_a_configuration_error(self, tmp_path, capsys):
        code = run_cli(
            "run", "ramsey_sweep", "--set", "omega_q_ghz=6.07", "--out", str(tmp_path / "q")
        )
        assert code == 1
        assert "resonance" in capsys.readouterr().err

    def test_qubit_at_the_straddling_point_is_a_configuration_error(self, tmp_path, capsys):
        # delta + alpha = 850 MHz - 850 MHz = 0
        code = run_cli(
            "run", "ramsey_sweep", "--set", "alpha_mhz=-850", "--out", str(tmp_path / "q")
        )
        assert code == 1
        assert "straddling" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_resonance_on_the_way_to_the_finished_system_is_accepted(self, tmp_path):
        # omega_q_ghz=6.07 meets the default resonator, but the run moves it to 5 GHz
        code = run_cli(
            "run", "ramsey_sweep", "--set", "omega_q_ghz=6.07", "--set", "omega_r_ghz=5.0",
            "--n-points", "4", "--set", "tau_points=24", "--out", str(tmp_path / "q"),
        )
        assert code == 0

    @pytest.mark.parametrize("t_min", ["1.0", "0.5"])
    def test_planck_range_must_increase(self, tmp_path, capsys, t_min):
        code = run_cli(
            "run", "planck_calibration", "--set", f"t_min_k={t_min}", "--set", "t_max_k=0.5",
            "--out", str(tmp_path / "p"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'t_min_k'" in err and "'t_max_k'" in err
        assert not (tmp_path / "p").exists()

    def test_planck_range_must_span_the_fit_factor(self, tmp_path, capsys):
        # planck_fit needs t_max / t_min >= 3; run checks the same ratio up front
        code = run_cli(
            "run", "planck_calibration", "--set", "t_min_k=0.5", "--set", "t_max_k=1.0",
            "--out", str(tmp_path / "p"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'t_min_k'" in err and "'t_max_k'" in err
        assert not (tmp_path / "p").exists()
        code = run_cli(
            "run", "planck_calibration", "--set", "t_min_k=0.5", "--set", "t_max_k=1.5",
            "--out", str(tmp_path / "p"),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "args, named",
        [
            (["jpa_sweep", "--noise-statistics", "classical"], "--noise-statistics"),
            (["dualpath_sweep", "--set", "gain_1=2"], "'gain_1'"),
        ],
    )
    def test_removed_inputs_fail_loudly(self, tmp_path, capsys, args, named):
        code = run_cli("run", *args, "--out", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        if named.startswith("'"):
            assert f"allowed: {sorted(DEFAULTS[args[0]])}" in err
        assert not (tmp_path / "r").exists()

    def test_removed_key_in_a_config_file_fails_loudly(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"noise_statistics": "classical"}))
        code = run_cli("run", "jpa_sweep", "--config", str(config), "--out", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert "'noise_statistics'" in err and f"allowed: {sorted(DEFAULTS['jpa_sweep'])}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_runaway_ramsey_fit_names_its_point(self, tmp_path, capsys):
        # at seed 0 the fit at n_r = 0.05 runs away to gamma2 ~ 1e21 Hz with sigma = 0,
        # which would weight the law fit with inf
        code = run_cli(
            "run", "ramsey_sweep", "--n-points", "4", "--set", "tau_points=16",
            "--shots", "300", "--out", str(tmp_path / "r"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "n_r = 0.05" in err
        assert not (tmp_path / "r").exists()

    def test_operating_point_runs_with_its_own_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"operating_point": "jpa1"}))
        point = JPA_OPERATING_POINTS["jpa1"]
        out = tmp_path / "point"
        assert run_cli("run", "jpa_sweep", "--config", str(config), "--out", str(out)) == 0
        summary = json.loads((out / "fits.json").read_text())["summary"]
        assert summary["n_n"] == point.added_noise_photons

    @pytest.mark.parametrize("name", sorted(JPA_OPERATING_POINTS))
    def test_manifest_records_the_operating_point_the_run_used(self, tmp_path, name):
        out = tmp_path / name
        assert run_cli("run", "jpa_sweep", "--set", f"operating_point={name}", "--out", str(out)) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["operating_point"] == name
        assert "n_n" not in config and "gain_db" not in config
        summary = json.loads((out / "fits.json").read_text())["summary"]
        point = JPA_OPERATING_POINTS[name]
        assert (summary["n_n"], summary["gain_db"]) == (point.added_noise_photons, point.gain_db)

    @pytest.mark.parametrize(
        "args, named",
        [(["--set", "n_n=0.3"], "'n_n'"), (["--set", "gain_db=20"], "'gain_db'"), (["--n-n", "0.3"], "--n-n")],
    )
    def test_amplifier_is_named_by_its_operating_point_only(self, tmp_path, capsys, args, named):
        code = run_cli("run", "jpa_sweep", *args, "--out", str(tmp_path / "j"))
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not (tmp_path / "j").exists()

    def test_degenerate_planck_sweep_is_a_numerical_failure(self, tmp_path, capsys):
        code = run_cli(
            "run", "planck_calibration", "--set", "t_min_k=0.001", "--set", "t_max_k=0.004",
            "--out", str(tmp_path / "p"),
        )
        assert code == 2
        assert "degenerate Planck sweep" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_invalid_state_value(self, tmp_path):
        code = run_cli(
            "run", "ramsey_sweep", "--state", "squeezed", "--out", str(tmp_path / "z"),
            "--shots", "100", "--n-points", "4", "--set", "tau_points=24",
        )
        assert code == 1


class TestFitWeights:
    def test_weights_are_inverse_variances(self):
        weights = experiments._fit_weights("n_r", [0.1, 0.2], [0.5, 0.25])
        np.testing.assert_array_equal(weights, [4.0, 16.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_unusable_error_names_the_first_point(self, bad):
        with pytest.raises(NumericalError, match=r"temperature = 0\.2:"):
            experiments._fit_weights("temperature", [0.1, 0.2, 0.3], [1e-3, bad, bad])


class TestReportCommand:
    def _completed_run(self, tmp_path):
        out = tmp_path / "jpa_run"
        assert run_cli("run", "jpa_sweep", "--out", str(out)) == 0
        return out

    def test_report_passes_for_reference_sweep(self, tmp_path, capsys):
        out = self._completed_run(tmp_path)
        assert run_cli("report", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"]
        names = {check["name"] for check in report["checks"]}
        assert "rho" in names
        assert "PASS" in capsys.readouterr().out

    def test_report_byte_identical(self, tmp_path):
        out = self._completed_run(tmp_path)
        run_cli("report", str(out))
        first = (out / "report.json").read_bytes()
        run_cli("report", str(out))
        assert (out / "report.json").read_bytes() == first

    def test_empty_directory_lists_expected_artifacts(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run_cli("report", str(empty)) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err
        assert "fits.json" in err

    def test_missing_table_detected(self, tmp_path, capsys):
        out = self._completed_run(tmp_path)
        (out / "g2_minus_offset.csv").unlink()
        assert run_cli("report", str(out)) == 1
        assert "g2_minus_offset" in capsys.readouterr().err

    def test_manifest_that_is_not_json_is_named(self, tmp_path, capsys):
        out = self._completed_run(tmp_path)
        (out / "manifest.json").write_text("{not json")
        assert run_cli("report", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "manifest.json" in err and "as JSON" in err
        assert not (out / "report.json").exists()

    def test_fits_without_fits_key_names_file_and_key(self, tmp_path, capsys):
        out = self._completed_run(tmp_path)
        payload = json.loads((out / "fits.json").read_text())
        del payload["fits"]
        (out / "fits.json").write_text(json.dumps(payload))
        assert run_cli("report", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "fits.json" in err and "'fits'" in err
        assert not (out / "report.json").exists()

    def test_report_reads_run_keys_from_the_manifest_config(self, tmp_path, capsys):
        out = tmp_path / "planck"
        assert run_cli("run", "planck_calibration", "--seed", "3", "--out", str(out)) == 0
        report = generate_report(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3 and report["all_passed"]
        assert not {"seed", "summary"} & set(report)  # the report restates no number of the run
        # a run written while fits.json and manifest.json restated run keys
        payload = json.loads((out / "fits.json").read_text())
        payload["summary"].update(chain_gain_db_true=145.0, chain_noise_temperature_true_k=3.0, seed=3)
        (out / "fits.json").write_text(json.dumps(payload))
        (out / "manifest.json").write_text(json.dumps({**manifest, "seed": 3}))
        assert generate_report(out)["checks"] == report["checks"]
        manifest["config"]["chain_gain_db"] += 1.0
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert _failed_checks(out) == ["chain_gain_recovery_db"]
        del manifest["config"]["t_chain_k"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("report", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err and "'t_chain_k'" in err
        (out / "manifest.json").write_text(json.dumps({**manifest, "config": []}))
        assert run_cli("report", str(out)) == 1
        assert "config as a JSON object" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_fits_value_that_is_not_a_number_names_run_and_value(self, tmp_path, capsys):
        out = self._completed_run(tmp_path)
        payload = json.loads((out / "fits.json").read_text())
        payload["summary"]["xi_thermal_model"] = "abc"
        (out / "fits.json").write_text(json.dumps(payload))
        assert run_cli("report", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err
        assert "'summary.xi_thermal_model': 'abc'" in err
        assert not (out / "report.json").exists()

    def test_zero_chain_noise_temperature_is_rejected(self, tmp_path, capsys):
        # report judges the recovered chain noise temperature as a ratio to t_chain_k
        out = tmp_path / "planck"
        code = run_cli("run", "planck_calibration", "--set", "t_chain_k=0", "--out", str(out))
        assert code == 1
        assert "t_chain_k" in capsys.readouterr().err
        assert not out.exists()

    def test_planck_report_without_its_amplifier_fits_names_the_entry(self, tmp_path, capsys):
        out = tmp_path / "planck"
        assert run_cli("run", "planck_calibration", "--set", "n_temperatures=10", "--out", str(out)) == 0
        payload = json.loads((out / "fits.json").read_text())
        del payload["fits"]["jpa_calibrations"]
        (out / "fits.json").write_text(json.dumps(payload))
        assert run_cli("report", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err and "'jpa_calibrations'" in err
        assert not (out / "report.json").exists()

    def test_unknown_experiment_in_manifest_rejected(self, tmp_path, capsys):
        out = tmp_path / "curves"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["experiment"] = "variance_curve"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("report", str(out)) == 1
        assert "'variance_curve'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_dualpath_report_checks_rho_band(self, tmp_path):
        out = tmp_path / "dp"
        code = run_cli(
            "run", "dualpath_sweep", "--count", "60000", "--seed", "2",
            "--set", "temperatures_k=[0.25, 0.35, 0.45, 0.55]",
            "--out", str(out),
        )
        assert code == 0
        report = generate_report(out)
        rho_checks = [c for c in report["checks"] if c["name"] == "g2_quadratic_rho"]
        assert rho_checks and rho_checks[0]["band"] == [1.9, 2.1]


def _tamper(path, row, column, change):
    """Rewrite one cell of a run's CSV table as ``change(float(cell))``."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = repr(change(float(cells[header.index(column)])))
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _failed_checks(run_dir):
    return sorted(c["name"] for c in generate_report(run_dir)["checks"] if not c["passed"])


class TestReportPhysicsChecks:
    @pytest.fixture(scope="class")
    def quadrature_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("quadrature") / "run"
        assert run_cli("run", "quadrature_check", "--count", "40000", "--seed", "3", "--out", str(out)) == 0
        return out

    def test_quadrature_checks_pass_on_a_run(self, quadrature_run):
        report = generate_report(quadrature_run)
        assert report["all_passed"]
        assert sorted(c["name"] for c in report["checks"]) == [
            "var_p_at_n_0.1", "var_p_at_n_1.0", "var_q_at_n_0.1", "var_q_at_n_1.0",
        ]
        assert all(c["band"] == [-5.0, 5.0] for c in report["checks"])

    def test_quadrature_table_holds_what_it_measures(self, quadrature_run):
        # the reconstructed variances, their errors and the model they are read
        # against; closed forms of n alone (Wigner contour radii) are not written
        lines = (quadrature_run / "quadratures.csv").read_text().splitlines()
        assert lines[0] == "n,var_p,var_p_err,var_q,var_q_err,var_model"
        for row in csv.DictReader(lines):
            assert float(row["var_model"]) == float(row["n"]) / 2.0 + 0.25

    @pytest.mark.parametrize("row, quad", [(0, "var_p"), (0, "var_q"), (1, "var_p"), (1, "var_q")])
    def test_tampered_quadrature_variance_fails(self, quadrature_run, tmp_path, row, quad):
        run = tmp_path / "run"
        shutil.copytree(quadrature_run, run)
        table = run / "quadratures.csv"
        err = float(list(csv.DictReader(table.read_text().splitlines()))[row][f"{quad}_err"])
        _tamper(table, row, quad, lambda value: value + 11.0 * err)
        n = ["0.1", "1.0"][row]
        assert _failed_checks(run) == [f"{quad}_at_n_{n}"]

    def test_zero_quadrature_error_fails(self, quadrature_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(quadrature_run, run)
        _tamper(run / "quadratures.csv", 1, "var_q_err", lambda value: 0.0)
        assert _failed_checks(run) == ["var_q_at_n_1.0"]

    @pytest.fixture(scope="class")
    def ramsey_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ramsey") / "run"
        assert run_cli("run", "ramsey_sweep", "--out", str(out)) == 0
        return out

    def test_ramsey_checks_pass_on_a_run(self, ramsey_run):
        report = generate_report(ramsey_run)
        assert report["all_passed"]
        assert sorted(c["name"] for c in report["checks"]) == [
            "photon_statistics_slope_vs_model", "ramsey_fits_converged", "thermal_rho_over_xi",
        ]

    @pytest.mark.parametrize("row", [0, 11])
    def test_unconverged_ramsey_fit_fails(self, ramsey_run, tmp_path, row):
        run = tmp_path / "run"
        shutil.copytree(ramsey_run, run)
        _tamper(run / "dephasing_vs_n.csv", row, "fit_converged", lambda value: 0)
        assert _failed_checks(run) == ["ramsey_fits_converged"]

    @pytest.mark.parametrize(
        "entry, key", [("summary", "expected_slope_hz"), ("fits", "photon_statistics_law")]
    )
    def test_missing_fits_entry_names_run_and_key(self, ramsey_run, tmp_path, capsys, entry, key):
        run = tmp_path / "run"
        shutil.copytree(ramsey_run, run)
        payload = json.loads((run / "fits.json").read_text())
        del payload[entry][key]
        (run / "fits.json").write_text(json.dumps(payload))
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(run) in err and f"'{key}'" in err
        assert not (run / "report.json").exists()

    def test_missing_table_column_names_run_and_key(self, ramsey_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(ramsey_run, run)
        table = run / "dephasing_vs_n.csv"
        lines = [line.rsplit(",", 1)[0] for line in table.read_text().splitlines()]
        assert table.read_text().splitlines()[0].endswith(",fit_converged")
        table.write_text("\n".join(lines) + "\n")
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(run) in err and "'fit_converged'" in err
        assert not (run / "report.json").exists()

    # every pipeline writes at least one row to each table
    @pytest.mark.parametrize("fixture, table", [("quadrature_run", "quadratures"), ("ramsey_run", "dephasing_vs_n")])
    def test_table_without_rows_names_the_file(self, request, tmp_path, capsys, fixture, table):
        run = tmp_path / "run"
        shutil.copytree(request.getfixturevalue(fixture), run)
        path = run / f"{table}.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{path} holds no rows" in err
        assert not (run / "report.json").exists()

    @pytest.mark.parametrize("content", [b"", b"n,var_p\xff\n0.1,0.3\n"], ids=["empty", "not_utf8"])
    def test_empty_or_undecodable_table_names_the_file(self, quadrature_run, tmp_path, capsys, content):
        run = tmp_path / "run"
        shutil.copytree(quadrature_run, run)
        (run / "quadratures.csv").write_bytes(content)
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(run / "quadratures.csv") in err
        assert not (run / "report.json").exists()

    @pytest.mark.parametrize(
        "change, extra",
        [(lambda cells: cells[:-2], -2), (lambda cells: cells + ["1"], 1)],
        ids=["two_short", "one_long"],
    )
    def test_row_of_the_wrong_length_names_file_and_row(self, ramsey_run, tmp_path, capsys, change, extra):
        run = tmp_path / "run"
        shutil.copytree(ramsey_run, run)
        path = run / "dephasing_vs_n.csv"
        lines = path.read_text().splitlines()
        width = len(lines[0].split(","))
        lines[3] = ",".join(change(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert f"{path} row 3 has {width + extra} cells, but its header has {width}" in err
        assert not (run / "report.json").exists()

    @pytest.mark.parametrize(
        "fixture, table, column",
        [("quadrature_run", "quadratures", "var_q"), ("ramsey_run", "dephasing_vs_n", "fit_converged")],
    )
    def test_cell_that_is_not_a_number_names_run_and_value(
        self, request, tmp_path, capsys, fixture, table, column
    ):
        run = tmp_path / "run"
        shutil.copytree(request.getfixturevalue(fixture), run)
        path = run / f"{table}.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = "abc"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", str(run)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(run) in err and "'abc'" in err
        assert not (run / "report.json").exists()

    @pytest.fixture(scope="class")
    def curves_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("curves") / "run"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        return out

    def test_variance_curve_checks_pass_on_a_run(self, curves_run):
        report = generate_report(curves_run)
        assert report["all_passed"]
        assert sorted(c["name"] for c in report["checks"]) == [
            "classical_limit_sqrt_var_closed_form",
            "coherent_sqrt_var_closed_form",
            "thermal_sqrt_var_closed_form",
        ]

    # rows cycle thermal, classical_limit, coherent; rows 0-2 sit at n = 0
    @pytest.mark.parametrize(
        "row, state",
        [(0, "thermal"), (300, "thermal"), (4, "classical_limit"), (602, "coherent"), (2, "coherent")],
    )
    def test_tampered_variance_curve_row_fails(self, curves_run, tmp_path, row, state):
        run = tmp_path / "run"
        shutil.copytree(curves_run, run)
        _tamper(run / "variance_curves.csv", row, "sqrt_var", lambda value: value * (1 + 1e-11) + 1e-11)
        assert _failed_checks(run) == [f"{state}_sqrt_var_closed_form"]

    @pytest.mark.parametrize("state", ["thermal", "classical_limit", "coherent"])
    def test_closed_form_without_its_rows_fails(self, curves_run, tmp_path, state):
        run = tmp_path / "run"
        shutil.copytree(curves_run, run)
        path = run / "variance_curves.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith(f"{state},")) + "\n")
        assert _failed_checks(run) == [f"{state}_sqrt_var_closed_form"]


class TestSchemaCommand:
    def test_schemas_written(self, tmp_path):
        out = tmp_path / "schemas"
        assert run_cli("schema", "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "config.schema.json",
            "fits.schema.json",
            "manifest.schema.json",
            "report.schema.json",
        ]

    def test_artifacts_validate_against_schemas(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schemas = tmp_path / "schemas"
        run_cli("schema", "--out", str(schemas))
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"operating_point": "jpa1"}))
        assert run_cli("run", "jpa_sweep", "--config", str(config), "--out", str(out)) == 0
        assert run_cli("report", str(out)) == 0
        pairs = [
            (config, "config.schema.json"),
            (out / "fits.json", "fits.schema.json"),
            (out / "manifest.json", "manifest.schema.json"),
            (out / "report.json", "report.schema.json"),
        ]
        for artifact, schema_name in pairs:
            schema = json.loads((schemas / schema_name).read_text())
            jsonschema.validate(json.loads(artifact.read_text()), schema)


class TestOutputRoot:
    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MWPHOTON_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "variance_curves") == 0
        assert (tmp_path / "root" / "variance_curves" / "variance_curves.csv").exists()

    def test_explicit_out_wins_over_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MWPHOTON_OUTPUT_ROOT", str(tmp_path / "root"))
        out = tmp_path / "explicit"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        assert (out / "variance_curves.csv").exists()
        assert not (tmp_path / "root").exists()


class TestParserReuse:
    def test_runs_in_one_process_leak_no_state(self, tmp_path, capsys):
        args = ("--set", "n_max=2", "--n-points", "5")
        assert run_cli("run", "variance_curves", *args, "--out", str(tmp_path / "a")) == 0
        assert run_cli("run", "variance_curves", "--n-points", "many") == 1
        with pytest.raises(SystemExit) as exited:
            run_cli("--version")
        assert exited.value.code == 0
        assert run_cli("run", "variance_curves", "--out", str(tmp_path / "b")) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"] == DEFAULTS["variance_curves"]
        # the shared parser's ``--set`` default is copied, never appended to
        assert cli.build_parser().parse_args(["run", "variance_curves"]).set == []
        assert cli.build_parser() is cli.build_parser()

    def test_each_flag_names_the_experiments_it_serves(self):
        (subparsers,) = (
            action
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        helps = {action.dest: action.help for action in subparsers.choices["run"]._actions}
        for key in cli._FLAGS:
            served = ", ".join(name for name in sorted(DEFAULTS) if key in DEFAULTS[name])
            assert helps[key] == f"set config field {key} ({served})"


# Guard: every run key changes a result.  Each key of each experiment is
# moved from a small base config to SECOND[key]; the run must move some
# table or fit number by more than RESULT_TOLERANCE relative, or change a
# table's shape or a string cell.
RESULT_TOLERANCE = 1e-9

BASE = {
    "variance_curves": {"n_max": 2.0, "n_points": 5},
    "ramsey_sweep": {"n_points": 4, "shots": 1000, "tau_points": 24},
    "dualpath_sweep": {"count": 4000, "temperatures_k": [0.25, 0.35, 0.45, 0.55]},
    "jpa_sweep": {"n_points": 5},
    "planck_calibration": {"n_temperatures": 10},
    "quadrature_check": {"count": 4000},
}

# Keys that act only beside another get that other key in their base.
BASE_OVERRIDES = {
    ("ramsey_sweep", "gamma1_d_coherent_khz"): {"state": "coherent"},
    ("planck_calibration", "seed"): {"power_noise_fraction": 0.01},
}

SECOND = {
    "seed": 1,
    "state": "coherent",
    "n_points": 6,
    "n_min": 0.1,
    "n_max": 1.0,
    "shots": 400,
    "tau_points": 32,
    "decay_spans": 2.5,
    "omega_q_ghz": 6.9,
    "omega_r_ghz": 6.1,
    "g_mhz": 60.0,
    "alpha_mhz": -300.0,
    "kappa_x_mhz": 9.0,
    "kappa_i_khz": 5000.0,
    "gamma1_mhz": 3.0,
    "gamma1_d_thermal_khz": 500.0,
    "gamma1_d_coherent_khz": -10.0,
    "gamma_phi0_mhz": 0.1,
    "count": 8000,
    "n_chain_1": 0.5,
    "n_chain_2": 2.0,
    "mode_ghz": 6.0,
    "temperatures_k": [0.25, 0.35, 0.45, 0.6],
    "operating_point": "jpa1",
    "chain_gain_db": 140.0,
    "t_chain_k": 4.0,
    "bandwidth_khz": 300.0,
    "power_noise_fraction": 0.01,
    "t_min_k": 0.1,
    "t_max_k": 1.2,
    "n_temperatures": 12,
    "occupations": [0.2, 1.0],
}

# Keys that change no result, each with the reason it is kept.
DELIBERATE = {
    ("ramsey_sweep", "kappa_i_khz"): (
        "Resonator.internal_rate enters no rate yet: the dephasing law reads kappa_x only, "
        "until the exact law decides whether it uses kappa_x + kappa_i (ROADMAP: "
        "\"Exact long-time Ramsey rates beside the Gaussian law\")"
    ),
}

RUN_KEYS = [(name, key) for name in sorted(EXPERIMENTS) for key in sorted(_rows(name))]


def _result(experiment, config):
    """The tables and fits of one run through the CLI's config path."""
    kwargs = _experiment_kwargs(experiment, resolve_config(experiment, None, config))
    result = EXPERIMENTS[experiment](**kwargs)
    return {"tables": result["tables"], "fits": result["fits"]}


def _leaves(value, path=()):
    """(path, leaf) of every scalar in a nested result; a sequence also gives its length."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        yield path + ("len",), len(value)
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path, value


def _moves(before, after):
    """Whether ``after`` differs from ``before`` beyond RESULT_TOLERANCE."""
    old, new = dict(_leaves(before)), dict(_leaves(after))
    if old.keys() != new.keys():
        return True
    for path, a in old.items():
        b = new[path]
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if not numbers:
            if a != b:
                return True
        elif not (math.isnan(a) and math.isnan(b)):
            if not abs(a - b) <= RESULT_TOLERANCE * max(abs(a), abs(b)):
                return True
    return False


def _moved_by(experiment, key):
    base = {**BASE[experiment], **BASE_OVERRIDES.get((experiment, key), {})}
    assert base.get(key) != SECOND[key]
    return _moves(_result(experiment, base), _result(experiment, {**base, key: SECOND[key]}))


class TestEveryKeyChangesAResult:
    @pytest.mark.parametrize(
        "experiment, key", [pair for pair in RUN_KEYS if pair not in DELIBERATE]
    )
    def test_key_moves_a_table_or_fit(self, experiment, key):
        assert _moved_by(experiment, key), f"{experiment} {key} changes no result"

    @pytest.mark.parametrize("experiment, key", sorted(DELIBERATE))
    def test_deliberate_key_still_changes_nothing(self, experiment, key):
        assert key in _rows(experiment)
        assert not _moved_by(experiment, key), f"drop {experiment} {key} from DELIBERATE"

    def test_tables_name_run_keys_only(self):
        assert set(SECOND) == {key for _, key in RUN_KEYS}
        assert set(BASE_OVERRIDES) <= set(RUN_KEYS)
        assert set(DELIBERATE) <= set(RUN_KEYS)


# Guard: every table column carries information.  A column that is constant
# down its rows, or bit-equal to another column, tells a reader nothing the
# summary or that other column does not.  Each experiment runs at its BASE
# config, jpa_sweep at every operating point.
COLUMN_RUNS = [(name, BASE[name]) for name in sorted(BASE) if name != "jpa_sweep"] + [
    ("jpa_sweep", {**BASE["jpa_sweep"], "operating_point": point})
    for point in sorted(JPA_OPERATING_POINTS)
]


def _uninformative(experiment, config):
    """Each constant column, and each ``a == b`` pair of bit-equal columns, of one run."""
    hits = set()
    for rows in _result(experiment, config)["tables"].values():
        cells = {name: [repr(row[name]) for row in rows] for name in rows[0]}
        hits.update(name for name, column in cells.items() if len(set(column)) == 1)
        hits.update(
            f"{a} == {b}" for a, b in itertools.combinations(sorted(cells), 2) if cells[a] == cells[b]
        )
    return hits


class TestEveryColumnCarriesInformation:
    # Columns kept although they carry no information at BASE, each with its reason.
    DELIBERATE = {
        ("ramsey_sweep", "fit_converged"): (
            "a flag: constant only while every fit converges (ROADMAP: "
            "\"A fit that cannot identify a parameter says so\")"
        ),
    }

    @pytest.mark.parametrize(
        "experiment, config",
        COLUMN_RUNS,
        ids=[f"{name}-{config.get('operating_point', 'base')}" for name, config in COLUMN_RUNS],
    )
    def test_columns_vary_and_differ(self, experiment, config):
        kept = {hit for name, hit in self.DELIBERATE if name == experiment}
        assert not _uninformative(experiment, config) - kept

    @pytest.mark.parametrize("experiment, hit", sorted(DELIBERATE))
    def test_deliberate_column_still_carries_nothing(self, experiment, hit):
        assert hit in _uninformative(experiment, BASE[experiment]), (
            f"drop {experiment} {hit} from DELIBERATE"
        )


# Guard: every number a run writes has one home.  A run key's is the
# manifest's config and a fit parameter's its fit entry, so a summary entry
# fails if one of its leaves equals a run key's value (in config or in
# pipeline units) both at BASE and with that key moved to SECOND, or is
# bit-equal to a parameter or standard error of a fit entry or to another
# leaf of the same summary (the later of the two in sorted order is named).
# One BASE run is not enough: there the noiseless Planck fit returns
# chain_gain_db = 145.0 exactly, the key's value, and 139.99999999999997 at
# SECOND.


def _scalars(value):
    """(path, leaf) of every number or string in a nested value; lengths and None left out."""
    return [
        (path, leaf)
        for path, leaf in _leaves(value)
        if path[-1:] != ("len",) and leaf is not None and not isinstance(leaf, bool)
    ]


def _summary_run(experiment, config):
    """A run's summary leaves, its fits, and each run key's values in both units."""
    resolved = resolve_config(experiment, None, config)
    kwargs = _experiment_kwargs(experiment, resolved)
    result = EXPERIMENTS[experiment](**kwargs)
    values = {}
    for key, row in _rows(experiment).items():
        both_units = [resolved[key], cli._get(kwargs[row.arg], row.part)]
        values[key] = [leaf for _, leaf in _scalars(both_units)]
    return dict(_scalars(result["summary"])), result["fits"], values


@functools.cache
def _restated(experiment):
    """Each summary entry of a BASE run that restates a run key, a fit number or an earlier
    summary leaf, with its sources."""
    summary, fits, values = _summary_run(experiment, BASE[experiment])
    # the fit numbers, then each summary leaf once it is passed
    numbers = [
        (f"{name}.{part}.{param}", number)
        for name, fit in fits.items()
        for part in ("parameters", "standard_errors")
        for param, number in fit.get(part, {}).items()
    ]
    moved = {}
    found = {}
    for path, leaf in summary.items():
        sources = {name for name, number in numbers if isinstance(leaf, float) and leaf == number}
        numbers.append((f"summary.{'.'.join(map(str, path))}", leaf))
        for key in [key for key, keyed in values.items() if leaf in keyed]:
            if key not in moved:
                assert BASE[experiment].get(key) != SECOND[key]
                moved[key] = _summary_run(experiment, {**BASE[experiment], key: SECOND[key]})
            leaves, _, moved_values = moved[key]
            if path in leaves and leaves[path] in moved_values[key]:
                sources.add(key)
        if sources:
            found.setdefault(path[0], set()).update(sources)
    return found


_BENCHMARK_READS = "benchmarks/workloads.py reads it from the summary (ROADMAP item 1)"


class TestEverySummaryEntryHasOneHome:
    # Copies kept, each with its reason.
    DELIBERATE = {
        ("dualpath_sweep", "rho"): _BENCHMARK_READS,
        ("ramsey_sweep", "slope_hz"): _BENCHMARK_READS,
        ("ramsey_sweep", "slope_err_hz"): _BENCHMARK_READS,
    }

    @pytest.mark.parametrize("experiment", sorted(BASE))
    def test_summary_restates_no_key_or_fit(self, experiment):
        kept = {entry for name, entry in self.DELIBERATE if name == experiment}
        found = _restated(experiment)
        assert not set(found) - kept, {entry: sorted(found[entry]) for entry in set(found) - kept}

    @pytest.mark.parametrize("experiment, entry", sorted(DELIBERATE))
    def test_deliberate_entry_is_still_a_copy(self, experiment, entry):
        assert entry in _restated(experiment), f"drop {experiment} {entry} from DELIBERATE"

    # the report checks read each number from its fit entry, not from a copy
    @pytest.mark.parametrize("experiment, entry", sorted(DELIBERATE))
    def test_no_report_check_reads_a_deliberate_copy(self, base_runs, experiment, entry, tmp_path):
        run = tmp_path / experiment
        shutil.copytree(base_runs[experiment], run)
        checks = generate_report(run)["checks"]
        payload = json.loads((run / "fits.json").read_text())
        payload["summary"][entry] = -1e6 * payload["summary"][entry]
        (run / "fits.json").write_text(json.dumps(payload))
        assert generate_report(run)["checks"] == checks


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    """A run directory of each experiment at its BASE config."""
    root = tmp_path_factory.mktemp("base")
    runs = {}
    for name, config in BASE.items():
        (root / f"{name}.json").write_text(json.dumps(config))
        runs[name] = root / name
        assert run_cli("run", name, "--config", str(root / f"{name}.json"), "--out", str(runs[name])) == 0
    return runs


# Guard: a corrupted run never crashes report.  Each leaf of a BASE run's
# fits.json, one at a time, becomes a string, null or nothing; report then
# passes, fails its checks or exits 1 naming the fault, but never raises.
@pytest.mark.parametrize("corruption", ["string", "null", "removed"])
@pytest.mark.parametrize("experiment", sorted(BASE))
def test_corrupted_fits_leaf_never_crashes_report(base_runs, experiment, corruption, tmp_path):
    run = tmp_path / experiment
    shutil.copytree(base_runs[experiment], run)
    text = (run / "fits.json").read_text()
    original = json.loads(text)
    leaves = _leaves({key: original[key] for key in ("fits", "summary")})
    for path in [path for path, _ in leaves if path[-1] != "len"]:
        payload = json.loads(text)
        *parents, last = path
        container = functools.reduce(lambda value, key: value[key], parents, payload)
        if corruption == "removed":
            del container[last]
        else:
            container[last] = "abc" if corruption == "string" else None
        (run / "fits.json").write_text(json.dumps(payload))
        assert cli.main(["report", str(run)]) in (0, 1), path


# Guard: report holds a run's manifest config to the checks run applies to
# each key.  Each key of a BASE run's config, one at a time, becomes a
# string, null, true or an out-of-range number (inf for a key without
# bounds), or is removed; an unknown key is added too, and a key with a
# unit scale gets the largest float, which overflows in the pipeline's unit.
# report then exits 1 naming the key.  Null is skipped where the key's
# schema allows it.
REMOVED = object()


@pytest.mark.parametrize("experiment", sorted(BASE))
def test_corrupted_manifest_config_names_the_key(base_runs, experiment, tmp_path, capsys):
    run = tmp_path / experiment
    shutil.copytree(base_runs[experiment], run)
    manifest = json.loads((run / "manifest.json").read_text())
    cases = [("kappa_y_mhz", 1.0)]
    for key, row in _rows(experiment).items():
        bound = OUT_OF_RANGE.get(key)
        number = bound if type(bound) in (int, float) else math.inf
        for value in ("abc", None, True, number, REMOVED):
            if not (value is None and "null" in row.schema.get("type", ())):
                cases.append((key, value))
        if row.scale != 1:  # finite, but not in the pipeline's unit
            cases.append((key, math.copysign(sys.float_info.max, number)))
    for key, value in cases:
        config = {k: v for k, v in manifest["config"].items() if k != key}
        if value is not REMOVED:
            config[key] = value
        (run / "manifest.json").write_text(json.dumps({**manifest, "config": config}))
        assert cli.main(["report", str(run)]) == 1, (key, value)
        assert repr(key) in capsys.readouterr().err, (key, value)


# report holds the other manifest fields to the JSON types of
# manifest.schema.json and exits 1 naming the file and the field.
@pytest.mark.parametrize(
    "field, value",
    [
        ("tables", 5),
        ("tables", None),
        ("tables", "variance_curves"),
        ("tables", [1]),
        ("tables", REMOVED),
        ("experiment", ["x"]),
        ("experiment", None),
        ("package_version", None),
        ("package_version", 1),
    ],
)
def test_malformed_manifest_field_names_the_field(base_runs, field, value, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(base_runs["variance_curves"], run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest = {key: item for key, item in manifest.items() if key != field}
    if value is not REMOVED:
        manifest[field] = value
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["report", str(run)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(run / "manifest.json") in err and field in err
    assert not (run / "report.json").exists()


# Guard: the CLI names no experiment.  Each experiment's report checks live
# beside its pipeline in experiments.CHECKS, so cli.py holds no string equal
# to an experiment name or to a table name; a run's table names do not
# depend on its config, so the BASE runs name them all.
class TestCliNamesNoExperiment:
    def test_cli_holds_no_experiment_or_table_name(self, base_runs):
        tables = {
            table
            for run in base_runs.values()
            for table in json.loads((run / "manifest.json").read_text())["tables"]
        }
        assert "dephasing_vs_n" in tables
        strings = {
            node.value
            for node in ast.walk(ast.parse(inspect.getsource(cli)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert sorted(strings & (set(EXPERIMENTS) | tables)) == []

    def test_every_experiment_has_its_checks(self):
        assert experiments.CHECKS.keys() == EXPERIMENTS.keys()

    @pytest.mark.parametrize("experiment", sorted(BASE))
    def test_report_at_base_holds_a_check(self, base_runs, experiment):
        assert generate_report(base_runs[experiment])["checks"]


# The result contract: a pipeline returns JSON-ready values, which ``run``
# writes as they are.  Every leaf of a result's tables, fits and summary is a
# str, int, float, bool or None inside dicts and lists; np.float64 passes,
# since it is a float.
JSON_SCALARS = (str, int, float, bool, type(None))


def _foreign(value):
    """(path, type name) of each leaf of ``value`` outside the result contract."""
    return [
        (path, type(leaf).__name__)
        for path, leaf in _leaves(value)
        if not isinstance(leaf, JSON_SCALARS)
    ]


class TestResultContract:
    @pytest.mark.parametrize("experiment", sorted(BASE))
    def test_result_holds_json_values_only(self, experiment):
        kwargs = _experiment_kwargs(experiment, resolve_config(experiment, None, BASE[experiment]))
        result = EXPERIMENTS[experiment](**kwargs)
        assert _foreign({part: result[part] for part in ("tables", "fits", "summary")}) == []

    def test_cli_imports_no_numpy(self):
        nodes = list(ast.walk(ast.parse(inspect.getsource(cli))))
        modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        assert [name for name in modules if name.split(".")[0] == "numpy"] == []

    def test_numpy_values_and_tuples_break_the_contract(self):
        result = {
            "rows": [{"n": np.int64(3), "ok": np.bool_(True), "g2": np.float64(0.5)}],
            "fit": {"values": np.arange(2), "pair": (1.0, 2.0), "error": None},
        }
        assert [path for path, _ in _foreign(result)] == [
            ("fit", "pair"), ("fit", "values"), ("rows", 0, "n"), ("rows", 0, "ok")
        ]


# One row of each cell type a pipeline returns: np.float64 is a float and prints as one.
MIXED_ROWS = [
    dict(zip(("state", "f64", "float", "int", "flag"), cells))
    for cells in (
        ("thermal", np.float64(0.1), 0.30000000000000004, 7, True),
        ("coherent", np.float64(1e-300), float("inf"), 0, False),
        ("shot_noise", np.float64(-0.0), 1e22, -1, True),
    )
]
MIXED_CSV = """state,f64,float,int,flag
thermal,0.1,0.30000000000000004,7,True
coherent,1e-300,inf,0,False
shot_noise,-0.0,1e+22,-1,True
"""


class TestTableWriter:
    def _write(self, tmp_path, rows):
        result = {"tables": {"mixed": rows}, "fits": {}, "summary": {}}
        cli._write_run_outputs(tmp_path / "run", "variance_curves", {}, result)

    def test_each_cell_prints_as_before(self, tmp_path):
        self._write(tmp_path, MIXED_ROWS)
        assert (tmp_path / "run" / "mixed.csv").read_text() == MIXED_CSV

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], r"table 'mixed' has no rows"),
            # row 2 with a column missing, one added, or its columns reversed
            ([MIXED_ROWS[0], dict(list(MIXED_ROWS[1].items())[:-1])], r"table 'mixed' row 2 "),
            ([MIXED_ROWS[0], {**MIXED_ROWS[1], "extra": 1}], r"table 'mixed' row 2 "),
            ([MIXED_ROWS[0], dict(reversed(MIXED_ROWS[1].items()))], r"table 'mixed' row 2 "),
        ],
        ids=["empty", "missing", "extra", "reordered"],
    )
    def test_empty_or_mismatched_table_is_refused(self, tmp_path, rows, message):
        with pytest.raises(ValueError, match=message):
            self._write(tmp_path, rows)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mwphoton.cli", "run", "variance_curves",
             "--out", str(tmp_path / "run")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "run" / "variance_curves.csv").exists()

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_usage_error_maps_to_config_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "mwphoton.cli", "run"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1

    def test_commands_run_without_scipy(self, tmp_path):
        # the runtime needs numpy alone: make ``import scipy`` fail, then
        # run the CLI module as ``python -m`` would
        without_scipy = (
            "import runpy, sys; sys.modules['scipy'] = None; "
            "runpy.run_module('mwphoton.cli', run_name='__main__', alter_sys=True)"
        )
        for argv in (
            ["run", "planck_calibration", "--out", str(tmp_path / "run")],
            ["report", str(tmp_path / "run")],
            ["schema", "--out", str(tmp_path / "schemas")],
        ):
            result = subprocess.run(
                [sys.executable, "-c", without_scipy, *argv], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr[-2000:]
        assert json.loads((tmp_path / "run" / "report.json").read_text())["checks"]
        assert any((tmp_path / "schemas").iterdir())
