import csv
import inspect
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mwphoton.cli import ConfigError, _experiment_kwargs, generate_report, main, resolve_config
from mwphoton.experiments import EXPERIMENTS
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
    "gain_1": 0.0,
    "gain_2": 0.0,
    "mode_ghz": 0.0,
    "temperatures_k": [0.3, 0.0],
    "noise_statistics": "quantum",
    "n_n": -1e-3,
    "gain_db": -1e-3,
    "operating_point": "jpa3",
    "t_chain_k": -1e-3,
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
    "n_n": 0.0,
    "gain_db": 0.0,
    "t_chain_k": 0.0,
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
            if experiment == "planck_calibration" and arg == "temperatures":
                np.testing.assert_array_equal(value, np.linspace(0.05, 1.5, 30))
            elif isinstance(default, tuple):
                assert tuple(value) == default, arg
            else:
                assert value == default, arg

    def test_keys_fill_their_parts_in_pipeline_units(self):
        config = resolve_config(
            "ramsey_sweep",
            None,
            {"omega_q_ghz": 7.1, "kappa_x_mhz": 9.5, "gamma1_d_coherent_khz": -10},
        )
        system = _experiment_kwargs("ramsey_sweep", config)["system"]
        assert system.resonator.external_rate == 9.5e6
        assert system.detuning == 7.1e9 - 6.07e9
        rates = system.qubit.relaxation_per_photon
        assert rates[StateKind.COHERENT] == rates[StateKind.SHOT_NOISE] == -10e3
        assert rates[StateKind.THERMAL] == 800e3

        config = resolve_config("dualpath_sweep", None, {"gain_1": 1.7, "n_chain_2": 0.5})
        kwargs = _experiment_kwargs("dualpath_sweep", config)
        assert kwargs["gains"] == (1.7, 1.0)
        assert kwargs["chain_noise_photons"] == (1.0, 0.5)

        config = resolve_config(
            "planck_calibration", None, {"t_max_k": 1.2, "n_temperatures": 24, "bandwidth_khz": 300}
        )
        kwargs = _experiment_kwargs("planck_calibration", config)
        np.testing.assert_array_equal(kwargs["temperatures"], np.linspace(0.05, 1.2, 24))
        assert kwargs["bandwidth"] == 300e3

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

    def test_schema_properties_are_the_accepted_keys(self, tmp_path):
        accepted = set().union(*(resolve_config(name, None, {}) for name in EXPERIMENTS))
        assert set(_config_schema(tmp_path)["properties"]) == accepted


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

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        args = ("run", "ramsey_sweep", "--shots", "200", "--n-points", "4",
                "--set", "tau_points=24", "--seed", "5")
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        for name in ("dephasing_vs_n.csv", "fits.json", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

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

    def test_jpa_sweep_reference_slope(self, tmp_path):
        out = tmp_path / "jpa"
        code = run_cli(
            "run", "jpa_sweep", "--noise-statistics", "thermal", "--n-n", "0.66",
            "--out", str(out),
        )
        assert code == 0
        fits = json.loads((out / "fits.json").read_text())
        assert fits["summary"]["xi"] == pytest.approx(6.64, abs=1e-9)

    def test_wrote_lists_only_this_runs_files(self, tmp_path, capsys):
        out = tmp_path / "shared"
        assert run_cli("run", "variance_curves", "--out", str(out)) == 0
        assert capsys.readouterr().out == (
            f"wrote ['fits.json', 'manifest.json', 'variance_curves.csv'] to {out}\n"
        )
        assert run_cli("run", "jpa_sweep", "--out", str(out)) == 0
        # variance_curves.csv is still in the directory, but this run did not write it
        assert (out / "variance_curves.csv").exists()
        assert capsys.readouterr().out == (
            f"wrote ['fits.json', 'g2_minus_offset.csv', 'manifest.json'] to {out}\n"
        )

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "ramsey_sweep", "--set", "bogus_key=1", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_unparseable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = run_cli("run", "variance_curves", "--config", str(bad), "--out", str(tmp_path / "y"))
        assert code == 1

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

    def test_noise_statistics_flag_takes_every_schema_value(self, tmp_path):
        choices = _config_schema(tmp_path)["properties"]["noise_statistics"]["enum"]
        assert "quantum_thermal" in choices
        for value in choices:
            out = tmp_path / value
            code = run_cli(
                "run", "jpa_sweep", "--noise-statistics", value, "--n-points", "4",
                "--out", str(out),
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["noise_statistics"] == value

    def test_qubit_on_resonance_is_a_configuration_error(self, tmp_path, capsys):
        code = run_cli(
            "run", "ramsey_sweep", "--set", "omega_q_ghz=6.07", "--out", str(tmp_path / "q")
        )
        assert code == 1
        assert "resonance" in capsys.readouterr().err

    def test_invalid_state_value(self, tmp_path):
        code = run_cli(
            "run", "ramsey_sweep", "--state", "squeezed", "--out", str(tmp_path / "z"),
            "--shots", "100", "--n-points", "4", "--set", "tau_points=24",
        )
        assert code == 1


class TestReportCommand:
    def _completed_run(self, tmp_path):
        out = tmp_path / "jpa_run"
        assert run_cli("run", "jpa_sweep", "--n-n", "0.66", "--out", str(out)) == 0
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
        config.write_text(json.dumps({"n_n": 0.66, "gain_db": 15.8}))
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

    def test_usage_error_maps_to_config_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "mwphoton.cli", "run"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
