"""The benchmark workloads and the checks on their outputs.

Each workload is driven only through mwphoton's public entry points:
``cli.main([...])`` in-process and the public ``dualpath``, ``qubit`` and
``states`` functions.  Its inputs come from the benchmark seed alone.  A
workload splits each pass into a timed part (:meth:`run_pass`), which does
the work and keeps the raw outcome of every operation, and an untimed part
(:meth:`verify`), which checks those outcomes and fingerprints them for the
determinism check.  An operation is one CLI invocation, one record round
trip or one Ramsey trace.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# package functions are called through their modules, so that a traced pass
# reaches the wrappers the tracer installs there
from mwphoton import cli, dualpath, experiments, qubit
from mwphoton.defaults import SAMPLE_SYSTEM
from mwphoton.states import MicrowaveState, StateKind

#: Width, in standard errors, of every statistical output check.
K_SIGMA = 5.0


class CheckFailed(Exception):
    """An output check did not hold."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """Outcome of one operation of a pass."""

    name: str
    error: Optional[str] = None
    out: Optional[Path] = None  # directory or file the operation wrote
    value: object = None  # in-memory result kept for the checks
    digest: str = ""  # fingerprint compared across passes


def _dir_digest(path: Path) -> tuple:
    """(sha256 over the names and bytes of every file in ``path``, total bytes)."""
    digest = hashlib.sha256()
    total = 0
    for item in sorted(path.iterdir()):
        data = item.read_bytes()
        digest.update(item.name.encode() + b"\0" + data + b"\0")
        total += len(data)
    return digest.hexdigest(), total


def _read_table(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _within(value: float, expected: float, sigma: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= K_SIGMA * sigma


class Workload:
    """Base class: a named workload whose inputs come from ``seed``."""

    name = ""
    sample_kind = ""
    #: (module, function name) pairs before whose calls, besides before
    #: every operation, a probing pass runs its probe
    probe_points = ()

    def __init__(self, seed: int):
        self.seed = seed
        # every pipeline seed is a non-negative int below 2**31
        self.cli_seed = seed % (1 << 31)
        self.tracer = None  # set while a traced pass runs
        self.report_failures = set()  # report checks that failed, kept as a record
        self._probe = None  # called before every operation while a pass probes

    def _op(self, name: str) -> Op:
        """Start an operation; its spans are tagged with its name."""
        if self._probe is not None:
            self._probe()
        if self.tracer is not None:
            self.tracer.op = name
        return Op(name)

    @contextmanager
    def probing(self, probe):
        """Call ``probe()`` before every operation and every call of the
        :attr:`probe_points` while the block runs."""
        saved = [(module, name, getattr(module, name)) for module, name in self.probe_points]

        def probed(fn):
            def call(*args, **kwargs):
                probe()
                return fn(*args, **kwargs)

            return call

        self._probe = probe
        for module, name, fn in saved:
            setattr(module, name, probed(fn))
        try:
            yield
        finally:
            self._probe = None
            for module, name, fn in saved:
                setattr(module, name, fn)

    def _cli_op(self, name: str, argv: list, out: Path) -> Op:
        op = self._op(name)
        op.out = out
        captured = io.StringIO()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                code = cli.main(argv)
        except Exception as exc:  # an operation that raises counts as failed
            op.error = f"raised {exc!r}"
            return op
        if code != 0:
            op.error = f"exit code {code}: {captured.getvalue().strip()[-300:]}"
        return op

    def run_pass(self, pass_dir: Path) -> list:
        raise NotImplementedError

    def verify(self, ops: list) -> tuple:
        """Check every operation; returns (samples in the pass, CLI artifact bytes)."""
        samples = artifact_bytes = 0
        for op in ops:
            if op.error is not None:
                continue
            try:
                op_samples, op_bytes = self.check(op)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                op.error = f"check failed: {exc}"
                continue
            samples += op_samples
            artifact_bytes += op_bytes
        return samples, artifact_bytes

    def check(self, op: Op) -> tuple:
        raise NotImplementedError


class DualpathPipelines(Workload):
    """``run dualpath_sweep`` and ``run quadrature_check`` at their CLI defaults."""

    name = "dualpath_pipelines"
    sample_kind = "envelope samples simulated"
    # a probe per sweep point: an operation lasts seconds, a point about one
    probe_points = ((experiments, "simulate_detection"),)

    def run_pass(self, pass_dir):
        seed = str(self.cli_seed)
        return [
            self._cli_op(name, ["run", name, "--seed", seed, "--out", str(pass_dir / name)], pass_dir / name)
            for name in ("dualpath_sweep", "quadrature_check")
        ]

    def check(self, op):
        op.digest, size = _dir_digest(op.out)
        config = _read_json(op.out / "manifest.json")["config"]
        if op.name == "dualpath_sweep":
            rho = _read_json(op.out / "fits.json")["summary"]["rho"]
            _require(1.9 <= rho <= 2.1, f"rho = {rho} outside [1.9, 2.1]")
            rows = _read_table(op.out / "g2_vs_n.csv")
            for row in rows:
                n_in, n_rec, err = (float(row[k]) for k in ("n_input", "n_reconstructed", "n_err"))
                _require(
                    _within(n_rec, n_in, err),
                    f"n_reconstructed {n_rec} vs n_input {n_in} beyond {K_SIGMA} x {err}",
                )
        else:
            rows = _read_table(op.out / "quadratures.csv")
            for row in rows:
                model = float(row["n"]) / 2.0 + 0.25
                for quad in ("var_p", "var_q"):
                    value, err = float(row[quad]), float(row[f"{quad}_err"])
                    _require(
                        _within(value, model, err),
                        f"{quad} {value} vs n/2 + 1/4 = {model} beyond {K_SIGMA} x {err}",
                    )
        return len(rows) * int(config["count"]), size


@dataclass
class _Record:
    record: object  # dualpath.DetectionRecord
    fmt: str  # "binary" or "csv"
    n_true: float  # closed-form <a^dag a> of the input state
    n_sigma: float  # block-scatter standard error of the <a^dag a> estimate
    vacuum_port_photons: float


class RecordReplay(Workload):
    """Export, import and reconstruct a seeded set of detection records."""

    name = "record_replay"
    sample_kind = "envelope samples replayed"
    BINARY_RECORDS = 6
    CSV_RECORDS = 2
    BINARY_SAMPLES = 100_000
    CSV_SAMPLES = 10_000
    ERROR_BLOCKS = 20

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(self.cli_seed)
        kinds = (StateKind.THERMAL, StateKind.COHERENT, StateKind.SHOT_NOISE)
        self.records = []
        for index in range(self.BINARY_RECORDS + self.CSV_RECORDS):
            n = float(rng.uniform(0.1, 1.5))
            kind = kinds[index % len(kinds)]
            if kind is StateKind.THERMAL:
                state = MicrowaveState.thermal(n)
            elif kind is StateKind.COHERENT:
                state = MicrowaveState.coherent(math.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            else:
                state = MicrowaveState.shot_noise(n)
            chain_noise = tuple(float(x) for x in rng.uniform(0.2, 3.0, size=2))
            gains = tuple(float(x) for x in rng.uniform(0.5, 4.0, size=2))
            vacuum = float(rng.uniform(0.01, 0.2))
            binary = index < self.BINARY_RECORDS
            record = dualpath.simulate_detection(
                state,
                chain_noise_photons=chain_noise,
                gains=gains,
                count=self.BINARY_SAMPLES if binary else self.CSV_SAMPLES,
                seed=int(rng.integers(1 << 31)),
                vacuum_port_photons=vacuum,
            )
            self.records.append(
                _Record(
                    record,
                    "binary" if binary else "csv",
                    state.mean_photons,
                    self._n_sigma(record),
                    vacuum,
                )
            )

    def _n_sigma(self, record):
        # <a^dag a> = 2 Re<z1 conj(z2)> / sqrt(g1 g2) + n_v, so its standard
        # error is the block scatter of the first term
        g1, g2 = record.chain_gains
        term = 2.0 * (record.envelopes_1 * np.conj(record.envelopes_2)).real / math.sqrt(g1 * g2)
        means = [block.mean() for block in np.array_split(term, self.ERROR_BLOCKS)]
        return float(np.std(means, ddof=1) / math.sqrt(len(means)))

    def run_pass(self, pass_dir):
        ops = []
        for index, item in enumerate(self.records):
            op = self._op(f"record_{index}_{item.fmt}")
            rec = item.record
            try:
                if item.fmt == "binary":
                    op.out = pass_dir / f"record_{index}.bin"
                    dualpath.save_record_binary(rec, op.out)
                    loaded = dualpath.load_record_binary(op.out)
                else:
                    op.out = pass_dir / f"record_{index}.csv"
                    dualpath.save_record_csv(rec, op.out)
                    loaded = dualpath.load_record_csv(op.out, rec.chain_gains, rec.if_frequency, rec.seed)
                moments = dualpath.reconstruct_signal_moments(
                    dualpath.cross_moments(loaded), loaded.chain_gains, item.vacuum_port_photons
                )
                op.value = (item, loaded, moments, dualpath.quadrature_variances(moments))
            except Exception as exc:  # an operation that raises counts as failed
                op.error = f"raised {exc!r}"
            ops.append(op)
        return ops

    def check(self, op):
        item, loaded, moments, quadratures = op.value
        rec = item.record
        for attr in ("envelopes_1", "envelopes_2"):
            _require(
                getattr(loaded, attr).tobytes() == getattr(rec, attr).tobytes(),
                f"{item.fmt} round trip changed {attr}",
            )
        _require(
            (tuple(loaded.chain_gains), loaded.if_frequency, loaded.seed)
            == (tuple(rec.chain_gains), rec.if_frequency, rec.seed),
            f"{item.fmt} round trip changed the record metadata",
        )
        n = moments.entry(1, 1).real
        _require(
            _within(n, item.n_true, item.n_sigma),
            f"replayed <a^dag a> {n} vs closed form {item.n_true} beyond {K_SIGMA} x {item.n_sigma}",
        )
        digest = hashlib.sha256(op.out.read_bytes())
        digest.update(repr((sorted(moments.entries.items()), quadratures)).encode())
        op.digest = digest.hexdigest()
        return rec.sample_count, 0


class Spectroscopy(Workload):
    """Every non-dual-path pipeline at CLI defaults, each reported, plus
    three finite-memory Ramsey traces."""

    name = "spectroscopy"
    sample_kind = "Ramsey fringe points simulated"
    RAMSEY_STATES = ("thermal", "coherent", "shot_noise")
    TRACE_POINTS = 161
    TRACE_SHOTS = 10_000

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(self.cli_seed)
        seed_args = ["--seed", str(self.cli_seed)]
        self.runs = [
            (f"ramsey_{state}", ["ramsey_sweep", "--state", state, *seed_args])
            for state in self.RAMSEY_STATES
        ] + [
            ("planck_calibration", ["planck_calibration", *seed_args]),
            ("jpa_sweep", ["jpa_sweep"]),
            ("variance_curves", ["variance_curves"]),
        ]
        self.traces = []
        for kind in (StateKind.THERMAL, StateKind.COHERENT, StateKind.SHOT_NOISE):
            n_r = float(rng.uniform(0.05, 1.5))
            # the grid spans 3 decay times, as in ramsey_sweep
            params = SAMPLE_SYSTEM.qubit
            gamma2 = (
                params.relaxation_rate(kind, n_r) / 2.0
                + params.intrinsic_dephasing
                + qubit.dephasing_rate(kind, n_r, SAMPLE_SYSTEM)
            )
            tau_max = 3.0 / (2.0 * math.pi * gamma2)
            taus = np.linspace(tau_max / self.TRACE_POINTS, tau_max, self.TRACE_POINTS)
            self.traces.append((kind, n_r, taus, int(rng.integers(1 << 31))))

    def run_pass(self, pass_dir):
        ops = []
        for name, args in self.runs:
            out = pass_dir / name
            ops.append(self._cli_op(name, ["run", *args, "--out", str(out)], out))
        for name, _ in self.runs:
            report = pass_dir / f"{name}_report"
            ops.append(
                self._cli_op(f"{name}_report", ["report", str(pass_dir / name), "--out", str(report)], report)
            )
        for kind, n_r, taus, seed in self.traces:
            op = self._op(f"trace_{kind.value}")
            try:
                op.value = qubit.simulate_ramsey(
                    SAMPLE_SYSTEM,
                    kind,
                    n_r,
                    taus,
                    shots=self.TRACE_SHOTS,
                    seed=seed,
                    form=qubit.EnvelopeForm.GAUSSIAN_INTEGRAL,
                )
            except Exception as exc:  # an operation that raises counts as failed
                op.error = f"raised {exc!r}"
            ops.append(op)
        return ops

    def check(self, op):
        if op.name.startswith("trace_"):
            rows = op.value
            _require(rows.shape == (self.TRACE_POINTS, 2), f"trace shape {rows.shape}")
            _require(np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0)), "p_e outside [0, 1]")
            op.digest = hashlib.sha256(rows.tobytes()).hexdigest()
            return self.TRACE_POINTS, 0
        op.digest, size = _dir_digest(op.out)
        if op.name.endswith("_report"):
            # report's own bands are kept as a record, not counted: its fixed
            # +-5 % band on rho/xi ignores the fit error and fails on some seeds
            checks = _read_json(op.out / "report.json")["checks"]
            _require(checks, "report holds no checks")
            self.report_failures.update(f"{op.name}: {c['name']}" for c in checks if not c["passed"])
            return 0, size
        samples = 0
        if op.name.startswith("ramsey_"):
            summary = _read_json(op.out / "fits.json")["summary"]
            slope, err, expected = (
                summary[k] for k in ("slope_hz", "slope_err_hz", "expected_slope_hz")
            )
            _require(
                _within(slope, expected, err),
                f"slope {slope} Hz vs expected {expected} Hz beyond {K_SIGMA} x {err}",
            )
            rows = _read_table(op.out / "dephasing_vs_n.csv")
            _require(all(row["fit_converged"] == "1" for row in rows), "a Ramsey fit did not converge")
            config = _read_json(op.out / "manifest.json")["config"]
            samples = len(rows) * int(config["tau_points"])
        elif op.name == "variance_curves":
            for row in _read_table(op.out / "variance_curves.csv"):
                n = float(row["n"])
                model = {"thermal": n * n + n, "classical_limit": n * n, "coherent": n}[row["state"]]
                _require(
                    math.isclose(float(row["sqrt_var"]), math.sqrt(model), rel_tol=1e-12),
                    f"variance curve {row['state']} at n = {n} off its closed form",
                )
        return samples, size


WORKLOADS = {w.name: w for w in (DualpathPipelines, RecordReplay, Spectroscopy)}
