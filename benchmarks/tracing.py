"""Span tracing of the mwphoton public API, installed from outside the package.

While a :class:`Tracer` is installed, every public function (a function named
in a module's ``__all__``) of the modules in :data:`LAYERS` is replaced, in
every ``mwphoton`` namespace that binds it, by a wrapper that records a span
(id, parent, name, start, end, op).  Private helpers such as
``dualpath._chain_noise`` are not wrapped, so their time shows up as self time
of the public span that encloses them.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("states", "cavity", "qubit", "chains", "dualpath", "analysis", "experiments", "cli")

PIPELINES = (
    "dualpath_sweep",
    "quadrature_check",
    "ramsey_sweep",
    "planck_calibration",
    "jpa_sweep",
    "variance_curves",
)

CHAINS_FUNCTIONS = (
    "db_to_linear",
    "linear_to_db",
    "watts_to_dbm",
    "attenuate",
    "amplify",
    "amplify_commutator_free",
    "g2_unnormalized",
    "g2_jpa_referred",
    "compression_power",
)

RECORD_IO = ("save_record_binary", "load_record_binary", "save_record_csv", "load_record_csv")

#: Per-layer metrics read from spans: (span name, fields).  ``calls``,
#: ``samples``, ``bytes`` and ``iterations`` are counts per pass; ``self_s``
#: is the span time not covered by child spans, summed over a pass.
SPAN_METRICS = (
    ("states.sample_envelopes", ("calls", "self_s", "samples")),
    ("states.bose_einstein", ("calls",)),
    ("dualpath.simulate_detection", ("calls", "self_s")),
    ("dualpath.hybrid_split", ("self_s",)),
    ("dualpath.cross_moments", ("calls", "self_s", "samples")),
    ("dualpath.reconstruct_signal_moments", ("calls", "self_s")),
    ("dualpath.quadrature_variances", ("calls",)),
    *((f"dualpath.{name}", ("self_s", "bytes")) for name in RECORD_IO),
    *((f"experiments.{name}", ("self_s",)) for name in PIPELINES),
    ("qubit.simulate_ramsey", ("calls", "self_s")),
    ("qubit.ramsey_envelope", ("calls",)),
    ("cavity.correlator", ("calls",)),
    ("analysis.fit_ramsey", ("calls", "self_s", "iterations")),
    ("analysis.fit_variance_law", ("calls", "self_s")),
    *((f"chains.{name}", ("calls",)) for name in CHAINS_FUNCTIONS),
    ("cli.main", ("self_s",)),
)

#: Per-layer metrics derived from several counts or from the pass itself.
DERIVED_METRICS = (
    ("dualpath.record_samples", "count", "lower"),
    ("dualpath.cross_moments.samples_per_simulated_sample", "ratio", "lower"),
    ("analysis.fit_ramsey.converged_ratio", "ratio", "higher"),
    ("cli.artifact_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_UNITS = {"calls": "count", "samples": "count", "iterations": "count", "bytes": "B", "self_s": "s"}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in reporting order."""
    spans = [
        (f"{span}.{field}", _UNITS[field], "lower")
        for span, fields in SPAN_METRICS
        for field in fields
    ]
    return spans + list(DERIVED_METRICS)


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _binary_record_bytes(arguments) -> int:
    data = Path(arguments["data_path"])
    sidecar = arguments.get("sidecar_path") or data.with_suffix(data.suffix + ".json")
    return _file_bytes(data) + _file_bytes(sidecar)


# Counts taken from a call's bound arguments and its result.
_MEASURES = {
    "states.sample_envelopes": lambda a, r: {"samples": len(r)},
    "dualpath.simulate_detection": lambda a, r: {"record_samples": r.sample_count},
    "dualpath.cross_moments": lambda a, r: {"samples": r.sample_count},
    "dualpath.save_record_binary": lambda a, r: {"bytes": _binary_record_bytes(a)},
    "dualpath.load_record_binary": lambda a, r: {
        "bytes": _binary_record_bytes(a),
        "record_samples": r.sample_count,
    },
    "dualpath.save_record_csv": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "dualpath.load_record_csv": lambda a, r: {
        "bytes": _file_bytes(a["path"]),
        "record_samples": r.sample_count,
    },
    "analysis.fit_ramsey": lambda a, r: {"iterations": r.iterations, "converged": int(r.converged)},
}


class Tracer:
    """Records spans and counts of the public mwphoton functions of one pass."""

    def __init__(self):
        self.op = ""
        self.spans = []  # (id, parent id or -1, name, start, end, op)
        self.counts = defaultdict(int)  # "<span>.<count>" -> total
        self._stack = []
        self._saved = []  # (namespace, key, original) to restore

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            spans.append(None)  # reserve the id, filled in when the call ends
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, self.op)
                counts[f"{name}.calls"] += 1
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                for key, value in measure(bound.arguments, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Replace every binding of every public function by its traced wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mwphoton.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [
            vars(module)
            for key, module in list(sys.modules.items())
            if key == "mwphoton" or key.startswith("mwphoton.")
        ]
        # the pipeline registry holds its own references to the pipelines
        namespaces.append(importlib.import_module("mwphoton.experiments").EXPERIMENTS)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((namespace, key, value))
                    namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()


def self_times(spans):
    """Self time per span name: duration minus the time covered by child spans."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        totals[name] += end - start - child_time[span_id]
    return totals


def spans_payload(tracers):
    """Compact JSON form of the spans of ``tracers``: names and op names are
    interned, times are microseconds from the start of each pass."""
    names, ops, passes = {}, {}, []
    for tracer in tracers:
        origin = min((span[3] for span in tracer.spans), default=0.0)
        passes.append(
            [
                [
                    span_id,
                    parent,
                    names.setdefault(name, len(names)),
                    ops.setdefault(op, len(ops)),
                    round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1),
                ]
                for span_id, parent, name, start, end, op in tracer.spans
            ]
        )
    return {
        "fields": ["id", "parent", "name", "op", "start_us", "end_us"],
        "names": list(names),
        "ops": list(ops),
        "passes": passes,
    }


def layer_metrics(traced_passes, untraced_walls, artifact_bytes):
    """Per-layer metric values from the traced passes of one run.

    ``traced_passes`` holds one (tracer, wall_s) per traced pass.  Counts
    come from the first traced pass (the caller checks that they repeat);
    times are medians over the traced passes.
    """
    counts = traced_passes[0][0].counts
    selfs = [self_times(tracer.spans) for tracer, _ in traced_passes]
    values = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            if field == "self_s":
                value = statistics.median(s.get(span, 0.0) for s in selfs)
            else:
                value = counts.get(f"{span}.{field}", 0)
            values[f"{span}.{field}"] = value
    record_samples = counts.get("dualpath.simulate_detection.record_samples", 0) + sum(
        counts.get(f"dualpath.{name}.record_samples", 0) for name in RECORD_IO
    )
    moment_samples = counts.get("dualpath.cross_moments.samples", 0)
    ramsey_fits = counts.get("analysis.fit_ramsey.calls", 0)
    traced_wall = statistics.fmean(wall for _, wall in traced_passes)
    values.update(
        {
            "dualpath.record_samples": record_samples,
            "dualpath.cross_moments.samples_per_simulated_sample": (
                moment_samples / record_samples if record_samples else 0.0
            ),
            "analysis.fit_ramsey.converged_ratio": (
                counts.get("analysis.fit_ramsey.converged", 0) / ramsey_fits if ramsey_fits else 0.0
            ),
            "cli.artifact_bytes": artifact_bytes,
            "trace.spans": len(traced_passes[0][0].spans),
            "trace.overhead_s": traced_wall - statistics.fmean(untraced_walls),
        }
    )
    return values
