"""Property tests: configuration coercion, ordering and inversion.

Hypothesis runs derandomized and without its example database, so every run
draws the same examples, and its caches go to a temporary directory instead
of ``.hypothesis/`` in the working directory.
"""

import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from mwphoton.cli import _TABLE, ConfigError, _experiment_kwargs, _rows, resolve_config
import oracles
from mwphoton.dualpath import _moments_from_products, reconstruct_signal_moments
from mwphoton.experiments import EXPERIMENTS
from mwphoton.states import (
    MOMENT_KEYS,
    MicrowaveState,
    MomentSet,
    Ordering,
    analytic_moments,
    ordering_convert,
)
from test_dualpath import analytic_cross_moments

# Hypothesis caches the constants of the local source under its home directory,
# during collection already.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mwphoton-hypothesis")

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# strings a config file or --set may carry
WORDS = st.sampled_from(["", "300", "1e3", "jpa3", "thermal ", "quantum", "null", "vacuum"])


def _floats_below(bound, exclude_max=False):
    return st.floats(max_value=bound, exclude_max=exclude_max, allow_infinity=False)


def _taking(key):
    return next(name for name in EXPERIMENTS if key in _rows(name))


# ---------------------------------------------------------------------------
# resolve_config against the table
# ---------------------------------------------------------------------------

def _largest(scale):
    """The largest float that stays finite times ``scale``."""
    value = sys.float_info.max / scale
    while math.isinf(value * scale):
        value = math.nextafter(value, 0.0)
    return value


def _inside(schema, scale=1.0):
    """Values the schema accepts, finite times ``scale`` (the key's unit scale)."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if "array" in kind:
        items = st.lists(_inside(schema["items"]), min_size=schema.get("minItems", 0), max_size=5)
        return st.one_of(st.none(), items) if "null" in kind else items
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    high = schema.get("exclusiveMaximum")
    if kind == "integer":
        return st.integers(min_value=low, max_value=None if high is None else high - 1)
    floats = st.floats(
        min_value=-_largest(scale) if low is None else low,
        max_value=_largest(scale) if high is None else high,
        exclude_min="exclusiveMinimum" in schema,
        exclude_max=high is not None,
        allow_nan=False,
        allow_infinity=False,
    )
    # integral values exactly representable as floats
    integers = st.integers(
        min_value=-(2 ** 53) if low is None else math.floor(low) + 1,
        max_value=2 ** 53 if high is None else math.ceil(high) - 1,
    )
    return st.one_of(floats, integers)


def _outside(schema, scale=1.0):
    """Values the schema rejects, or that overflow times ``scale``."""
    if "enum" in schema:
        return WORDS.filter(lambda value: value not in schema["enum"])
    kind = schema["type"]
    wrong = st.one_of(st.booleans(), WORDS, st.sampled_from([math.nan, math.inf, -math.inf]))
    if "array" in kind:
        bad_item = _outside(schema["items"]).map(lambda item: [item])
        return st.one_of(bad_item, st.just([]), st.floats(allow_nan=False))
    candidates = [wrong]
    if kind == "integer":
        candidates.append(FINITE.filter(lambda value: value != int(value)))
    if "minimum" in schema:
        candidates.append(_floats_below(schema["minimum"], exclude_max=True))
    if "exclusiveMinimum" in schema:
        candidates.append(_floats_below(schema["exclusiveMinimum"]))
    if "exclusiveMaximum" in schema:
        candidates.append(st.floats(min_value=schema["exclusiveMaximum"], allow_infinity=False))
    if scale != 1:
        beyond = st.floats(min_value=_largest(scale), exclude_min=True, allow_infinity=False)
        candidates.append(beyond.flatmap(lambda value: st.sampled_from([value, -value])))
    return st.one_of(candidates)


def _conforms(value, schema) -> bool:
    if "enum" in schema:
        return value in schema["enum"]
    if value is None:
        return "null" in schema["type"]
    if "array" in schema["type"]:
        return isinstance(value, list) and all(_conforms(item, schema["items"]) for item in value)
    return type(value) is {"integer": int, "number": float}[schema["type"]]


@DETERMINISTIC
@given(st.data())
def test_value_inside_bounds_comes_back_in_schema_type(data):
    key = data.draw(st.sampled_from(sorted(_TABLE)))
    schema = _TABLE[key].schema
    value = data.draw(_inside(schema, _TABLE[key].scale))
    resolved = resolve_config(_taking(key), None, {key: value})[key]
    assert _conforms(resolved, schema)
    assert resolved == value


@DETERMINISTIC
@given(st.data())
def test_value_outside_bounds_is_rejected_naming_the_key(data):
    key = data.draw(st.sampled_from(sorted(_TABLE)))
    value = data.draw(_outside(_TABLE[key].schema, _TABLE[key].scale))
    with pytest.raises(ConfigError, match=key):
        resolve_config(_taking(key), None, {key: value})


# every config the table accepts builds its pipeline arguments, so run
# catches no error from building them
@DETERMINISTIC
@given(st.data())
def test_every_accepted_config_builds_its_arguments(data):
    experiment = data.draw(st.sampled_from(sorted(EXPERIMENTS)))
    config = {key: data.draw(_inside(row.schema, row.scale)) for key, row in _rows(experiment).items()}
    _experiment_kwargs(experiment, resolve_config(experiment, None, config))


# ---------------------------------------------------------------------------
# Inversion of exact Gaussian cross moments
# ---------------------------------------------------------------------------

GAIN = st.floats(min_value=0.1, max_value=10.0)


@settings(DETERMINISTIC, max_examples=50)
@given(
    n=st.floats(min_value=0.0, max_value=2.0),
    alpha=st.complex_numbers(max_magnitude=1.5),
    coherent=st.booleans(),
    gains=st.tuples(GAIN, GAIN),
    chain_noise=st.tuples(*[st.floats(min_value=0.0, max_value=10.0)] * 2),
    vacuum_port_photons=st.floats(min_value=0.0, max_value=0.5),
)
def test_exact_gaussian_cross_moments_invert_to_analytic_moments(
    n, alpha, coherent, gains, chain_noise, vacuum_port_photons
):
    if coherent:
        state, signal_power, mean = MicrowaveState.coherent(alpha), 0.5, alpha
    else:
        state, signal_power, mean = MicrowaveState.thermal(n), n + 0.5, 0j
    cm = analytic_cross_moments(
        signal_power,
        signal_mean=mean,
        vacuum_port_power=vacuum_port_photons + 0.5,
        chain_noise=chain_noise,
        gains=gains,
    )
    moments = reconstruct_signal_moments(cm, gains, vacuum_port_photons=vacuum_port_photons)
    expected = analytic_moments(state)
    for key in MOMENT_KEYS:
        assert abs(moments.entries[key] - expected.entries[key]) <= 1e-9, key


# ---------------------------------------------------------------------------
# The moment algebra against the routes it replaced
# ---------------------------------------------------------------------------

# moments of order <= 4 at occupations of a few photons
SMALL = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def normal_entries(draw, drift=st.just(0j)):
    """Conjugate-consistent moments with (0, 0) = 1 and real, non-negative diagonal.

    ``drift`` perturbs each mirror entry (m, n), as estimation noise would.
    """
    entries = {(0, 0): 1.0 + 0j}
    for n, m in MOMENT_KEYS:
        if (n, m) == (0, 0) or n > m:
            continue
        if n == m:
            entries[(n, m)] = complex(abs(draw(SMALL)))
        else:
            value = complex(draw(SMALL), draw(SMALL))
            entries[(n, m)] = value
            entries[(m, n)] = value.conjugate() + draw(drift)
    return entries


def _close(actual, expected, key):
    assert abs(actual - expected) <= 1e-12 * max(1.0, abs(expected)), key


@settings(DETERMINISTIC, max_examples=200)
@given(
    raw=normal_entries(drift=st.complex_numbers(max_magnitude=1e-3)),
    gains=st.tuples(*[st.floats(min_value=0.5, max_value=4.0)] * 2),
    vacuum_port_photons=st.floats(min_value=0.0, max_value=0.5),
)
def test_inversion_matches_the_symmetrized_route(raw, gains, vacuum_port_photons):
    g1, g2 = gains
    products = {
        (n, m): value * g1 ** (m / 2.0) * g2 ** (n / 2.0) / 2.0 ** ((n + m) / 2.0)
        for (n, m), value in raw.items()
    }
    moments = _moments_from_products(products, gains, vacuum_port_photons, 0)
    assert moments.ordering is Ordering.NORMAL
    expected = oracles.symmetrized_route_inversion(products, gains, vacuum_port_photons)
    for key in MOMENT_KEYS:
        _close(moments.entries[key], expected[key], key)


@settings(DETERMINISTIC, max_examples=200)
@given(normal_entries())
def test_ordering_round_trip_is_the_identity(entries):
    original = MomentSet(Ordering.NORMAL, entries)
    there = ordering_convert(original, Ordering.SYMMETRIZED)
    back = ordering_convert(there, Ordering.NORMAL)
    assert there.ordering is Ordering.SYMMETRIZED and back.ordering is Ordering.NORMAL
    for key in MOMENT_KEYS:
        _close(back.entries[key], entries[key], key)
