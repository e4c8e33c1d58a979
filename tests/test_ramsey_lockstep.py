"""The lockstep Ramsey fit reproduces the one-trace fit bit for bit.

``analysis.fit_ramsey_traces`` runs the Gauss-Newton iterations of a whole
stack of traces at once.  Every trace must still take exactly the steps the
one-trace engine in ``oracles.fit_ramsey_one`` takes alone, so parameters,
covariance bytes, residual norm, ``converged`` and ``iterations`` are
compared with ``==``, on the traces of the default sweeps and on stacks
that mix in traces which stop unconverged or meet a singular damped system.
"""

import numpy as np
import pytest

import oracles
from mwphoton import analysis, experiments
from mwphoton.analysis import fit_ramsey, fit_ramsey_traces

STATES = ("thermal", "coherent", "shot_noise")


@pytest.fixture(scope="module")
def sweep_traces():
    """The 36 traces of the three default sweeps, at seeds 0 and 7: (72, 161, 2)."""
    stacks = []
    original = experiments.fit_ramsey_traces

    def keep(traces):
        stacks.append(np.array(traces))
        return original(traces)

    experiments.fit_ramsey_traces = keep
    try:
        for seed in (0, 7):
            for state in STATES:
                experiments.ramsey_sweep(state=state, seed=seed)
    finally:
        experiments.fit_ramsey_traces = original
    return np.concatenate(stacks)


@pytest.fixture(scope="module")
def one_by_one(sweep_traces):
    return [oracles.fit_ramsey_one(trace) for trace in sweep_traces]


def assert_same_fit(result, expected):
    parameters, covariance, residual_norm, converged, iterations = expected
    assert result.parameters == parameters
    assert result.covariance.tobytes() == covariance.tobytes()
    assert result.residual_norm == residual_norm
    assert result.converged == converged
    assert result.iterations == iterations


@pytest.mark.parametrize("size", [1, 5, 12])
def test_stacks_match_the_one_trace_fit(sweep_traces, one_by_one, size):
    # 5 traces is also the parameter count, where a misread right-hand side
    # of the stacked solve would give wrong numbers without an error
    assert len(sweep_traces) == 72
    for start in range(0, len(sweep_traces) - size + 1, size):
        results = fit_ramsey_traces(sweep_traces[start : start + size])
        assert len(results) == size
        for result, expected in zip(results, one_by_one[start : start + size]):
            assert_same_fit(result, expected)


def test_fit_ramsey_is_a_stack_of_one(sweep_traces, one_by_one):
    result = fit_ramsey(sweep_traces[3])
    assert isinstance(result, analysis.FitResult)
    assert isinstance(result.converged, bool) and isinstance(result.iterations, int)
    assert_same_fit(result, one_by_one[3])


def test_capped_trace_leaves_its_neighbours_alone(sweep_traces, one_by_one):
    # a straight line holds no fringe: its fit runs into the iteration cap
    tau = sweep_traces[0, :, 0]
    ramp = np.column_stack([tau, np.linspace(0.2, 0.7, tau.size)])
    expected = oracles.fit_ramsey_one(ramp)
    assert not expected[3] and expected[4] == analysis.MAX_ITERATIONS
    results = fit_ramsey_traces(np.stack([sweep_traces[0], ramp, sweep_traces[1]]))
    assert_same_fit(results[1], expected)
    assert_same_fit(results[0], one_by_one[0])
    assert_same_fit(results[2], one_by_one[1])


# trial steps of the noisiest fits overflow before they are rejected
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_stopped_traces_leave_their_neighbours_alone():
    # short fringes under heavy noise: some fits converge, some run into the
    # iteration cap and some stop once no damping gives a downhill step
    tau = np.linspace(2e-9, 260e-9, 40)
    fringe = 0.5 + 0.4 * np.cos(2 * np.pi * 21e6 * tau) * np.exp(-2 * np.pi * 2e6 * tau)
    traces, outcomes = [], []
    for seed in range(120):
        noise = np.random.default_rng(seed).normal(0.0, 0.3, tau.size)
        trace = np.column_stack([tau, fringe + noise])
        expected = oracles.fit_ramsey_one(trace)
        traces.append(trace)
        outcomes.append(expected)
    stops = {
        "converged": [i for i, o in enumerate(outcomes) if o[3]],
        "capped": [i for i, o in enumerate(outcomes) if not o[3] and o[4] == analysis.MAX_ITERATIONS],
        "stalled": [i for i, o in enumerate(outcomes) if not o[3] and o[4] < analysis.MAX_ITERATIONS],
    }
    assert all(stops.values()), {kind: len(found) for kind, found in stops.items()}
    chosen = [
        stops["converged"][0],
        stops["capped"][0],
        stops["converged"][1],
        stops["stalled"][0],
        stops["converged"][2],
    ]
    results = fit_ramsey_traces(np.stack([traces[i] for i in chosen]))
    for result, index in zip(results, chosen):
        assert_same_fit(result, outcomes[index])


def test_singular_damped_system_leaves_its_neighbours_alone(sweep_traces, one_by_one, monkeypatch):
    # No finite trace was found whose damped normal matrix is exactly
    # singular (the 1e-300 diagonal floor and the 1e-14 damping floor keep
    # it regular), so singularity is injected: the solve that both engines
    # call declares the first 18 damped systems of a marked trace singular,
    # whether it meets them alone or in a stack.  Each singular trial grows
    # the damping tenfold, from 1e-3 to 1e15, past the 1e14 stop that only a
    # rejected step checks.  The marked trace is a sweep trace scaled up, so
    # its H[4, 4] (amplitude squared) dwarfs any other trace's.
    marked = sweep_traces[2].copy()
    marked[:, 1] *= 1e4
    solve = np.linalg.solve
    declared = []  # bytes of the marked systems declared singular
    singular_calls = []

    def singular(matrix):
        if matrix[4, 4] <= 1e6:
            return False
        key = matrix.tobytes()
        if key not in declared and len(declared) < 18:
            declared.append(key)
        return key in declared

    def faulty_solve(a, b):
        if any([singular(item) for item in a.reshape(-1, *a.shape[-2:])]):
            singular_calls.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", faulty_solve)
    expected = oracles.fit_ramsey_one(marked)
    assert singular_calls == [2] * 18
    declared.clear()
    singular_calls.clear()
    stack = np.stack([sweep_traces[0], marked, sweep_traces[1]])
    results = fit_ramsey_traces(stack)
    # each singular trial: the stacked solve, then the marked trace alone
    assert singular_calls == [3, 2] * 18
    assert_same_fit(results[1], expected)
    assert_same_fit(results[0], one_by_one[0])
    assert_same_fit(results[2], one_by_one[1])


def test_one_fit_call_per_sweep(monkeypatch):
    calls = {"fit_ramsey_traces": 0, "fit_ramsey": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        experiments, "fit_ramsey_traces", counted("fit_ramsey_traces", fit_ramsey_traces)
    )
    monkeypatch.setattr(analysis, "fit_ramsey", counted("fit_ramsey", fit_ramsey))
    monkeypatch.setattr(experiments, "fit_ramsey", counted("fit_ramsey", fit_ramsey), raising=False)
    for state in STATES:
        experiments.ramsey_sweep(state=state, n_points=4, shots=200)
    assert calls == {"fit_ramsey_traces": 3, "fit_ramsey": 0}


class TestTraceValidation:
    """Input the fit cannot read is named before any arithmetic runs."""

    def _trace(self):
        tau = np.linspace(2e-9, 260e-9, 40)
        return np.column_stack([tau, 0.5 + 0.4 * np.cos(1e8 * tau) * np.exp(-1e7 * tau)])

    def test_nan_population_is_named(self):
        trace = self._trace()
        trace[7, 1] = np.nan
        with pytest.raises(ValueError, match="populations p_e must be finite"):
            fit_ramsey(trace)

    def test_infinite_delay_is_named(self):
        trace = self._trace()
        trace[-1, 0] = np.inf
        with pytest.raises(ValueError, match="delays tau must be finite"):
            fit_ramsey(trace)

    def test_reversed_delays_are_named(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_ramsey(self._trace()[::-1])

    def test_repeated_delay_is_named(self):
        trace = self._trace()
        trace[5, 0] = trace[4, 0]
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_ramsey(trace)

    def test_one_bad_trace_rejects_the_stack(self):
        good = self._trace()
        bad = good.copy()
        bad[3, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            fit_ramsey_traces(np.stack([good, bad]))

    def test_stack_shape_is_named(self):
        with pytest.raises(ValueError, match=r"\(m, n >= 8, 2\)"):
            fit_ramsey_traces(self._trace())
