"""Every physical input is checked by one rule: finite, with its sign.

``states._require_finite`` is the package's one check of a real-valued
physical input.  The first part of this file reads ``src/mwphoton`` with
the standard library's ``ast`` and fails on a hand-written sign check: a
``raise ValueError`` under an ``if`` whose test orders a value against the
literal 0 (``<``, ``<=``, ``>``, ``>=``), outside the helper.  The rules
that are not "finite with a sign" stay where they are, each listed in
``DELIBERATE`` with its reason.  The second part feeds every checked
argument nan, inf and, where it has a sign rule, a value of the wrong sign
(0 where the rule is > 0), or -inf where it has none, and expects a
ValueError that names it.
"""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mwphoton.analysis import fit_variance_law
from mwphoton.cavity import Correlator, correlator_value, dephasing_gaussian
from mwphoton.chains import (
    BeamSplitterStage,
    JpaStage,
    amplify,
    amplify_commutator_free,
    attenuate,
    compression_power,
    g2_jpa_referred,
    g2_unnormalized,
    linear_to_db,
    watts_to_dbm,
)
from mwphoton.defaults import SAMPLE_QUBIT, SAMPLE_RESONATOR, SAMPLE_SYSTEM
from mwphoton.dualpath import (
    DetectionRecord,
    PlanckSweep,
    cross_moments,
    jpa_planck_power,
    planck_power,
    reconstruct_signal_moments,
    saturation_power_for_t1db,
    simulate_detection,
    wigner_gaussian_contour,
)
from mwphoton.qubit import (
    accumulated_phase,
    critical_photons,
    dispersive_shift,
    purcell_rate,
    ramsey_envelope,
    simulate_ramsey,
)
from mwphoton.states import (
    MicrowaveState,
    ModeSpec,
    StateKind,
    bose_einstein,
    effective_temperature,
    photon_variance,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mwphoton"

HELPER = ("states", "_require_finite")

#: Sign checks that stay hand-written, each a rule other than "finite with a sign".
DELIBERATE = {
    ("states", "sample_envelopes"): "an integer sample count, which may be 0",
    ("states", "MomentSet.validate"): "integer moment indices 0 <= n + m <= 4",
    ("chains", "BeamSplitterStage.__post_init__"): "the transmissivity lies in [0, 1]",
    ("qubit", "QubitParams.__post_init__"): "a transmon's anharmonicity is negative",
    ("dualpath", "PlanckSweep.__post_init__"): "Planck temperatures strictly increase",
    ("analysis", "fit_ramsey_traces"): "Ramsey delays strictly increase",
}

#: Modules whose physical inputs go through the helper.
CALLERS = {"states", "cavity", "qubit", "chains", "dualpath", "analysis"}


def _is_zero(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


def _orders_against_zero(test) -> bool:
    """Whether ``test`` holds a <, <=, > or >= comparison with the literal 0 or 0.0."""
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
        and any(map(_is_zero, [node.left, *node.comparators]))
        for node in ast.walk(test)
    )


def _raises_value_error(body) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    return True
    return False


def _sites(picks) -> set:
    """(module, dotted class and function name) of each node of the package that ``picks``."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if picks(node):
            sites.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return sites


def test_no_hand_written_sign_check_outside_the_helper():
    checks = _sites(
        lambda node: isinstance(node, ast.If)
        and _orders_against_zero(node.test)
        and _raises_value_error(node.body)
    )
    assert checks - {HELPER} == set(DELIBERATE)


def test_one_helper_called_from_every_physics_module():
    defined = _sites(
        lambda node: isinstance(node, ast.FunctionDef) and node.name == "_require_finite"
    )
    assert defined == {HELPER}
    called = _sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_require_finite"
    )
    assert {module for module, _ in called} == CALLERS


# ---------------------------------------------------------------------------
# Every checked argument, fed nan, inf and a value of the wrong sign
# ---------------------------------------------------------------------------

MODE = ModeSpec(6.07e9)
THERMAL = StateKind.THERMAL
TEMPERATURES = [0.05, 0.1, 0.2, 0.4]


def _cross_moments():
    return cross_moments(simulate_detection(MicrowaveState.thermal(0.5), count=64, seed=0))


#: (site, call with the value under test, the argument's name in the message, sign rule)
SITES = [
    ("ModeSpec.frequency", lambda v: ModeSpec(v), "frequency", "> 0"),
    ("MicrowaveState.mean_photons", lambda v: MicrowaveState.thermal(v), "mean_photons", ">= 0"),
    ("photon_variance", lambda v: photon_variance(THERMAL, v), "mean occupation n", ">= 0"),
    ("bose_einstein", lambda v: bose_einstein(MODE, v), "temperature", "> 0"),
    (
        "bose_einstein.array",
        lambda v: bose_einstein(MODE, np.array([0.1, v])),
        "temperature",
        "> 0",
    ),
    ("effective_temperature", lambda v: effective_temperature(MODE, v), "mean occupation n", "> 0"),
    (
        "Resonator.resonance_frequency",
        lambda v: replace(SAMPLE_RESONATOR, resonance_frequency=v),
        "resonance_frequency",
        "> 0",
    ),
    (
        "Resonator.external_rate",
        lambda v: replace(SAMPLE_RESONATOR, external_rate=v),
        "external_rate",
        "> 0",
    ),
    (
        "Resonator.internal_rate",
        lambda v: replace(SAMPLE_RESONATOR, internal_rate=v),
        "internal_rate",
        ">= 0",
    ),
    ("Correlator.variance", lambda v: Correlator(v, 1e6), "variance", ">= 0"),
    ("Correlator.decay_rate", lambda v: Correlator(1.0, v), "decay_rate", "> 0"),
    ("correlator_value", lambda v: correlator_value(Correlator(1.0, 1e6), v), "delay tau", ">= 0"),
    ("dephasing_gaussian", lambda v: dephasing_gaussian(v, SAMPLE_RESONATOR, 0.1), "var_n", ">= 0"),
    (
        "dephasing_gaussian.theta0",
        lambda v: dephasing_gaussian(0.5, SAMPLE_RESONATOR, v),
        "theta0",
        None,
    ),
    (
        "QubitParams.max_frequency",
        lambda v: replace(SAMPLE_QUBIT, max_frequency=v),
        "max_frequency",
        "> 0",
    ),
    ("QubitParams.coupling", lambda v: replace(SAMPLE_QUBIT, coupling=v), "coupling", "> 0"),
    (
        "QubitParams.anharmonicity",
        lambda v: replace(SAMPLE_QUBIT, anharmonicity=v),
        "anharmonicity",
        None,
    ),
    (
        "QubitParams.intrinsic_relaxation",
        lambda v: replace(SAMPLE_QUBIT, intrinsic_relaxation=v),
        "intrinsic_relaxation",
        ">= 0",
    ),
    (
        "QubitParams.thermal_relaxation_per_photon",
        lambda v: replace(SAMPLE_QUBIT, thermal_relaxation_per_photon=v),
        "thermal_relaxation_per_photon",
        None,
    ),
    (
        "QubitParams.coherent_relaxation_per_photon",
        lambda v: replace(SAMPLE_QUBIT, coherent_relaxation_per_photon=v),
        "coherent_relaxation_per_photon",
        None,
    ),
    (
        "QubitParams.intrinsic_dephasing",
        lambda v: replace(SAMPLE_QUBIT, intrinsic_dephasing=v),
        "intrinsic_dephasing",
        ">= 0",
    ),
    (
        "QubitParams.relaxation_rate",
        lambda v: SAMPLE_QUBIT.relaxation_rate(THERMAL, v),
        "mean occupation n_r",
        ">= 0",
    ),
    (
        "ramsey_envelope.n_r",
        lambda v: ramsey_envelope(SAMPLE_SYSTEM, THERMAL, v, [0.0, 1e-9]),
        "mean occupation n_r",
        ">= 0",
    ),
    (
        "ramsey_envelope.tau",
        lambda v: ramsey_envelope(SAMPLE_SYSTEM, THERMAL, 0.5, [0.0, 1e-9, v]),
        "delay tau",
        ">= 0",
    ),
    (
        "simulate_ramsey.max_tau",
        lambda v: simulate_ramsey(SAMPLE_SYSTEM, THERMAL, 0.5, [0.0, v], shots=10),
        "max(tau) of the tau grid",
        "> 0",
    ),
    ("dispersive_shift.g", lambda v: dispersive_shift(v, 850e6, -315e6), "coupling g", ">= 0"),
    ("dispersive_shift.delta", lambda v: dispersive_shift(67e6, v, -315e6), "detuning delta", None),
    (
        "dispersive_shift.alpha",
        lambda v: dispersive_shift(67e6, 850e6, v),
        "anharmonicity alpha",
        None,
    ),
    ("accumulated_phase", lambda v: accumulated_phase(1e6, v), "kappa_x", "> 0"),
    ("accumulated_phase.chi", lambda v: accumulated_phase(v, 8.5e6), "dispersive shift chi", None),
    ("critical_photons", lambda v: critical_photons(1e9, v), "coupling g", "> 0"),
    ("critical_photons.delta", lambda v: critical_photons(v, 67e6), "detuning delta", None),
    ("purcell_rate.kappa_tot", lambda v: purcell_rate(v, 67e6, 1e9), "kappa_tot", ">= 0"),
    ("purcell_rate.g", lambda v: purcell_rate(8.5e6, v, 1e9), "coupling g", ">= 0"),
    ("purcell_rate.delta", lambda v: purcell_rate(8.5e6, 67e6, v), "detuning delta", None),
    ("linear_to_db", lambda v: linear_to_db(v), "gain", "> 0"),
    ("watts_to_dbm", lambda v: watts_to_dbm(v), "power", "> 0"),
    (
        "BeamSplitterStage.background_photons",
        lambda v: BeamSplitterStage(0.5, v),
        "background_photons",
        ">= 0",
    ),
    ("JpaStage.gain", lambda v: JpaStage(v, 0.5), "gain", None),
    ("JpaStage.added_noise_photons", lambda v: JpaStage(10.0, v), "added_noise_photons", ">= 0"),
    ("attenuate", lambda v: attenuate(THERMAL, v, BeamSplitterStage(0.5, 0.1)), "n_b", ">= 0"),
    ("amplify", lambda v: amplify(v, JpaStage(10.0, 0.5)), "n_jpa", ">= 0"),
    (
        "amplify_commutator_free.n_jpa",
        lambda v: amplify_commutator_free(v, 10.0, 0.5),
        "n_jpa",
        ">= 0",
    ),
    ("amplify_commutator_free.gain", lambda v: amplify_commutator_free(0.5, v, 0.5), "gain", None),
    (
        "amplify_commutator_free.noise_photons",
        lambda v: amplify_commutator_free(0.5, 10.0, v),
        "noise_photons",
        ">= 0",
    ),
    ("g2_unnormalized.n", lambda v: g2_unnormalized(v, 1.0), "mean occupation n", ">= 0"),
    ("g2_unnormalized.variance", lambda v: g2_unnormalized(0.5, v), "variance", ">= 0"),
    ("g2_jpa_referred", lambda v: g2_jpa_referred(v, JpaStage(100.0, 0.5)), "n_jpa", ">= 0"),
    ("compression_power.kappa_x", lambda v: compression_power(v, 0.5), "kappa_x", "> 0"),
    ("compression_power.t_1db", lambda v: compression_power(1e6, v), "t_1db", "> 0"),
    (
        "DetectionRecord.chain_gains",
        lambda v: DetectionRecord(np.ones(4), np.ones(4), (v, 1.0)),
        "chain_gains",
        "> 0",
    ),
    (
        "simulate_detection.chain_noise_photons",
        lambda v: simulate_detection(MicrowaveState.thermal(0.5), (0.1, v), count=64),
        "chain_noise_photons",
        ">= 0",
    ),
    (
        "reconstruct_signal_moments.gains",
        lambda v: reconstruct_signal_moments(_cross_moments(), (1.0, v)),
        "gains",
        "> 0",
    ),
    (
        "reconstruct_signal_moments.vacuum_port_photons",
        lambda v: reconstruct_signal_moments(_cross_moments(), (1.0, 1.0), v),
        "vacuum_port_photons",
        ">= 0",
    ),
    (
        "PlanckSweep.temperatures",
        lambda v: PlanckSweep([*TEMPERATURES, v], np.ones(5), MODE, 1e6),
        "temperatures",
        "> 0",
    ),
    (
        "PlanckSweep.powers",
        lambda v: PlanckSweep(TEMPERATURES, [1.0, 1.0, v, 1.0], MODE, 1e6),
        "powers",
        "> 0",
    ),
    (
        "PlanckSweep.bandwidth",
        lambda v: PlanckSweep(TEMPERATURES, np.ones(4), MODE, v),
        "bandwidth",
        "> 0",
    ),
    (
        "planck_power.temperatures",
        lambda v: planck_power([*TEMPERATURES, v], MODE, 1e6, 1e9, 3.0),
        "temperature",
        "> 0",
    ),
    (
        "planck_power.bandwidth",
        lambda v: planck_power(TEMPERATURES, MODE, v, 1e9, 3.0),
        "bandwidth",
        "> 0",
    ),
    (
        "planck_power.chain_gain",
        lambda v: planck_power(TEMPERATURES, MODE, 1e6, v, 3.0),
        "chain_gain",
        "> 0",
    ),
    (
        "planck_power.chain_noise_temperature",
        lambda v: planck_power(TEMPERATURES, MODE, 1e6, 1e9, v),
        "chain_noise_temperature",
        ">= 0",
    ),
    (
        "jpa_planck_power.gain",
        lambda v: jpa_planck_power(TEMPERATURES, MODE, 1e6, v, 0.5),
        "gain",
        "> 0",
    ),
    (
        "jpa_planck_power.added_photons",
        lambda v: jpa_planck_power(TEMPERATURES, MODE, 1e6, 1e9, v),
        "added_photons",
        ">= 0",
    ),
    (
        "jpa_planck_power.saturation_power",
        lambda v: jpa_planck_power(TEMPERATURES, MODE, 1e6, 1e9, 0.5, v),
        "saturation_power",
        "> 0",
    ),
    (
        "saturation_power_for_t1db",
        lambda v: saturation_power_for_t1db(v, MODE, 1e6, 1e9, 0.5),
        "t_1db",
        "> 0",
    ),
    ("wigner_gaussian_contour", lambda v: wigner_gaussian_contour(v), "mean occupation n", ">= 0"),
    (
        "fit_variance_law.points",
        lambda v: fit_variance_law([(0.1, v), (0.5, 2.0), (1.0, 3.5)]),
        "points",
        None,
    ),
    (
        "fit_variance_law.weights",
        lambda v: fit_variance_law([(0.1, 0.2), (0.5, 2.0), (1.0, 3.5)], weights=[1.0, v, 1.0]),
        "weights",
        ">= 0",
    ),
]

#: The value of the wrong sign for each sign rule.
WRONG_SIGN = {"> 0": 0.0, ">= 0": -0.5}

CASES = [
    pytest.param(call, name, value, id=f"{site}-{value}")
    for site, call, name, sign in SITES
    for value in (math.nan, math.inf, WRONG_SIGN[sign] if sign else -math.inf)
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_bad_input_raises_a_value_error_naming_its_argument(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite.*, got {value}"):
        call(value)
