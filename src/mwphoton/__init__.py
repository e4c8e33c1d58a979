"""Photon statistics of weak propagating microwave fields.

A desk-scale simulator and analysis toolkit for the two standard ways of
measuring the photon-number variance of propagating thermal, coherent, and
shot-noise microwaves: dephasing spectroscopy with a dispersively coupled
qubit, and dual-path moment reconstruction behind a cryogenic hybrid ring,
with or without a parametric preamplifier.
"""

from .states import (
    MicrowaveState,
    ModeSpec,
    MomentSet,
    Ordering,
    StateKind,
    analytic_moments,
    bose_einstein,
    effective_temperature,
    empirical_moments,
    ordering_convert,
    photon_variance,
    sample_envelopes,
)
from .cavity import (
    Correlator,
    Resonator,
    correlator,
    correlator_value,
    dephasing_gaussian,
    lorentzian_dos,
)
from .qubit import (
    DispersiveSystem,
    EnvelopeForm,
    QubitParams,
    accumulated_phase,
    critical_photons,
    dephasing_rate,
    dispersive_shift,
    purcell_rate,
    ramsey_envelope,
    simulate_ramsey,
)
from .chains import (
    BeamSplitterStage,
    JpaStage,
    amplify,
    amplify_commutator_free,
    attenuate,
    compression_power,
    db_to_linear,
    g2_jpa_referred,
    g2_unnormalized,
    linear_to_db,
)
from .dualpath import (
    CrossMomentSet,
    DetectionRecord,
    PlanckSweep,
    cross_moments,
    hybrid_split,
    jpa_planck_fit,
    jpa_planck_power,
    planck_fit,
    planck_power,
    quadrature_variances,
    reconstruct_signal_moments,
    simulate_detection,
    wigner_gaussian_contour,
)
from .analysis import (
    FitResult,
    VarianceLawModel,
    extract_dephasing,
    fit_ramsey,
    fit_ramsey_traces,
    fit_variance_law,
)

__version__ = "0.2.0"
