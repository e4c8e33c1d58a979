"""Reference device parameters used throughout the demos and the CLI.

These numbers describe a representative flux-tunable transmon dispersively
coupled to a quarter-wavelength readout resonator, the detection mode of a
dual-path receiver, and three operating points of quarter-wavelength
flux-driven parametric amplifiers.  They are defaults, not constraints:
every entry can be overridden through the experiment configuration.  The
receiver's amplification chain has one reader, so its defaults live in the
signature of ``experiments.planck_calibration``.
"""

from __future__ import annotations

from .cavity import Resonator
from .chains import JpaStage
from .qubit import DispersiveSystem, QubitParams
from .states import ModeSpec

__all__ = [
    "SAMPLE_QUBIT",
    "SAMPLE_RESONATOR",
    "SAMPLE_SYSTEM",
    "DETECTION_MODE",
    "JPA_OPERATING_POINTS",
    "JPA_METADATA",
]

SAMPLE_QUBIT = QubitParams(
    max_frequency=6.92e9,
    coupling=67e6,
    anharmonicity=-315e6,
    intrinsic_relaxation=3.9e6,
    thermal_relaxation_per_photon=800e3,
    coherent_relaxation_per_photon=-30e3,
    intrinsic_dephasing=0.05e6,
)

SAMPLE_RESONATOR = Resonator(
    resonance_frequency=6.07e9,
    external_rate=8.5e6,
    internal_rate=50e3,
)

SAMPLE_SYSTEM = DispersiveSystem(SAMPLE_QUBIT, SAMPLE_RESONATOR)

#: Mode at which the dual-path receiver operates.
DETECTION_MODE = ModeSpec(5.4e9)

#: Parametric-amplifier operating points (linear gain, added photons).
JPA_OPERATING_POINTS = {
    "jpa1": JpaStage.from_db(14.3, 1.47),
    "jpa2a": JpaStage.from_db(15.8, 0.66),
    "jpa2b": JpaStage.from_db(15.2, 0.97),
}

#: Side parameters per operating point: external resonator linewidth (Hz),
#: compression temperature (K) and whether it is an estimate, and the
#: measured correlation-law coefficients kept as comparators for reports.
JPA_METADATA = {
    "jpa1": {
        "kappa_x": 18.7e6,
        "t_1db": 0.70,
        "measured_xi": 8.14,
        "measured_offset": 7.1,
        "measured_rho": 2.24,
        "t_1db_estimated": True,
    },
    "jpa2a": {
        "kappa_x": 14.9e6,
        "t_1db": 0.59,
        "measured_xi": 3.29,
        "measured_offset": 1.1,
        "measured_rho": 2.23,
        "t_1db_estimated": False,
    },
    "jpa2b": {
        "kappa_x": 14.6e6,
        "t_1db": 0.44,
        "measured_xi": 3.29,
        "measured_offset": 1.8,
        "measured_rho": 2.21,
        "t_1db_estimated": False,
    },
}
