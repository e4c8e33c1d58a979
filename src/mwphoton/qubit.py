"""Dispersive qubit-resonator model and Ramsey-trace simulation.

A flux-tunable transmon couples dispersively to the readout resonator; the
interaction shifts the qubit frequency by 2*chi per resonator photon, so
photon-number fluctuations dephase the qubit at a rate set by the
photon-photon correlator C(tau) = Var(n_r) exp(-kappa_tilde tau).  Ramsey
envelopes are available in two forms: the full Gaussian phase cumulant

    <dphi^2>(tau) = 2 (kappa_x theta0)^2 * int_0^tau (tau - s) C(s) ds,

and a plain exponential at its long-time slope, one law for every field,

    gamma_phi_n = (kappa_x / kappa_tilde) kappa_x theta0^2 Var(n_r),

with theta0 = atan(2 chi / kappa_x) the phase a resonator photon
accumulates through the interaction.  Thermal fields give
kappa_x theta0^2 (n_r^2 + n_r), shot noise kappa_x theta0^2 n_r, and a
coherent drive, whose correlator decays at the amplitude rate
kappa_x / 2, twice that.  Internal loss is left out of the correlator's
memory.  All rates are "/2pi" values in Hz.

Envelopes are numpy expressions in the delay, so a simulated Ramsey trace
is one envelope evaluation on its delay grid and one binomial draw of its
shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cavity import Resonator, _memory_rate, correlator, dephasing_gaussian
from .states import StateKind, _require_finite, photon_variance

__all__ = [
    "QubitParams",
    "DispersiveSystem",
    "EnvelopeForm",
    "dispersive_shift",
    "accumulated_phase",
    "critical_photons",
    "purcell_rate",
    "dephasing_rate",
    "ramsey_envelope",
    "simulate_ramsey",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QubitParams:
    """Transmon parameters; frequencies and rates in Hz.

    ``thermal_relaxation_per_photon`` and ``coherent_relaxation_per_photon``
    are the extra energy decay rates per resonator photon of a thermal and
    of a coherent input field; the thermal rate is positive, the coherent
    one slightly negative.
    """

    max_frequency: float
    coupling: float
    anharmonicity: float
    intrinsic_relaxation: float
    thermal_relaxation_per_photon: float
    coherent_relaxation_per_photon: float
    intrinsic_dephasing: float

    def __post_init__(self):
        _require_finite("coupling", self.coupling, "> 0")
        if not self.anharmonicity < 0:
            raise ValueError("transmon anharmonicity must be negative")
        _require_finite("intrinsic_relaxation", self.intrinsic_relaxation, ">= 0")
        _require_finite("intrinsic_dephasing", self.intrinsic_dephasing, ">= 0")

    def relaxation_rate(self, kind: StateKind, n_r: float) -> float:
        """Total energy decay rate gamma_1(n_r) = gamma_1 + gamma_1^d * n_r.

        Shot noise relaxes like a coherent tone.
        """
        _require_finite("mean occupation n_r", n_r, ">= 0")
        if kind is StateKind.THERMAL:
            per_photon = self.thermal_relaxation_per_photon
        else:
            per_photon = self.coherent_relaxation_per_photon
        return self.intrinsic_relaxation + per_photon * n_r


@dataclass(frozen=True)
class DispersiveSystem:
    """Qubit + resonator; the dispersive quantities are derived when read.

    ``detuning`` is omega_q0 - omega_r, ``chi`` the transmon dispersive
    shift of :func:`dispersive_shift` and ``theta0`` atan(2 chi / kappa_x).
    """

    qubit: QubitParams
    resonator: Resonator

    @property
    def detuning(self) -> float:
        return self.qubit.max_frequency - self.resonator.resonance_frequency

    @property
    def chi(self) -> float:
        return dispersive_shift(self.qubit.coupling, self.detuning, self.qubit.anharmonicity)

    @property
    def theta0(self) -> float:
        return accumulated_phase(self.chi, self.resonator.external_rate)


class EnvelopeForm(Enum):
    ASYMPTOTIC_RATE = "asymptotic_rate"
    GAUSSIAN_INTEGRAL = "gaussian_integral"


# ---------------------------------------------------------------------------
# Derived parameters
# ---------------------------------------------------------------------------

def dispersive_shift(g: float, delta: float, alpha: float) -> float:
    """Transmon dispersive shift chi = (g^2 / delta) * alpha / (delta + alpha)."""
    if delta == 0:
        raise ZeroDivisionError("qubit on resonance with the resonator: delta = 0")
    if delta + alpha == 0:
        raise ZeroDivisionError(
            "resonator at the straddling point: delta + alpha = 0, the dispersive "
            "shift diverges"
        )
    return (g * g / delta) * (alpha / (delta + alpha))


def accumulated_phase(chi: float, kappa_x: float) -> float:
    """Phase theta0 = atan(2 chi / kappa_x) acquired per resonator photon."""
    _require_finite("kappa_x", kappa_x, "> 0")
    return math.atan(2.0 * chi / kappa_x)


def critical_photons(delta: float, g: float) -> float:
    """n_crit = delta^2 / (4 g^2), where the dispersive approximation breaks down."""
    _require_finite("coupling g", g, "> 0")
    return delta * delta / (4.0 * g * g)


def purcell_rate(kappa_tot: float, g: float, delta: float) -> float:
    """Purcell decay gamma_P = kappa_tot g^2 / delta^2."""
    if delta == 0:
        raise ZeroDivisionError("Purcell rate diverges at zero detuning")
    return kappa_tot * (g / delta) ** 2


# ---------------------------------------------------------------------------
# Dephasing rates and Ramsey envelopes
# ---------------------------------------------------------------------------

def dephasing_rate(kind: StateKind, n_r: float, sys: DispersiveSystem) -> float:
    """Photon-induced dephasing rate (Hz) for the given input-field kind.

    The rate is the long-time slope of the Gaussian phase cumulant,
    (kappa_x / kappa_tilde) kappa_x theta0^2 Var(n_r), read from the
    variance and memory kappa_tilde of :func:`~mwphoton.cavity.correlator`.
    """
    return _rate_per_variance(kind, sys) * photon_variance(kind, n_r)


def _rate_per_variance(kind: StateKind, sys: DispersiveSystem) -> float:
    """Dephasing rate per unit Var(n_r): (kappa_x / kappa_tilde) kappa_x theta0^2."""
    res = sys.resonator
    return res.external_rate / _memory_rate(kind, res) * dephasing_gaussian(1.0, res, sys.theta0)


def ramsey_envelope(
    sys: DispersiveSystem,
    kind: StateKind,
    n_r: float,
    tau: float | np.ndarray,
    form: EnvelopeForm = EnvelopeForm.ASYMPTOTIC_RATE,
) -> float | np.ndarray:
    """Ramsey decay envelope exp[-gamma_1(n_r) tau / 2 - gamma_phi0 tau - <dphi^2>/2].

    ``ASYMPTOTIC_RATE`` uses <dphi^2>/2 = gamma_phi_n(n_r) * tau with
    :func:`dephasing_rate`; ``GAUSSIAN_INTEGRAL`` uses the finite-memory
    phase cumulant 2 K^2 int_0^tau (tau - s) C(s) ds, with phase kick rate
    K = 2 pi kappa_x theta0, in closed form.  It decays strictly slower at
    finite tau and approaches the same rate as tau * kappa_tilde -> infinity.

    ``tau`` is one delay or an array of delays, and the envelope comes back
    in its shape (a scalar delay gives a ``np.float64``).  gamma_1 and the
    rate or correlator are evaluated once per call, not once per delay.
    """
    tau = np.asarray(tau, dtype=float)
    _require_finite("delay tau", tau, ">= 0")
    gamma1 = sys.qubit.relaxation_rate(kind, n_r)
    exponent = _TWO_PI * (gamma1 / 2.0 + sys.qubit.intrinsic_dephasing) * tau
    if form is EnvelopeForm.ASYMPTOTIC_RATE:
        exponent += _TWO_PI * dephasing_rate(kind, n_r, sys) * tau
    else:
        c = correlator(kind, n_r, sys.resonator)
        k_ang = _TWO_PI * c.decay_rate
        kick_sq = (_TWO_PI * sys.resonator.external_rate * sys.theta0) ** 2
        x = k_ang * tau
        # (k tau - 1 + exp(-k tau)) / k^2, evaluated stably for small x
        shape = np.where(
            x < 1e-6,
            0.5 * tau * tau * (1.0 - x / 3.0),
            (x - 1.0 + np.exp(-x)) / (k_ang * k_ang),
        )
        exponent += kick_sq * c.variance * shape  # <dphi^2> / 2
    return np.exp(-exponent)[()]


def simulate_ramsey(
    sys: DispersiveSystem,
    kind: StateKind,
    n_r: float,
    tau_grid: Sequence[float],
    shots: int = 10_000,
    seed: int = 0,
    form: EnvelopeForm = EnvelopeForm.ASYMPTOTIC_RATE,
) -> np.ndarray:
    """Simulated Ramsey fringe with binomial shot statistics.

    Returns an array of (tau, p_e) rows with
    p_e(tau) = [1 + cos(2 pi f_d tau) * envelope(tau)] / 2 sampled with
    ``shots`` binomial draws per point.  The fringe detuning is
    f_d = 5 / max(tau), so fits see a well-conditioned oscillation.  The envelope
    is one :func:`ramsey_envelope` call on the whole grid, and the trace is
    one binomial draw from a generator seeded with ``seed``.
    """
    taus = np.asarray(list(tau_grid), dtype=float)
    if shots < 1:
        raise ValueError("need at least one shot per point")
    tau_max = float(np.max(taus)) if taus.size else 0.0  # an empty grid has no positive delay
    _require_finite("max(tau) of the tau grid", tau_max, "> 0")  # sets the fringe detuning
    fringe_detuning = 5.0 / tau_max
    envelope = ramsey_envelope(sys, kind, n_r, taus, form=form)
    p = np.clip(0.5 * (1.0 + np.cos(_TWO_PI * fringe_detuning * taus) * envelope), 0.0, 1.0)
    counts = np.random.default_rng(seed).binomial(shots, p)
    return np.column_stack([taus, counts / shots])
