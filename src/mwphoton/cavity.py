"""Resonator filtering of propagating fields.

A single-port resonator traps the incident field and hands the qubit a
photon-number signal with finite memory.  For every state of interest the
photon-photon correlator factorizes,

    C(tau) = Var(n_r) * exp(-kappa_tilde * tau),

where the decay rate depends on the field: white noise (thermal or shot)
decays at the energy decay rate kappa_x, a coherent drive at the amplitude
decay rate kappa_x / 2.  Internal loss is left out of every rate here: it is
negligible for the devices modelled (kappa_i / kappa_x ~ 0.006).  The module
also provides the Lorentzian density of states of the resonator, its
qubit-state-shifted variants, and the photon-induced dephasing rates.  Their
spectral integrals are integrals of products of Lorentzians over the whole
line, so both rates are closed forms.

Rates are stored as ordinary frequencies in Hz (the "/2pi" values); the
2*pi factors are applied inside formulas that exponentiate a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from .states import StateKind, _number_variance

__all__ = [
    "Resonator",
    "Correlator",
    "QubitState",
    "correlator",
    "correlator_value",
    "lorentzian_dos",
    "shifted_dos",
    "dephasing_gaussian",
    "dephasing_master_correction",
]


@dataclass(frozen=True)
class Resonator:
    """Single-mode resonator: resonance frequency and loss rates, all in Hz."""

    resonance_frequency: float
    external_rate: float
    internal_rate: float = 0.0

    def __post_init__(self):
        if not self.resonance_frequency > 0:
            raise ValueError("resonance frequency must be positive")
        if not self.external_rate > 0:
            raise ValueError("external coupling rate must be positive")
        if self.internal_rate < 0:
            raise ValueError("internal loss rate must be >= 0")

    @property
    def total_rate(self) -> float:
        return self.external_rate + self.internal_rate


@dataclass(frozen=True)
class Correlator:
    """Exponential photon-number correlator C(tau) = variance * exp(-rate * tau)."""

    variance: float
    decay_rate: float  # Hz

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("correlator variance must be >= 0")
        if not self.decay_rate > 0:
            raise ValueError("correlator decay rate must be positive")


class QubitState(Enum):
    GROUND = "ground"
    EXCITED = "excited"


def correlator(kind: StateKind, n_r: float, res: Resonator) -> Correlator:
    """Photon-photon correlator of the resonator population for a given input.

    Thermal input:   C(tau) = (n_r^2 + n_r) exp(-kappa_x tau)
    Shot noise:      C(tau) = n_r        exp(-kappa_x tau)
    Coherent input:  C(tau) = n_r        exp(-kappa_x tau / 2)
    Vacuum:          C(tau) = 0

    The memory is set by kappa_x alone; internal loss is left out.
    """
    if n_r < 0:
        raise ValueError("resonator population must be >= 0")
    return Correlator(_number_variance(kind, n_r), _memory_rate(kind, res))


def _memory_rate(kind: StateKind, res: Resonator) -> float:
    """Decay rate kappa_tilde (Hz) of the correlator of a field of kind ``kind``.

    White noise forgets at the energy decay rate kappa_x; a coherent drive
    at the amplitude decay rate kappa_x / 2.
    """
    if kind is StateKind.COHERENT:
        return res.external_rate / 2.0
    return res.external_rate


def correlator_value(c: Correlator, tau: float) -> float:
    """Evaluate C(tau); the stored Hz rate enters as an angular rate."""
    if tau < 0:
        raise ValueError("correlator delay must be >= 0")
    return c.variance * math.exp(-2.0 * math.pi * c.decay_rate * tau)


def lorentzian_dos(omega: float, res: Resonator) -> float:
    """Lorentzian filter function F(omega) = (k/2) / ((k/2)^2 + delta_r^2).

    ``omega`` is an ordinary frequency in Hz; the detuning convention is
    delta_r = omega_r - omega.  Peak value 2 / kappa_x at resonance, and
    (1/pi) * integral F d(omega) = 1.
    """
    delta = res.resonance_frequency - omega
    half = res.external_rate / 2.0
    return half / (half * half + delta * delta)


def shifted_dos(omega: float, res: Resonator, chi: float, qubit_state: QubitState) -> float:
    """Qubit-state-conditioned density of states.

    D_pm(omega) = (k/2) / (k^2/4 + (delta_r +- chi)^2) with delta_r =
    omega_r - omega; the '+' branch applies when the qubit is excited, so
    the Lorentzian peaks at omega_r + chi (ground: omega_r - chi).  For
    chi = 0 both branches collapse onto :func:`lorentzian_dos`.
    """
    delta = res.resonance_frequency - omega
    sign = 1.0 if qubit_state is QubitState.EXCITED else -1.0
    half = res.external_rate / 2.0
    offset = delta + sign * chi
    return half / (half * half + offset * offset)


def dephasing_gaussian(var_n: float, res: Resonator, theta0: float) -> float:
    """Photon-induced dephasing rate in the Gaussian (weak-pull) approximation.

    The photon-number fluctuation spectrum of white noise filtered by the
    resonator is delta_n^2(omega) = (k/2)^2 F(omega)^2 Var(n_r), and the
    dephasing rate is theta0^2 (4/pi) * integral of delta_n^2.  The
    integral of the squared Lorentzian over the line is pi / kappa_x, so

        gamma_phi_n = kappa_x * theta0^2 * Var(n_r)        (in Hz).
    """
    if var_n < 0:
        raise ValueError("photon-number variance must be >= 0")
    return res.external_rate * theta0 ** 2 * var_n


def dephasing_master_correction(res: Resonator, chi: float) -> float:
    """Relative deviation of the Gaussian dephasing rate from the
    state-resolved (master-equation) rate.

    Beyond the weak-pull limit the resonator response differs between the
    qubit ground and excited states.  In the dressed calibration frame the
    two responses sit at +-chi/2 around the probe, and the fluctuation
    spectrum acquires the overlap structure

        (k^2/4) [D_+ + D_-] / (k^2/4 + delta_r^2 + (chi/2)^2)

    with D_pm offset by +-chi/2.  With a = kappa_x/2, s = chi/2 and
    b = sqrt(a^2 + s^2), each term is a product of two Lorentzians, one of
    half-width a at -+s and one of half-width b at 0.  Over the whole line

        int dx / ((g1^2 + (x - x1)^2) (g2^2 + (x - x2)^2))
            = pi (g1 + g2) / (g1 g2 ((x1 - x2)^2 + (g1 + g2)^2)),

    so the spectrum integrates to 2 pi a^2 (a + b) / (b (s^2 + (a + b)^2)),
    which is pi at chi = 0, where the spectrum collapses onto the Gaussian
    one.  The ratio of the two is weighted by the squared phase kick
    relative to the squared accumulated phase, and the routine returns

        (gamma_gauss - gamma_resolved) / gamma_gauss.

    The result is even in chi, vanishes as chi -> 0, and is about 0.04 for
    a pull |chi| / kappa_x ~ 0.35.
    """
    kappa = res.external_rate
    if abs(chi) >= kappa:
        raise ValueError(
            "state-resolved correction assumes the weak-pull regime |chi| < kappa_x"
        )
    if chi == 0.0:
        return 0.0
    a = kappa / 2.0
    s = chi / 2.0
    b = math.hypot(a, s)
    spectral_ratio = 2.0 * a * a * (a + b) / (b * (s * s + (a + b) ** 2))
    pull = s / a
    kick_ratio = pull * pull / math.atan(pull) ** 2
    return 1.0 - kick_ratio * spectral_ratio
