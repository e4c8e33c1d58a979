"""Resonator filtering of propagating fields.

A single-port resonator traps the incident field and hands the qubit a
photon-number signal with finite memory.  For every state of interest the
photon-photon correlator factorizes,

    C(tau) = Var(n_r) * exp(-kappa_tilde * tau),

where the decay rate depends on the field: white noise (thermal or shot)
decays at the energy decay rate kappa_x, a coherent drive at the amplitude
decay rate kappa_x / 2.  Internal loss is left out of every rate here: it is
negligible for the devices modelled (kappa_i / kappa_x ~ 0.006).  The module
also provides the Lorentzian density of states of the resonator and the
photon-induced dephasing rate.  Its spectral integral is the integral of a
squared Lorentzian over the whole line, so the rate is a closed form.

Rates are stored as ordinary frequencies in Hz (the "/2pi" values); the
2*pi factors are applied inside formulas that exponentiate a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .states import StateKind, _require_finite, photon_variance

__all__ = [
    "Resonator",
    "Correlator",
    "correlator",
    "correlator_value",
    "lorentzian_dos",
    "dephasing_gaussian",
]


@dataclass(frozen=True)
class Resonator:
    """Single-mode resonator: resonance frequency and loss rates, all in Hz."""

    resonance_frequency: float
    external_rate: float
    internal_rate: float = 0.0

    def __post_init__(self):
        _require_finite("resonance_frequency", self.resonance_frequency, "> 0")
        _require_finite("external_rate", self.external_rate, "> 0")
        _require_finite("internal_rate", self.internal_rate, ">= 0")


@dataclass(frozen=True)
class Correlator:
    """Exponential photon-number correlator C(tau) = variance * exp(-rate * tau)."""

    variance: float
    decay_rate: float  # Hz

    def __post_init__(self):
        _require_finite("variance", self.variance, ">= 0")
        _require_finite("decay_rate", self.decay_rate, "> 0")


def correlator(kind: StateKind, n_r: float, res: Resonator) -> Correlator:
    """Photon-photon correlator of the resonator population for a given input.

    Thermal input:   C(tau) = (n_r^2 + n_r) exp(-kappa_x tau)
    Shot noise:      C(tau) = n_r        exp(-kappa_x tau)
    Coherent input:  C(tau) = n_r        exp(-kappa_x tau / 2)

    The memory is set by kappa_x alone; internal loss is left out.
    """
    return Correlator(photon_variance(kind, n_r), _memory_rate(kind, res))


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
    _require_finite("delay tau", tau, ">= 0")
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


def dephasing_gaussian(var_n: float, res: Resonator, theta0: float) -> float:
    """Photon-induced dephasing rate in the Gaussian (weak-pull) approximation.

    The photon-number fluctuation spectrum of white noise filtered by the
    resonator is delta_n^2(omega) = (k/2)^2 F(omega)^2 Var(n_r), and the
    dephasing rate is theta0^2 (4/pi) * integral of delta_n^2.  The
    integral of the squared Lorentzian over the line is pi / kappa_x, so

        gamma_phi_n = kappa_x * theta0^2 * Var(n_r)        (in Hz).
    """
    _require_finite("var_n", var_n, ">= 0")
    _require_finite("theta0", theta0)
    return res.external_rate * theta0 ** 2 * var_n

