"""Input-output models for attenuation and parametric amplification.

Attenuation is a beam splitter a = sqrt(eta) b + sqrt(1 - eta) c that mixes
a thermal background mode c into the signal; phase-insensitive parametric
amplification is a = sqrt(G) b + sqrt(G - 1) c^dag with c the (thermal)
idler carrying the added noise.  Both transformations are tracked at the
level of the mean photon number and the photon-number variance, from which
the unnormalized second-order correlation

    g2_tilde(0) = Var(n) - n + n^2

follows.  For strong gain the amplified thermal field obeys
g2_tilde(0) = 2 (n_jpa + n_n + 1)^2 with an input-independent offset
2 n_n^2 + 4 n_n + 2 set by the amplifier noise alone.  The amplifier has
two noise conventions: a thermal idler (:class:`JpaStage`, :func:`amplify`,
:func:`g2_jpa_referred`) and a commutator-free one that treats the idler
as a classical complex amplitude (:func:`amplify_commutator_free`).

Gains are stored in linear power units; dB conversions live here and
nowhere else.  Powers are handled in watts, with dBm (1 mW reference) as a
derived readout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

from ._constants import k as k_B
from .states import StateKind

__all__ = [
    "BeamSplitterStage",
    "JpaStage",
    "db_to_linear",
    "linear_to_db",
    "watts_to_dbm",
    "attenuate",
    "amplify",
    "amplify_commutator_free",
    "g2_unnormalized",
    "g2_jpa_referred",
    "compression_power",
]


def db_to_linear(gain_db: float) -> float:
    return 10.0 ** (gain_db / 10.0)


def linear_to_db(gain: float) -> float:
    if not gain > 0:
        raise ValueError("gain must be positive to express in dB")
    return 10.0 * math.log10(gain)


def watts_to_dbm(power: float) -> float:
    if not power > 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(power / 1e-3)


@dataclass(frozen=True)
class BeamSplitterStage:
    """Attenuator with transmissivity eta and thermal background occupation n_n."""

    transmissivity: float
    background_photons: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.transmissivity}")
        if self.background_photons < 0:
            raise ValueError("background occupation must be >= 0")


@dataclass(frozen=True)
class JpaStage:
    """Phase-preserving parametric amplifier stage.

    ``gain`` is the linear power gain G >= 1; ``added_noise_photons`` the
    occupation n_n of the thermal idler, Var(n_n) = n_n^2 + n_n, referred
    to the input.
    """

    gain: float
    added_noise_photons: float = 0.0

    def __post_init__(self):
        if not self.gain >= 1.0:
            raise ValueError(f"amplifier gain must be >= 1 (linear), got {self.gain}")
        if self.added_noise_photons < 0:
            raise ValueError("added noise photons must be >= 0")

    @classmethod
    def from_db(cls, gain_db: float, added_noise_photons: float = 0.0) -> "JpaStage":
        return cls(db_to_linear(gain_db), added_noise_photons)

    @property
    def gain_db(self) -> float:
        return linear_to_db(self.gain)


# ---------------------------------------------------------------------------
# Stage transformations
# ---------------------------------------------------------------------------

def attenuate(kind: StateKind, n_b: float, stage: BeamSplitterStage) -> Tuple[float, float]:
    """Mean photon number and variance after beam-splitter attenuation.

    n_tot = eta n_b + (1 - eta) n_n, and

    thermal:  Var = eta^2 n_b^2 + eta n_b + 2 eta (1-eta) n_b n_n
                    + (1-eta)^2 n_n^2 + (1-eta) n_n
    coherent: Var = eta n_b + 2 eta (1-eta) n_b n_n
                    + (1-eta)^2 n_n^2 + (1-eta) n_n

    For eta -> 1 the pure signal statistics survive, for eta -> 0 the pure
    background thermal statistics.
    """
    if n_b < 0:
        raise ValueError("signal occupation must be >= 0")
    eta = stage.transmissivity
    n_n = stage.background_photons
    n_tot = eta * n_b + (1.0 - eta) * n_n
    shared = (
        2.0 * eta * (1.0 - eta) * n_b * n_n
        + (1.0 - eta) ** 2 * n_n * n_n
        + (1.0 - eta) * n_n
    )
    if kind is StateKind.THERMAL:
        variance = eta * eta * n_b * n_b + eta * n_b + shared
    elif kind is StateKind.COHERENT:
        variance = eta * n_b + shared
    else:
        raise ValueError("attenuation statistics are defined for thermal and coherent fields")
    return n_tot, variance


def amplify(n_jpa: float, stage: JpaStage) -> Tuple[float, float]:
    """Mean photon number and variance after phase-preserving amplification.

    With a thermal idler of occupation n_n,

        n_bs  = G n_jpa + (G - 1)(n_n + 1)
        Var   = G^2 n_jpa^2 + G^2 n_jpa + G(G-1) n_jpa + 2 G(G-1) n_jpa n_n
                + (G-1)^2 n_n^2 + (G-1)^2 n_n + G(G-1) n_n + G(G-1).
    """
    if n_jpa < 0:
        raise ValueError("input occupation must be >= 0")
    g = stage.gain
    n_n = stage.added_noise_photons
    n_bs = g * n_jpa + (g - 1.0) * (n_n + 1.0)
    variance = (
        g * g * n_jpa * n_jpa
        + g * g * n_jpa
        + g * (g - 1.0) * n_jpa
        + 2.0 * g * (g - 1.0) * n_jpa * n_n
        + (g - 1.0) ** 2 * n_n * n_n
        + (g - 1.0) ** 2 * n_n
        + g * (g - 1.0) * n_n
        + g * (g - 1.0)
    )
    return n_bs, variance


def amplify_commutator_free(n_jpa: float, gain: float, noise_photons: float) -> Tuple[float, float]:
    """Amplification with the idler treated as a classical complex amplitude.

    Setting <c c^dag> = <c^dag c> = n_n removes every commutator (+1)
    contribution of the noise mode:

        n_bs = G n_jpa + (G - 1) n_n
        Var  = G^2 (n_jpa^2 + n_jpa) + (G-1)^2 n_n^2
               + G(G-1)(2 n_jpa + 1) n_n.

    Kept alongside :func:`amplify` so the two noise conventions can be
    compared; it is not reachable through :class:`JpaStage`.
    """
    if n_jpa < 0 or noise_photons < 0:
        raise ValueError("occupations must be >= 0")
    if not gain >= 1.0:
        raise ValueError("gain must be >= 1")
    g, n, n_n = gain, n_jpa, noise_photons
    n_bs = g * n + (g - 1.0) * n_n
    variance = (
        g * g * (n * n + n)
        + (g - 1.0) ** 2 * n_n * n_n
        + g * (g - 1.0) * (2.0 * n + 1.0) * n_n
    )
    return n_bs, variance


# ---------------------------------------------------------------------------
# Correlation functions
# ---------------------------------------------------------------------------

def g2_unnormalized(n: float, variance: float) -> float:
    """g2_tilde(0) = n^2 g2(0) = Var(n) - n + n^2."""
    if n < 0 or variance < 0:
        raise ValueError("photon number and variance must be >= 0")
    return variance - n + n * n


def g2_jpa_referred(n_jpa: float, stage: JpaStage) -> Tuple[float, float]:
    """Strong-gain g2_tilde(0) referred to the amplifier input, and its offset.

    A thermal idler gives g2 = 2 (n_jpa + n_n + 1)^2 with the
    n_jpa-independent offset 2 n_n^2 + 4 n_n + 2, so that
    g2 - offset = 2 n_jpa^2 + (4 + 4 n_n) n_jpa.
    """
    if n_jpa < 0:
        raise ValueError("input occupation must be >= 0")
    if stage.gain < 10.0:
        warnings.warn(
            f"g2_jpa_referred assumes strong gain; G = {stage.gain:.3g} (< 10, 10 dB)",
            stacklevel=2,
        )
    n_n = stage.added_noise_photons
    g2 = 2.0 * (n_jpa + n_n + 1.0) ** 2
    offset = 2.0 * (n_n + 1.0) ** 2
    return g2, offset


def compression_power(kappa_x: float, t_1db: float) -> float:
    """1 dB compression power P_1dB = kappa_x[Hz] * k_B * T_1dB, in watts."""
    if not (kappa_x > 0 and t_1db > 0):
        raise ValueError("kappa_x and T_1dB must be positive")
    return kappa_x * k_B * t_1db
