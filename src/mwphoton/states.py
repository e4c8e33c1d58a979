"""Single-mode microwave field states and their photon statistics.

The propagating fields of interest are weak (mean photon number of order
unity) and come in four flavours: thermal radiation from a black-body
emitter (super-Poissonian, Var(n) = n^2 + n), coherent tones from a
microwave source (Poissonian, Var(n) = n), broadband electronic shot noise
(Poissonian intensity but no stable phase), and vacuum.  This module owns

* the Bose-Einstein occupation n(T) and its exact inverse,
* closed-form photon-number variances, including the classical n^2 limit,
* normally ordered field moments <(a^dag)^n a^m> up to total order 4,
* seeded Monte Carlo samplers for the symmetrized (Wigner) phase-space
  envelope of each state,
* the exact linear map between normal and symmetrized moment orderings.

Conventions.  Monte Carlo samples always represent the Wigner
quasi-distribution, because heterodyne records estimate symmetrized
operator averages.  All commutator bookkeeping is concentrated in
:func:`ordering_convert`; nothing else in the package applies ``[a, a^dag]``
corrections.  Shot noise is modelled as a displaced vacuum whose global
phase is redrawn uniformly per sample batch, which leaves the Poissonian
intensity statistics intact while erasing phase coherence across batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple, Union

import numpy as np
from scipy.constants import hbar, k as k_B

__all__ = [
    "MAX_MOMENT_ORDER",
    "SAMPLE_BATCH",
    "StateKind",
    "ModeSpec",
    "MicrowaveState",
    "Ordering",
    "MomentSet",
    "bose_einstein",
    "effective_temperature",
    "photon_variance",
    "analytic_moments",
    "sample_envelopes",
    "empirical_moments",
    "ordering_convert",
    "moment_keys",
]

#: Moments are carried up to total order n + m <= 4.
MAX_MOMENT_ORDER = 4

#: Fixed Monte Carlo batch size.  Samplers draw independent sub-streams keyed
#: by (seed, batch index); because the batch layout never depends on how a
#: request is split across workers, results are identical for any scheduling.
SAMPLE_BATCH = 1 << 14


class StateKind(Enum):
    THERMAL = "thermal"
    COHERENT = "coherent"
    SHOT_NOISE = "shot_noise"
    VACUUM = "vacuum"


@dataclass(frozen=True)
class ModeSpec:
    """A single propagating mode, identified by its ordinary frequency in Hz."""

    frequency: float

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"mode frequency must be positive, got {self.frequency}")


@dataclass(frozen=True)
class MicrowaveState:
    """A single-mode field state with mean photon number ``n``.

    ``amplitude`` is only meaningful for coherent states, where
    ``|amplitude|^2 == mean_photons`` is enforced to 1e-12.
    """

    kind: StateKind
    mean_photons: float
    amplitude: complex = 0j

    def __post_init__(self):
        n = self.mean_photons
        if not n >= 0:
            raise ValueError(f"mean photon number must be >= 0, got {n}")
        if self.kind is StateKind.VACUUM and n != 0:
            raise ValueError("vacuum state must have mean_photons = 0")
        if self.kind is StateKind.COHERENT:
            if abs(abs(self.amplitude) ** 2 - n) > 1e-12 * max(1.0, n):
                raise ValueError(
                    "coherent state requires |amplitude|^2 == mean_photons "
                    f"(got |{self.amplitude}|^2 = {abs(self.amplitude)**2} vs {n})"
                )
        elif self.amplitude != 0:
            raise ValueError(f"{self.kind.value} state carries no amplitude")

    @classmethod
    def thermal(cls, n: float) -> "MicrowaveState":
        return cls(StateKind.THERMAL, n)

    @classmethod
    def coherent(cls, alpha: complex) -> "MicrowaveState":
        alpha = complex(alpha)
        return cls(StateKind.COHERENT, abs(alpha) ** 2, alpha)

    @classmethod
    def shot_noise(cls, n: float) -> "MicrowaveState":
        return cls(StateKind.SHOT_NOISE, n)

    @classmethod
    def vacuum(cls) -> "MicrowaveState":
        return cls(StateKind.VACUUM, 0.0)


def _kind_of(state: Union[MicrowaveState, StateKind]) -> StateKind:
    """The kind of a state, or the kind itself when given one."""
    return state.kind if isinstance(state, MicrowaveState) else state


class Ordering(Enum):
    NORMAL = "normal"
    SYMMETRIZED = "symmetrized"


def moment_keys(max_order: int = MAX_MOMENT_ORDER) -> Tuple[Tuple[int, int], ...]:
    """All (n, m) index pairs with 0 <= n + m <= max_order."""
    return tuple(
        (n, m)
        for total in range(max_order + 1)
        for n in range(total + 1)
        for m in [total - n]
    )


@dataclass
class MomentSet:
    """Field moments <(a^dag)^n a^m> (or their symmetrized counterparts).

    ``entries`` maps (n, m) to a complex value; (n, m) = (0, 0) must be
    present and equal to 1.  Conjugation symmetry
    ``entry(n, m) == conj(entry(m, n))`` is required at construction.
    ``tolerance`` bounds the physicality checks; empirical sets carry a
    statistical tolerance so a noise-level-negative occupation estimate is
    not rejected as unphysical.
    """

    ordering: Ordering
    entries: Dict[Tuple[int, int], complex] = field(default_factory=dict)
    tolerance: float = 1e-9

    def __post_init__(self):
        self.entries = {k: complex(v) for k, v in self.entries.items()}
        self.validate()

    def validate(self):
        if (0, 0) not in self.entries:
            raise ValueError("moment set must contain the (0, 0) entry")
        if abs(self.entries[(0, 0)] - 1.0) > max(self.tolerance, 1e-9):
            raise ValueError(f"entry (0, 0) must equal 1, got {self.entries[(0, 0)]}")
        for (n, m), value in self.entries.items():
            if n < 0 or m < 0 or n + m > MAX_MOMENT_ORDER:
                raise ValueError(f"moment index {(n, m)} outside 0 <= n + m <= {MAX_MOMENT_ORDER}")
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"non-finite moment at {(n, m)}: {value}")
            mirror = self.entries.get((m, n))
            if mirror is not None:
                scale = max(1.0, abs(value))
                if abs(value - mirror.conjugate()) > 1e-9 * scale:
                    raise ValueError(
                        f"conjugation symmetry violated at {(n, m)}: "
                        f"{value} vs conj({mirror})"
                    )
        if self.ordering is Ordering.NORMAL and (1, 1) in self.entries:
            occupancy = self.entries[(1, 1)]
            if occupancy.real < -self.tolerance:
                raise ValueError(f"normal-ordered <a^dag a> must be >= 0, got {occupancy}")

    def entry(self, n: int, m: int) -> complex:
        try:
            return self.entries[(n, m)]
        except KeyError:
            raise ValueError(f"moment ({n}, {m}) not present in this set") from None

    def is_complete(self, max_order: int = MAX_MOMENT_ORDER) -> bool:
        return all(k in self.entries for k in moment_keys(max_order))

    def missing_keys(self, max_order: int = MAX_MOMENT_ORDER):
        return [k for k in moment_keys(max_order) if k not in self.entries]

    # -- serialization (keys "n,m" -> [re, im]) ------------------------------

    def to_json_dict(self) -> dict:
        return {
            "ordering": self.ordering.value,
            "entries": {
                f"{n},{m}": [v.real, v.imag] for (n, m), v in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MomentSet":
        entries = {}
        for key, (re, im) in payload["entries"].items():
            n, m = (int(tok) for tok in key.split(","))
            entries[(n, m)] = complex(re, im)
        return cls(Ordering(payload["ordering"]), entries)


# ---------------------------------------------------------------------------
# Closed-form statistics
# ---------------------------------------------------------------------------

def bose_einstein(mode: ModeSpec, temperature: float) -> float:
    """Mean thermal occupation n(T) = 1 / (exp(h f / k_B T) - 1)."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = hbar * 2.0 * math.pi * mode.frequency / (k_B * temperature)
    if x > 700.0:
        # exp(x) overflows double precision; occupation is exp(-x) to 1e-300
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def effective_temperature(mode: ModeSpec, n: float) -> float:
    """Exact inverse of :func:`bose_einstein`: temperature giving occupation ``n``."""
    if not n > 0:
        raise ValueError(f"occupation must be positive to define a temperature, got {n}")
    return hbar * 2.0 * math.pi * mode.frequency / (k_B * math.log1p(1.0 / n))


def photon_variance(state: MicrowaveState, classical_limit: bool = False) -> float:
    """Photon-number variance Var(n) of the state.

    ``classical_limit`` replaces the thermal n^2 + n law by its classical
    n^2 limit (the comparison curve of the variance plots); it is only
    meaningful for thermal states.
    """
    n = state.mean_photons
    if classical_limit:
        if state.kind is not StateKind.THERMAL:
            raise ValueError("classical_limit applies to thermal states only")
        return n * n
    if state.kind is StateKind.THERMAL:
        return n * n + n
    if state.kind in (StateKind.COHERENT, StateKind.SHOT_NOISE):
        return n
    return 0.0


def analytic_moments(state: MicrowaveState) -> MomentSet:
    """Normally ordered moments <(a^dag)^n a^m>, n + m <= 4, in closed form.

    Thermal: <(a^dag)^k a^k> = k! n^k, phase-carrying entries vanish.
    Coherent: <(a^dag)^n a^m> = conj(alpha)^n alpha^m.
    Shot noise: phase-randomized Poissonian field, <(a^dag)^k a^k> = n^k,
    phase-carrying entries vanish.  Vacuum: only (0, 0) survives.
    """
    n = state.mean_photons
    alpha = state.amplitude
    entries: Dict[Tuple[int, int], complex] = {}
    for nn, mm in moment_keys():
        if state.kind is StateKind.THERMAL:
            value = math.factorial(nn) * n ** nn if nn == mm else 0.0
        elif state.kind is StateKind.COHERENT:
            value = alpha.conjugate() ** nn * alpha ** mm
        elif state.kind is StateKind.SHOT_NOISE:
            value = n ** nn if nn == mm else 0.0
        else:
            value = 1.0 if nn == mm == 0 else 0.0
        entries[(nn, mm)] = complex(value)
    return MomentSet(Ordering.NORMAL, entries)


# ---------------------------------------------------------------------------
# Monte Carlo sampling
# ---------------------------------------------------------------------------

def _batch_layout(count: int):
    """Deterministic batch layout: (index, start, size) of SAMPLE_BATCH-sized slices."""
    for index, start in enumerate(range(0, count, SAMPLE_BATCH)):
        yield index, start, min(SAMPLE_BATCH, count - start)


def _batch_seed(seed: Union[int, np.random.SeedSequence], index: int) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (index,)
        )
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def sample_envelopes(
    state: MicrowaveState, count: int, seed: Union[int, np.random.SeedSequence]
) -> np.ndarray:
    """Complex envelope samples drawn from the Wigner distribution of ``state``.

    Thermal and vacuum states are circular Gaussians with per-quadrature
    variance (2n + 1)/4.  Coherent states displace the vacuum Gaussian by
    ``alpha``.  Shot noise displaces by sqrt(n) exp(i phi) with the global
    phase ``phi`` redrawn uniformly per batch of ``SAMPLE_BATCH`` samples.
    Deterministic given ``seed``, independent of how batches are scheduled.
    """
    if count < 0:
        raise ValueError("sample count must be >= 0")
    out = np.empty(count, dtype=complex)
    for index, start, size in _batch_layout(count):
        _sample_batch(state, seed, index, out[start : start + size])
    return out


def _sample_batch(
    state: MicrowaveState, seed: Union[int, np.random.SeedSequence], index: int, z: np.ndarray
) -> None:
    """Fill ``z`` with batch ``index`` of :func:`sample_envelopes` for ``seed``.

    Each batch draws from its own generator, so batches can be filled in
    any order, or at once on several threads.
    """
    rng = np.random.default_rng(_batch_seed(seed, index))
    n = state.mean_photons
    # quadratures drawn interleaved (I, Q pairs viewed as complex) so a
    # short final batch is a prefix of the full batch it replaces
    if state.kind in (StateKind.THERMAL, StateKind.VACUUM):
        z[:] = _complex_normal(rng, math.sqrt((2.0 * n + 1.0) / 4.0), z.size)
    elif state.kind is StateKind.COHERENT:
        z[:] = _complex_normal(rng, 0.5, z.size)
        z += state.amplitude
    else:  # shot noise: fixed modulus, batch-random global phase
        phase = rng.uniform(0.0, 2.0 * math.pi)
        carrier = math.sqrt(n) * np.exp(1j * phase)
        z[:] = _complex_normal(rng, 0.5, z.size)
        z += carrier


def _complex_normal(rng: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    """``size`` circular Gaussian samples with per-quadrature deviation ``sigma``."""
    return rng.normal(0.0, sigma, size=(size, 2)).view(complex)[:, 0]


def empirical_moments(samples: np.ndarray) -> MomentSet:
    """Symmetrized moments estimated as averages of conj(z)^n z^m."""
    z = np.asarray(samples)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples to estimate moments, got {z.size}")
    zc = np.conj(z)
    pow_z = [np.ones_like(z)]
    pow_zc = [np.ones_like(z)]
    for _ in range(MAX_MOMENT_ORDER):
        pow_z.append(pow_z[-1] * z)
        pow_zc.append(pow_zc[-1] * zc)
    entries = {}
    for n, m in moment_keys():
        entries[(n, m)] = complex(np.mean(pow_zc[n] * pow_z[m]))
    # enforce exact conjugation symmetry against floating-point drift
    for n, m in moment_keys():
        if n < m:
            avg = 0.5 * (entries[(n, m)] + entries[(m, n)].conjugate())
            entries[(n, m)] = avg
            entries[(m, n)] = avg.conjugate()
        elif n == m:
            entries[(n, m)] = complex(entries[(n, m)].real)
    # physicality checked at the statistical resolution of the estimate
    return MomentSet(Ordering.SYMMETRIZED, entries, tolerance=50.0 / math.sqrt(z.size))


# ---------------------------------------------------------------------------
# Ordering conversion
# ---------------------------------------------------------------------------

def ordering_convert(moments: MomentSet, target: Ordering) -> MomentSet:
    """Exact linear map between normal and symmetrized orderings.

    For a single mode the symmetrized (Weyl) products expand over normal
    ones as

        {(a^dag)^n a^m}_W = sum_k k! C(n,k) C(m,k) (1/2)^k (a^dag)^(n-k) a^(m-k)

    and the inverse carries (-1/2)^k instead.  The map is triangular in the
    total order, so conversion followed by the inverse is the identity.
    """
    if not moments.is_complete():
        raise ValueError(
            "moment set incomplete up to order 4; missing entries: "
            f"{moments.missing_keys()}"
        )
    if moments.ordering is target:
        return MomentSet(target, dict(moments.entries), moments.tolerance)
    shift = 0.5 if target is Ordering.SYMMETRIZED else -0.5
    entries = {}
    for n, m in moment_keys():
        total = 0j
        for k in range(min(n, m) + 1):
            coeff = math.comb(n, k) * math.comb(m, k) * math.factorial(k) * shift ** k
            total += coeff * moments.entries[(n - k, m - k)]
        entries[(n, m)] = total
    return MomentSet(target, entries, moments.tolerance)
