"""Single-mode microwave field states and their photon statistics.

The propagating fields of interest are weak (mean photon number of order
unity) and come in three flavours: thermal radiation from a black-body
emitter (super-Poissonian, Var(n) = n^2 + n), coherent tones from a
microwave source (Poissonian, Var(n) = n), and broadband electronic shot
noise (Poissonian intensity but no stable phase).  The vacuum is the
n = 0 limit of each, written ``MicrowaveState.thermal(0.0)``.  This
module owns

* the Bose-Einstein occupation n(T) and its exact inverse,
* the closed-form photon-number variance of each kind,
* normally ordered field moments <(a^dag)^n a^m> up to total order 4,
* seeded Monte Carlo samplers for the symmetrized (Wigner) phase-space
  envelope of each state,
* the moment algebra: one ``(n, m)`` key tuple, the sums of the products
  z1^m conj(z2)^n (n + m <= 4) behind every moment estimate, for the keys
  an estimate reads, conjugate symmetrization and the Gaussian-shift map
  between orderings, both over the keys they are given.

Conventions.  Monte Carlo samples always represent the Wigner
quasi-distribution, because heterodyne records estimate symmetrized
operator averages.  All commutator bookkeeping is concentrated in the
shift map :func:`_gaussian_shift`; nothing else in the package applies
``[a, a^dag]`` corrections.  Every state's Wigner distribution is a
circular Gaussian around a carrier (:func:`_wigner_gaussian`).  Shot noise
is modelled as a displaced vacuum whose phase is drawn uniformly for each
sample: the phase-averaged coherent state, with Poissonian intensity
statistics and no phase coherence between samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

import numpy as np

from ._constants import hbar, k as k_B

__all__ = [
    "MAX_MOMENT_ORDER",
    "MOMENT_KEYS",
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


class Ordering(Enum):
    NORMAL = "normal"
    SYMMETRIZED = "symmetrized"


#: All (n, m) index pairs with 0 <= n + m <= MAX_MOMENT_ORDER, by total order.
MOMENT_KEYS = tuple((n, t - n) for t in range(MAX_MOMENT_ORDER + 1) for n in range(t + 1))


# For n + m <= 4 the smaller exponent of a key (n, m) is 0, 1 or max(n, m),
# so its product is formed at step max(n, m) from the stepped powers and the
# first powers z1 and conj(z2).
assert all(min(key) in (0, 1, max(key)) for key in MOMENT_KEYS)


@functools.cache
def _keys_by_step(keys: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """``keys`` grouped by the step max(n, m) that forms them, from step 0 to the last."""
    return tuple(
        tuple(key for key in keys if max(key) == k) for k in range(max(map(max, keys)) + 1)
    )


def _segment_sums(
    z1: np.ndarray, z2: np.ndarray, keys, temps=None
) -> Dict[Tuple[int, int], complex]:
    """Sums of the products z1^m conj(z2)^n over a segment, for each (n, m) in ``keys``.

    ``keys`` is a tuple of (n, m) with n + m <= 4, and ``sums[(n, m)]`` is
    the complex sum of z1^m conj(z2)^n, in the order of ``keys``.  The
    powers of z1 and conj(z2) are raised only up to the highest exponent a
    key names, and only the mixed products the keys name are formed, each
    from those shared powers; a key's sum has the same bits whatever else
    ``keys`` holds.  With z1 = z2 = z the sums are those of conj(z)^n z^m.
    ``temps`` are four arrays like ``z2`` to hold conj(z2), the two powers
    and one product; without them the four are allocated here.
    """
    steps = _keys_by_step(keys)
    z2_bar, pow1_out, pow2_out, product = temps or [np.empty_like(z2) for _ in range(4)]
    np.conjugate(z2, out=z2_bar)
    sums = dict.fromkeys(keys)
    for key in steps[0]:
        sums[key] = complex(z1.size)
    # step k raises pow1 = z1^k and pow2 = conj(z2)^k in place, so a
    # segment holds at most four arrays at a time
    pow1, pow2 = z1, z2_bar
    for k in range(1, len(steps)):
        if k > 1:
            pow1 = np.multiply(pow1, z1, out=pow1_out)
            pow2 = np.multiply(pow2, z2_bar, out=pow2_out)
        for n, m in steps[k]:
            if n == 0:
                sums[(n, m)] = complex(pow1.sum())
            elif m == 0:
                sums[(n, m)] = complex(pow2.sum())
            else:
                np.multiply(pow1 if m == k else z1, pow2 if n == k else z2_bar, out=product)
                sums[(n, m)] = complex(product.sum())
    return sums


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
        for (n, m), value in self.entries.items():
            if n < 0 or m < 0 or n + m > MAX_MOMENT_ORDER:
                raise ValueError(f"moment index {(n, m)} outside 0 <= n + m <= {MAX_MOMENT_ORDER}")
            modulus = math.hypot(value.real, value.imag)  # abs() would raise on overflow
            if not math.isfinite(modulus):
                raise ValueError(f"non-finite moment or modulus at {(n, m)}: {value}")
            mirror = self.entries.get((m, n))
            if mirror is not None:
                gap = value - mirror.conjugate()
                if math.hypot(gap.real, gap.imag) > 1e-9 * max(1.0, modulus):
                    raise ValueError(
                        f"conjugation symmetry violated at {(n, m)}: "
                        f"{value} vs conj({mirror})"
                    )
        if abs(self.entries[(0, 0)] - 1.0) > max(self.tolerance, 1e-9):
            raise ValueError(f"entry (0, 0) must equal 1, got {self.entries[(0, 0)]}")
        if self.ordering is Ordering.NORMAL and (1, 1) in self.entries:
            occupancy = self.entries[(1, 1)]
            if occupancy.real < -self.tolerance:
                raise ValueError(f"normal-ordered <a^dag a> must be >= 0, got {occupancy}")

    def entry(self, n: int, m: int) -> complex:
        try:
            return self.entries[(n, m)]
        except KeyError:
            raise ValueError(f"moment ({n}, {m}) not present in this set") from None

    def is_complete(self) -> bool:
        return all(k in self.entries for k in MOMENT_KEYS)

    def missing_keys(self):
        return [k for k in MOMENT_KEYS if k not in self.entries]


# ---------------------------------------------------------------------------
# Closed-form statistics
# ---------------------------------------------------------------------------

def bose_einstein(mode: ModeSpec, temperature: float | np.ndarray) -> float | np.ndarray:
    """Mean thermal occupation n(T) = 1 / (exp(h f / k_B T) - 1).

    One temperature gives a float; a 1-d array of temperatures gives the
    array of their occupations, each checked and computed on its own.
    """
    occupations = []
    for t in np.atleast_1d(temperature):
        t = float(t)
        if not t > 0:
            raise ValueError(f"temperature must be positive, got {t}")
        x = hbar * 2.0 * math.pi * mode.frequency / (k_B * t)
        # past x = 700 exp(x) overflows double precision; occupation is exp(-x) to 1e-300
        occupations.append(math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x))
    return np.array(occupations) if np.ndim(temperature) else occupations[0]


def effective_temperature(mode: ModeSpec, n: float) -> float:
    """Exact inverse of :func:`bose_einstein`: temperature giving occupation ``n``."""
    if not n > 0:
        raise ValueError(f"occupation must be positive to define a temperature, got {n}")
    return hbar * 2.0 * math.pi * mode.frequency / (k_B * math.log1p(1.0 / n))


def photon_variance(kind: StateKind, n: float) -> float:
    """Photon-number variance Var(n) of a field of kind ``kind`` and mean occupation ``n``.

    Thermal fields are super-Poissonian (n^2 + n), coherent states and shot
    noise Poissonian (n).
    """
    if kind is StateKind.THERMAL:
        return n * n + n
    return n


def analytic_moments(state: MicrowaveState) -> MomentSet:
    """Normally ordered moments <(a^dag)^n a^m>, n + m <= 4, in closed form.

    Thermal: <(a^dag)^k a^k> = k! n^k, phase-carrying entries vanish.
    Coherent: <(a^dag)^n a^m> = conj(alpha)^n alpha^m.
    Shot noise: phase-randomized Poissonian field, <(a^dag)^k a^k> = n^k,
    phase-carrying entries vanish.
    """
    n = state.mean_photons
    alpha = state.amplitude
    entries: Dict[Tuple[int, int], complex] = {}
    for nn, mm in MOMENT_KEYS:
        if state.kind is StateKind.THERMAL:
            value = math.factorial(nn) * n ** nn if nn == mm else 0.0
        elif state.kind is StateKind.COHERENT:
            value = alpha.conjugate() ** nn * alpha ** mm
        else:
            value = n ** nn if nn == mm else 0.0
        entries[(nn, mm)] = complex(value)
    return MomentSet(Ordering.NORMAL, entries)


# ---------------------------------------------------------------------------
# Monte Carlo sampling
# ---------------------------------------------------------------------------

def _batch_layout(count: int):
    """Deterministic batch layout: (index, start, size) of SAMPLE_BATCH-sized slices."""
    for index, start in enumerate(range(0, count, SAMPLE_BATCH)):
        yield index, start, min(SAMPLE_BATCH, count - start)


def _batch_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def sample_envelopes(state: MicrowaveState, count: int, seed: int) -> np.ndarray:
    """Complex envelope samples drawn from the Wigner distribution of ``state``.

    Thermal states are circular Gaussians with per-quadrature variance
    (2n + 1)/4.  Coherent states displace the vacuum Gaussian by
    ``alpha``.  Shot noise displaces it by sqrt(n) exp(i phi), with the
    phase ``phi`` drawn uniformly for each sample.  Batch ``i`` draws from
    ``SeedSequence(seed, spawn_key=(i,))`` of the integer ``seed``, so the
    samples are deterministic given it, whatever order batches run in.
    """
    if count < 0:
        raise ValueError("sample count must be >= 0")
    out = np.empty(count, dtype=complex)
    for index, start, size in _batch_layout(count):
        _sample_batch(state, seed, index, out[start : start + size])
    return out


def _wigner_gaussian(state: MicrowaveState) -> Tuple[complex, bool, float]:
    """(carrier, random phase, per-quadrature variance) of the state's Wigner law.

    The Wigner distribution is a circular Gaussian of that variance around
    the carrier; with a random phase, the carrier's phase is uniform and
    independent from sample to sample.
    """
    if state.kind is StateKind.COHERENT:
        return state.amplitude, False, 0.25
    if state.kind is StateKind.SHOT_NOISE:
        return complex(math.sqrt(state.mean_photons)), True, 0.25
    return 0j, False, (2.0 * state.mean_photons + 1.0) / 4.0


def _sample_batch(state: MicrowaveState, seed: int, index: int, z: np.ndarray) -> None:
    """Fill ``z`` with batch ``index`` of :func:`sample_envelopes` for ``seed``.

    Each batch draws from its own generator, so batches can be filled in
    any order, or at once on several threads.  Quadratures are drawn
    interleaved (I, Q pairs viewed as complex), and a random phase per
    sample after them, so a short final batch is a prefix of the full batch
    it replaces.
    """
    rng = np.random.default_rng(_batch_seed(seed, index))
    carrier, random_phase, variance = _wigner_gaussian(state)
    z[:] = rng.normal(0.0, math.sqrt(variance), size=(z.size, 2)).view(complex)[:, 0]
    if random_phase:
        z += carrier * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, z.size))
    elif carrier:
        z += carrier


def empirical_moments(samples: np.ndarray) -> MomentSet:
    """Symmetrized moments estimated as averages of conj(z)^n z^m."""
    z = np.asarray(samples)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples to estimate moments, got {z.size}")
    entries = {key: total / z.size for key, total in _segment_sums(z, z, MOMENT_KEYS).items()}
    _conjugate_symmetrize(entries)
    # physicality checked at the statistical resolution of the estimate
    return MomentSet(Ordering.SYMMETRIZED, entries, tolerance=50.0 / math.sqrt(z.size))


# ---------------------------------------------------------------------------
# Moment algebra
# ---------------------------------------------------------------------------

def _conjugate_symmetrize(entries: Dict[Tuple[int, int], complex]) -> None:
    """Make ``entries[(m, n)] == conj(entries[(n, m)])`` exact, in place, by averaging.

    Every key of ``entries`` is visited, so its mirror (m, n) must be there too.
    """
    for n, m in entries:
        if n < m:
            avg = 0.5 * (entries[(n, m)] + entries[(m, n)].conjugate())
            entries[(n, m)] = avg
            entries[(m, n)] = avg.conjugate()
        elif n == m:
            entries[(n, m)] = complex(entries[(n, m)].real)


def _gaussian_shift(entries: Dict[Tuple[int, int], complex], shift: float) -> dict:
    """sum_k k! C(n,k) C(m,k) shift^k entries[(n-k, m-k)] for every key (n, m) of ``entries``.

    The moments <conj(z)^n z^m> of z + g, with g circular Gaussian noise of
    <|g|^2> = ``shift``.  Shifts add, so -``shift`` undoes ``shift``.  Each
    key's lower keys (n-k, m-k) must be in ``entries`` too.
    """
    shifted = {}
    for n, m in entries:
        total = 0j
        for k in range(min(n, m) + 1):
            coeff = math.comb(n, k) * math.comb(m, k) * math.factorial(k) * shift ** k
            total += coeff * entries[(n - k, m - k)]
        shifted[(n, m)] = total
    return shifted


def ordering_convert(moments: MomentSet, target: Ordering) -> MomentSet:
    """Exact linear map between normal and symmetrized orderings.

    The symmetrized (Weyl) products of a single mode expand over normal ones as

        {(a^dag)^n a^m}_W = sum_k k! C(n,k) C(m,k) (1/2)^k (a^dag)^(n-k) a^(m-k) ,

    the :func:`_gaussian_shift` by +1/2; the inverse is the shift by -1/2.
    """
    if not moments.is_complete():
        raise ValueError(
            "moment set incomplete up to order 4; missing entries: "
            f"{moments.missing_keys()}"
        )
    if moments.ordering is target:
        return MomentSet(target, dict(moments.entries), moments.tolerance)
    shift = 0.5 if target is Ordering.SYMMETRIZED else -0.5
    return MomentSet(target, _gaussian_shift(moments.entries, shift), moments.tolerance)
