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
* the one batch kernel of every Monte Carlo draw (:func:`_draw_paths`,
  one SFC64 generator per batch) and its one-path case, the sampler of the
  symmetrized (Wigner) phase-space envelope of each state,
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


@functools.cache
def _product_rows(keys: Tuple[Tuple[int, int], ...]):
    """Where :func:`_segment_sums` forms the product of each key: (top, mixed, rows).

    Rows 2k - 2 and 2k - 1 hold z1^k and conj(z2)^k for k = 1 .. ``top``, the
    highest exponent a key names (at least 1).  Each key with both exponents
    >= 1 has a row of its own after them; ``mixed`` lists those as (row, row of
    z1^m, row of conj(z2)^n).  ``rows`` maps each key to its row, (0, 0) to
    None.
    """
    top = max(1, *map(max, keys))
    rows, mixed = {}, []
    for n, m in keys:
        if n and m:
            rows[(n, m)] = 2 * top + len(mixed)
            mixed.append((rows[(n, m)], 2 * m - 2, 2 * n - 1))
        elif n:
            rows[(n, m)] = 2 * n - 1
        elif m:
            rows[(n, m)] = 2 * m - 2
        else:
            rows[(n, m)] = None
    return top, tuple(mixed), rows


def _row_count(keys) -> int:
    """Rows of the buffer :func:`_segment_sums` forms the products of ``keys`` in.

    6 for ``dualpath._POINT_KEYS``, 14 for ``MOMENT_KEYS``.
    """
    top, mixed, _ = _product_rows(keys)
    return 2 * top + len(mixed)


def _segment_sums(z1: np.ndarray, z2: np.ndarray, keys, rows, segments):
    """Sums of the products z1^m conj(z2)^n over segments of a span, for each (n, m) in ``keys``.

    ``keys`` is a tuple of (n, m) with n + m <= 4, and a segment's
    ``sums[(n, m)]`` is the complex sum of z1^m conj(z2)^n, in the order of
    ``keys``.  Every product is formed once over the whole span, into
    ``rows``: a complex array of ``_row_count(keys)`` rows as long as the
    span.  z1 goes to row 0 (no copy when it is row 0) and conj(z2) to
    row 1 (in place when z2 is row 1); then the powers z1^k and conj(z2)^k
    are raised two rows per call, up to the highest exponent a key names,
    and each mixed product a key names is formed from them
    (:func:`_product_rows`).  The products are elementwise, so none depends
    on where a segment starts or ends.  Each (a, b) of ``segments`` is then
    summed in one ``rows[:, a:b].sum(axis=1)`` call, whose row sums have the
    bits of each row's own ``sum()`` (a test pins this), so a key's sum has
    the same bits whatever else ``keys`` holds and wherever the segment
    bounds fall.  With z1 = z2 = z the sums are those of conj(z)^n z^m.
    Returns one dict per segment.
    """
    top, mixed, key_rows = _product_rows(keys)
    rows[0] = z1
    np.conjugate(z2, out=rows[1])
    for k in range(2, top + 1):
        np.multiply(rows[2 * k - 4 : 2 * k - 2], rows[:2], out=rows[2 * k - 2 : 2 * k])
    for row, power1, power2 in mixed:
        np.multiply(rows[power1], rows[power2], out=rows[row])
    sums = []
    for a, b in segments:
        totals = rows[:, a:b].sum(axis=1)
        sums.append(
            {key: complex(b - a if row is None else totals[row]) for key, row in key_rows.items()}
        )
    return sums


def _span_sums(z1: np.ndarray, z2: np.ndarray, keys, bounds):
    """:func:`_segment_sums` of each (lo, hi) span of ``bounds``, all formed in one buffer."""
    rows = np.empty((_row_count(keys), max(hi - lo for lo, hi in bounds)), dtype=complex)
    sums = []
    for lo, hi in bounds:
        sums += _segment_sums(z1[lo:hi], z2[lo:hi], keys, rows[:, : hi - lo], [(0, hi - lo)])
    return sums


def _product_means(segment_sums, count: int) -> Dict[Tuple[int, int], complex]:
    """The product means of ``count`` samples from their per-segment sums.

    Every segment holds the same keys, and each key's mean is the
    compensated total (``math.fsum``) of its segment sums over ``count``,
    so it does not depend on how the segments were scheduled.
    """
    return {
        key: complex(
            math.fsum(s[key].real for s in segment_sums),
            math.fsum(s[key].imag for s in segment_sums),
        )
        / count
        for key in segment_sums[0]
    }


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
    phase ``phi`` drawn uniformly for each sample.  Batch ``i`` is the
    one-path case of :func:`_draw_paths` for the integer ``seed``, so the
    samples are deterministic given it, whatever order batches run in.
    """
    if count < 0:
        raise ValueError("sample count must be >= 0")
    carrier, random_phase, variance = _wigner_gaussian(state)
    factor = ((math.sqrt(variance),),)
    out = np.empty(count, dtype=complex)
    for index, start, size in _batch_layout(count):
        _draw_paths(seed, index, factor, (carrier,), random_phase, (out[start : start + size],))
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


def _draw_paths(seed, index, factor, means, random_phase, outs, normals=None) -> None:
    """Fill ``outs``, one or two paths, with batch ``index`` of a circular Gaussian.

    The batch draws from ``Generator(SFC64(_batch_seed(seed, index)))`` alone,
    so batches can be filled in any order, or at once on several threads:
    (size, 2 * paths) standard normals, into ``normals`` or a temporary, read
    as the complex normals e_k of each sample, then with ``random_phase`` one
    uniform phase u per sample that all paths share.  Path j is
    sum_k factor[j][k] e_k + means[j] exp(iu), with ``factor`` lower
    triangular and u = 0 without a random phase.  The normals are drawn row
    by row, so without a random phase a short final batch is a prefix of the
    full batch it replaces; with one it is not.
    """
    size = outs[0].size
    rng = np.random.Generator(np.random.SFC64(_batch_seed(seed, index)))
    e = rng.standard_normal((size, 2 * len(outs)), out=normals).view(complex)
    for j, (row, out) in enumerate(zip(factor, outs)):
        np.multiply(e[:, 0], row[0], out=out)
        if j:
            # the second path is the last to read e_2, so it scales it in place
            e[:, 1] *= row[1]
            out += e[:, 1]
    if random_phase or any(means):
        turn = np.exp(2j * math.pi * rng.random(size)) if random_phase else 1.0
        for mean, out in zip(means, outs):
            out += turn * mean


def empirical_moments(samples: np.ndarray) -> MomentSet:
    """Symmetrized moments estimated as averages of conj(z)^n z^m."""
    z = np.ravel(samples)
    if z.size < 2:
        raise ValueError(f"need at least 2 samples to estimate moments, got {z.size}")
    # one SAMPLE_BATCH span at a time, so the 14 product rows stay 3.7 MB
    spans = [(start, start + size) for _, start, size in _batch_layout(z.size)]
    entries = _product_means(_span_sums(z, z, MOMENT_KEYS, spans), z.size)
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
    missing = moments.missing_keys()
    if missing:
        raise ValueError(f"moment set incomplete up to order 4; missing entries: {missing}")
    if moments.ordering is target:
        return MomentSet(target, dict(moments.entries), moments.tolerance)
    shift = 0.5 if target is Ordering.SYMMETRIZED else -0.5
    return MomentSet(target, _gaussian_shift(moments.entries, shift), moments.tolerance)
