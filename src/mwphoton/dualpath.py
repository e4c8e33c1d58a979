"""Dual-path detection: splitting, amplification noise, and moment recovery.

A 50:50 hybrid ring divides the signal between two amplification chains
whose added noise is independent; averaged products that combine one path
with the conjugate of the other are therefore free of amplifier noise, and
from the table of I/Q cross moments <I1^n I2^m Q1^k Q2^l> up to fourth
order all signal moments <(a^dag)^n a^m> at the beam-splitter input can be
recovered.  The same module hosts the Planck-spectroscopy calibration that
ties detected power to emitter temperature, and the quadrature-variance /
Gaussian-Wigner readouts used to rule out squeezing.

The simulation operates on complex envelopes drawn from the Wigner
distribution of the input state; the intermediate frequency is carried as
metadata only (the statistics under test are envelope moments).

Work inside a record runs on a thread pool with one worker per available
CPU (:func:`_map_on_cpus`); numpy releases the GIL while it draws normals
and runs array loops.  :func:`simulate_detection` makes one task per
``SAMPLE_BATCH``: it samples the signal and the fourth port, splits them
on the hybrid, adds chain noise and applies the gains on its own slice of
the record, with generators keyed by (seed, stream, batch).
:func:`_product_block_sums` makes one task per error block and returns
the blocks in order.  A task's numbers depend on its batch or block
alone, and results are combined in item order, so the record and every
sum built on it are bit-identical for any worker count.  Block totals are
combined with compensated summation.

The reconstruction needs only the 15 complex cross-path products
E[z1^m conj(z2)^n], n + m <= 4.  The sweep pipelines take one pass over a
record that sums them per error block (:func:`_product_block_sums`); the
point estimates invert the compensated total of those block sums and the
error bars come from the scatter of the per-block inversions, so both rest
on one set of sums.  The 70-entry I/Q table of :func:`cross_moments` stays
as the export and diagnostic form and reaches the same inversion through
:func:`reconstruct_signal_moments`.  It costs one matrix product per error
block: the 15 monomials I^a Q^b (a + b <= 4) of each path form one table
per path, and their 15 x 15 Gram matrix holds every block sum
<I1^n Q1^k I2^m Q2^l> at row (n, k) and column (m, l).
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.constants import h as PLANCK_H, k as k_B

from .chains import CompressionPoint, compression_power, linear_to_db
from .states import (
    MAX_MOMENT_ORDER,
    SAMPLE_BATCH,
    MicrowaveState,
    ModeSpec,
    MomentSet,
    Ordering,
    _batch_layout,
    _batch_seed,
    _complex_normal,
    _sample_batch,
    moment_keys,
    ordering_convert,
)

__all__ = [
    "DetectionRecord",
    "CrossMomentSet",
    "PlanckSweep",
    "PlanckCalibration",
    "JpaCalibration",
    "hybrid_split",
    "simulate_detection",
    "cross_moments",
    "reconstruct_signal_moments",
    "planck_power",
    "jpa_planck_power",
    "planck_fit",
    "jpa_planck_fit",
    "quadrature_variances",
    "wigner_gaussian_contour",
    "save_record_binary",
    "load_record_binary",
    "save_record_csv",
    "load_record_csv",
]

#: Number of batches used for moment accumulation and standard errors.
ERROR_BATCHES = 20

DEFAULT_IF_FREQUENCY = 11e6  # Hz

#: The (n, m) moment keys, built once: worker tasks may not call
#: :func:`~mwphoton.states.moment_keys`, a public function.
_MOMENT_KEYS = moment_keys()


# ---------------------------------------------------------------------------
# Record and moment containers
# ---------------------------------------------------------------------------

@dataclass
class DetectionRecord:
    """Paired complex envelope sequences from the two amplification chains."""

    envelopes_1: np.ndarray
    envelopes_2: np.ndarray
    chain_gains: Tuple[float, float]
    if_frequency: float = DEFAULT_IF_FREQUENCY
    seed: int = 0

    def __post_init__(self):
        self.envelopes_1 = np.asarray(self.envelopes_1, dtype=complex)
        self.envelopes_2 = np.asarray(self.envelopes_2, dtype=complex)
        if self.envelopes_1.shape != self.envelopes_2.shape or self.envelopes_1.ndim != 1:
            raise ValueError("the two envelope sequences must be 1-d and of equal length")
        if self.envelopes_1.size < 2:
            raise ValueError("a detection record needs at least 2 samples")
        g1, g2 = self.chain_gains
        if not (g1 > 0 and g2 > 0):
            raise ValueError("chain gains must be positive")

    @property
    def sample_count(self) -> int:
        return int(self.envelopes_1.size)


def _cross_keys() -> Tuple[Tuple[int, int, int, int], ...]:
    keys = []
    for total in range(MAX_MOMENT_ORDER + 1):
        for n in range(total + 1):
            for m in range(total - n + 1):
                for k in range(total - n - m + 1):
                    keys.append((n, m, k, total - n - m - k))
    return tuple(keys)


CROSS_MOMENT_KEYS = _cross_keys()  # 70 entries for order <= 4


@dataclass
class CrossMomentSet:
    """Averaged I/Q products <I1^n I2^m Q1^k Q2^l> for 0 <= n+m+k+l <= 4."""

    entries: Dict[Tuple[int, int, int, int], float]
    std_errors: Optional[Dict[Tuple[int, int, int, int], float]] = None
    sample_count: int = 0

    def __post_init__(self):
        if (0, 0, 0, 0) not in self.entries:
            raise ValueError("cross-moment set must contain the (0,0,0,0) entry")
        if abs(self.entries[(0, 0, 0, 0)] - 1.0) > 1e-12:
            raise ValueError("entry (0,0,0,0) must equal 1")
        for key, value in self.entries.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite cross moment at {key}")

    def entry(self, n: int, m: int, k: int, l: int) -> float:
        try:
            return self.entries[(n, m, k, l)]
        except KeyError:
            raise ValueError(f"cross moment {(n, m, k, l)} not present") from None

    def is_complete(self) -> bool:
        return all(key in self.entries for key in CROSS_MOMENT_KEYS)

    def to_json_dict(self) -> dict:
        payload = {
            "entries": {
                ",".join(map(str, key)): [value, 0.0]
                for key, value in sorted(self.entries.items())
            },
            "sample_count": self.sample_count,
        }
        if self.std_errors is not None:
            payload["std_errors"] = {
                ",".join(map(str, key)): value for key, value in sorted(self.std_errors.items())
            }
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CrossMomentSet":
        def key_of(text):
            return tuple(int(tok) for tok in text.split(","))

        entries = {key_of(key): float(re) for key, (re, _im) in payload["entries"].items()}
        errors = payload.get("std_errors")
        std_errors = (
            None if errors is None else {key_of(key): float(v) for key, v in errors.items()}
        )
        return cls(entries, std_errors, int(payload.get("sample_count", 0)))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def hybrid_split(signal: np.ndarray, vacuum: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """50:50 hybrid ring: outputs (s + v)/sqrt(2) and (s - v)/sqrt(2).

    Energy is conserved sample by sample: |out1|^2 + |out2|^2 = |s|^2 + |v|^2.
    """
    s = np.array(signal, dtype=complex, order="C")
    v = np.array(vacuum, dtype=complex, order="C")
    if s.shape != v.shape:
        raise ValueError("signal and vacuum-port sequences must have equal length")
    _hybrid_in_place(s, v)
    return s, v


def _hybrid_in_place(s: np.ndarray, v: np.ndarray) -> None:
    """Overwrite ``s`` with (s + v)/sqrt(2) and ``v`` with (s - v)/sqrt(2)."""
    root_half = 1.0 / math.sqrt(2.0)
    total = s + v
    np.subtract(s, v, out=v)
    v *= root_half
    np.multiply(total, root_half, out=s)


#: Worker threads of :func:`_map_on_cpus`: one per CPU this process may use.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity query on this platform
    _WORKERS = os.cpu_count() or 1


def _map_on_cpus(fn, items) -> list:
    """``[fn(item) for item in items]``, with the calls spread over ``_WORKERS`` threads.

    numpy releases the GIL while it draws normals and runs array loops, so
    the calls proceed side by side.  Each call must depend on its item
    alone, so the results do not depend on the worker count.  ``fn`` must
    call no function named in a module's ``__all__``: those are the entry
    points that callers instrument, and they run on the calling thread only.
    """
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(fn, items))


def simulate_detection(
    state: MicrowaveState,
    chain_noise_photons: Tuple[float, float] = (0.0, 0.0),
    gains: Tuple[float, float] = (1.0, 1.0),
    count: int = 100_000,
    seed: int = 0,
    vacuum_port_photons: float = 0.0,
    if_frequency: float = DEFAULT_IF_FREQUENCY,
) -> DetectionRecord:
    """Simulate a dual-path record for a given input state.

    The input and the hybrid's fourth port are drawn from their Wigner
    distributions, split on the hybrid ring, and each path acquires
    independent circular-Gaussian chain noise (``chain_noise_photons``
    referred to the chain input) before multiplication by sqrt(gain).  The
    fourth port defaults to exact vacuum; a small thermal occupation can be
    injected through ``vacuum_port_photons``.

    Chain noise of n photons has per-quadrature variance n/2 on top of the
    signal's own (already sampled) vacuum, so on a vacuum input each chain
    output has per-quadrature variance (2 n + 1)/4.  Every ``SAMPLE_BATCH``
    runs the whole chain on its own slice of the record, with generators
    keyed by (seed, stream, batch), so the batches run on all CPUs and the
    record does not depend on how many there are.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    n1, n2 = chain_noise_photons
    if n1 < 0 or n2 < 0:
        raise ValueError("chain noise photons must be >= 0")
    if vacuum_port_photons < 0:
        raise ValueError("vacuum-port occupation must be >= 0")
    root = np.random.SeedSequence(seed)
    signal_stream, port_stream, *noise_streams = [
        np.random.SeedSequence(entropy=root.entropy, spawn_key=(s,)) for s in range(4)
    ]
    port_state = (
        MicrowaveState.vacuum()
        if vacuum_port_photons == 0.0
        else MicrowaveState.thermal(vacuum_port_photons)
    )
    # the hybrid outputs overwrite the two sampled buffers, and chain noise
    # and gain act on them in place, so the record costs two allocations
    signal = np.empty(count, dtype=complex)
    port = np.empty(count, dtype=complex)
    paths = tuple(zip((n1, n2), noise_streams, gains))

    def detect_batch(batch):
        index, lo, size = batch
        out = (signal[lo : lo + size], port[lo : lo + size])
        _sample_batch(state, signal_stream, index, out[0])
        _sample_batch(port_state, port_stream, index, out[1])
        _hybrid_in_place(*out)
        for z, (n_chain, stream, gain) in zip(out, paths):
            if n_chain != 0.0:
                rng = np.random.default_rng(_batch_seed(stream, index))
                z += _complex_normal(rng, math.sqrt(n_chain / 2.0), size)
            z *= math.sqrt(gain)

    _map_on_cpus(detect_batch, _batch_layout(count))
    return DetectionRecord(signal, port, tuple(gains), if_frequency, seed)


def _error_blocks(count: int):
    """(lo, hi) bounds of the non-empty ERROR_BATCHES contiguous blocks of a record."""
    bounds = np.linspace(0, count, ERROR_BATCHES + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


#: Exponents (a, b) of the single-path monomials x^a y^b, a + b <= 4, in
#: order of total degree, so each one is a multiple of an earlier one.
_MONOMIALS = tuple(
    (a, total - a) for total in range(MAX_MOMENT_ORDER + 1) for a in range(total, -1, -1)
)
_MONOMIAL_ROW = {powers: row for row, powers in enumerate(_MONOMIALS)}
# key (n, m, k, l) sits at row I1^n Q1^k and column I2^m Q2^l of the Gram matrix
_GRAM_ROWS = np.array([_MONOMIAL_ROW[(n, k)] for n, m, k, l in CROSS_MOMENT_KEYS])
_GRAM_COLS = np.array([_MONOMIAL_ROW[(m, l)] for n, m, k, l in CROSS_MOMENT_KEYS])


def _monomial_table(z: np.ndarray) -> np.ndarray:
    """Rows I^a Q^b of ``z`` for the exponents in ``_MONOMIALS``, one multiply each."""
    table = np.empty((len(_MONOMIALS), z.size))
    table[0] = 1.0
    for row, (a, b) in enumerate(_MONOMIALS[1:], 1):
        if b:
            np.multiply(table[_MONOMIAL_ROW[(a, b - 1)]], z.imag, out=table[row])
        else:
            np.multiply(table[_MONOMIAL_ROW[(a - 1, 0)]], z.real, out=table[row])
    return table


def cross_moments(rec: DetectionRecord) -> CrossMomentSet:
    """All 70 averaged products <I1^n I2^m Q1^k Q2^l> with n+m+k+l <= 4.

    Each of the ERROR_BATCHES contiguous blocks costs one matrix product:
    with L and R the 15-row tables of monomials I^a Q^b (a + b <= 4) of
    path 1 and path 2, the Gram matrix L @ R.T holds the block sum of
    I1^n Q1^k I2^m Q2^l at row (n, k) and column (m, l), and two index
    arrays built at import pick the 70 entries.  Each entry is the
    compensated sum of its block sums over the record length, so the
    result does not depend on scheduling; the scatter of the block means
    gives the per-moment standard errors.
    """
    count = rec.sample_count
    blocks = _error_blocks(count)  # >= 2 blocks, since a record holds >= 2 samples
    block_sums = np.empty((len(blocks), len(CROSS_MOMENT_KEYS)))
    for index, (lo, hi) in enumerate(blocks):
        gram = _monomial_table(rec.envelopes_1[lo:hi]) @ _monomial_table(rec.envelopes_2[lo:hi]).T
        block_sums[index] = gram[_GRAM_ROWS, _GRAM_COLS]
    sizes = np.array([hi - lo for lo, hi in blocks], dtype=float)
    errors = np.std(block_sums / sizes[:, None], axis=0, ddof=1) / math.sqrt(len(blocks))
    entries = {key: math.fsum(block_sums[:, j]) / count for j, key in enumerate(CROSS_MOMENT_KEYS)}
    std_errors = dict(zip(CROSS_MOMENT_KEYS, errors.tolist()))
    entries[(0, 0, 0, 0)] = 1.0
    std_errors[(0, 0, 0, 0)] = 0.0
    return CrossMomentSet(entries, std_errors, count)


#: Keys (n, m) of the products z1^m conj(z2)^n with n, m >= 1, by max(n, m).
#: For n + m <= 4 the smaller exponent is 1 or equals the larger one.
_MIXED_KEYS = {
    k: [(n, m) for n, m in _MOMENT_KEYS if min(n, m) >= 1 and max(n, m) == k]
    for k in range(1, MAX_MOMENT_ORDER + 1)
}
assert all(min(key) in (1, k) for k, keys in _MIXED_KEYS.items() for key in keys)


def _product_block_sums(rec: DetectionRecord):
    """Block sums of the 15 cross-path products z1^m conj(z2)^n, n + m <= 4.

    The blocks are those of :func:`cross_moments`.  Returns one
    ``(size, sums)`` pair per block, in block order, with ``sums[(n, m)]``
    the complex sum of z1^m conj(z2)^n over the block; every product is
    built from shared powers of z1 and conj(z2).  Each block is summed on
    its own, so the blocks run on all CPUs and the sums do not depend on
    how many there are.
    """

    def block_sums(bounds):
        lo, hi = bounds
        z1 = rec.envelopes_1[lo:hi]
        z2_bar = np.conj(rec.envelopes_2[lo:hi])
        product = np.empty_like(z2_bar)
        sums = {(0, 0): complex(hi - lo)}
        # step k raises pow1 = z1^k and pow2 = conj(z2)^k in place, so a
        # block holds four arrays at a time
        pow1, pow2 = z1, z2_bar
        for k in range(1, MAX_MOMENT_ORDER + 1):
            if k == 2:
                pow1, pow2 = pow1 * z1, pow2 * z2_bar
            elif k > 2:
                np.multiply(pow1, z1, out=pow1)
                np.multiply(pow2, z2_bar, out=pow2)
            sums[(0, k)] = complex(pow1.sum())
            sums[(k, 0)] = complex(pow2.sum())
            for n, m in _MIXED_KEYS[k]:
                np.multiply(pow1 if m == k else z1, pow2 if n == k else z2_bar, out=product)
                sums[(n, m)] = complex(product.sum())
        return hi - lo, sums

    return _map_on_cpus(block_sums, _error_blocks(rec.sample_count))


# ---------------------------------------------------------------------------
# Moment reconstruction
# ---------------------------------------------------------------------------

def _expansion_table():
    """Coefficients expressing E[z1^m conj(z2)^n] over I/Q cross moments.

    z1^m conj(z2)^n = sum over (a, c) of C(m,a) C(n,c) i^(m-a) (-i)^(n-c)
    I1^a Q1^(m-a) I2^c Q2^(n-c); solved once at import and reused.
    """
    table = {}
    for n, m in _MOMENT_KEYS:
        terms = []
        for a in range(m + 1):
            for c in range(n + 1):
                coeff = (
                    math.comb(m, a)
                    * math.comb(n, c)
                    * (1j) ** (m - a)
                    * (-1j) ** (n - c)
                )
                terms.append(((a, c, m - a, n - c), coeff))
        table[(n, m)] = tuple(terms)
    return table


_CROSS_EXPANSION = _expansion_table()


def reconstruct_signal_moments(
    cm: CrossMomentSet,
    gains: Tuple[float, float],
    vacuum_port_photons: float = 0.0,
) -> MomentSet:
    """Normally ordered signal moments at the beam-splitter input.

    The I/Q table is first recombined into the complex cross-path products
    E[z1^m conj(z2)^n] through the binomial expansion of
    (I1 + iQ1)^m (I2 - iQ2)^n, then inverted as described in
    :func:`_moments_from_products`.
    """
    if not cm.is_complete():
        missing = [key for key in CROSS_MOMENT_KEYS if key not in cm.entries]
        raise ValueError(f"cross-moment set incomplete; missing {missing[:5]}...")
    products = {}
    for n, m in _MOMENT_KEYS:
        total = 0j
        for key, coeff in _CROSS_EXPANSION[(n, m)]:
            total += coeff * cm.entries[key]
        products[(n, m)] = total
    return _moments_from_products(products, gains, vacuum_port_photons, cm.sample_count)


def _moments_from_products(
    products: Dict[Tuple[int, int], complex],
    gains: Tuple[float, float],
    vacuum_port_photons: float,
    sample_count: int,
) -> MomentSet:
    """Invert the averaged cross-path products ``products[(n, m)]`` = E[z1^m conj(z2)^n].

    Only cross-path products enter, so the independent, zero-mean, circular
    chain noise of both paths drops out of every estimator.  Writing the
    hybrid input as s and the fourth port as v (circular with
    <|v|^2> = n_v + 1/2), the products obey

        E[A^m B_bar^n] = 2^-(m+n)/2 * sum_p C(m,p) C(n,p) p! (-s_v)^p M(n-p, m-p)

    with A = z1/sqrt(g1), B_bar = conj(z2)/sqrt(g2), s_v = n_v + 1/2, and
    M the symmetrized signal moments.  The triangular system is solved from
    low to high order, levels are conjugate-symmetrized, and the result is
    converted to normal ordering.
    """
    g1, g2 = gains
    if g1 <= 0 or g2 <= 0:
        raise ValueError("reconstruction is singular for non-positive chain gains")
    if vacuum_port_photons < 0:
        raise ValueError("vacuum-port occupation must be >= 0")
    s_v = vacuum_port_photons + 0.5

    raw = {}
    for n, m in _MOMENT_KEYS:
        total = products[(n, m)] / (g1 ** (m / 2.0) * g2 ** (n / 2.0))
        raw[(n, m)] = total * 2.0 ** ((n + m) / 2.0)

    sym: Dict[Tuple[int, int], complex] = {}
    for order in range(MAX_MOMENT_ORDER + 1):
        level = [(n, m) for (n, m) in _MOMENT_KEYS if n + m == order]
        for n, m in level:
            value = raw[(n, m)]
            for p in range(1, min(n, m) + 1):
                value -= (
                    math.comb(m, p)
                    * math.comb(n, p)
                    * math.factorial(p)
                    * (-s_v) ** p
                    * sym[(n - p, m - p)]
                )
            sym[(n, m)] = value
        for n, m in level:
            if n < m:
                avg = 0.5 * (sym[(n, m)] + sym[(m, n)].conjugate())
                sym[(n, m)] = avg
                sym[(m, n)] = avg.conjugate()
            elif n == m:
                sym[(n, m)] = complex(sym[(n, m)].real)
    sym[(0, 0)] = 1.0 + 0j

    tolerance = 1e-9 if sample_count == 0 else 50.0 / math.sqrt(sample_count)
    symmetrized = MomentSet(Ordering.SYMMETRIZED, sym, tolerance)
    return ordering_convert(symmetrized, Ordering.NORMAL)


# ---------------------------------------------------------------------------
# Planck spectroscopy calibration
# ---------------------------------------------------------------------------

@dataclass
class PlanckSweep:
    """Detected power versus emitter temperature at a fixed mode and bandwidth."""

    temperatures: np.ndarray
    powers: np.ndarray
    mode: ModeSpec
    bandwidth: float

    def __post_init__(self):
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.temperatures.shape != self.powers.shape or self.temperatures.ndim != 1:
            raise ValueError("temperatures and powers must be 1-d of equal length")
        if np.any(np.diff(self.temperatures) <= 0):
            raise ValueError("temperatures must be strictly increasing")
        if np.any(self.powers <= 0):
            raise ValueError("detected powers must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class PlanckCalibration:
    chain_gain: float
    chain_noise_temperature: float
    chain_noise_photons: float
    residuals: np.ndarray
    fitted_powers: np.ndarray
    chain_gain_std: float = 0.0
    chain_noise_temperature_std: float = 0.0

    @property
    def chain_gain_db(self) -> float:
        return linear_to_db(self.chain_gain)


@dataclass
class JpaCalibration:
    total_gain: float
    jpa_gain: Optional[float]
    added_photons: float
    t_1db: Optional[float]
    p_1db: Optional[CompressionPoint]

    @property
    def jpa_gain_db(self) -> Optional[float]:
        return None if self.jpa_gain is None else linear_to_db(self.jpa_gain)

    @property
    def compression_found(self) -> bool:
        return self.t_1db is not None


def _bose_einstein_array(mode: ModeSpec, temperatures: np.ndarray) -> np.ndarray:
    from .states import bose_einstein

    return np.array([bose_einstein(mode, float(t)) for t in temperatures])


def planck_power(
    temperatures,
    mode: ModeSpec,
    bandwidth: float,
    chain_gain: float,
    chain_noise_temperature: float,
) -> np.ndarray:
    """Forward model P(T) = G * B * h f * [n(T) + 1/2 + n_chain].

    The chain noise enters as a photon number n_chain = k_B T_chain / (h f)
    so the bracket stays dimensionless.
    """
    temps = np.atleast_1d(np.asarray(temperatures, dtype=float))
    quantum = PLANCK_H * mode.frequency
    n_chain = k_B * chain_noise_temperature / quantum
    occ = _bose_einstein_array(mode, temps)
    return chain_gain * bandwidth * quantum * (occ + 0.5 + n_chain)


def jpa_planck_power(
    temperatures,
    mode: ModeSpec,
    bandwidth: float,
    jpa_gain: float,
    added_photons: float,
    chain_gain: float = 1.0,
    saturation_power: Optional[float] = None,
    saturation_sharpness: float = 20.0,
) -> np.ndarray:
    """Forward model for a Planck sweep with the preamplifier on.

    In the linear regime P(T) = G_jpa G_chain B h f [n(T) + 1/2 + n_n]; an
    optional saturation P -> P / (1 + (P / P_sat)^m)^(1/m) models gain
    compression with a knee of sharpness m, putting the 1 dB point at
    P_linear = P_sat (10^(m/10) - 1)^(1/m) while leaving powers well below
    the knee essentially untouched.
    """
    temps = np.atleast_1d(np.asarray(temperatures, dtype=float))
    quantum = PLANCK_H * mode.frequency
    occ = _bose_einstein_array(mode, temps)
    linear = jpa_gain * chain_gain * bandwidth * quantum * (occ + 0.5 + added_photons)
    if saturation_power is None:
        return linear
    m = saturation_sharpness
    return linear / (1.0 + (linear / saturation_power) ** m) ** (1.0 / m)


def saturation_power_for_t1db(
    t_1db: float,
    mode: ModeSpec,
    bandwidth: float,
    jpa_gain: float,
    added_photons: float,
    chain_gain: float = 1.0,
    saturation_sharpness: float = 20.0,
) -> float:
    """Saturation power placing the 1 dB compression point at ``t_1db``."""
    linear = jpa_planck_power([t_1db], mode, bandwidth, jpa_gain, added_photons, chain_gain)[0]
    m = saturation_sharpness
    return float(linear / (10.0 ** (m / 10.0) - 1.0) ** (1.0 / m))


def _planck_linear_fit(x: np.ndarray, y: np.ndarray, weights=None):
    """Weighted LSQ of y = c1 * x + c0; returns (c1, c0) and their covariance."""
    from .analysis import _linear_least_squares

    design = np.column_stack([x, np.ones_like(x)])
    try:
        beta, covariance, _ = _linear_least_squares(design, y, weights)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ValueError(f"degenerate Planck sweep: {exc}") from exc
    return beta[0], beta[1], covariance


def planck_fit(sweep: PlanckSweep, weights=None) -> PlanckCalibration:
    """Calibrate total chain gain and noise temperature from a Planck sweep.

    Least squares of P(T) = C1 [n(T) + 1/2] + C0 with C1 = G B h f and
    C0 = C1 * n_chain.  On data generated by :func:`planck_power` the round
    trip is exact to numerical precision.
    """
    temps = sweep.temperatures
    if temps.size < 4:
        raise ValueError("Planck calibration needs at least 4 sweep points")
    if temps[-1] / temps[0] < 3.0:
        raise ValueError("Planck sweep must span at least a factor 3 in temperature")
    x = _bose_einstein_array(sweep.mode, temps) + 0.5
    c1, c0, covariance = _planck_linear_fit(x, sweep.powers, weights)
    if c1 <= 0:
        raise ValueError("Planck fit produced a non-positive gain; sweep is unusable")
    quantum = PLANCK_H * sweep.mode.frequency
    gain = c1 / (sweep.bandwidth * quantum)
    n_chain = c0 / c1
    t_chain = n_chain * quantum / k_B
    fitted = c1 * x + c0
    gain_std = math.sqrt(max(covariance[0, 0], 0.0)) / (sweep.bandwidth * quantum)
    # n_chain = c0/c1: first-order propagation with the full covariance
    grad = np.array([-c0 / (c1 * c1), 1.0 / c1])
    n_chain_var = float(grad @ covariance @ grad)
    t_chain_std = math.sqrt(max(n_chain_var, 0.0)) * quantum / k_B
    return PlanckCalibration(
        gain, t_chain, n_chain, sweep.powers - fitted, fitted, gain_std, t_chain_std
    )


def jpa_planck_fit(
    sweep: PlanckSweep,
    fit_range_max_t: float,
    reference_chain_gain: Optional[float] = None,
    kappa_x: Optional[float] = None,
) -> JpaCalibration:
    """Extract JPA gain and added noise from a preamplified Planck sweep.

    Only points at T <= fit_range_max_t (below compression) enter the
    linear fit P = C1 [n(T) + 1/2] + C0, giving the total gain and
    n_n = C0 / C1.  The fitted line is then extended over the full sweep;
    the 1 dB compression temperature is the first crossing where the
    measured power falls 1 dB below the line (linear interpolation in the
    dB deficit), reported as absent when no crossing exists in range.
    """
    temps = sweep.temperatures
    if not np.any(temps > fit_range_max_t):
        raise ValueError("sweep must extend beyond the fit range to probe compression")
    mask = temps <= fit_range_max_t
    if np.count_nonzero(mask) < 3:
        raise ValueError("need at least 3 sweep points inside the fit range")
    x = _bose_einstein_array(sweep.mode, temps) + 0.5
    c1, c0, _ = _planck_linear_fit(x[mask], sweep.powers[mask])
    if c1 <= 0:
        raise ValueError("JPA Planck fit produced a non-positive gain")
    quantum = PLANCK_H * sweep.mode.frequency
    total_gain = c1 / (sweep.bandwidth * quantum)
    added = c0 / c1
    jpa_gain = None if reference_chain_gain is None else total_gain / reference_chain_gain

    line = c1 * x + c0
    deficit_db = 10.0 * np.log10(line / sweep.powers)
    t_1db = None
    for i in range(1, temps.size):
        if deficit_db[i] >= 1.0:
            lo, hi = deficit_db[i - 1], deficit_db[i]
            frac = (1.0 - lo) / (hi - lo) if hi > lo else 1.0
            t_1db = float(temps[i - 1] + frac * (temps[i] - temps[i - 1]))
            break
    p_1db = None
    if t_1db is not None and kappa_x is not None:
        p_1db = compression_power(kappa_x, t_1db)
    return JpaCalibration(total_gain, jpa_gain, added, t_1db, p_1db)


# ---------------------------------------------------------------------------
# Quadrature statistics
# ---------------------------------------------------------------------------

def quadrature_variances(moments: MomentSet) -> Tuple[float, float]:
    """Variances of p = i(a^dag - a)/2 and q = (a^dag + a)/2 from normal moments.

    Var(q) = [<a^dag2> + <a^2> + 2<a^dag a> + 1]/4 - <q>^2 and the p
    variant with the sign of the second harmonics flipped; for any
    unsqueezed Gaussian state both equal n/2 + 1/4.
    """
    if moments.ordering is not Ordering.NORMAL:
        raise ValueError("quadrature variances are defined on normally ordered moments")
    for key in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
        if key not in moments.entries:
            raise ValueError(f"moment {key} required for quadrature variances")
    n20 = moments.entry(2, 0)
    n02 = moments.entry(0, 2)
    n11 = moments.entry(1, 1)
    alpha = moments.entry(0, 1)
    mean_q = alpha.real
    mean_p = alpha.imag
    var_q = (n20 + n02 + 2.0 * n11 + 1.0).real / 4.0 - mean_q * mean_q
    var_p = (-n20 - n02 + 2.0 * n11 + 1.0).real / 4.0 - mean_p * mean_p
    return var_p, var_q


def wigner_gaussian_contour(n: float) -> float:
    """Radius of the 1/e contour of a circular Gaussian Wigner function.

    Per-quadrature variance (2n + 1)/4 gives radius sqrt(n + 1/2); the
    thermal-to-vacuum contour ratio is sqrt(2n + 1).
    """
    if n < 0:
        raise ValueError("occupation must be >= 0")
    return math.sqrt(n + 0.5)


# ---------------------------------------------------------------------------
# Record import/export
# ---------------------------------------------------------------------------

def _complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array with exactly these parts.

    ``re + 1j * im`` would turn a -0.0 real part into +0.0.
    """
    z = np.empty(re.size, dtype=complex)
    z.real = re
    z.imag = im
    return z


def save_record_binary(rec: DetectionRecord, data_path, sidecar_path=None) -> None:
    """Write little-endian float64 interleaved (I1, Q1, I2, Q2) plus a JSON sidecar."""
    data_path = Path(data_path)
    sidecar = Path(sidecar_path) if sidecar_path else data_path.with_suffix(data_path.suffix + ".json")
    interleaved = np.empty(4 * rec.sample_count, dtype="<f8")
    interleaved[0::4] = rec.envelopes_1.real
    interleaved[1::4] = rec.envelopes_1.imag
    interleaved[2::4] = rec.envelopes_2.real
    interleaved[3::4] = rec.envelopes_2.imag
    data_path.write_bytes(interleaved.tobytes())
    sidecar.write_text(
        json.dumps(
            {
                "sample_count": rec.sample_count,
                "chain_gains": list(rec.chain_gains),
                "if_frequency": rec.if_frequency,
                "seed": rec.seed,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def load_record_binary(data_path, sidecar_path=None) -> DetectionRecord:
    data_path = Path(data_path)
    sidecar = Path(sidecar_path) if sidecar_path else data_path.with_suffix(data_path.suffix + ".json")
    meta = json.loads(sidecar.read_text())
    raw = np.frombuffer(data_path.read_bytes(), dtype="<f8")
    count = int(meta["sample_count"])
    if raw.size != 4 * count:
        raise ValueError(
            f"binary record holds {raw.size} float64 values, expected {4 * count}"
        )
    z1 = _complex_from_parts(raw[0::4], raw[1::4])
    z2 = _complex_from_parts(raw[2::4], raw[3::4])
    return DetectionRecord(
        z1, z2, tuple(meta["chain_gains"]), meta["if_frequency"], int(meta["seed"])
    )


_CSV_HEADER = ["index", "I1", "Q1", "I2", "Q2"]


def save_record_csv(rec: DetectionRecord, path) -> None:
    """Write one ``index,I1,Q1,I2,Q2`` row per sample, floats in ``repr`` form."""
    table = np.stack(
        (rec.envelopes_1.real, rec.envelopes_1.imag, rec.envelopes_2.real, rec.envelopes_2.imag),
        axis=1,
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_CSV_HEADER) + "\r\n")
        # rows go through Python floats (~220 B per row), so convert a batch at a time
        for start in range(0, rec.sample_count, SAMPLE_BATCH):
            rows = table[start : start + SAMPLE_BATCH].tolist()
            handle.writelines(
                f"{i},{i1!r},{q1!r},{i2!r},{q2!r}\r\n"
                for i, (i1, q1, i2, q2) in enumerate(rows, start)
            )


def load_record_csv(path, chain_gains=(1.0, 1.0), if_frequency=DEFAULT_IF_FREQUENCY, seed=0) -> DetectionRecord:
    with open(path, newline="") as handle:
        header = next(csv.reader([handle.readline()]), None)
        if header != _CSV_HEADER:
            raise ValueError(f"CSV header must be {_CSV_HEADER}, got {header}")
        # a header-only file loads as shape (0, 1)
        table = np.loadtxt(handle, delimiter=",", ndmin=2).reshape(-1, len(_CSV_HEADER))
    z1 = _complex_from_parts(table[:, 1], table[:, 2])
    z2 = _complex_from_parts(table[:, 3], table[:, 4])
    return DetectionRecord(z1, z2, tuple(chain_gains), if_frequency, seed)
