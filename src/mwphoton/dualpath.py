"""Dual-path detection: splitting, amplification noise, and moment recovery.

A 50:50 hybrid ring divides the signal between two amplification chains
whose added noise is independent; averaged products that combine one path
with the conjugate of the other are therefore free of amplifier noise, and
from the 15 cross-path product means E[z1^m conj(z2)^n], n + m <= 4, all
signal moments <(a^dag)^n a^m> at the beam-splitter input can be
recovered from a record.  A sweep point (:func:`_detect_point`) recovers
only the moments its values read, from 7 of those means.
The same module hosts the Planck-spectroscopy calibration that ties
detected power to emitter temperature, and the quadrature-variance /
Gaussian-Wigner readouts used to rule out squeezing.

The simulation operates on complex envelopes drawn from the Wigner
distribution of the input state; the intermediate frequency is carried as
metadata only (the statistics under test are envelope moments).

Every input state is a circular Gaussian around a carrier, so behind the
hybrid and the two chains the pair (z1, z2) is one circular Gaussian
around the split carrier (:func:`_record_model`).  :func:`_batch_sampler`
draws it one ``SAMPLE_BATCH`` at a time through ``states._draw_paths``, an
SFC64 generator keyed by (seed, batch): four normals per sample, plus one
uniform phase per sample for shot noise.

A draw's batches are cut into one contiguous share per available CPU,
and each share runs as one task on a thread pool (:func:`_map_shares`):
numpy releases the GIL while it draws normals and runs array loops, so a
task makes few, long numpy calls.  A :func:`simulate_detection` task
draws its batches into their slices of a record.  A sweep-point task
(:func:`_detect_point`) draws them, one after another, into one block it
allocates and keeps only the sums of the 7 cross-path products its
values read (``_POINT_KEYS``), so a sweep point never holds a record.  A
batch's numbers depend on its index alone, and results are combined in
batch order, so every record and every sum is bit-identical for any
worker count.

Rescaled by the gains and the hybrid's sqrt(2), the product means are
the normally ordered signal moments behind a vacuum fourth port, and one
Gaussian shift away from them behind a warm one
(:func:`_moments_from_products`).  Sweep points and exported records sum
the products over the same ERROR_BATCHES blocks and take the compensated
total of the block sums over the sample count (``states._product_means``):
a sweep point inverts that estimate and each block's own mean for the
error bars, and :func:`cross_moments` returns it for a record, which
:func:`reconstruct_signal_moments` inverts.  A record keeps all 15
products; the 7 of a sweep point are summed with the same operations as
among the 15, so they and every point value keep their bits.  A record
forms each block's products in one buffer and sums the block whole,
which is faster than splitting it at batch bounds (``docs/notes.md``).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ._constants import h as PLANCK_H, k as k_B
from .analysis import NumericalError, _damped_gauss_newton, _linear_least_squares
from .chains import linear_to_db
from .states import (
    MOMENT_KEYS,
    SAMPLE_BATCH,
    MicrowaveState,
    ModeSpec,
    MomentSet,
    Ordering,
    _batch_layout,
    _draw_paths,
    bose_einstein,
    _conjugate_symmetrize,
    effective_temperature,
    _gaussian_shift,
    _product_means,
    _require_finite,
    _row_count,
    _segment_sums,
    _span_sums,
    _wigner_gaussian,
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
#: Smallest ratio of hottest to coldest temperature a Planck sweep may span.
PLANCK_MIN_SPAN = 3.0

DEFAULT_IF_FREQUENCY = 11e6  # Hz


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
        _require_finite("chain_gains", self.chain_gains, "> 0")

    @property
    def sample_count(self) -> int:
        return int(self.envelopes_1.size)


@dataclass
class CrossMomentSet:
    """Cross-path product means E[z1^m conj(z2)^n], n + m <= 4, keyed (n, m)."""

    entries: Dict[Tuple[int, int], complex]
    sample_count: int = 0

    def __post_init__(self):
        if (0, 0) not in self.entries:
            raise ValueError("cross-moment set must contain the (0, 0) entry")
        if abs(self.entries[(0, 0)] - 1.0) > 1e-12:
            raise ValueError("entry (0, 0) must equal 1")
        for key, value in self.entries.items():
            if not cmath.isfinite(value):
                raise ValueError(f"non-finite cross moment at {key}")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def hybrid_split(signal: np.ndarray, vacuum: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """50:50 hybrid ring: outputs (s + v)/sqrt(2) and (s - v)/sqrt(2).

    Energy is conserved sample by sample: |out1|^2 + |out2|^2 = |s|^2 + |v|^2.
    """
    s = np.asarray(signal, dtype=complex)
    v = np.asarray(vacuum, dtype=complex)
    if s.shape != v.shape:
        raise ValueError("signal and vacuum-port sequences must have equal length")
    root_half = 1.0 / math.sqrt(2.0)
    return (s + v) * root_half, (s - v) * root_half


#: Shares, and threads, of :func:`_map_shares`: one per CPU this process may use.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity query on this platform
    _WORKERS = os.cpu_count() or 1


def _map_shares(fn, count: int) -> list:
    """``fn(share)`` for each contiguous share of the batches of a ``count``-sample draw.

    ``states._batch_layout(count)`` is cut, in order, into at most
    ``_WORKERS`` shares, lists of (index, start, size) whose lengths differ
    by at most one; each call runs on a pool thread, and the results come
    back in share order, which is batch order.  A call must compute each
    batch from the batch alone, so no result depends on the worker count,
    and must call no function named in a module's ``__all__``: those are
    the entry points that callers instrument, and they run on the calling
    thread only.
    """
    layout = list(_batch_layout(count))
    shares = min(_WORKERS, len(layout))
    cuts = [len(layout) * k // shares for k in range(shares + 1)]
    with ThreadPoolExecutor(max_workers=shares) as pool:
        return list(pool.map(fn, (layout[a:b] for a, b in zip(cuts, cuts[1:]))))


def _record_model(
    state: MicrowaveState, chain_noise_photons: Tuple[float, float], vacuum_port_photons: float
) -> Tuple[complex, bool, np.ndarray]:
    """The joint law of a dual-path sample: z_j = sqrt(g_j) (mu / sqrt(2) + x_j).

    Returns the carrier mu, whether its phase is random (drawn per sample)
    and the per-quadrature covariance of the circular Gaussian (x1, x2),

        [[(s_s + s_v + n1)/2, (s_s - s_v)/2], [(s_s - s_v)/2, (s_s + s_v + n2)/2]],

    with s_s and s_v the Wigner per-quadrature variances of the signal and
    of the fourth port and n1, n2 the chain-noise photons.  This is the law
    of splitting the two Wigner samples on the hybrid and adding chain
    noise of per-quadrature variance n_j/2 on each path.  Its determinant
    is s_s s_v + ((s_s + s_v)(n1 + n2) + n1 n2)/4 >= s_s s_v > 0.
    """
    carrier, random_phase, var_s = _wigner_gaussian(state)
    _, _, var_v = _wigner_gaussian(MicrowaveState.thermal(vacuum_port_photons))
    n1, n2 = chain_noise_photons
    covariance = 0.5 * np.array(
        [[var_s + var_v + n1, var_s - var_v], [var_s - var_v, var_s + var_v + n2]]
    )
    return carrier, random_phase, covariance


def simulate_detection(
    state: MicrowaveState,
    chain_noise_photons: Tuple[float, float] = (0.0, 0.0),
    gains: Tuple[float, float] = (1.0, 1.0),
    count: int = 100_000,
    seed: int = 0,
    vacuum_port_photons: float = 0.0,
) -> DetectionRecord:
    """Simulate a dual-path record for a given input state.

    The record follows the law of splitting the Wigner samples of the input
    and of the hybrid's fourth port on the hybrid ring, adding independent
    circular-Gaussian chain noise to each path (``chain_noise_photons``
    referred to the chain input) and multiplying by sqrt(gain).  The fourth
    port defaults to exact vacuum; a small thermal occupation can be
    injected through ``vacuum_port_photons``.

    Chain noise of n photons has per-quadrature variance n/2 on top of the
    signal's own vacuum, so on a vacuum input each chain output has
    per-quadrature variance (2 n + 1)/4.  Every ``SAMPLE_BATCH`` fills its
    own slice of the record (:func:`_batch_sampler`), one share of them per
    CPU, so the record does not depend on how many CPUs there are.
    """
    draw = _batch_sampler(state, chain_noise_photons, gains, count, seed, vacuum_port_photons)
    z1 = np.empty(count, dtype=complex)
    z2 = np.empty(count, dtype=complex)

    def fill(share):
        for index, lo, size in share:
            draw(index, z1[lo : lo + size], z2[lo : lo + size])

    _map_shares(fill, count)
    return DetectionRecord(z1, z2, tuple(gains), seed=seed)


def _batch_sampler(state, chain_noise_photons, gains, count, seed, vacuum_port_photons):
    """Check the arguments of :func:`simulate_detection`; return its batch drawer.

    Every gain must be finite and > 0, and the chain-noise photons and the
    fourth port's occupation finite and >= 0, or a ValueError naming the
    argument is raised before any batch is drawn.

    ``draw(index, out1, out2, normals=None)`` fills ``out1`` and ``out2``
    with batch ``index`` of the record: its joint law (:func:`_record_model`)
    drawn from the Cholesky factor L, with e1, e2 standard complex normals,
    z1 = sqrt(g1) (mu/sqrt(2) + L11 e1) and
    z2 = sqrt(g2) (mu/sqrt(2) + L21 e1 + L22 e2), where the shot-noise
    carrier mu takes a uniform phase per sample.  The gains are folded into
    the factor and the carrier once, so the draw multiplies each normal by
    sqrt(g_j) L_jk and adds sqrt(g_j) mu/sqrt(2): the two-path case of
    ``states._draw_paths``.  The normals are drawn into ``normals``, a
    C-contiguous (size, 4) float array, or into a temporary without it.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    _require_finite("gains", gains, "> 0")
    _require_finite("chain_noise_photons", chain_noise_photons, ">= 0")
    _require_finite("vacuum_port_photons", vacuum_port_photons, ">= 0")
    carrier, random_phase, covariance = _record_model(
        state, chain_noise_photons, vacuum_port_photons
    )
    # Cholesky factor of the 2 x 2 covariance, which is positive definite
    l11 = math.sqrt(covariance[0, 0])
    l21 = covariance[1, 0] / l11
    l22 = math.sqrt(covariance[1, 1] - l21 * l21)
    # row j of the factor, and the split carrier on path j, times sqrt(g_j)
    root_g1, root_g2 = (math.sqrt(g) for g in gains)
    factor = ((root_g1 * l11,), (root_g2 * l21, root_g2 * l22))
    mean = carrier / math.sqrt(2.0)
    means = (root_g1 * mean, root_g2 * mean)

    def draw(index, out1, out2, normals=None):
        _draw_paths(seed, index, factor, means, random_phase, (out1, out2), normals)

    return draw


def _error_blocks(count: int):
    """(lo, hi) bounds of the non-empty ERROR_BATCHES contiguous blocks of a record."""
    bounds = np.linspace(0, count, ERROR_BATCHES + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def cross_moments(rec: DetectionRecord) -> CrossMomentSet:
    """The 15 cross-path product means E[z1^m conj(z2)^n], n + m <= 4, of a record.

    Each of the ERROR_BATCHES contiguous blocks is summed on its own, its
    14 products formed in one buffer that every block reuses
    (:func:`~mwphoton.states._span_sums`), as a sweep point sums its
    blocks, and ``states._product_means`` combines them.
    """
    count = rec.sample_count
    sums = _span_sums(rec.envelopes_1, rec.envelopes_2, MOMENT_KEYS, _error_blocks(count))
    return CrossMomentSet(_product_means(sums, count), count)


#: The keys :func:`_point_values` reads, directly and through
#: :func:`quadrature_variances`.  The set is closed under conjugation and
#: under the Gaussian shift, which takes (2, 2) from (1, 1) and (0, 0) alone,
#: so a sweep point sums and inverts only these products.
_POINT_KEYS = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (2, 2))


def _point_values(moments) -> Dict[str, float]:
    """n = <a^dag a>, g2 = g2_tilde(0) = <a^dag2 a^2> and quadrature variances, none clamped."""
    point = {"n": moments.entry(1, 1).real, "g2": moments.entry(2, 2).real}
    point["var_p"], point["var_q"] = quadrature_variances(moments)
    return point


def _detect_point(state, count, seed, chain_noise_photons=(0.0, 0.0)):
    """Point values and block errors of one sweep point, built from no record.

    The point is detected at unit gains behind a vacuum port.

    Each task allocates one ``(6, SAMPLE_BATCH)`` complex block and draws
    the batches of its share (:func:`_map_shares`) into it, one after the
    other, as :func:`simulate_detection` would: z1 into row 0, z2 into
    row 1 and the normals into rows 2-3.  ``states._segment_sums`` then
    conjugates z2 in place, forms the 5 products of ``_POINT_KEYS`` beyond
    z1 and conj(z2) once over the batch into rows 2-5, and sums the 6 rows
    of each error-block segment the batch overlaps in one call.  The task
    returns those segment sums in batch order, and each block adds its
    segments in that order.  The estimate inverts the compensated total of
    the block sums (``states._product_means``, as for an exported record);
    each block inverts its own mean, and each error is the standard error
    of the mean of one :func:`_point_values` entry over the blocks.  Those
    7 sums have the bits they would have among all 15, so the values are
    those of the 15-key inversion.
    """
    keys = _POINT_KEYS
    gains, vacuum_port_photons = (1.0, 1.0), 0.0
    draw = _batch_sampler(state, chain_noise_photons, gains, count, seed, vacuum_port_photons)
    blocks = _error_blocks(count)

    def share_segments(share):
        block = np.empty((_row_count(keys), SAMPLE_BATCH), dtype=complex)
        # the normals are spent once z1 and z2 hold the batch, so they are
        # drawn into the rows the products go to
        normals = block[2:4].view(float).reshape(SAMPLE_BATCH, 4)
        found = []
        for index, lo, size in share:
            rows = block[:, :size]
            draw(index, rows[0], rows[1], normals[:size])
            segments = {
                number: (max(a - lo, 0), min(b - lo, size))
                for number, (a, b) in enumerate(blocks)
                if a < lo + size and b > lo
            }
            sums = _segment_sums(rows[0], rows[1], keys, rows, list(segments.values()))
            found += zip(segments, sums)
        return found

    sums = [dict.fromkeys(keys, 0j) for _ in blocks]
    for segments in _map_shares(share_segments, count):
        for number, segment in segments:
            for key, value in segment.items():
                sums[number][key] += value
    moments = _moments_from_products(_product_means(sums, count), gains, vacuum_port_photons, count)
    point = _point_values(moments)
    block_points = []
    for (lo, hi), block_sums in zip(blocks, sums):
        means = {key: value / (hi - lo) for key, value in block_sums.items()}
        block_points.append(
            _point_values(_moments_from_products(means, gains, vacuum_port_photons, hi - lo))
        )
    errors = {}
    for name in point:
        scatter = np.std([values[name] for values in block_points], ddof=1)
        errors[name] = float(scatter / math.sqrt(len(block_points)))
    return point, errors


# ---------------------------------------------------------------------------
# Moment reconstruction
# ---------------------------------------------------------------------------

def reconstruct_signal_moments(
    cm: CrossMomentSet,
    gains: Tuple[float, float],
    vacuum_port_photons: float = 0.0,
) -> MomentSet:
    """Normally ordered signal moments at the beam-splitter input.

    The product means are inverted as described in
    :func:`_moments_from_products`.
    """
    missing = [key for key in MOMENT_KEYS if key not in cm.entries]
    if missing:
        raise ValueError(f"cross-moment set incomplete; missing {missing}")
    products = {key: cm.entries[key] for key in MOMENT_KEYS}
    return _moments_from_products(products, gains, vacuum_port_photons, cm.sample_count)


def _moments_from_products(
    products: Dict[Tuple[int, int], complex],
    gains: Tuple[float, float],
    vacuum_port_photons: float,
    sample_count: int,
) -> MomentSet:
    """Invert the averaged cross-path products ``products[(n, m)]`` = E[z1^m conj(z2)^n].

    Only cross-path products enter, so the independent, zero-mean, circular
    chain noise of both paths drops out of every estimator.  For Wigner
    samples s of the signal and v of the fourth port the rescaled products

        raw(n, m) = 2^((n+m)/2) E[z1^m conj(z2)^n] / (g1^(m/2) g2^(n/2))
                  = E[(s + v)^m conj(s - v)^n]

    are the symmetrized signal moments shifted by -(n_v + 1/2): the port's
    Wigner width enters with a minus sign.  As -1/2 is the shift from
    symmetrized to normal order, ``raw`` holds <(a^dag)^n a^m> behind a
    vacuum port, and one :func:`~mwphoton.states._gaussian_shift` by +n_v
    undoes a warm one.  ``raw`` is conjugate-symmetrized first.  Only the
    keys of ``products`` are inverted, so they must include (0, 0) and be
    closed under conjugation and under the shift's lower keys (n-k, m-k).
    """
    _require_finite("gains", gains, "> 0")
    _require_finite("vacuum_port_photons", vacuum_port_photons, ">= 0")
    g1, g2 = gains
    raw = {}
    for (n, m), product in products.items():
        total = product / (g1 ** (m / 2.0) * g2 ** (n / 2.0))
        raw[(n, m)] = total * 2.0 ** ((n + m) / 2.0)
    _conjugate_symmetrize(raw)
    raw[(0, 0)] = 1.0 + 0j

    tolerance = 1e-9 if sample_count == 0 else 50.0 / math.sqrt(sample_count)
    return MomentSet(Ordering.NORMAL, _gaussian_shift(raw, vacuum_port_photons), tolerance)


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
        _require_finite("temperatures", self.temperatures, "> 0")
        if np.any(np.diff(self.temperatures) <= 0):
            raise ValueError("temperatures must be strictly increasing")
        _require_finite("powers", self.powers, "> 0")
        _require_finite("bandwidth", self.bandwidth, "> 0")


@dataclass
class PlanckCalibration:
    chain_gain: float
    chain_noise_temperature: float
    chain_noise_photons: float
    fitted_powers: np.ndarray
    chain_gain_std: float = 0.0
    chain_noise_temperature_std: float = 0.0

    @property
    def chain_gain_db(self) -> float:
        return linear_to_db(self.chain_gain)


@dataclass
class JpaCalibration:
    total_gain: float
    added_photons: float
    t_1db: Optional[float]


def planck_power(
    temperatures,
    mode: ModeSpec,
    bandwidth: float,
    chain_gain: float,
    chain_noise_temperature: float,
) -> np.ndarray:
    """Forward model P(T) = G * B * h f * [n(T) + 1/2 + n_chain].

    The chain noise enters as a photon number n_chain = k_B T_chain / (h f)
    so the bracket stays dimensionless: the linear law of
    :func:`jpa_planck_power` with the chain as the only amplifier.
    """
    _require_finite("chain_gain", chain_gain, "> 0")
    _require_finite("chain_noise_temperature", chain_noise_temperature, ">= 0")
    n_chain = k_B * chain_noise_temperature / (PLANCK_H * mode.frequency)
    return jpa_planck_power(temperatures, mode, bandwidth, chain_gain, n_chain)


#: Knee sharpness m of the soft JPA saturation model.
_SATURATION_SHARPNESS = 20.0
#: Linear power at the 1 dB compression point over P_sat: (10^(m/10) - 1)^(1/m).
_KNEE = (10.0 ** (_SATURATION_SHARPNESS / 10.0) - 1.0) ** (1.0 / _SATURATION_SHARPNESS)


def jpa_planck_power(
    temperatures,
    mode: ModeSpec,
    bandwidth: float,
    gain: float,
    added_photons: float,
    saturation_power: Optional[float] = None,
) -> np.ndarray:
    """Forward model for a Planck sweep with the preamplifier on.

    ``gain`` is the total gain G = G_jpa G_chain of preamplifier and chain.
    In the linear regime P(T) = G B h f [n(T) + 1/2 + n_n]; an
    optional saturation P -> P / (1 + (P / P_sat)^m)^(1/m) models gain
    compression with a knee of sharpness m, putting the 1 dB point at
    P_linear = P_sat (10^(m/10) - 1)^(1/m) while leaving powers well below
    the knee essentially untouched.
    """
    _require_finite("bandwidth", bandwidth, "> 0")
    _require_finite("gain", gain, "> 0")
    _require_finite("added_photons", added_photons, ">= 0")
    temps = np.atleast_1d(np.asarray(temperatures, dtype=float))
    quantum = PLANCK_H * mode.frequency
    occ = bose_einstein(mode, temps)
    linear = gain * bandwidth * quantum * (occ + 0.5 + added_photons)
    if saturation_power is None:
        return linear
    _require_finite("saturation_power", saturation_power, "> 0")
    m = _SATURATION_SHARPNESS
    return linear / (1.0 + (linear / saturation_power) ** m) ** (1.0 / m)


def saturation_power_for_t1db(
    t_1db: float,
    mode: ModeSpec,
    bandwidth: float,
    gain: float,
    added_photons: float,
) -> float:
    """Saturation power placing the 1 dB compression point at ``t_1db``, at total gain ``gain``."""
    _require_finite("t_1db", t_1db, "> 0")
    linear = jpa_planck_power([t_1db], mode, bandwidth, gain, added_photons)[0]
    return float(linear / _KNEE)


def planck_fit(sweep: PlanckSweep) -> PlanckCalibration:
    """Calibrate total chain gain and noise temperature from a Planck sweep.

    Least squares of P(T) = C1 [n(T) + 1/2] + C0 with C1 = G B h f and
    C0 = C1 * n_chain.  On data generated by :func:`planck_power` the round
    trip is exact to numerical precision.
    """
    temps = sweep.temperatures
    if temps.size < 4:
        raise ValueError("Planck calibration needs at least 4 sweep points")
    if temps[-1] / temps[0] < PLANCK_MIN_SPAN:
        raise ValueError(f"Planck sweep must span a factor {PLANCK_MIN_SPAN:g} in temperature")
    x = bose_einstein(sweep.mode, temps) + 0.5
    design = np.column_stack([x, np.ones_like(x)])
    try:
        (c1, c0), covariance, _ = _linear_least_squares(design, sweep.powers, None)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"degenerate Planck sweep: {exc}") from exc
    if c1 <= 0:
        raise NumericalError("Planck fit produced a non-positive gain; sweep is unusable")
    quantum = PLANCK_H * sweep.mode.frequency
    gain = c1 / (sweep.bandwidth * quantum)
    n_chain = c0 / c1
    t_chain = n_chain * quantum / k_B
    gain_std = math.sqrt(max(covariance[0, 0], 0.0)) / (sweep.bandwidth * quantum)
    # n_chain = c0/c1: first-order propagation with the full covariance
    grad = np.array([-c0 / (c1 * c1), 1.0 / c1])
    t_chain_std = math.sqrt(max(float(grad @ covariance @ grad), 0.0)) * quantum / k_B
    return PlanckCalibration(gain, t_chain, n_chain, c1 * x + c0, gain_std, t_chain_std)


def jpa_planck_fit(sweeps: list[PlanckSweep]) -> list[JpaCalibration]:
    """Fit total gain, added photons and 1 dB point to preamplified Planck sweeps.

    Each sweep, of at least 4 points on one shared temperature grid and mode,
    is fitted whole in logs by its generator :func:`jpa_planck_power` in
    (log C1, n_n, log P_sat), C1 = G B h f, from n_n = 0, the coldest point
    and P_sat = max P, all sweeps in one lockstep solve with the bits of a
    lone fit.  t_1db is closed form: the linear power C1 (n(T) + 1/2 + n_n)
    equals P_sat * _KNEE there; it is ``None`` beyond the hottest point or at
    or below the vacuum bracket.  The fit shares the generator's knee, so a
    noiseless round trip tests the fit, not the knee's shape.
    """
    temps, mode = sweeps[0].temperatures, sweeps[0].mode
    if temps.size < 4:
        raise ValueError("JPA Planck fit needs at least 4 sweep points")
    if any(not np.array_equal(s.temperatures, temps) or s.mode != mode for s in sweeps):
        raise ValueError("JPA Planck sweeps must share one temperature grid and mode")
    x = bose_einstein(mode, temps) + 0.5
    log_p = np.log([s.powers for s in sweeps])
    m = _SATURATION_SHARPNESS

    def residual_and_knee(params, rows):
        log_c1, n_n, log_sat = params.T[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_l = log_c1 + np.log(x + n_n)
        log_u = m * (log_l - log_sat)
        softplus = np.logaddexp(0.0, log_u)
        return log_p[rows] - (log_l - softplus / m), np.exp(log_u - softplus)

    def residual(params, rows):
        return residual_and_knee(params, rows)[0]

    def jacobian(params, rows):
        s = residual_and_knee(params, rows)[1]
        return -np.stack([1.0 - s, (1.0 - s) / (x + params[:, 1, None]), s], axis=2)

    x0 = np.column_stack([log_p[:, 0] - math.log(x[0]), np.zeros(len(sweeps)), log_p.max(axis=1)])
    fitted, _, _, _ = _damped_gauss_newton(residual, jacobian, x0)
    calibrations = []
    for sweep, (log_c1, n_n, log_sat) in zip(sweeps, fitted):
        # compare in logs: an uncompressed sweep sends P_sat past overflow
        log_1db = log_sat - log_c1 + math.log(_KNEE)
        occupation = 0.0 if log_1db > math.log(x[-1] + n_n) else math.exp(log_1db) - n_n - 0.5
        t_1db = effective_temperature(mode, occupation) if occupation > 0 else None
        gain = math.exp(log_c1) / (sweep.bandwidth * PLANCK_H * mode.frequency)
        calibrations.append(JpaCalibration(gain, float(n_n), t_1db))
    return calibrations


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
    _require_finite("mean occupation n", n, ">= 0")
    return math.sqrt(n + 0.5)


# ---------------------------------------------------------------------------
# Record import/export
# ---------------------------------------------------------------------------

def save_record_binary(rec: DetectionRecord, data_path) -> None:
    """Write little-endian float64 interleaved (I1, Q1, I2, Q2) plus a JSON sidecar.

    The sidecar is ``data_path`` with ``.json`` appended.
    """
    data_path = Path(data_path)
    sidecar = data_path.with_suffix(data_path.suffix + ".json")
    # each (z1, z2) row of complex pairs is the four floats I1, Q1, I2, Q2
    pairs = np.stack((rec.envelopes_1, rec.envelopes_2), axis=1)
    pairs.astype("<c16", copy=False).tofile(data_path)
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


def load_record_binary(data_path) -> DetectionRecord:
    data_path = Path(data_path)
    sidecar = data_path.with_suffix(data_path.suffix + ".json")
    meta = json.loads(sidecar.read_text())
    raw = np.fromfile(data_path, dtype="<f8")
    count = int(meta["sample_count"])
    if raw.size != 4 * count:
        raise ValueError(
            f"binary record holds {raw.size} float64 values, expected {4 * count}"
        )
    _require_finite(f"{data_path}: samples (I1, Q1, I2, Q2)", raw.reshape(count, 4))
    # a view does no arithmetic, so every part keeps its bits (and -0.0 its sign)
    pairs = raw.view("<c16").reshape(count, 2)
    return DetectionRecord(
        pairs[:, 0],
        pairs[:, 1],
        tuple(meta["chain_gains"]),
        meta["if_frequency"],
        int(meta["seed"]),
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
        # rows go through Python floats (~220 B per row), so convert a batch
        # at a time and write each batch as one string
        for start in range(0, rec.sample_count, SAMPLE_BATCH):
            rows = table[start : start + SAMPLE_BATCH].tolist()
            handle.write(
                "".join(
                    f"{i},{i1!r},{q1!r},{i2!r},{q2!r}\r\n"
                    for i, (i1, q1, i2, q2) in enumerate(rows, start)
                )
            )


def load_record_csv(path, chain_gains=(1.0, 1.0), if_frequency=DEFAULT_IF_FREQUENCY, seed=0) -> DetectionRecord:
    """Read a :func:`save_record_csv` file: indices 0, 1, ... in order, every sample finite."""
    with open(path, newline="") as handle:
        header = next(csv.reader([handle.readline()]), None)
        if header != _CSV_HEADER:
            raise ValueError(f"CSV header must be {_CSV_HEADER}, got {header}")
        # a header-only file loads as shape (0, 1)
        table = np.loadtxt(handle, delimiter=",", ndmin=2).reshape(-1, len(_CSV_HEADER))
    bad = np.flatnonzero(table[:, 0] != np.arange(len(table)))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"{path}: data row {row} has index {table[row, 0]:g}, expected {row}")
    _require_finite(f"{path}: samples (I1, Q1, I2, Q2)", table[:, 1:])
    pairs = table[:, 1:].view(complex)
    return DetectionRecord(pairs[:, 0], pairs[:, 1], tuple(chain_gains), if_frequency, seed)
