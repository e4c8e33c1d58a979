"""Resonator-filtered photon correlators and the dephasing integrals.

The readout resonator hands the qubit photon-number fluctuations with a
memory set by its linewidth: incoherent fields (thermal, shot noise)
decorrelate at the energy decay rate kappa_x, coherent fields at the
amplitude decay rate kappa_x / 2.  The dephasing rate is the variance
times kappa_x theta0^2: the Gaussian phase law, exact only to second order
in the pull x = 2 chi / kappa_x.
"""

import numpy as np

from mwphoton import (
    StateKind,
    correlator,
    correlator_value,
    dephasing_gaussian,
    lorentzian_dos,
)
from mwphoton.defaults import SAMPLE_RESONATOR, SAMPLE_SYSTEM

res = SAMPLE_RESONATOR
system = SAMPLE_SYSTEM

# --- state-dependent correlator decay ----------------------------------------
print(f"resonator: kappa_x/2pi = {res.external_rate/1e6:.1f} MHz")
print("\nnormalized correlator C(tau)/C(0):")
taus = np.array([0.0, 10e-9, 20e-9, 40e-9])
header = "  ".join(f"{t*1e9:5.0f} ns" for t in taus)
print(f"{'':>9} {header}")
for kind in (StateKind.THERMAL, StateKind.SHOT_NOISE, StateKind.COHERENT):
    c = correlator(kind, 1.0, res)
    values = "  ".join(f"{correlator_value(c, t)/c.variance:8.4f}" for t in taus)
    print(f"{kind.value:>9} {values}   (decay {c.decay_rate/1e6:.2f} MHz)")
print("coherent fields decorrelate at half the rate -- that slower memory is")
print("what doubles their dephasing effect at equal photon number.")

# --- Lorentzian filter --------------------------------------------------------
peak = lorentzian_dos(res.resonance_frequency, res)
half = lorentzian_dos(res.resonance_frequency + res.external_rate / 2, res)
print(f"\nfilter function: peak {peak:.3e} /Hz = 2/kappa_x, half maximum at +kappa_x/2: {half/peak:.3f}")

# --- dephasing scale ----------------------------------------------------------
scale = dephasing_gaussian(1.0, res, system.theta0)
print(f"\nper-unit-variance dephasing: kappa_x theta0^2 = {scale/1e6:.3f} MHz")

pull = 2.0 * system.chi / res.external_rate
print(f"pull x = 2 chi/kappa_x = {pull:.3f}")
print("the Gaussian law is exact only to O(x^2); at this pull the exact rates")
print('fall well below it (docs/notes.md, "When the Gaussian phase law holds").')
