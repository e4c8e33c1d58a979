"""Photon statistics of weak microwave fields.

The three field flavours of interest are distinguished by the relation
between their photon-number variance and mean: thermal fields obey
Var(n) = n^2 + n, coherent tones and shot noise are Poissonian with
Var(n) = n, and the classical limit keeps only n^2.  Below one photon the
three laws separate cleanly, which is the regime all experiments in this
package target.
"""

import numpy as np

from mwphoton import (
    MicrowaveState,
    ModeSpec,
    Ordering,
    StateKind,
    analytic_moments,
    bose_einstein,
    effective_temperature,
    empirical_moments,
    ordering_convert,
    photon_variance,
    sample_envelopes,
)

# --- temperature control of the mean photon number -------------------------
# A 50-ohm load heated between 50 mK and 1.5 K emits black-body radiation;
# at 6.07 GHz that covers roughly 0.003 to 3 photons.
mode = ModeSpec(6.07e9)
print("Bose-Einstein occupation at 6.07 GHz:")
for temperature in (0.05, 0.143, 0.5, 1.0, 1.5):
    print(f"  T = {temperature:5.3f} K  ->  n = {bose_einstein(mode, temperature):.4f}")
print(f"inverse: n = 0.15 corresponds to T = {effective_temperature(mode, 0.15)*1e3:.1f} mK")

# --- the variance laws ------------------------------------------------------
print("\nsqrt(Var(n)) for n = 0.05 ... 1.5:")
print(f"{'n':>6} {'thermal':>9} {'classical':>10} {'poissonian':>11}")
for n in np.geomspace(0.05, 1.5, 7):
    n = float(n)
    coherent = MicrowaveState.coherent(n**0.5)
    print(
        f"{n:6.3f} {photon_variance(StateKind.THERMAL, n)**0.5:9.4f} {n:10.4f} "
        f"{photon_variance(coherent.kind, coherent.mean_photons)**0.5:11.4f}"
    )

# --- moments, analytic and sampled ------------------------------------------
# Monte Carlo envelopes represent the Wigner distribution, so empirical
# moments are symmetrized; one ordering conversion recovers the normally
# ordered <(a^dag)^n a^m> that the analytic forms use.
state = MicrowaveState.thermal(1.0)
samples = sample_envelopes(state, 500_000, seed=1)
measured = ordering_convert(empirical_moments(samples), Ordering.NORMAL)
expected = analytic_moments(state)
print("\nthermal n = 1, fourth-order intensity moment <a^dag^2 a^2>:")
print(f"  analytic 2 n^2        = {expected.entry(2, 2).real:.4f}")
print(f"  from 5e5 samples      = {measured.entry(2, 2).real:.4f}")

# Shot noise shares the Poissonian intensity law with coherent states but
# carries no stable phase: its odd moments vanish batch-averaged.
shot = ordering_convert(
    empirical_moments(sample_envelopes(MicrowaveState.shot_noise(1.0), 500_000, seed=2)),
    Ordering.NORMAL,
)
print("\nshot noise n = 1:")
print(f"  <a^dag^2 a^2> = {shot.entry(2, 2).real:.4f}  (Poissonian: 1.0)")
print(f"  |<a>|         = {abs(shot.entry(0, 1)):.4f}  (phase-averaged: 0)")
