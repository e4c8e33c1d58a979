"""Qubit dephasing spectroscopy of the photon statistics.

A Ramsey experiment on the dispersively coupled transmon reads the photon
number variance directly: the decay rate in excess of relaxation and
intrinsic dephasing is kappa_x theta0^2 Var(n_r) (twice that for coherent
fields).  Sweeping the emitter temperature maps out the n^2 + n law;
coherent and shot-noise drives give linear laws whose slopes differ by the
factor two of their correlator decay rates.
"""

import numpy as np

from mwphoton import EnvelopeForm, StateKind, fit_ramsey, ramsey_envelope, simulate_ramsey
from mwphoton.defaults import SAMPLE_SYSTEM
from mwphoton.experiments import ramsey_sweep

system = SAMPLE_SYSTEM

# --- a single Ramsey trace, hot versus cold emitter ---------------------------
taus = np.linspace(2e-9, 250e-9, 13)
print("Ramsey envelope, thermal field (cold n = 0.01 vs hot n = 2.96):")
for tau in taus[::3]:
    cold = ramsey_envelope(system, StateKind.THERMAL, 0.01, float(tau))
    hot = ramsey_envelope(system, StateKind.THERMAL, 2.96, float(tau))
    print(f"  tau = {tau*1e9:6.1f} ns   cold {cold:.3f}   hot {hot:.4f}")

# The finite correlator memory slows early-time dephasing; the Gaussian
# phase cumulant captures that, and relaxes onto the asymptotic rates.
tau = 30e-9
finite = ramsey_envelope(system, StateKind.THERMAL, 1.0, tau, form=EnvelopeForm.GAUSSIAN_INTEGRAL)
asymptotic = ramsey_envelope(system, StateKind.THERMAL, 1.0, tau)
print(f"\nfinite-memory vs asymptotic envelope at 30 ns: {finite:.4f} vs {asymptotic:.4f}")

# --- fitting a simulated trace -------------------------------------------------
grid = np.linspace(2e-9, 240e-9, 120)
trace = simulate_ramsey(system, StateKind.THERMAL, 0.5, grid, shots=10_000, seed=5)
fit = fit_ramsey(trace)
print(
    f"\nfitted gamma2/2pi = {fit.parameters['gamma2']/1e6:.3f} "
    f"+/- {fit.std_error('gamma2')/1e6:.3f} MHz (converged: {fit.converged})"
)

# --- full sweeps: the three statistics -----------------------------------------
print("\nphoton-number sweeps (12 points, 1e4 shots each):")
thermal = ramsey_sweep(state="thermal", seed=1)
law = thermal["fits"]["photon_statistics_law"]["parameters"]
print(
    f"  thermal:  gamma_phi = rho n^2 + xi n with rho = {law['rho']/1e6:.2f} MHz, "
    f"xi = {law['xi']/1e6:.2f} MHz  (n^2 + n law: rho = xi = kappa theta0^2 = "
    f"{thermal['summary']['expected_slope_hz']/1e6:.2f} MHz)"
)
coherent = ramsey_sweep(state="coherent", seed=2)
shot = ramsey_sweep(state="shot_noise", seed=3)
s_coh = coherent["summary"]["slope_hz"]
s_sh = shot["summary"]["slope_hz"]
print(f"  coherent: slope {s_coh/1e6:.2f} MHz;  shot noise: slope {s_sh/1e6:.2f} MHz")
print(f"  ratio s_coh / s_sh = {s_coh/s_sh:.3f}  (correlator memory predicts exactly 2)")
