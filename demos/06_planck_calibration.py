"""Planck spectroscopy: calibrating the receiver against a thermal emitter.

Sweeping the emitter temperature and recording the detected power traces
out P(T) = G B h f [n(T) + 1/2 + n_chain]; a two-parameter fit pins the
total chain gain and its noise temperature.  With the preamplifier on, a
fit of the whole sweep to the saturating forward model yields the JPA gain,
its added photons and its saturation power, which places the 1 dB
compression temperature in closed form.
"""

import numpy as np

from mwphoton import ModeSpec, PlanckSweep, planck_fit, planck_power
from mwphoton.chains import db_to_linear
from mwphoton.experiments import planck_calibration

mode = ModeSpec(5.4e9)
bandwidth = 400e3

# --- chain calibration ------------------------------------------------------
temps = np.linspace(0.05, 1.5, 30)
powers = planck_power(temps, mode, bandwidth, db_to_linear(145.0), 3.0)
cal = planck_fit(PlanckSweep(temps, powers, mode, bandwidth))
print("noiseless synthetic sweep, 145 dB / 3 K chain:")
print(f"  fitted gain  = {cal.chain_gain_db:.3f} dB")
print(f"  fitted noise = {cal.chain_noise_temperature:.3f} K "
      f"({cal.chain_noise_photons:.2f} photons at 5.4 GHz)")

rng = np.random.default_rng(0)
noisy = powers * (1.0 + 0.01 * rng.standard_normal(temps.size))
noisy_cal = planck_fit(PlanckSweep(temps, noisy, mode, bandwidth))
print("with 1% power noise:")
print(f"  gain  = {noisy_cal.chain_gain_db:.2f} +/- "
      f"{10*np.log10(1 + noisy_cal.chain_gain_std/noisy_cal.chain_gain):.2f} dB")
print(f"  noise = {noisy_cal.chain_noise_temperature:.2f} +/- "
      f"{noisy_cal.chain_noise_temperature_std:.2f} K")

# --- JPA characterization -----------------------------------------------------
print("\npreamplified sweeps (whole-sweep fit of the saturating forward model):")
result = planck_calibration(seed=1)
for name, fit in result["fits"]["jpa_calibrations"].items():
    t_1db = f"{fit['t_1db']*1e3:.0f} mK" if fit["t_1db"] else "outside range"
    p_1db = f"{fit['p_1db_dbm']:.1f} dBm" if fit["p_1db_dbm"] else "n/a"
    print(
        f"  {name}: gain {fit['jpa_gain_db']:.2f} dB, n_n {fit['n_n']:.3f} "
        f"(true {fit['n_n_true']}), compression at {t_1db} -> {p_1db}"
    )
