"""Dual-path moment reconstruction behind a hybrid ring.

A 50:50 beam splitter sends the signal down two independently amplified
chains.  Because the chains' added noise is independent and circular,
averaged products of one path with the conjugate of the other are noise
free, and the 15 cross-path product means E[z1^m conj(z2)^n], n + m <= 4,
invert into the signal moments <(a^dag)^n a^m> at the splitter input.  The unnormalized
correlation g2(0) = <a^dag^2 a^2> among them lands on the thermal value 2 n^2.
"""

from mwphoton import (
    MicrowaveState,
    cross_moments,
    reconstruct_signal_moments,
    simulate_detection,
)
from mwphoton.experiments import dualpath_sweep

# --- noise cancellation, the core of the method -------------------------------
state = MicrowaveState.thermal(1.0)
print("reconstructed occupation of a thermal n = 1 input, 4e5 samples:")
for noise in (0.0, 5.0, 12.0):
    record = simulate_detection(state, (noise, noise), count=400_000, seed=int(noise))
    moments = reconstruct_signal_moments(cross_moments(record), record.chain_gains)
    print(f"  chain noise {noise:4.1f} photons/path  ->  n = {moments.entry(1, 1).real:.4f}")
print("the estimate does not move with the amplifier noise.")

# --- full moment table for one record ------------------------------------------
record = simulate_detection(state, (1.0, 1.0), count=400_000, seed=42)
moments = reconstruct_signal_moments(cross_moments(record), record.chain_gains)
n = moments.entry(1, 1).real
print(f"\nthermal n = 1 moment table (400k samples):")
print(f"  <a^dag a>     = {n:.4f}            (1.0)")
print(f"  <a^dag^2 a^2> = {moments.entry(2, 2).real:.4f}            (2 n^2 = 2.0)")
print(f"  <a>           = {moments.entry(0, 1).real:+.4f}{moments.entry(0, 1).imag:+.4f}j  (0)")

# --- temperature sweep: the quadratic law ---------------------------------------
print("\ntemperature sweep through the receiver (10 points, 2e5 samples each):")
sweep = dualpath_sweep(count=200_000, seed=7)
for row in sweep["tables"]["g2_vs_n"][::3]:
    print(
        f"  T = {row['temperature_k']*1e3:5.0f} mK   "
        f"n = {row['n_reconstructed']:.3f} +/- {row['n_err']:.3f}   "
        f"g2 = {row['g2_tilde']:6.3f} +/- {row['g2_tilde_err']:.3f}   "
        f"(2 n^2 = {row['g2_tilde_model']:.3f})"
    )
law = sweep["fits"]["g2_quadratic"]
print(
    f"quadratic fit: g2 = rho n^2 with rho = {law['parameters']['rho']:.3f} "
    f"+/- {law['standard_errors']['rho']:.3f}"
)
