"""Quadrature variances and Gaussian Wigner contours.

Amplified thermal fields stay Gaussian and unsqueezed: both quadratures
p = i(a^dag - a)/2 and q = (a^dag + a)/2 carry variance n/2 + 1/4, and the
Wigner function is a circle whose 1/e radius grows as sqrt(n + 1/2).  The
dual-path reconstruction recovers the two variances from simulated
detection samples, which it reduces batch by batch without keeping a record.
"""

import numpy as np

from mwphoton import (
    MicrowaveState,
    analytic_moments,
    quadrature_variances,
    wigner_gaussian_contour,
)
from mwphoton.experiments import quadrature_check

# --- closed forms -----------------------------------------------------------
print("quadrature variance n/2 + 1/4 and 1/e contour radius sqrt(n + 1/2):")
for n in (0.0, 0.1, 0.5, 1.0, 1.5):
    var_p, var_q = quadrature_variances(analytic_moments(MicrowaveState.thermal(n)))
    radius = wigner_gaussian_contour(n)
    ratio = radius / wigner_gaussian_contour(0.0)
    print(
        f"  n = {n:4.2f}: Var(p) = Var(q) = {var_p:.4f}, radius = {radius:.4f}, "
        f"ratio to vacuum = {ratio:.4f} (= sqrt(2n+1) = {np.sqrt(2*n+1):.4f})"
    )

# --- reconstructed from detection samples --------------------------------------
print("\nreconstructed from simulated dual-path samples (4e5 per point, no record kept):")
result = quadrature_check(occupations=(0.1, 1.0), count=400_000, seed=3)
for row in result["tables"]["quadratures"]:
    print(
        f"  n = {row['n']:3.1f}: Var(p) = {row['var_p']:.4f} +/- {row['var_p_err']:.4f}, "
        f"Var(q) = {row['var_q']:.4f} +/- {row['var_q_err']:.4f}  (model {row['var_model']:.4f})"
    )
print("no squeezing: the two quadratures agree within their error bars.")
