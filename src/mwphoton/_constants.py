"""Physical constants in SI units.

h and k are exact by definition of the 2019 SI; hbar follows from h.  The
names match ``scipy.constants``, and the values agree with it bit for bit.
"""

import math

h = 6.62607015e-34  # Planck constant, J s
k = 1.380649e-23  # Boltzmann constant, J / K

hbar = h / (2.0 * math.pi)  # reduced Planck constant, J s
