"""The Laplace bridge: Euclidean lattice values against momentum quadrature.

The two computational pipelines meet at imaginary time.  The position-space
truncated Schwinger function (an FFT contraction on the lattice) must equal
the damped-exponential quadrature of the momentum-space distribution at
strictly ordered Euclidean times.  Neither side knows about the other, which
makes the comparison a strong end-to-end oracle.  At n = 2 and alpha = 1/2
the momentum side is that transform in closed form, the free two-point
function: c2 e^(-m r) / (2 m) in d = 1 and c2 K_0(m r) / (2 pi) in d = 2.
"""

import numpy as np

from kreinfield.green import GreenSpec
from kreinfield.lattice import Lattice
from kreinfield.levy import LevyTriple
from kreinfield.wightman import laplace_bridge_check

triple = LevyTriple(0.1, 0.5, ((1.0, 2.0),))

print("d=1 pair bridge (1024-site line):")
spec = GreenSpec(1, 0.5, 1.0)
lat = Lattice(1, 1024, 0.025)
for pts in ([[0.0], [0.5]], [[0.0], [1.0]], [[0.25], [2.0]]):
    rep = laplace_bridge_check(np.array(pts), spec, triple, lat)
    print(f"  times {pts}: lattice {rep.lhs:+.6f}  momentum {rep.rhs:+.6f}"
          f"  gap {rep.gap:.1e}")

print("\nd=2 pair bridge (128^2 lattice):")
spec2 = GreenSpec(2, 0.5, 1.0)
lat2 = Lattice(2, 128, 0.0625)
rep = laplace_bridge_check(np.array([[0.0, 0.0], [0.8125, 0.25]]),
                           spec2, triple, lat2)
print(f"  lattice {rep.lhs:+.6f}  momentum {rep.rhs:+.6f}  gap {rep.gap:.1e}")

# shifting every Euclidean time by the same amount changes nothing: the
# momentum side carries a total-energy factor that vanishes on the hyperplane
base = laplace_bridge_check(np.array([[0.0], [0.7], [1.8]]), spec, triple, lat)
shift = laplace_bridge_check(np.array([[0.3], [1.0], [2.1]]), spec, triple, lat)
print(f"\nthree-point bridge gap {base.gap:.1e}; time-shift residual "
      f"{abs(base.rhs - shift.rhs):.2e}")
