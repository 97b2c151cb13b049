"""Evaluating the truncated momentum-space distributions directly.

On the Minkowski side the truncated n-point functions are measures carried by
mass shells and backward cones.  The evaluators take tensor products of
Gaussian wave packets; a ``collect()`` block gathers the refinement records,
which name the branch that did the work and give the node-refinement history
of the stabilized quadratures.
"""

import numpy as np

from kreinfield.green import GreenSpec
from kreinfield.levy import LevyTriple
from kreinfield.quadrature import collect
from kreinfield.testfunctions import TensorTestFunction, TestFunction
from kreinfield.wightman import minkowski_translate, truncated_momentum_eval

spec = GreenSpec(dim=1, alpha=0.5, mass=1.0)
triple = LevyTriple(0.1, 0.5, ((1.0, 2.0),))

pair = TensorTestFunction((TestFunction.gaussian((-1.1,), 0.8),
                           TestFunction.gaussian((0.9,), 0.9, freq=(0.4,))))
with collect() as rec:
    v2 = truncated_momentum_eval(pair, spec, triple)
print(f"two-point value ({rec[0]['op']}): {v2:+.6f}")

triple_test = TensorTestFunction((TestFunction.gaussian((-1.6,), 0.8),
                                  TestFunction.gaussian((-0.2,), 0.9),
                                  TestFunction.gaussian((1.9,), 1.0)))
with collect() as rec:
    v3 = truncated_momentum_eval(triple_test, spec, triple, 1e-6)
print(f"three-point value ({rec[0]['op']}): {v3:+.6f}")
print("  node-refinement history:", [(int(n), f"{x:+.6f}") for n, x, _ in rec[0]["history"]])

# hermiticity: the momentum-space star (reverse, flip, conjugate) conjugates W
starred = truncated_momentum_eval(triple_test.involution_momentum(), spec, triple, 1e-6)
print(f"hermiticity residual: {abs(starred - np.conj(v3)):.2e}")

# translation covariance: a common Minkowski shift only rotates phases inside
# the total-momentum delta, so the value is exactly unchanged
moved = TensorTestFunction(tuple(
    minkowski_translate(g, (0.7,), 1.0) for g in triple_test.factors))
v3_shift = truncated_momentum_eval(moved, spec, triple, 1e-6)
print(f"translation residual: {abs(v3_shift - v3):.2e}")

# off the admissible support everything dies: pile all packets at positive energy
dead = TensorTestFunction(tuple(TestFunction.gaussian((2.0,), 0.2) for _ in range(3)))
print(f"off-support value: {abs(truncated_momentum_eval(dead, spec, triple)):.2e}")
