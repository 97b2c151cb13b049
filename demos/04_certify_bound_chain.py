"""Certifying the Hilbert-seminorm inequality for a scalar model.

The certificate is assembled in three layers: per-order integral bounds a_n
(closed two-point form plus the three-factor chain for n >= 3), partition
sums b_n, and the final seminorm constants c_n.  The checker then evaluates
every family member against a_n * norm and every pair against the seminorm
product, and reports worst ratios with margins.
"""

import json

from kreinfield.green import GreenSpec
from kreinfield.hssc import compute_scalar_factors, hssc_certify
from kreinfield.levy import LevyTriple
from kreinfield.testfunctions import TensorTestFunction, TestFunction

spec = GreenSpec(dim=1, alpha=0.5, mass=1.0)
triple = LevyTriple(0.1, 0.5, ((1.0, 2.0),))

factors = compute_scalar_factors(spec)
print("chain factors:")
print(f"  energy sup E(m)    : {factors.energy_sup:.4f}")
print(f"  shifted overlap sup: {factors.overlap_sup:.4f} "
      f"(analytic ceiling {factors.overlap_ceiling:.1f})")
print(f"  refinement history : {[f'{h:.4f}' for h in factors.overlap_history]}")

family = [
    TensorTestFunction((TestFunction.gaussian((-0.8,), 1.0),)),
    TensorTestFunction((TestFunction.gaussian((0.6,), 0.9, freq=(0.3,)),)),
    TensorTestFunction((TestFunction.gaussian((-0.5,), 1.1),
                        TestFunction.gaussian((0.4,), 0.8))),
    TensorTestFunction((TestFunction.gaussian((0.2,), 1.0),
                        TestFunction.gaussian((-0.3,), 0.9),
                        TestFunction.gaussian((0.7,), 1.2))),
]
cert = hssc_certify(spec, triple, family, n_max=3)

print(f"\ncertificate passed: {cert['passed']}")
print(f"order bounds a_n   : {['%.4g' % a for a in cert['constants']['order_bounds']]}")
print(f"seminorm constants : {['%.4g' % c for c in cert['constants']['norm_constants']]}")
for row in cert["per_order"]:
    print(f"  order {row['order']}: {row['count']} members, worst ratio "
          f"{row['worst_ratio']:.3e}, min margin {row['min_margin']:.3e}")
pw = cert["pairwise"]
print(f"  pairwise: {pw['count']} pairs up to degree {pw['degree_cap']} "
      f"({pw['skipped']} above it unchecked), worst ratio {pw['worst_ratio']:.3e}")

# the quadratic (Gaussian) fast path skips the chain entirely
gauss = hssc_certify(spec, LevyTriple(0.0, 0.7, ()), family, n_max=3)
print(f"\nGaussian model: passed={gauss['passed']} in "
      f"{gauss['runtime_seconds']:.2f}s with bounds "
      f"{['%.3g' % a for a in gauss['constants']['order_bounds']]}")

with open("certificate_demo.json", "w") as fh:
    json.dump(cert, fh, indent=2, sort_keys=True)
print("\nfull certificate written to certificate_demo.json")
