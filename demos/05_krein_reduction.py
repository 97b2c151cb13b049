"""From an indefinite Gram form to its Krein metric.

The certified seminorms majorize the Gram matrix of the n-point functional on
a monomial basis.  Whitening the form by the majorant and reading the signs
of its eigenvalues gives the metric T with T^2 = 1; the factorization
W = S T S* reconstructs the form, and re-majorizing with P |T_P| P gives
ratio exactly one.
"""

import numpy as np

from kreinfield.green import GreenSpec
from kreinfield.hssc import (
    GramPair,
    build_gram_pair,
    krein_reduce,
    majorization_check,
    search_indefinite_gram,
)
from kreinfield.levy import LevyTriple
from kreinfield.testfunctions import TestFunction

spec = GreenSpec(1, 0.5, 1.0)
triple = LevyTriple(0.1, 0.5, ((1.0, 2.0),))

f1 = TestFunction.gaussian((-1.0,), 0.8)
f2 = TestFunction.gaussian((0.5,), 1.0, freq=(0.6,))
f3 = TestFunction.gaussian((1.2,), 0.9)
basis = [(), (f1,), (f2,), (f1, f3)]

pair = build_gram_pair(spec, triple, basis, lambda mono: 40.0 ** max(1, len(mono)))
print("Gram eigenvalues   :", np.round(np.linalg.eigvalsh(pair.form), 6))
check = majorization_check(pair)
print(f"majorization ratio : {check.ratio:.3e} (passed={check.passed})")

res = krein_reduce(pair)
eye = np.eye(len(res.metric))
print(f"metric spectrum    : {np.round(np.linalg.eigvalsh(res.metric), 6)}")
print(f"||T^2 - I||        : {np.linalg.norm(res.metric @ res.metric - eye, 2):.2e}")
print(f"reconstruction     : {res.reconstruction_error:.2e}")
print(f"re-majorization    : {res.remajorization_ratio:.12f}")

# a toy indefinite pair, to see a nontrivial signature
toy = GramPair(np.diag([2.0, -0.5]), np.diag([2.5, 1.0]))
toy_res = krein_reduce(toy)
print(f"\ntoy form signature : {np.diag(toy_res.metric).real}")

# scan random bases of the atom model for a negative Gram direction
found = search_indefinite_gram(spec, triple, n_candidates=2, seed=7)
print(f"\nindefinite search  : found={found['found']} "
      f"min eigenvalues={['%.4f' % e for e in found['min_eigenvalues']]}")
