"""Brute-force references that more than one test file compares against."""

import math

import numpy as np


def spherical_endpoint_oracle(centers, widths, n: int, cap: float) -> float:
    """The vector model's j = 0 endpoint measure by brute-force quadrature.

    ``centers`` and ``widths`` are the energy centers and widths of the
    three radial slots.  The measure is taken in (modulus, modulus, relative
    cosine) coordinates, with the resolved modulus reconstructed instead of
    substituted: n-node Gauss-Legendre on [0, cap]^2 for the moduli and on
    [0, 1] for t, where the cosine c = -1 + 2 t^2 keeps the 1/|a + b| factor
    integrable at the antiparallel edge.
    """
    def bump(i, k0, r):
        return np.exp(-((k0 - centers[i]) ** 2 + r**2) / (2 * widths[i] ** 2))

    nodes, wts = np.polynomial.legendre.leggauss(n)
    lam = 0.5 * cap * (nodes + 1)
    wl = 0.5 * cap * wts
    t = 0.5 * (nodes + 1)
    wt = 0.5 * wts
    L2, L3, T = lam[:, None, None], lam[None, :, None], t[None, None, :]
    W = wl[:, None, None] * wl[None, :, None] * wt[None, None, :]
    cosg = -1.0 + 2.0 * T * T
    OM = np.sqrt(np.maximum(L2**2 + L3**2 + 2 * L2 * L3 * cosg, 1e-300))
    jac = L2 * L3 / OM * 4.0 * T
    F = bump(0, -(L2 + L3), OM) * bump(1, L2, L2) * bump(2, L3, L3)
    return -math.pi**2 * float(np.sum(F / (L2 + L3 + OM) * jac * W))
