"""Closed-form truncated correlation functions on the Euclidean lattice.

The truncated n-point function of a convolved noise field factorizes: it is
the n-th cumulant coefficient of the noise law times the integral of a
product of shifted kernels,

    c_n * integral prod_j K(x - y_j) dx.

Pointwise values contract the product over the periodic lattice; smeared
values convolve each test function with the kernel once and sum the product
of the convolutions, so memory stays linear in the number of factors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import PreconditionError, SingularConfigurationError
from .green import GreenSpec, green_alpha_lattice, harmonic_kernel_lattice
from .lattice import Lattice, LatticeField, sample_function
from .levy import LevyTriple, cumulant_coeff
from .testfunctions import TestFunction


def _site_shifts(lat: Lattice, points) -> list:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != lat.dim:
        raise PreconditionError("points must match the lattice dimension")
    shifts = []
    for p in pts:
        if not lat.in_inner_half(p):
            raise PreconditionError(
                f"point {tuple(p)} outside the inner half of the lattice"
            )
        shifts.append(lat.site_index(p))
    return shifts


def kernel_product_integral(kernel: LatticeField, points) -> float:
    """sum_x prod_j K(x - y_j) v for lattice points y_j.

    Points are snapped to the nearest site and must sit in the inner half of
    the box so the product decays before the periodic images interfere.
    """
    lat = kernel.lattice
    shifts = _site_shifts(lat, points)
    axes = tuple(range(lat.dim))
    prod = np.ones(lat.shape)
    for idx in shifts:
        prod = prod * np.roll(kernel.values, shift=idx, axis=axes)
    return float(np.sum(prod) * lat.cell_volume)


def pair_correlator_vector(y1, y2) -> float:
    """Two-point kernel of the four-dimensional vector model (exact).

    The value is -(1/(8 pi)) log |y1 - y2|; it diverges at coincident points.

    Check: test_vector_pair_printed_values, the vector model's exact
    two-point kernel.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != (4,) or y2.shape != (4,):
        raise PreconditionError("vector-model points live in R^4")
    r = float(np.linalg.norm(y1 - y2))
    if r == 0.0:
        raise SingularConfigurationError("coincident points")
    return -math.log(r) / (8 * math.pi)


def product_integral_vector(lat: Lattice, points) -> float:
    """n >= 3 point contraction of the harmonic kernel 1/(4 pi^2 |x|^2).

    Uses the cell-averaged origin regularization; the integral is finite for
    pairwise distinct points but logarithmically divergent when two collide.

    Check: test_vector_three_point_matches_quadrature_oracle, the lattice
    contraction against an independent continuum quadrature.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 3:
        raise PreconditionError("use pair_correlator_vector for two points")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.array_equal(pts[i], pts[j]):
                raise SingularConfigurationError("coincident points")
    return kernel_product_integral(harmonic_kernel_lattice(lat), pts)


def smeared_truncated_correlator(
    lat: Lattice,
    spec: GreenSpec,
    triple: LevyTriple,
    tests: Sequence,
) -> float:
    """c_n * sum_x prod_j (K * phi_j)(x) v: the smeared truncated n-point value.

    ``tests`` may mix TestFunction instances and value grids on the lattice.
    Independence across cells makes this the exact joint cumulant of the
    smeared lattice field (the kernel is even, so K and its reflection
    agree): the value the Monte Carlo estimators of :mod:`.euclidean`
    converge to on the same lattice.
    """
    n = len(tests)
    if n < 1:
        raise PreconditionError("need at least one test function")
    kernel = green_alpha_lattice(lat, spec)
    sym = np.fft.fftn(kernel.values)
    prod = np.ones(lat.shape, dtype=complex)
    for t in tests:
        grid = sample_function(lat, t).values if isinstance(t, TestFunction) else np.asarray(t)
        if grid.shape != lat.shape:
            raise PreconditionError("test grid does not match the lattice")
        conv = np.fft.ifftn(sym * np.fft.fftn(grid)) * lat.cell_volume
        prod = prod * conv
    val = cumulant_coeff(n, triple) * np.sum(prod) * lat.cell_volume
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        return complex(val)  # complex tests: keep the full value
    return float(val.real)


def full_from_truncated_lattice(
    lat: Lattice,
    spec: GreenSpec,
    triple: LevyTriple,
    tests: Sequence,
) -> float:
    """Untruncated n-point moment assembled from truncated values.

    Sums over set partitions with bosonic signs; positions in ``tests`` index
    the slots of the moment.

    Check: test_full_moments_match_raw_mc, the moment assembled from
    truncated values against raw Monte Carlo moments.
    """
    from .partitions import BOSE, CorrelationTable, moments_from_cumulants

    n = len(tests)
    table = CorrelationTable(n)
    for key in table.all_keys():
        table[key] = smeared_truncated_correlator(
            lat, spec, triple, [tests[i - 1] for i in key])
    return moments_from_cumulants(table, BOSE).values[tuple(range(1, n + 1))]
