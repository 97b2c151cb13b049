"""Green kernels: the fractional scalar kernel and the quaternionic pair.

Scalar sector.  The covariance kernel with momentum symbol
(|k|^2 + m^2)^(-alpha) is sampled on the dual lattice and brought to
position space by inverse FFT; the Riemann sum over the box then equals the
zero-momentum symbol m^(-2 alpha) identically, which pins the overall
normalization.  The exponent is restricted to 0 < alpha <= 1/2 (the range in
which the models downstream are defined); the raw sampler accepts any
positive exponent below d/2 for oracle use at doubled exponents.

Quaternionic sector (4 dimensions).  g(x) = 1 / (4 pi^2 |x|^2) inverts the
negative Laplacian, and the directional kernel

    K(x) = (x^0, x^1, x^2, x^3) / (2 pi^2 |x|^4)

(the negative first-order derivative pair applied to g) inverts the left
first-order operator; K is odd and homogeneous of degree -3.  At the origin
cell the sampled g takes its exact cell average and K vanishes by symmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .lattice import Lattice, LatticeField

MIN_MASS_EXTENT = 4.0  # resolution guard: mass * box extent must reach this


@dataclass(frozen=True)
class GreenSpec:
    dim: int
    alpha: float
    mass: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.alpha <= 0.5:
            raise DomainError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")


def _squared_norms(axis: np.ndarray, dim: int) -> np.ndarray:
    """|x|^2 on the tensor grid axis^dim, the squares added in axis order."""
    r2 = np.zeros((len(axis),) * dim)
    for i in range(dim):
        shape = [1] * dim
        shape[i] = len(axis)
        r2 = r2 + (axis**2).reshape(shape)
    return r2


def fractional_kernel_values(lat: Lattice, alpha: float, mass: float) -> np.ndarray:
    """Raw position-space kernel with symbol (|k|^2+m^2)^(-alpha) on ``lat``.

    Accepts any alpha in (0, dim/2 + alpha_max) for oracle use; validation of
    the model range happens in green_alpha_lattice.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    symbol = (_squared_norms(lat.dual_axis(), lat.dim) + mass**2) ** (-alpha)
    vals = np.fft.ifftn(symbol) / lat.cell_volume
    imag_max = np.max(np.abs(vals.imag))
    if not imag_max < 1e-12 * max(1.0, np.max(np.abs(vals.real))):
        raise DomainError(f"kernel for alpha={alpha}, mass={mass} is not real: "
                          f"imaginary part {imag_max:.3g}")
    return np.ascontiguousarray(vals.real)


def green_alpha_lattice(lat: Lattice, spec: GreenSpec) -> LatticeField:
    """Position-space fractional kernel as a lattice field centered at 0."""
    if lat.dim != spec.dim:
        raise ConfigurationError("lattice dimension does not match the kernel spec")
    if spec.mass * lat.extent < MIN_MASS_EXTENT:
        raise ConfigurationError(
            f"box under-resolves the mass: mass*extent = {spec.mass * lat.extent:.3g} "
            f"< {MIN_MASS_EXTENT}"
        )
    return LatticeField(lat, fractional_kernel_values(lat, spec.alpha, spec.mass))


# -- quaternionic kernels ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _unit_cell_inverse_square_mean() -> float:
    """Mean of 1/|u|^2 over the unit cell [-1/2, 1/2]^4, by refined midpoints."""

    def midpoint(n: int) -> float:
        ax = (np.arange(n) + 0.5) / n - 0.5
        return float(np.mean(1.0 / _squared_norms(ax, 4)))

    coarse, fine = midpoint(16), midpoint(32)
    # midpoint refinement converges ~ O(h); Richardson once
    return 2 * fine - coarse


def harmonic_kernel_lattice(lat: Lattice) -> LatticeField:
    """g(x) = 1/(4 pi^2 |x|^2) sampled on a 4-d lattice, cell-averaged at 0."""
    if lat.dim != 4:
        raise ConfigurationError("the quaternionic kernels live in dimension 4")
    r2 = _squared_norms(lat.axis_coords(), 4)
    origin = (0,) * 4
    r2[origin] = 1.0
    vals = 1.0 / (4 * math.pi**2 * r2)
    vals[origin] = _unit_cell_inverse_square_mean() / (
        4 * math.pi**2 * lat.spacing**2
    )
    return LatticeField(lat, vals)


def dbar_g_kernel(lat: Lattice) -> LatticeField:
    """Directional kernel K(x) = x / (2 pi^2 |x|^4) as a quaternion field.

    The origin cell average vanishes because every component is odd.

    Check: test_dbar_kernel_is_gradient_of_g, the vector model's
    directional kernel against the harmonic kernel's lattice gradient.
    """
    if lat.dim != 4:
        raise ConfigurationError("the quaternionic kernels live in dimension 4")
    x = lat.coord_grid()
    r2 = np.sum(x * x, axis=-1)
    origin = (0,) * 4
    r2[origin] = 1.0
    vals = x / (2 * math.pi**2 * r2[..., None] ** 2)
    vals[origin] = 0.0
    return LatticeField(lat, vals)


def dbar_g_analytic(points) -> np.ndarray:
    """K(x) off the origin, for arrays of shape (..., 4).

    Check: test_dbar_kernel_values_and_symmetry, the continuum reference
    for :func:`dbar_g_kernel`.
    """
    x = np.asarray(points, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    if np.any(r2 == 0):
        raise DomainError("directional kernel is singular at the origin")
    return x / (2 * math.pi**2 * r2**2)
