"""Periodic cubic lattices and fields living on them.

Sites are indexed in FFT order: index j along an axis has signed coordinate
spacing * (j if j < n/2 else j - n), so index 0 is the origin and coordinates
run over [-extent/2, extent/2).  Kernel fields are naturally centered at the
origin in this convention and field translations are array rolls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import LatticeMismatchError


@dataclass(frozen=True)
class Lattice:
    dim: int
    n_sites: int
    spacing: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_sites < 2 or self.n_sites % 2:
            raise ValueError("n_sites must be even and >= 2")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.n_sites,) * self.dim

    @property
    def extent(self) -> float:
        return self.n_sites * self.spacing

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        """Signed site coordinates along one axis, in FFT index order."""
        n = self.n_sites
        idx = np.arange(n)
        signed = np.where(idx < n // 2, idx, idx - n)
        return signed * self.spacing

    def coord_grid(self) -> np.ndarray:
        """Array of shape (*shape, dim) with site coordinates."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1)

    def dual_axis(self) -> np.ndarray:
        """Dual momenta along one axis, in FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n_sites, d=self.spacing)

    def site_index(self, point) -> Tuple[int, ...]:
        """Index tuple of the lattice site nearest to ``point``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} components")
        half = self.extent / 2
        if np.any(point < -half) or np.any(point >= half):
            raise ValueError(f"point {point} outside the box [+-{half})")
        return tuple(int(round(x / self.spacing)) % self.n_sites for x in point)

    def in_inner_half(self, point) -> bool:
        """True if every coordinate lies within a quarter extent of origin."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return bool(np.all(np.abs(point) <= self.extent / 4))


@dataclass
class LatticeField:
    """Values attached to lattice sites.

    Scalar fields have ``values.shape == lattice.shape``; quaternion fields
    carry a trailing axis of length 4.
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape == self.lattice.shape:
            pass
        elif self.values.shape == self.lattice.shape + (4,):
            pass
        else:
            raise LatticeMismatchError(
                f"field shape {self.values.shape} does not fit lattice {self.lattice.shape}"
            )

    @property
    def is_quaternion(self) -> bool:
        return self.values.shape == self.lattice.shape + (4,)

    def check_same_lattice(self, other: "LatticeField"):
        if self.lattice != other.lattice:
            raise LatticeMismatchError("fields live on different lattices")

    def integral(self) -> complex:
        """Riemann sum of the field over the box.

        Check: test_sum_rule_exact, the kernel's normalisation.
        """
        return complex(np.sum(self.values)) * self.lattice.cell_volume


def sample_function(lat: Lattice, fn) -> LatticeField:
    """Sample a callable of position arrays onto the lattice."""
    vals = np.asarray(fn(lat.coord_grid().reshape(-1, lat.dim)))
    return LatticeField(lat, vals.reshape(lat.shape))
