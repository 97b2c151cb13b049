"""Smooth rapidly decaying test functions with closed-form calculus.

The working family is

    f(x) = p(x - c) * exp(-|x - c|^2 / (2 w^2)) * exp(i b.(x - c))

with a complex polynomial p, center c, width w and modulation frequency b.
The family is closed under differentiation, complex conjugation, argument
flips, translation, products and the Fourier transform, so norms, moments
and transforms used elsewhere in the package are exact up to round-off.

Fourier convention used throughout the package:

    Ff(k) = (2 pi)^(-d/2) * integral exp(-i k.x) f(x) dx.

Multi-point test functions are tensor products of one-point factors with a
complex prefactor (`TensorTestFunction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

MultiIndex = Tuple[int, ...]
Coeffs = Dict[MultiIndex, complex]

def _clean(coeffs: Coeffs) -> Coeffs:
    return {b: c for b, c in coeffs.items() if c != 0}


def poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            key = tuple(x + y for x, y in zip(ba, bb))
            out[key] = out.get(key, 0j) + ca * cb
    return _clean(out)


def _gauss_moment(m: int, s: float) -> float:
    """integral u^m exp(-u^2 / s^2) du over the line (0 for odd m)."""
    if m % 2:
        return 0.0
    return s ** (m + 1) * math.gamma((m + 1) / 2)


@dataclass(frozen=True)
class TestFunction:
    __test__ = False  # not a pytest class

    dim: int
    center: Tuple[float, ...]
    width: float
    coeffs: Coeffs = field(default_factory=lambda: {})
    freq: Tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError("center has wrong dimension")
        object.__setattr__(self, "center", tuple(c))
        if self.freq is None:
            object.__setattr__(self, "freq", (0.0,) * self.dim)
        else:
            b = np.asarray(self.freq, dtype=float)
            if b.shape != (self.dim,):
                raise ValueError("freq has wrong dimension")
            object.__setattr__(self, "freq", tuple(b))
        cc = {}
        for beta, coef in self.coeffs.items():
            if len(beta) != self.dim or any(m < 0 for m in beta):
                raise ValueError(f"bad multi-index {beta}")
            cc[tuple(int(m) for m in beta)] = complex(coef)
        object.__setattr__(self, "coeffs", cc)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def gaussian(center, width: float, amplitude: complex = 1.0, freq=None) -> "TestFunction":
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        d = len(center)
        return TestFunction(d, center, width, {(0,) * d: amplitude}, freq)

    def degree(self) -> int:
        return max((sum(b) for b in self.coeffs), default=0)

    def effective_radius(self) -> float:
        """Radius about the center beyond which f is below quadrature noise."""
        return 9.0 * self.width * (1.0 + 0.35 * self.degree())

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1 and self.dim > 1 or x.ndim == 0
        u = np.atleast_2d(x.reshape(-1, self.dim)) - np.asarray(self.center)
        val = np.zeros(u.shape[0], dtype=complex)
        for beta, c in self.coeffs.items():
            mono = np.ones(u.shape[0])
            for ax, m in enumerate(beta):
                if m:
                    mono = mono * u[:, ax] ** m
            val += c * mono
        r2 = np.sum(u * u, axis=1)
        phase = u @ np.asarray(self.freq)
        val = val * np.exp(-r2 / (2 * self.width**2) + 1j * phase)
        if scalar:
            return val[0]
        return val.reshape(x.shape[:-1] if x.ndim > 1 else x.shape)

    def axis_split(self) -> List[Tuple["TestFunction", Union["TestFunction", float]]]:
        """Pairs (E_r, R_r) with f(x0, xr) = sum_r E_r(x0) R_r(xr).

        The envelope and the phase factor over the axes, so grouping the
        monomials by their powers r on the axes after the first leaves the
        1-D packet E_r with prefactor sum_p c_(p, r) u0^p times the
        (dim - 1)-D packet R_r with the monomial u^r.  A Gaussian packet gives
        one pair.  In one dimension there are no further axes: the one pair
        is (f, 1).
        """
        if self.dim == 1:
            return [(self, 1.0)]
        groups: Dict[MultiIndex, Coeffs] = {}
        for beta, c in self.coeffs.items():
            groups.setdefault(beta[1:], {})[beta[:1]] = c
        return [(TestFunction(1, self.center[:1], self.width, energy, self.freq[:1]),
                 TestFunction(self.dim - 1, self.center[1:], self.width, {r: 1.0},
                              self.freq[1:]))
                for r, energy in groups.items()]

    # -- exact calculus ------------------------------------------------------

    def derivative(self, axis: int) -> "TestFunction":
        """Partial derivative along one axis, in closed form."""
        w2 = self.width**2
        b_ax = self.freq[axis]
        out: Coeffs = {}
        for beta, c in self.coeffs.items():
            m = beta[axis]
            if m:
                key = beta[:axis] + (m - 1,) + beta[axis + 1:]
                out[key] = out.get(key, 0j) + c * m
            if b_ax:
                out[beta] = out.get(beta, 0j) + 1j * b_ax * c
            key = beta[:axis] + (m + 1,) + beta[axis + 1:]
            out[key] = out.get(key, 0j) - c / w2
        return TestFunction(self.dim, self.center, self.width, _clean(out), self.freq)

    def conjugate(self) -> "TestFunction":
        return TestFunction(
            self.dim, self.center, self.width,
            {b: np.conj(c) for b, c in self.coeffs.items()},
            tuple(-b for b in self.freq),
        )

    def flip(self) -> "TestFunction":
        """f(-x)."""
        return TestFunction(
            self.dim,
            tuple(-c for c in self.center),
            self.width,
            {b: c * (-1) ** sum(b) for b, c in self.coeffs.items()},
            tuple(-b for b in self.freq),
        )

    def modulate(self, b_extra) -> "TestFunction":
        """exp(i b_extra.x) * f(x)."""
        b_extra = np.asarray(b_extra, dtype=float)
        phase = np.exp(1j * float(b_extra @ np.asarray(self.center)))
        return TestFunction(
            self.dim, self.center, self.width,
            {b: c * phase for b, c in self.coeffs.items()},
            tuple(np.asarray(self.freq) + b_extra),
        )

    def scale(self, factor: complex) -> "TestFunction":
        return TestFunction(
            self.dim, self.center, self.width,
            {b: c * factor for b, c in self.coeffs.items()}, self.freq,
        )

    def __add__(self, other: "TestFunction") -> "TestFunction":
        """Sum of two members sharing center, width and frequency."""
        if (self.dim, self.center, self.width, self.freq) != (
            other.dim, other.center, other.width, other.freq,
        ):
            raise ValueError("can only add test functions with a common envelope")
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, 0j) + c
        return TestFunction(self.dim, self.center, self.width, out, self.freq)

    def fourier(self) -> "TestFunction":
        """Fourier transform (2 pi)^(-d/2) integral exp(-ik.x) f(x) dx.

        Returns a member of the same family with width 1/w, centered at the
        modulation frequency and modulated by the old center.
        """
        d, w = self.dim, self.width
        base = TestFunction(d, (0.0,) * d, 1.0 / w, {(0,) * d: w**d})
        acc: Coeffs = {}
        for beta, c in self.coeffs.items():
            g = base
            for ax, m in enumerate(beta):
                for _ in range(m):
                    g = g.derivative(ax).scale(1j)
            for bb, cc in g.coeffs.items():
                acc[bb] = acc.get(bb, 0j) + c * cc
        b, cen = np.asarray(self.freq), np.asarray(self.center)
        pref = np.exp(-1j * float(b @ cen))
        return TestFunction(
            d, tuple(b), 1.0 / w,
            {k: v * pref for k, v in _clean(acc).items()},
            tuple(-cen),
        )

    # -- exact integrals -----------------------------------------------------

    def integral(self) -> complex:
        """integral f(x) dx, exactly.

        Check: test_gaussian_l2_and_integral and
        test_characteristic_functional_drift_closed_form, whose closed form
        it supplies.
        """
        ft0 = np.ravel(self.fourier()(np.zeros(self.dim)))[0]
        return complex((2 * math.pi) ** (self.dim / 2) * ft0)

    def l2_norm_sq(self) -> float:
        """integral |f|^2 dx, exactly (phases cancel).

        Check: test_parseval and
        test_characteristic_functional_gaussian_closed_form, whose
        closed forms it supplies.
        """
        conj_c = {b: np.conj(c) for b, c in self.coeffs.items()}
        p2 = poly_mul(self.coeffs, conj_c)
        tot = 0j
        for beta, c in p2.items():
            term = c
            for m in beta:
                term *= _gauss_moment(m, self.width)
            tot += term
        return float(tot.real)


@dataclass(frozen=True)
class TensorTestFunction:
    """Tensor product of one-point factors, with a complex prefactor."""

    __test__ = False  # not a pytest class

    factors: Tuple[TestFunction, ...]
    prefactor: complex = 1.0

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "prefactor", complex(self.prefactor))

    @property
    def n_points(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def __call__(self, points) -> np.ndarray:
        """Evaluate at arrays of shape (..., n_points, dim)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-2:] != (self.n_points, self.dim):
            raise ValueError(
                f"expected trailing shape {(self.n_points, self.dim)}, got {pts.shape}"
            )
        val = np.full(pts.shape[:-2], self.prefactor, dtype=complex)
        for i, f in enumerate(self.factors):
            val = val * f(pts[..., i, :])
        return val

    def involution_momentum(self) -> "TensorTestFunction":
        """Momentum-space image of the star: reverse, flip arguments, conjugate."""
        return TensorTestFunction(
            tuple(f.flip().conjugate() for f in reversed(self.factors)),
            np.conj(self.prefactor),
        )
