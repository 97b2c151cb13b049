"""Levy exponents of infinitely divisible noise and their cumulants.

A scalar noise law is specified by a drift, a Gaussian variance and a finite
list of jump atoms (jump size, Poisson rate).  The exponent is

    psi(t) = i a t - sigma^2 t^2 / 2
             + sum_j lam_j (exp(i s_j t) - 1 - i s_j t / (1 + s_j^2)),

normalized so psi(0) = 0.  The n-th cumulant coefficient of the law is the
n-th Taylor coefficient of psi at 0 divided by i^n.

The quaternionic vector variant keeps a drift along the real axis, separate
Gaussian variances for the real and imaginary parts, and jump atoms on the
real (central) axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .quadrature import gl_nodes, refine, tensor_blocks
from .testfunctions import TestFunction

Atom = Tuple[float, float]  # (jump size, rate)


def _checked_atoms(atoms) -> Tuple[Atom, ...]:
    """``atoms`` as float pairs, with nonnegative rates and nonzero jumps."""
    atoms = tuple((float(s), float(lam)) for s, lam in atoms)
    for s, lam in atoms:
        if lam < 0:
            raise ValueError("atom rates must be nonnegative")
        if s == 0:
            raise ValueError("atom jumps must be nonzero")
    return atoms


@dataclass(frozen=True)
class LevyTriple:
    """Drift, Gaussian variance and jump atoms of a scalar noise law."""

    drift: float = 0.0
    variance: float = 0.0
    atoms: Tuple[Atom, ...] = ()

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        object.__setattr__(self, "atoms", _checked_atoms(self.atoms))

    def compensated_drift(self) -> float:
        """Drift with the jump compensators folded in.

        This is the deterministic part left after removing the centered
        Gaussian and the raw compound-Poisson jumps from the law.
        """
        return self.drift - sum(lam * s / (1 + s * s) for s, lam in self.atoms)


def psi_eval(t, triple: LevyTriple) -> np.ndarray:
    """Levy exponent at real arguments t (vectorized)."""
    t = np.asarray(t, dtype=float)
    out = 1j * triple.drift * t - 0.5 * triple.variance * t * t
    out = out.astype(complex)
    for s, lam in triple.atoms:
        out += lam * (np.exp(1j * s * t) - 1 - 1j * s * t / (1 + s * s))
    return out


def cumulant_coeff(n: int, triple: LevyTriple) -> float:
    """n-th cumulant coefficient of the noise law (n >= 1)."""
    if n < 1:
        raise ValueError("cumulant order must be >= 1")
    if n == 1:
        return triple.drift + sum(lam * s**3 / (1 + s * s) for s, lam in triple.atoms)
    if n == 2:
        return triple.variance + sum(lam * s * s for s, lam in triple.atoms)
    return float(sum(lam * s**n for s, lam in triple.atoms))


def characteristic_functional(
    phi: TestFunction,
    triple: LevyTriple,
    tol: float = 1e-10,
) -> complex:
    """exp of the integral of psi(phi(x)) over space.

    The integrand decays like phi away from its effective support, so the
    integral is taken over the centered box [c - R, c + R]^d with R large
    enough that the Gaussian envelope is below machine noise, by tensor
    Gauss-Legendre quadrature with doubling refinement.  Raises
    QuadratureError (carrying the residual) if the refinement has not
    stabilized below ``tol``.

    Check: the closed forms of test_levy (Gaussian, pure drift, modulus at
    most 1), which pin the exponent's normalization.
    """
    d = phi.dim
    halfwidth = phi.effective_radius()
    center = np.asarray(phi.center)

    def integrand(*cols):
        vals = phi(np.stack(cols, axis=-1))
        if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals.real))):
            raise ValueError("characteristic functional needs a real test function")
        return psi_eval(vals.real, triple)

    def level_value(npts: int) -> complex:
        nodes, weights = gl_nodes(-halfwidth, halfwidth, npts)
        return tensor_blocks([(center[ax] + nodes, weights) for ax in range(d)],
                             integrand)

    exponent = refine(level_value, [24 << k for k in range(11)], tol, tol,
                      "characteristic_functional")
    return complex(np.exp(exponent))


# -- quaternionic vector noise ------------------------------------------------


@dataclass(frozen=True)
class QuaternionLevyData:
    """Noise data for the vector model: drift and variances plus central atoms.

    ``beta`` is the drift along the real axis, ``variance_real`` and
    ``variance_imag`` the Gaussian variances of the real part and of each
    imaginary component, and ``atoms`` a list of (position on the real axis,
    rate) jump atoms.
    """

    beta: float = 0.0
    variance_real: float = 0.0
    variance_imag: float = 0.0
    atoms: Tuple[Atom, ...] = ()

    def __post_init__(self):
        if self.variance_real < 0 or self.variance_imag < 0:
            raise ValueError("variances must be nonnegative")
        object.__setattr__(self, "atoms", _checked_atoms(self.atoms))


def psi_eval_vector(x, data: QuaternionLevyData) -> np.ndarray:
    """Vector-model exponent at quaternion arguments x (shape (..., 4)).

    Check: test_vector_psi_small_jump_compensated, the vector model's
    exponent convention that
    :func:`~kreinfield.euclidean.quaternion_noise_field` samples.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("arguments must have 4 components")
    x0 = x[..., 0]
    imag2 = np.sum(x[..., 1:] ** 2, axis=-1)
    out = (
        1j * data.beta * x0
        - 0.5 * data.variance_real * x0 * x0
        - 0.5 * data.variance_imag * imag2
    ).astype(complex)
    for y, lam in data.atoms:
        comp = 1j * x0 * y if abs(y) < 1 else 0.0
        out += lam * (np.exp(1j * x0 * y) - 1 - comp)
    return out
