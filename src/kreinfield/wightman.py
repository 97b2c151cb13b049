"""Momentum-space truncated correlation distributions of the relativistic models.

The scalar model's truncated n-point distribution on Minkowski momentum space
is a total-momentum delta times a sum of n ordered products of three branch
densities: a backward-shell-region density for slots left of the pivot, a
two-sided density at the pivot, and a forward one to the right.  Each branch
carries |k^2 - m^2|^(-alpha) with Minkowski k^2 = (k0)^2 - |kvec|^2, so every
evaluation is a singular-but-integrable quadrature for alpha in (0, 1/2].

Evaluators here come in three flavours:

* hyperplane quadrature: resolve the momentum delta for the last variable and
  integrate the remaining d(n-1) variables with interval splits at the mass
  shells (n = 2, 3; d = 1, 2);
* shell evaluator: the n=2, alpha=1/2 case collapses distributionally onto
  the free-field mass shell and is evaluated as a (d-1)-dimensional shell
  integral;
* factorized evaluator: for tensor-product arguments the momentum delta is
  written as an auxiliary d-dimensional Fourier integral, so the n-point value
  becomes an integral over one auxiliary vector of products of n smooth
  one-variable branch transforms (any n >= 3 at linear cost).

Sign conventions: the support of the spectral condition lies in backward
cones {q^2 >= 0, q0 < 0} for all partial sums of momenta; imaginary-time
damping in the Laplace bridge uses exp(sum_p P0_p dtau_p) with P0_p the
partial energy sums (negative on support) and dtau the gaps of the strictly
increasing Euclidean times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    PreconditionError,
    SingularConfigurationError,
)
from .green import GreenSpec, green_alpha_lattice
from .lattice import Lattice
from .levy import LevyTriple, cumulant_coeff
from .quadrature import (
    gl_nodes,
    line_quadrature,
    phase_sums,
    refine,
    sine_nodes,
    tanh_sinh_nodes,
    tensor_blocks,
)
from .schwinger import kernel_product_integral
from .testfunctions import TensorTestFunction, TestFunction

Branch = str  # "+", "-", "0"


# -- branch densities ---------------------------------------------------------


def _density_arrays(k0, kv_sq, spec: GreenSpec, branch: Branch):
    """Vectorized branch density; zero on the wrong side of its indicators."""
    k0 = np.asarray(k0, dtype=float)
    kv_sq = np.asarray(kv_sq, dtype=float)
    msq = k0 * k0 - kv_sq - spec.mass**2  # Minkowski k^2 - m^2
    # exact shell hits only occur at zero-weight quadrature nodes; returning 0
    # there keeps inf/nan out of the node tensors (pointwise API raises instead)
    with np.errstate(divide="ignore"):
        amag = np.where(msq != 0, np.abs(msq) ** (-spec.alpha), 0.0)
    pref = (2 * math.pi) ** (-spec.dim / 2)
    if branch == "+":
        return pref * math.sin(math.pi * spec.alpha) * np.where(
            (msq > 0) & (k0 > 0), amag, 0.0
        )
    if branch == "-":
        return pref * math.sin(math.pi * spec.alpha) * np.where(
            (msq > 0) & (k0 < 0), amag, 0.0
        )
    if branch == "0":
        both = np.where(msq > 0, math.cos(math.pi * spec.alpha), 0.0) + np.where(
            msq < 0, 1.0, 0.0
        )
        return pref * both * amag
    raise DomainError(f"unknown branch {branch!r}")


def spectral_density(k, spec: GreenSpec, branch: Branch) -> float:
    """Pointwise branch density at the Minkowski momentum k = (k0, kvec).

    Raises on the mass shell, where the density is singular.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (spec.dim,):
        raise PreconditionError("momentum must have d components")
    kv_sq = float(np.sum(k[1:] ** 2))
    if k[0] ** 2 - kv_sq == spec.mass**2:
        raise SingularConfigurationError("momentum lies exactly on the mass shell")
    return float(_density_arrays(k[0], kv_sq, spec, branch))


def bracket_scalar(k0s: np.ndarray, kv_sqs: np.ndarray, spec: GreenSpec) -> np.ndarray:
    """sum_j prod_{l<j} rho^-(k_l) rho^0(k_j) prod_{l>j} rho^+(k_l).

    ``k0s`` and ``kv_sqs`` have shape (n, M): n momentum slots, M samples.
    """
    n = k0s.shape[0]
    minus = _density_arrays(k0s, kv_sqs, spec, "-")
    zero = _density_arrays(k0s, kv_sqs, spec, "0")
    plus = _density_arrays(k0s, kv_sqs, spec, "+")
    out = np.zeros(k0s.shape[1:])
    pref = np.ones(k0s.shape[1:])
    for j in range(n):
        suff = np.ones(k0s.shape[1:])
        for l in range(j + 1, n):
            suff = suff * plus[l]
        out = out + pref * zero[j] * suff
        pref = pref * minus[j]
    return out


def _effective_radius(f: TestFunction) -> float:
    return 9.0 * f.width * (1.0 + 0.35 * f.degree())


# -- n = 2 evaluators -----------------------------------------------------------


def _pair_callable(test) -> Callable:
    if isinstance(test, TensorTestFunction):
        if len(test.factors) != 2:
            raise PreconditionError("need a two-slot tensor test function")

        def f(k1, k2):
            pts = np.stack([k1, k2], axis=-2)
            return test(pts)

        return f
    return test


def two_point_shell_eval(
    test,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-10,
    recorder: Optional[list] = None,
) -> complex:
    """Pair distribution at alpha = 1/2: the free-shell integral.

    Value = 2 pi c2 * integral over the spatial momentum of
    f((-w, q), (w, -q)) / (2 w), with w the shell energy of q; in d = 1 the
    shell is the single point q = (), leaving c2 pi f(-m, m) / m.
    """
    if spec.alpha != 0.5:
        raise PreconditionError("shell evaluator applies at alpha = 1/2 only")
    f = _pair_callable(test)
    c2 = cumulant_coeff(2, triple)
    m = spec.mass
    pref = 2 * math.pi * c2
    if spec.dim == 1:
        val = pref * complex(np.asarray(
            f(np.array([[-m]]), np.array([[m]]))
        ).reshape(())) / (2 * m)
        if recorder is not None:
            # closed form: one shell point, nothing to refine
            recorder.append(
                {"op": "two_point_shell", "value": [val.real, val.imag],
                 "tolerance": 0.0, "history": [[1, val.real, val.imag]]}
            )
        return val
    if spec.dim != 2:
        raise PreconditionError("shell evaluator implemented for d <= 2")

    kmax = 60.0 * max(1.0, m)
    if isinstance(test, TensorTestFunction):
        rad = max(
            abs(np.asarray(g.center)).max() + _effective_radius(g)
            for g in test.factors
        )
        kmax = min(kmax, rad)

    def integrand(q):
        w = np.sqrt(q * q + m * m)
        k1 = np.stack([-w, q], axis=-1)
        k2 = np.stack([w, -q], axis=-1)
        return f(k1, k2) / (2 * w)

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: pref * complex(
            line_quadrature(integrand, -kmax, kmax, (0.0,), npts)),
        [64 << k for k in range(8)], tol, tol * abs(pref),
        "two_point_shell", recorder,
    )


def two_point_density_eval(
    test,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-8,
    recorder: Optional[list] = None,
) -> complex:
    """Pair distribution for alpha < 1/2: honest density quadrature.

    On the hyperplane k2 = -k1 the bracket collapses to
    (2 pi)^(-d) sin(2 pi alpha) 1_{k^2 > m^2, k0 < 0} |k^2 - m^2|^(-2 alpha);
    the prefactor c2 * 2^(n-1) * (2 pi)^d then cancels the (2 pi)^(-d).
    In d = 2 a plain pair callable gets momenta of shape (nq, nk0, 2): one
    k0-line per spatial node q, all in one call.
    """
    if not spec.alpha < 0.5:
        raise PreconditionError("density route needs alpha < 1/2")
    f = _pair_callable(test)
    m = spec.mass
    c2 = cumulant_coeff(2, triple)
    scale = 2 * c2 * math.sin(2 * math.pi * spec.alpha)
    kmax = 40.0 * max(1.0, m)

    if spec.dim == 1:
        def integrand(k0):
            val = np.asarray(f(k0[:, None], -k0[:, None]))
            return val * np.abs(k0 * k0 - m * m) ** (-2 * spec.alpha)

        def integral(npts):
            return line_quadrature(integrand, -kmax, -m, (), npts)

        schedule = [48 << k for k in range(8)]
    elif spec.dim == 2:
        # beyond |q| = qmax the shell energy w(q) passes kmax and the k0-line
        # is empty
        qmax = math.sqrt(kmax * kmax - m * m)

        def integral(npts):
            def integrand(q):
                # the k0-line [-kmax, -w(q)] for every q at once, on the
                # outer round's node count; the tanh-sinh rule gives the
                # distance d = -w - k0 to the shell, where the density
                # |k0^2 - w^2|^(-2 alpha) is singular
                w = np.sqrt(q * q + m * m)[:, None]
                _, d, wk = tanh_sinh_nodes(-kmax, -w[:, 0], npts)
                k0 = -w - d
                k1 = np.stack([k0, np.broadcast_to(q[:, None], k0.shape)], axis=-1)
                val = np.asarray(f(k1, -k1))
                return np.sum(val * (d * (2.0 * w + d)) ** (-2 * spec.alpha) * wk,
                              axis=-1)

            return line_quadrature(integrand, -qmax, qmax, (0.0,), npts)

        schedule = [32 << k for k in range(6)]
    else:
        raise PreconditionError("pair density implemented for d <= 2")

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: scale * complex(integral(npts)),
        schedule, tol, tol * abs(scale), "two_point_density", recorder,
    )


# -- n = 3 hyperplane quadratures ----------------------------------------------


def _bracket3_samples(k_slots, spec):
    """bracket over three momentum slots given (k0, kv_sq) arrays per slot."""
    k0s = np.stack([s[0] for s in k_slots])
    kvs = np.stack([s[1] for s in k_slots])
    return bracket_scalar(k0s, kvs, spec)


def three_point_eval_1d(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-6,
    box: float = 40.0,
    recorder: Optional[list] = None,
) -> complex:
    """Three-slot evaluation in d = 1: 2-d split quadrature on k3 = -k1 - k2.

    ``f(k1, k2, k3)`` must be vectorized.  The integration box is the support
    rectangle k1 in [-box, -m], k2 in [-box, box] intersected with the slot
    indicators; interval splits sit on every mass-shell line.
    """
    if spec.dim != 1:
        raise PreconditionError("1-d evaluator")
    m = spec.mass
    c3 = cumulant_coeff(3, triple)
    pref = c3 * 4 * (2 * math.pi) ** (1 - 1.5)

    def outer(k1):
        out = np.empty(k1.shape, dtype=complex)
        for i, k1i in enumerate(k1):
            def inner(k2, k1i=k1i):
                k3 = -k1i - k2
                br = _bracket3_samples(
                    [(np.full_like(k2, k1i), np.zeros_like(k2)),
                     (k2, np.zeros_like(k2)),
                     (k3, np.zeros_like(k3))], spec)
                return f(np.full_like(k2, k1i), k2, k3) * br

            cuts = (-m, m, -k1i - m, -k1i + m)
            out[i] = line_quadrature(inner, -box, box, cuts, 32)
        return out

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: pref * complex(
            line_quadrature(outer, -box, -m, (-2 * m,), npts)),
        (24, 36, 54, 81, 121, 181), tol, tol * abs(pref),
        "three_point_1d", recorder,
    )


def three_point_eval_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 5e-3,
    energy_box: float = 25.0,
    recorder: Optional[list] = None,
) -> complex:
    """Three-slot evaluation in d = 2: nested 4-d quadrature.

    ``f(k0s, k1s)`` receives arrays of shape (3, M) (energies and spatial
    components of the three slots) and must be vectorized over M.  The outer
    level walks the first slot's energy; for each outer node the remaining
    three levels (first slot space, second slot space, second slot energy)
    are laid out as one tensor with a uniform interval decomposition, interval
    endpoints pinned to the mass shells and crushed by the sine substitution.
    On the support every partial energy sum is below -m, which closes all
    boxes once combined with ``energy_box``.
    """
    if spec.dim != 2:
        raise PreconditionError("2-d evaluator")
    m = spec.mass
    c3 = cumulant_coeff(3, triple)
    pref = c3 * 4 * (2 * math.pi) ** (2 - 3)

    def inner(k10: float, n2: int, n3: int, n4: int) -> complex:
        lim = math.sqrt(max(k10 * k10 - m * m, 0.0))
        if lim == 0.0:
            return 0.0j
        # level 2: first slot's spatial component on (-lim, lim)
        x2, w2 = sine_nodes(-lim, lim, n2)
        # level 3: second slot's spatial component, split where k3 space flips
        smax = np.abs(x2) + energy_box
        lo3 = np.stack([-smax, -x2], axis=-1)
        hi3 = np.stack([-x2, smax], axis=-1)
        x3, w3 = sine_nodes(lo3, hi3, n3)  # (n2, 2, n3)
        k11 = np.broadcast_to(x2[:, None, None], x3.shape)
        # level 4: second slot's energy between the shells
        om2 = np.hypot(x3, m)
        k31 = -k11 - x3
        om3 = np.hypot(k31, m)
        top = -k10 - om3
        bot = np.full_like(top, -k10 - energy_box)
        c1 = np.clip(-om2, bot, top)
        c2 = np.clip(om2, c1, top)
        lo4 = np.stack([bot, c1, c2], axis=-1)
        hi4 = np.stack([c1, c2, top], axis=-1)
        x4, w4 = sine_nodes(lo4, hi4, n4)  # (n2, 2, n3, 3, n4)

        k20 = x4
        k30 = -k10 - k20
        shp = k20.shape
        k0s = np.stack([np.full(shp, k10), k20, k30]).reshape(3, -1)
        k1s = np.stack([
            np.broadcast_to(k11[..., None, None], shp),
            np.broadcast_to(x3[..., None, None], shp),
            np.broadcast_to(k31[..., None, None], shp),
        ]).reshape(3, -1)
        vals = (f(k0s, k1s) * bracket_scalar(k0s, k1s * k1s, spec)).reshape(shp)
        with np.errstate(invalid="ignore"):
            contrib = np.where(w4 != 0, vals * w4, 0.0)
        lvl3 = np.sum(contrib, axis=(-2, -1))
        lvl2 = np.sum(lvl3 * w3, axis=(-2, -1))
        return complex(np.sum(lvl2 * w2))

    def value(npts4) -> complex:
        n1, n2, n3, n4 = npts4

        def level1(p0):
            return np.array([inner(k10, n2, n3, n4) for k10 in p0])

        return pref * complex(
            line_quadrature(level1, -energy_box, -m, (-2 * m,), n1))

    # node counts per level grow by 1.4 a round
    schedule = ((40, 20, 28, 20), (56, 28, 39, 28), (78, 39, 54, 39),
                (109, 54, 75, 54))
    return refine(value, schedule, tol, 0.0, "three_point_2d", recorder)


# -- factorized evaluator for tensor arguments ----------------------------------


def _osc_npts(amax: float, krange: float, floor: int = 24) -> int:
    # Gauss-Legendre tracks exp(i a k) once the node count clears the phase
    # half-bandwidth amax*krange/2; the margin covers the transition region
    # before the Bessel-coefficient tail sets in.
    return int(0.54 * amax * krange) + floor


_GAP = 0.5 * math.pi - 1e-12  # |u| bound of the gap substitution k0 = w sin u


def _energy_sums(g: TestFunction, a: np.ndarray, w: np.ndarray,
                 q: Optional[np.ndarray], nt: int, expo: float,
                 tmax: Optional[float] = None) -> list:
    """[B+, B-] with B+-[i, c] = sum_t exp(+-i a_i k0) g(+-k0, q_c) jac w_t.

    The energy k0[t, c] runs over one smooth-substituted piece of the branch
    support at each w_c = sqrt(q_c^2 + m^2) (w = [m] and no q in d = 1).
    With ``tmax``: the cosh piece k0 = w cosh t, t in (0, tmax], with
    jac = (w sinh t)^expo, whose two signs are the forward and the backward
    shell regions.  Without it: the gap piece k0 = w sin u, |u| < pi/2, with
    jac = (w cos u)^expo; k0 is odd and jac even in u, so the piece is
    folded onto u >= 0 and equals B+ + B-.  Both bodies share one
    phase_sums call.
    """
    if tmax is None:
        u, wu = gl_nodes(-_GAP, _GAP, nt)
        u, wu = u[nt // 2:, None], wu[nt // 2:].copy()
        if nt % 2:
            wu[0] *= 0.5  # both signs count the middle node u = 0
        k0, jac = w * np.sin(u), (w * np.cos(u)) ** expo
    else:
        u, wu = gl_nodes(1e-12, tmax, nt)
        u = u[:, None]
        k0, jac = w * np.cosh(u), (w * np.sinh(u)) ** expo
    coords = [] if q is None else [np.broadcast_to(q, k0.shape).ravel()]
    bodies = np.stack([
        np.ravel(g(np.stack([s * k0.ravel(), *coords], axis=-1))).reshape(k0.shape)
        * jac * wu[:, None]
        for s in (1.0, -1.0)
    ])
    p, qs = phase_sums(a, k0, bodies)
    return [p[0] + 1j * qs[0], p[1] - 1j * qs[1]]


def _combine_branches(plus, minus, inside, alpha: float):
    """The +, - and 0 branches from the unscaled cosh pieces and the gap piece.

    The two-sided branch reuses both cosh pieces, scaled by cos(pi alpha)
    instead of sin(pi alpha); at alpha = 1/2 it is the gap piece alone.
    """
    sa, ca = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    zero = inside + ca * (plus + minus) if abs(ca) > 1e-15 else inside
    return sa * plus, sa * minus, zero


def _branch_transforms_1d(g: TestFunction, avals: np.ndarray, spec: GreenSpec,
                          mult: float, amax: float) -> dict:
    """A_b(a) = integral rho_b(k) g(k) e^{iak} dk in d = 1 for b in "+-0"."""
    m = spec.mass
    expo = 1 - 2 * spec.alpha
    kmax = abs(np.asarray(g.center)).max() + _effective_radius(g)
    w = np.array([m])

    def sums(krange, tmax=None):
        nt = int(_osc_npts(amax, krange) * mult)
        return [b[:, 0] for b in _energy_sums(g, avals, w, None, nt, expo, tmax)]

    inside = sum(sums(2 * m * np.sin(_GAP)))
    if kmax > m:
        tmax = math.acosh(kmax / m)
        plus, minus = sums(m * np.cosh(tmax) - m * np.cosh(1e-12), tmax)
    else:
        plus = minus = np.zeros(len(avals), dtype=complex)
    pref = (2 * math.pi) ** -0.5
    return {b: pref * t for b, t in
            zip("+-0", _combine_branches(plus, minus, inside, spec.alpha))}


def _branch_transforms_2d(g: TestFunction, ax0: np.ndarray, ax1: np.ndarray,
                          spec: GreenSpec, mult: float) -> dict:
    """The same transforms in d = 2 on a tensor grid of auxiliary points.

    Returns A_b[a0, a1] for b in "+-0".  The energy quadrature is contracted
    against each spatial node before the spatial phases are applied, so the
    workspace stays linear in the number of auxiliary nodes per axis.
    """
    m = spec.mass
    expo = 1 - 2 * spec.alpha
    rad = _effective_radius(g)
    qmax = abs(g.center[1]) + rad
    k0cap = abs(g.center[0]) + rad
    a0max = float(np.max(np.abs(ax0)))
    a1max = float(np.max(np.abs(ax1)))
    nq = int(_osc_npts(a1max, 2 * qmax) * mult)
    q, wq = gl_nodes(-qmax, qmax, nq)
    w = np.sqrt(q * q + m * m)
    tmax = max(0.25, math.acosh(max(1.0 + 1e-9, k0cap / m)))
    plus, minus = _energy_sums(
        g, ax0, w, q, int(_osc_npts(a0max, max(k0cap - m, 2 * m)) * mult), expo, tmax)
    inside = sum(_energy_sums(
        g, ax0, w, q, int(_osc_npts(a0max, 2 * math.sqrt(qmax * qmax + m * m)) * mult),
        expo))
    bm = np.stack(_combine_branches(plus, minus, inside, spec.alpha))
    phase1 = np.exp(1j * np.outer(q, ax1))  # (nq, n1)
    out = (2 * math.pi) ** -1.0 * ((bm * wq) @ phase1)
    return dict(zip("+-0", out))


def factorized_eval(
    test: TensorTestFunction,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-3,
    recorder: Optional[list] = None,
) -> complex:
    """n-point value for tensor arguments via the auxiliary-vector route.

    Writing the momentum delta as (2 pi)^{-d} times a Fourier integral over
    an auxiliary a in R^d turns the n-point pairing into

        c_n 2^(n-1) * integral da sum_j prod_l A^{branch(l,j)}_l(a),

    with A^b_l the smooth branch transform of the l-th factor.  All three
    branch transforms of a factor come from one shared phase evaluation
    (:func:`~kreinfield.quadrature.phase_sums`): the - branch is the + branch
    with k0 -> -k0, the two-sided branch reuses both cosh pieces for
    alpha < 1/2, its gap piece is odd in k0 and folds onto half its grid,
    and the antisymmetric a-rule needs cos and sin of a k0 on its
    non-negative half only.

    The products decay like |a|^(-n) (d = 2) or |a|^(-n/2) (d = 1), so the
    a-integral converges absolutely for n >= 3.  Node counts per axis follow
    the phase bandwidth a_box * (momentum support), with a_box = 60 (d = 1)
    or 14 (d = 2), which is what makes the transforms reliable at large
    auxiliary distances; the refinement loop then only has to confirm
    stability.  The truncation tail beyond a_box is oscillatory (the branch
    edges sit at |k0| >= mass) and falls below the stated tolerances at the
    defaults.
    """
    n = len(test.factors)
    if n < 3:
        raise PreconditionError("factorized route needs n >= 3")
    if spec.dim not in (1, 2):
        raise PreconditionError("implemented for d <= 2")
    cn = cumulant_coeff(n, triple)
    if cn == 0:
        return 0.0 + 0.0j
    a_box = 60.0 if spec.dim == 1 else 14.0
    # the bracket densities carry (2 pi)^(-d/2) each and the master
    # constant is (2 pi)^(d - n d / 2); with the delta's (2 pi)^(-d)
    # that leaves (2 pi)^(-n d / 2) here
    pref = cn * 2 ** (n - 1) * (2 * math.pi) ** (-0.5 * n * spec.dim)

    # The auxiliary integrand's bandwidth per axis is the sum over factors of
    # |center| plus the amplitude-carrying part of the momentum support; the
    # hard support cap is far into the Gaussian tail and would only inflate
    # the node budget.
    def bandwidth(axis: int) -> float:
        return sum(abs(g.center[axis]) + 0.55 * _effective_radius(g)
                   for g in test.factors)

    def value(mult: float) -> complex:
        rules = [gl_nodes(-a_box, a_box,
                          int(_osc_npts(bandwidth(axis), 2 * a_box) * mult))
                 for axis in range(spec.dim)]
        if spec.dim == 1:
            trans = [_branch_transforms_1d(g, rules[0][0], spec, mult, a_box)
                     for g in test.factors]
        else:
            trans = [_branch_transforms_2d(g, rules[0][0], rules[1][0], spec, mult)
                     for g in test.factors]
        total = 0.0
        for j in range(n):
            prod = 1.0
            for l, tr in enumerate(trans):
                prod = prod * tr["-" if l < j else ("0" if l == j else "+")]
            total = total + prod
        for _, aw in reversed(rules):  # contract the a-axes, last first
            total = total @ aw
        return pref * (complex(total) * test.prefactor)

    # the schedule scales the oscillation node budgets; the absolute floor
    # 1e-12 applies to the integral before the prefactor
    return refine(value, (1.0, 1.3, 1.69), tol, 1e-12 * abs(pref),
                  "factorized_eval", recorder)


# -- dispatcher -----------------------------------------------------------------


def truncated_momentum_eval(
    test,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: Optional[float] = None,
    recorder: Optional[list] = None,
) -> complex:
    """Truncated n-point momentum distribution applied to a test function.

    Accepts a TensorTestFunction (any supported n) or, for n <= 3, a
    vectorized callable over the momentum slots.  The one-point value is zero
    by convention.
    """
    if isinstance(test, TensorTestFunction):
        n = len(test.factors)
        if n == 1:
            return 0.0 + 0.0j
        if n == 2:
            if spec.alpha == 0.5:
                return two_point_shell_eval(
                    test, spec, triple, tol or 1e-10, recorder
                )
            return two_point_density_eval(test, spec, triple, tol or 1e-8,
                                          recorder)
        if n == 3 and spec.dim == 1:
            def f(k1, k2, k3):
                pts = np.stack([k1, k2, k3], axis=-1)[..., None]
                return test(pts)
            return three_point_eval_1d(
                f, spec, triple, tol or 1e-6, recorder=recorder
            )
        return factorized_eval(test, spec, triple, tol or 1e-3,
                               recorder=recorder)
    # plain callable
    n = getattr(test, "n_slots", None)
    if n == 2:
        if spec.alpha == 0.5:
            return two_point_shell_eval(test, spec, triple, tol or 1e-10, recorder)
        return two_point_density_eval(test, spec, triple, tol or 1e-8, recorder)
    if n == 3:
        if spec.dim == 1:
            return three_point_eval_1d(test, spec, triple, tol or 1e-6,
                                       recorder=recorder)
        return three_point_eval_2d(test, spec, triple, tol or 5e-3,
                                   recorder=recorder)
    raise PreconditionError(
        "callable tests must declare n_slots in {2, 3}; use tensor tests otherwise"
    )


# -- Laplace bridge -------------------------------------------------------------


@dataclass(frozen=True)
class BridgeReport:
    lhs: float
    rhs: float
    gap: float


def laplace_bridge_check(
    points: np.ndarray,
    spec: GreenSpec,
    triple: LevyTriple,
    lat: Lattice,
    tol: float = 5e-3,
    recorder: Optional[list] = None,
) -> BridgeReport:
    """Position-space lattice value against the damped momentum quadrature.

    ``points`` is an (n, d) array of Euclidean points with strictly
    increasing times.  The left side is c_n times the lattice kernel-product
    integral; the right side integrates the momentum bracket against the
    damped exponential exp(-sum k0_l y0_l + i sum kvec_l yvec_l) on the
    total-momentum hyperplane.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if d != spec.dim:
        raise PreconditionError("points do not match the model dimension")
    # snap to exact lattice sites so both pipelines see the same configuration
    pts = np.round(pts / lat.spacing) * lat.spacing
    times = pts[:, 0]
    if not np.all(np.diff(times) > 0):
        raise PreconditionError("Euclidean times must be strictly increasing")
    cn = cumulant_coeff(n, triple)
    lhs = cn * kernel_product_integral(green_alpha_lattice(lat, spec), pts)

    min_gap = float(np.min(np.diff(times)))
    box = max(8.0 * spec.mass, 45.0 / min_gap)

    if n == 2 and spec.alpha == 0.5:
        m = spec.mass
        dt = times[1] - times[0]
        if d == 1:
            rhs = cn * math.exp(-m * dt) / (2 * m)
        else:
            dy = pts[0, 1] - pts[1, 1]

            def integrand(q):
                w = np.sqrt(q * q + m * m)
                return np.exp(-w * dt) * np.cos(q * dy) / (2 * w)

            val = line_quadrature(integrand, 0.0, box, (), 160)
            rhs = cn * float(val) / math.pi
    elif n == 2:
        if d != 1:
            raise PreconditionError("pair bridge with alpha < 1/2 kept to d = 1")
        m = spec.mass
        dt = times[1] - times[0]

        def integrand(k):
            return np.exp(k * dt) * np.abs(k * k - m * m) ** (-2 * spec.alpha)

        # Known defect, kept outside refine on purpose: for alpha in
        # (1/4, 1/2) this loop never meets its 1e-9 test and returns the
        # 4096-node value without raising.  The closed form is
        # Gamma(1 - 2 alpha) / sqrt(pi) (2 m / dt)^nu K_nu(m dt) with
        # nu = 1/2 - 2 alpha (see the strict-xfail test in test_wightman).
        npts, prev = 64, None
        for _ in range(7):
            cur = line_quadrature(integrand, -box, -m, (), npts)
            if prev is not None and abs(cur - prev) <= 1e-9 * max(1.0, abs(cur)):
                break
            prev = cur
            npts *= 2
        rhs = cn * math.sin(2 * math.pi * spec.alpha) * float(cur) / math.pi
    elif n == 3 and d == 1:
        def f(k1, k2, k3):
            return np.exp(-(k1 * times[0] + k2 * times[1] + k3 * times[2]))

        rhs = float(np.real(
            three_point_eval_1d(f, spec, triple, tol=1e-7, box=box,
                                recorder=recorder)
        ))
    elif n == 3 and d == 2:
        def f(k0s, k1s):
            expo = -np.tensordot(times, k0s, axes=(0, 0)) \
                + 1j * np.tensordot(pts[:, 1], k1s, axes=(0, 0))
            return np.exp(expo)

        rhs = float(np.real(
            three_point_eval_2d(f, spec, triple, tol=2e-3, energy_box=box,
                                recorder=recorder)
        ))
    else:
        raise PreconditionError("bridge implemented for n in {2, 3}, d <= 2")

    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    if recorder is not None:
        recorder.append(
            {"op": "laplace_bridge", "n": n, "dim": d, "lhs": lhs, "rhs": rhs,
             "gap": gap, "tolerance": tol, "history": []}
        )
    return BridgeReport(lhs=float(lhs), rhs=float(rhs), gap=float(gap))


# -- spectral support and clustering --------------------------------------------


def spectral_support_check(
    spec: GreenSpec,
    triple: LevyTriple,
    off_support: Sequence[TensorTestFunction],
    control: TensorTestFunction,
    tol: float = 1e-8,
) -> dict:
    """Largest |value| over off-support tests, with an on-support control.

    The off-support family must vanish on a neighbourhood of the admissible
    region (all partial energy sums in backward cones); the contract is that
    their evaluations stay below the quadrature tolerance while the control
    exceeds ten times it.
    """
    worst = 0.0
    for t in off_support:
        worst = max(worst, abs(truncated_momentum_eval(t, spec, triple, tol)))
    ctrl = abs(truncated_momentum_eval(control, spec, triple, tol))
    return {
        "max_off_support": worst,
        "control": ctrl,
        "tolerance": tol,
        "passed": bool(worst <= tol and ctrl > 10 * tol),
    }


def minkowski_translate(f: TestFunction, a, lam: float) -> TestFunction:
    """Momentum-space phase of a position translation by lam * a.

    Convention: each momentum factor picks up exp(i lam (kvec.avec - k0 a0)).
    """
    a = np.asarray(a, dtype=float)
    freq = np.concatenate([[-a[0]], a[1:]]) * lam
    return f.modulate(tuple(freq))


def cluster_decay(
    left: Sequence[TestFunction],
    right: Sequence[TestFunction],
    a,
    lambdas: Sequence[float],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-9,
) -> List[Tuple[float, float]]:
    """|truncated value| of left x (translated right) along a spacelike ray.

    Raises unless a is spacelike ((a0)^2 < |avec|^2); returns (lambda, |value|)
    rows.  Truncated functions must decay since the full functions factorize.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.dim,):
        raise PreconditionError("translation vector must have d components")
    if spec.dim == 1 or a[0] ** 2 >= np.sum(a[1:] ** 2):
        raise DomainError("translation vector must be spacelike")
    rows = []
    for lam in lambdas:
        factors = list(left) + [minkowski_translate(g, a, lam) for g in right]
        val = truncated_momentum_eval(
            TensorTestFunction(tuple(factors)), spec, triple, tol
        )
        rows.append((float(lam), abs(val)))
    return rows


# -- massless vector-model shell measures (three slots, d = 4) -------------------
#
# The quaternionic model's n-point distribution is a derivative combination of
# n + 1 positive-cone measures: an endpoint measure with slot 1 resolved off
# the light cones, n - 1 middle measures carrying an interpolation parameter s
# that slides the pinned energy between the backward shell of slot j and the
# forward shell of slot j + 1, and the mirrored endpoint measure.  Only the
# three-slot family is evaluated here; the bound constants for general n live
# with the certification code.


def _phi3(phi) -> Callable[[np.ndarray], np.ndarray]:
    """Adapter: callable on momentum stacks of shape (3, M, 4) -> (M,)."""
    if isinstance(phi, TensorTestFunction):
        if len(phi.factors) != 3 or phi.factors[0].dim != 4:
            raise PreconditionError("need three four-dimensional factors")

        def f(k):
            return phi(np.moveaxis(k, 0, -2))

        return f
    return phi


def _slot_caps(phi) -> float:
    if isinstance(phi, TensorTestFunction):
        return max(
            float(abs(np.asarray(g.center)).max()) + _effective_radius(g)
            for g in phi.factors
        )
    return 12.0


def _radial_vectors(la, lb, om):
    """Representative spatial vectors with |a| = la, |b| = lb, |a + b| = om."""
    c = np.clip((om * om - la * la - lb * lb) / (2 * la * lb), -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    za = np.zeros_like(la)
    va = np.stack([za, za, la], axis=-1)
    vb = np.stack([lb * s, np.zeros_like(lb), lb * c], axis=-1)
    return va, vb


def vector_measure_radial(
    j: int,
    phi,
    lam_max: Optional[float] = None,
    tol: float = 5e-3,
    multiplier: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> complex:
    """Three-slot shell measure against a rotation-invariant test function.

    Precondition (not checkable cheaply): phi(k1, k2, k3) must be invariant
    under simultaneous spatial rotations of all slots.  The angular integrals
    then reduce exactly, leaving smooth quadratures over the two free moduli,
    the resolved modulus on its triangle interval, and (for middle j) s:

    * j = 0:  -pi^2 integral dl2 dl3 dw phi / (l2 + l3 + w);
    * j = 3:  +pi^2 integral dl1 dl2 dw phi / (l1 + l2 + w);
    * j in {1, 2}: pi^2 integral dla dlb dw ds phi  (unit density).

    ``multiplier`` is an optional momentum-space factor (e.g. the transform of
    a first-order operator acting on the slots), evaluated on (3, 4, M) stacks.
    """
    if j not in (0, 1, 2, 3):
        raise PreconditionError("slot index j must lie in 0..3")
    f = _phi3(phi)
    cap = lam_max if lam_max is not None else _slot_caps(phi)

    def assemble(k1, k2, k3):
        k = np.stack([k1, k2, k3])
        vals = f(k)
        if multiplier is not None:
            vals = vals * multiplier(k)
        return vals

    def slot_vectors(L2, L3, OM, si=None):
        va, vb = _radial_vectors(L2, L3, OM)
        if j in (0, 3):
            e2, e3 = (L2, L3) if j == 0 else (-L2, -L3)
            kshell_a = np.concatenate([e2[..., None], va], axis=-1)
            kshell_b = np.concatenate([e3[..., None], vb], axis=-1)
            kres = np.concatenate(
                [(-(e2 + e3))[..., None], -(va + vb)], axis=-1
            )
            return (kres, kshell_a, kshell_b) if j == 0 else (
                kshell_a, kshell_b, kres)
        if j == 1:
            # free: slots 2 (modulus L2) and 3 (modulus L3, forward shell)
            k0_1 = -(OM * si + (L2 + L3) * (1 - si))
            k0_3 = L3
            k0_2 = -k0_1 - k0_3
            v2, v3 = va, vb
            v1 = -(v2 + v3)
        else:
            # free: slots 1 (backward shell) and 3; slot 2 resolved
            k0_1 = -L2
            k0_2 = -((L2 + OM) * si + L3 * (1 - si) - L2)
            k0_3 = -k0_1 - k0_2
            v1, v3 = va, vb
            v2 = -(v1 + v3)
        return (
            np.concatenate([k0_1[..., None], v1], axis=-1),
            np.concatenate([k0_2[..., None], v2], axis=-1),
            np.concatenate([k0_3[..., None], v3], axis=-1),
        )

    def value(npts: int) -> complex:
        # min/difference modulus coordinates: the resolved-modulus triangle
        # [|la - lb|, la + lb] has a derivative jump across la = lb, so the
        # plain modulus square converges only first order.  With v = min,
        # u = |difference| the limits are u and 2 v + u — smooth on the
        # rectangle — at the price of summing both assignments of (v, v + u).
        v, wv = gl_nodes(0.0, cap, npts)
        u, wu = gl_nodes(0.0, cap, npts)
        t, wt = gl_nodes(0.0, 1.0, max(12, npts // 2))
        V = v[:, None, None]
        U = u[None, :, None]
        W = (wv[:, None, None] * wu[None, :, None]) * wt[None, None, :]
        OM = U + (2.0 * V) * t[None, None, :]
        span = np.broadcast_to(2.0 * V, OM.shape)  # d omega = span dt
        pairs = (
            (np.broadcast_to(V, OM.shape), np.broadcast_to(V + U, OM.shape)),
            (np.broadcast_to(V + U, OM.shape), np.broadcast_to(V, OM.shape)),
        )

        if j in (0, 3):
            sgn = -1.0 if j == 0 else 1.0
            total = 0.0 + 0.0j
            for L2, L3 in pairs:
                flat = [np.reshape(q, (-1, 4))
                        for q in slot_vectors(L2, L3, OM)]
                vals = assemble(*flat).reshape(OM.shape)
                dens = span / (L2 + L3 + OM)
                total += np.sum(vals * dens * W)
            return sgn * math.pi**2 * complex(total)

        # middle measures: constant density pi^2 on the triangle x [0, 1]
        ns = max(10, npts // 3)
        snod, swt = gl_nodes(0.0, 1.0, ns)
        total = 0.0 + 0.0j
        for si, sw in zip(snod, swt):
            for L2, L3 in pairs:
                flat = [np.reshape(q, (-1, 4))
                        for q in slot_vectors(L2, L3, OM, si)]
                vals = assemble(*flat).reshape(OM.shape)
                total += sw * np.sum(vals * span * W)
        return math.pi**2 * complex(total)

    # the absolute floor: arguments supported away from the admissible
    # region integrate to numerical zero, where the relative residual is noise
    return refine(value, (40, 60, 90), tol, 1e-12, "vector_measure_radial")


def vector_measure_eval(
    j: int,
    phi,
    lam_max: Optional[float] = None,
    tol: float = 2e-2,
    multiplier: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> complex:
    """Three-slot shell measure for a general test function.

    Tensor quadrature over (modulus a, polar a, azimuth a, modulus b,
    resolved-modulus fraction, relative azimuth[, s]), chunked to bounded
    memory.  The second slot's relative polar angle is substituted by the
    modulus of the resolved spatial vector, whose Jacobian cancels the
    1/|a + b| factor of the measure exactly, so the integrand is smooth.
    For rotation-invariant arguments prefer :func:`vector_measure_radial`.
    """
    if j not in (0, 1, 2, 3):
        raise PreconditionError("slot index j must lie in 0..3")
    f = _phi3(phi)
    cap = lam_max if lam_max is not None else _slot_caps(phi)

    def value(npts) -> complex:
        nl, nt, na, ns = npts
        # min/difference modulus coordinates (see vector_measure_radial): the
        # triangle limits become u and 2 v + u, smooth on the rectangle, and
        # each grid point sums both assignments of (v, v + u) to the moduli.
        vax = gl_nodes(0.0, cap, nl)
        uax = gl_nodes(0.0, cap, nl)
        tax_nodes, tax_w = gl_nodes(0.0, math.pi, nt)
        tax = (tax_nodes, tax_w * np.sin(tax_nodes))
        aax = gl_nodes(0.0, 2 * math.pi, na)
        frax = gl_nodes(0.0, 1.0, nt)
        bax = gl_nodes(0.0, 2 * math.pi, na)
        axes = [vax, tax, aax, uax, frax, bax]
        if j in (1, 2):
            axes.append(gl_nodes(0.0, 1.0, ns))

        def fn(*cols):
            v, ta, aa, u, tt, bb = cols[:6]
            st, ct = np.sin(ta), np.cos(ta)
            sp, cp = np.sin(aa), np.cos(aa)
            na_hat = np.stack([st * cp, st * sp, ct], axis=-1)
            e1 = np.stack([ct * cp, ct * sp, -st], axis=-1)
            e2 = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
            tot = 2.0 * v + u
            om = u + (2.0 * v) * tt
            span = 2.0 * v
            out = 0.0
            for la, lb in ((v, v + u), (v + u, v)):
                cg = np.clip(
                    (om * om - la * la - lb * lb) / (2 * la * lb), -1, 1)
                sg = np.sqrt(np.maximum(0.0, 1 - cg * cg))
                va = la[..., None] * na_hat
                vb = lb[..., None] * (
                    sg[..., None] * (np.cos(bb)[..., None] * e1
                                     + np.sin(bb)[..., None] * e2)
                    + cg[..., None] * na_hat
                )
                if j == 0:
                    k1 = np.concatenate(
                        [(-tot)[..., None], -(va + vb)], axis=-1)
                    k2 = np.concatenate([la[..., None], va], axis=-1)
                    k3 = np.concatenate([lb[..., None], vb], axis=-1)
                elif j == 3:
                    k1 = np.concatenate([(-la)[..., None], va], axis=-1)
                    k2 = np.concatenate([(-lb)[..., None], vb], axis=-1)
                    k3 = np.concatenate(
                        [tot[..., None], -(va + vb)], axis=-1)
                elif j == 1:
                    s = cols[6]
                    k0_1 = -(om * s + tot * (1 - s))
                    k0_3 = lb
                    k0_2 = -k0_1 - k0_3
                    k1 = np.concatenate([k0_1[..., None], -(va + vb)], axis=-1)
                    k2 = np.concatenate([k0_2[..., None], va], axis=-1)
                    k3 = np.concatenate([k0_3[..., None], vb], axis=-1)
                else:
                    s = cols[6]
                    k0_1 = -la
                    k0_2 = -((la + om) * s + lb * (1 - s) - la)
                    k0_3 = -k0_1 - k0_2
                    k1 = np.concatenate([k0_1[..., None], va], axis=-1)
                    k2 = np.concatenate([k0_2[..., None], -(va + vb)], axis=-1)
                    k3 = np.concatenate([k0_3[..., None], vb], axis=-1)
                k = np.stack([k1, k2, k3])
                vals = f(k)
                if multiplier is not None:
                    vals = vals * multiplier(k)
                out = out + vals
            if j in (0, 3):
                dens = span / (8 * (tot + om))
                if j == 0:
                    dens = -dens
            else:
                dens = span / 8.0
            return out * dens

        return tensor_blocks(axes, fn)

    # (modulus, angle, azimuth, s) node counts; the second round is 1.4x
    return refine(value, ((12, 7, 7, 7), (16, 9, 9, 9)), tol, 1e-12,
                  "vector_measure_eval")


def reflect_three_slot(phi: TensorTestFunction) -> TensorTestFunction:
    """phi'(k1, k2, k3) = phi(-k3, -k2, -k1): slot reversal with negation."""
    flipped = tuple(g.flip() for g in reversed(phi.factors))
    return TensorTestFunction(flipped, phi.prefactor)
