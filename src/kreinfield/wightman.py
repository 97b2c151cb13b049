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
  integral (the Laplace bridge needs only its transform, the free two-point
  function, which it takes in closed form);
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
from dataclasses import dataclass
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
    collect,
    emit,
    folded_gl_nodes,
    gl_nodes,
    gregory_nodes,
    line_quadrature,
    phase_sums,
    refine,
    sine_nodes,
    sine_rule,
    tanh_sinh_nodes,
    tensor_blocks,
)
from .schwinger import kernel_product_integral
from .testfunctions import TensorTestFunction, TestFunction, poly_mul

Branch = str  # "+", "-", "0"


# -- branch densities ---------------------------------------------------------


def _shell_power(msq, alpha: float):
    """|msq|^(-alpha) for msq = k^2 - m^2, set to 0 where msq == 0.

    Exact shell hits only occur at zero-weight quadrature nodes; returning 0
    there keeps inf/nan out of the node tensors (pointwise API raises instead).
    """
    msq = np.asarray(msq)
    out = np.empty(msq.shape)
    np.abs(msq, out=out)
    with np.errstate(divide="ignore"):
        out **= -alpha
    out[msq == 0] = 0.0
    return out


def _density_arrays(k0, kv_sq, spec: GreenSpec, branches: Sequence[Branch]):
    """Vectorized branch densities, one array per entry of ``branches``.

    Each is zero on the wrong side of its indicators; the shell power is
    computed once for all of them.
    """
    k0 = np.asarray(k0, dtype=float)
    kv_sq = np.asarray(kv_sq, dtype=float)
    msq = k0 * k0 - kv_sq - spec.mass**2  # Minkowski k^2 - m^2
    amag = _shell_power(msq, spec.alpha)
    pref = (2 * math.pi) ** (-spec.dim / 2)
    out = []
    for branch in branches:
        if branch == "+":
            out.append(pref * math.sin(math.pi * spec.alpha) * np.where(
                (msq > 0) & (k0 > 0), amag, 0.0))
        elif branch == "-":
            out.append(pref * math.sin(math.pi * spec.alpha) * np.where(
                (msq > 0) & (k0 < 0), amag, 0.0))
        elif branch == "0":
            both = np.where(msq > 0, math.cos(math.pi * spec.alpha), 0.0) \
                + np.where(msq < 0, 1.0, 0.0)
            out.append(pref * both * amag)
        else:
            raise DomainError(f"unknown branch {branch!r}")
    return out


def spectral_density(k, spec: GreenSpec, branch: Branch) -> float:
    """Pointwise branch density at the Minkowski momentum k = (k0, kvec).

    Raises on the mass shell, where the density is singular.

    Check: test_density_branch_values and test_density_guards, the
    pointwise reference of the vectorized branch densities.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (spec.dim,):
        raise PreconditionError("momentum must have d components")
    kv_sq = float(np.sum(k[1:] ** 2))
    if k[0] ** 2 - kv_sq == spec.mass**2:
        raise SingularConfigurationError("momentum lies exactly on the mass shell")
    return float(_density_arrays(k[0], kv_sq, spec, (branch,))[0])


def bracket_scalar(k0s: np.ndarray, kv_sqs: np.ndarray, spec: GreenSpec) -> np.ndarray:
    """sum_j prod_{l<j} rho^-(k_l) rho^0(k_j) prod_{l>j} rho^+(k_l).

    ``k0s`` and ``kv_sqs`` have shape (n, M): n momentum slots, M samples.
    """
    n = k0s.shape[0]
    minus, zero, plus = _density_arrays(k0s, kv_sqs, spec, "-0+")
    out = np.zeros(k0s.shape[1:])
    pref = np.ones(k0s.shape[1:])
    for j in range(n):
        suff = np.ones(k0s.shape[1:])
        for l in range(j + 1, n):
            suff = suff * plus[l]
        out = out + pref * zero[j] * suff
        pref = pref * minus[j]
    return out


# -- n = 2 evaluators -----------------------------------------------------------


def two_point_shell_eval(
    test: TensorTestFunction,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-10,
) -> complex:
    """Pair distribution at alpha = 1/2: the free-shell integral.

    Value = 2 pi c2 * integral over the spatial momentum of
    f((-w, q), (w, -q)) / (2 w), with w the shell energy of q; in d = 1 the
    shell is the single point q = (), leaving c2 pi f(-m, m) / m.  In d = 2
    the q-line, split at q = 0, is refined to ``tol``.
    """
    if spec.alpha != 0.5:
        raise PreconditionError("shell evaluator applies at alpha = 1/2 only")
    if not (isinstance(test, TensorTestFunction) and test.n_points == 2):
        raise PreconditionError("need a two-slot tensor test function")
    m = spec.mass
    pref = 2 * math.pi * cumulant_coeff(2, triple)
    if spec.dim == 1:
        val = pref * test(np.array([[-m], [m]])).item() / (2 * m)
        _emit_closed_form(val)
        return val
    if spec.dim != 2:
        raise PreconditionError("shell evaluator implemented for d <= 2")
    kmax = min(60.0 * max(1.0, m), max(
        abs(np.asarray(g.center)).max() + g.effective_radius()
        for g in test.factors))

    def integrand(q):
        w = np.sqrt(q * q + m * m)
        k1 = np.stack([-w, q], axis=-1)
        k2 = np.stack([w, -q], axis=-1)
        return test(np.stack([k1, k2], axis=-2)) / (2 * w)

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: pref * complex(
            line_quadrature(integrand, -kmax, kmax, (0.0,), npts)),
        [64 << k for k in range(8)], tol, tol * abs(pref), "two_point_shell")


def _emit_closed_form(val: complex) -> None:
    """The one-row record of a pair value in closed form, residual 0."""
    emit({"op": "two_point_shell", "value": [val.real, val.imag],
          "tolerance": 0.0, "history": [[1, val.real, val.imag]],
          "residual": 0.0})


def two_point_density_eval(
    test: TensorTestFunction,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-8,
) -> complex:
    """Pair distribution for alpha < 1/2: honest density quadrature.

    On the hyperplane k2 = -k1 the bracket collapses to
    (2 pi)^(-d) sin(2 pi alpha) 1_{k^2 > m^2, k0 < 0} |k^2 - m^2|^(-2 alpha);
    the prefactor c2 * 2^(n-1) * (2 pi)^d then cancels the (2 pi)^(-d).
    Each k0-line [-kmax, -w] ends on the shell, so it gets a tanh-sinh rule
    built from the distance to it (a sine map leaves the singularity in
    place for alpha > 1/4).  In d = 2 one call evaluates every k0-line, one
    per spatial node q.
    """
    if not spec.alpha < 0.5:
        raise PreconditionError("density route needs alpha < 1/2")
    if not (isinstance(test, TensorTestFunction) and test.n_points == 2):
        raise PreconditionError("need a two-slot tensor test function")
    m = spec.mass
    c2 = cumulant_coeff(2, triple)
    scale = 2 * c2 * math.sin(2 * math.pi * spec.alpha)
    kmax = 40.0 * max(1.0, m)

    def lines(w, q, npts):
        # the k0-line [-kmax, -w] for each shell energy w and its spatial
        # momentum q (one column per spatial axis), on npts nodes; the
        # tanh-sinh rule gives the distance d = -w - k0 to the shell, where
        # the density |k0^2 - w^2|^(-2 alpha) is singular
        _, d, wk = tanh_sinh_nodes(-kmax, -w, npts)
        w = w[:, None]
        k0 = -w - d
        k1 = np.stack([k0, *(np.broadcast_to(c[:, None], k0.shape) for c in q)],
                      axis=-1)
        val = test(np.stack([k1, -k1], axis=-2))
        return np.sum(val * (d * (2.0 * w + d)) ** (-2 * spec.alpha) * wk, axis=-1)

    if spec.dim == 1:
        # one line, at the shell energy m
        def integral(npts):
            return lines(np.array([m]), (), npts)[0]

        schedule = [48 << k for k in range(8)]
    elif spec.dim == 2:
        # one line per spatial node q, on the outer round's node count;
        # beyond |q| = qmax the shell energy w(q) passes kmax and the line
        # is empty
        qmax = math.sqrt(kmax * kmax - m * m)

        def integral(npts):
            return line_quadrature(lambda q: lines(np.sqrt(q * q + m * m), (q,), npts),
                                   -qmax, qmax, (0.0,), npts)

        schedule = [32 << k for k in range(6)]
    else:
        raise PreconditionError("pair density implemented for d <= 2")

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: scale * complex(integral(npts)),
        schedule, tol, tol * abs(scale), "two_point_density")


# -- n = 3 hyperplane quadratures ----------------------------------------------


def three_point_eval_1d(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-6,
    box: float = 40.0,
) -> complex:
    """Three-slot evaluation in d = 1: 2-d split quadrature on k3 = -k1 - k2.

    ``f(k1, k2, k3)`` must be vectorized over arrays of any common leading
    shape; it is called once per outer piece with arrays of shape
    (npts, 5, 32): every outer k1-node's five inner k2-intervals of 32 nodes.
    The integration box is the support rectangle k1 in [-box, -m],
    k2 in [-box, box] intersected with the slot indicators; interval splits
    sit on every mass-shell line.
    """
    if spec.dim != 1:
        raise PreconditionError("1-d evaluator")
    m = spec.mass
    c3 = cumulant_coeff(3, triple)
    pref = c3 * 4 * (2 * math.pi) ** (1 - 1.5)

    def outer(k1):
        # the four shell cuts of each outer node, clipped to the box and
        # sorted, split [-box, box] into its five k2-intervals; a clipped or
        # repeated cut leaves a zero-width interval, which sine_nodes gives
        # zero weight
        edges = np.sort(np.clip(np.stack(
            [np.full_like(k1, c) for c in (-box, -m, m, box)] + [-k1 - m, -k1 + m],
            axis=-1), -box, box), axis=-1)
        k2, w = sine_nodes(edges[:, :-1], edges[:, 1:], 32)  # (npts, 5, 32)
        k1s = np.broadcast_to(k1[:, None, None], k2.shape)
        k3 = -k1[:, None, None] - k2
        k0s = np.stack([k1s, k2, k3])
        br = bracket_scalar(k0s, np.zeros_like(k0s), spec)
        parts = np.sum(f(k1s, k2, k3) * br * w, axis=-1)
        # add the intervals in ascending order, as a line integral per node
        # would; the outer sum stays complex even when f is real
        out = np.zeros(len(k1), dtype=complex)
        for j in range(parts.shape[1]):
            out += parts[:, j]
        return out

    # the absolute floor tol applies to the integral before the prefactor
    return refine(
        lambda npts: pref * complex(
            line_quadrature(outer, -box, -m, (-2 * m,), npts)),
        (24, 36, 54, 81, 121, 181), tol, tol * abs(pref), "three_point_1d")


def _bracket3_coefficients(spec: GreenSpec) -> Tuple[float, float, float]:
    """Three-slot bracket over P1 P2 P3 on the level-4 intervals of the d = 2 route.

    With slot 1 backward-timelike and slot 3 forward-timelike, the bracket
    is a coefficient times P1 P2 P3, P_l = |k_l^2 - m^2|^(-alpha), when slot 2 is
    backward-timelike, spacelike or forward-timelike: pref^3 times
    (2 s^2 c, s^2, 2 s^2 c) with pref = (2 pi)^(-d/2), s = sin(pi alpha) and
    c = cos(pi alpha), written sin(pi (1/2 - alpha)) so that it is exactly
    0.0 at alpha = 1/2.
    """
    pref = (2 * math.pi) ** (-spec.dim / 2)
    s = math.sin(math.pi * spec.alpha)
    c = math.sin(math.pi * (0.5 - spec.alpha))
    timelike = pref**3 * 2 * s * s * c
    return timelike, pref**3 * s * s, timelike


# level-3 entries (outer node, x2, interval, x3) per chunk of outer nodes of
# three_point_eval_2d, whose levels 1-3 are built as arrays over the chunk.
# 2^12 (7 and 3 outer nodes on the bridge's two rounds) keeps bridge-d2's peak
# RSS at the per-node evaluator's; 2^13 raised it by 0.5 MiB and ran no faster
_LEVEL3_BUDGET = 1 << 12


def three_point_eval_2d(
    points: np.ndarray,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 5e-3,
    energy_box: float = 25.0,
) -> float:
    """The Laplace bridge's three-slot value in d = 2: nested 4-d quadrature.

    ``points`` is a (3, 2) array of Euclidean points (t_l, y_l) with
    non-decreasing times; the integrand is the damped exponential
    exp(-sum t_l k_l0 + i sum y_l k_l1) on the hyperplane k3 = -k1 - k2.
    The outer level walks the first slot's energy k10; for each outer node
    the remaining three levels (first slot space, second slot space, second
    slot energy) form a grid of n2 level-2 nodes, two level-3 intervals of
    n3 nodes and K level-4 intervals of n4 nodes.  Interval endpoints are
    pinned to the mass shells and crushed by the sine substitution.  On the
    support every partial energy sum is below -m, which closes all boxes
    once combined with ``energy_box``, which must be finite and above m.

    The branch of every slot is fixed on each level-4 interval: slot 1 is
    backward-timelike (|k11| < sqrt(k10^2 - m^2)) and slot 3
    forward-timelike (k30 >= om3 because k20 <= top) on the whole box, and
    slot 2 is backward-timelike, spacelike and forward-timelike on
    [bot, c1], [c1, c2] and [c2, top].  The bracket there is one constant
    coefficient (``_bracket3_coefficients``) times the three slots' shell
    powers |k_l^2 - m^2|^(-alpha): slot 1's, which depends on level 2
    alone, times |msq2 msq3|^(-alpha) on the level-4 grid, so no branch
    masks are needed.  At alpha = 1/2 the two timelike coefficients are
    exactly 0.0, those intervals get no nodes and only the spacelike
    interval is integrated.

    The reflection k1 -> -k1 of all three spatial components maps the grid
    exactly onto itself: level-2 node i2 goes to n2 - 1 - i2 (the sine nodes
    are exactly antisymmetric), level-3 interval j to 1 - j and node i3 to
    n3 - 1 - i3, and the energies, shell powers and weights are the same at
    the image, bit for bit.  Only the phase y.k1 changes sign there, so each
    mirror pair contributes density times 2 cos(y1 k11 + y2 k21 + y3 k31).
    The grid therefore lives on the upper half i2 >= n2 // 2 of level 2, in
    real arithmetic; the middle node x2 = 0 of an odd n2 is its own image
    and carries half its density.  With k30 = -k10 - k20 the damping is
    exp((t3 - t1) k10 + (t3 - t2) k20), formed as one exponent: it is <= 0
    on the support, where k20 <= -k10 - om3, while the second term alone
    can exceed the float range when the times are widely spaced.

    Levels 1-3 are built as arrays over chunks of outer nodes, at most
    ``_LEVEL3_BUDGET`` level-3 entries a chunk: the level-2 and level-3
    nodes and weights, the level-4 interval ends, the shell squares
    x3^2 + m^2 and k31^2 + m^2, slot 1's shell power and the cosine of the
    phase.  Level 4 runs per outer node in buffers allocated once per
    round, and folds the shell power of slots 2 and 3 into the damping's
    exponential, exp((t3 - t2) k20 + (t3 - t1) k10 - alpha log|msq2 msq3|)
    with msq_l = k_l^2 - m^2 built against the shell squares: a log in
    place of a general power (36 us against 90 us on round 2's 31k floats,
    2-vCPU Xeon).  Where msq2 msq3 == 0 (an exact shell hit, at a
    zero-weight node) the density is set to 0.
    """
    if spec.dim != 2:
        raise PreconditionError("2-d evaluator")
    pts = np.asarray(points, dtype=float)
    if pts.shape != (3, 2) or not np.all(np.diff(pts[:, 0]) >= 0):
        raise PreconditionError("three (t, y) points with non-decreasing times")
    (t1, y1), (t2, y2), (t3, y3) = pts
    m = spec.mass
    if not (math.isfinite(energy_box) and energy_box > m):
        raise PreconditionError("energy_box must be finite and above the mass")
    alpha = spec.alpha
    c3 = cumulant_coeff(3, triple)
    pref = c3 * 4 * (2 * math.pi) ** (2 - 3)
    coefs = _bracket3_coefficients(spec)
    keep = [i for i, c in enumerate(coefs) if c != 0.0]
    coef = np.array([coefs[i] for i in keep])

    def value(npts4) -> float:
        n1, n2, n3, n4 = npts4
        s4, c4 = sine_rule(n4)
        h2 = n2 - n2 // 2  # level-2 nodes on the upper half
        # level-4 work arrays, written in place at every outer node
        work = np.empty((3, h2, 2, n3, len(keep), n4))
        step = max(1, _LEVEL3_BUDGET // (h2 * 2 * n3))  # outer nodes per chunk

        def level4(k10, half, mid, sq2, sq3):
            # density times damping on one outer node's level-4 grid, summed
            # against the level-4 weights: with msq_l = k_l^2 - m^2,
            # exp((t3 - t2) k20 + (t3 - t1) k10 - alpha log|msq2 msq3|),
            # set to 0 on a shell (msq == 0), where the weight is 0
            k20, msq, dens = work
            np.multiply(half, s4, out=k20)
            k20 += mid
            np.multiply(k20, k20, out=msq)
            msq -= sq2
            np.subtract(-k10, k20, out=dens)  # k30
            dens *= dens
            dens -= sq3
            msq *= dens
            np.abs(msq, out=dens)
            np.log(dens, out=dens)
            dens *= -alpha
            k20 *= t3 - t2
            k20 += (t3 - t1) * k10
            dens += k20
            np.exp(dens, out=dens)
            dens[msq == 0] = 0.0
            return dens @ c4

        def levels23(k10):
            # levels 2-3 of a chunk of outer nodes, as arrays over (node, x2,
            # interval, x3); level 2 is the first slot's spatial component on
            # (-lim, lim), upper half, where x2 >= 0
            lim = np.sqrt(np.maximum(k10 * k10 - m * m, 0.0))
            x2, w2 = sine_nodes(-lim, lim, n2)
            x2, w2 = x2[:, n2 // 2:], w2[:, n2 // 2:]
            # level 3: second slot's spatial component, split where k3 space
            # flips
            smax = x2 + energy_box
            x3, w3 = sine_nodes(np.stack([-smax, -x2], axis=-1),
                                np.stack([-x2, smax], axis=-1), n3)
            k31 = -x2[..., None, None] - x3
            # level 4: second slot's energy between the shells, on the kept
            # intervals of [bot, c1], [c1, c2], [c2, top]
            ends = np.empty(x3.shape + (4,))
            bot, c1, c2, top = np.moveaxis(ends, -1, 0)
            bot[...] = (-k10 - energy_box)[:, None, None, None]
            np.subtract(-k10[:, None, None, None], np.hypot(k31, m), out=top)
            om2 = np.hypot(x3, m)
            np.clip(-om2, bot, top, out=c1)
            np.clip(om2, c1, top, out=c2)
            lo4 = ends[..., keep]
            hi4 = ends[..., [i + 1 for i in keep]]
            half = 0.5 * np.maximum(hi4 - lo4, 0.0)
            # the shell squares x3^2 + m^2 and k31^2 + m^2
            sq2 = (x3 * x3 + m * m)[..., None, None]
            sq3 = (k31 * k31 + m * m)[..., None, None]
            # each level-4 interval's weight: the coefficient, half its width,
            # slot 1's shell power, the weights of levels 2-3 and the cosine
            # of the mirror pair's phase
            p1 = _shell_power((k10 * k10)[:, None] - x2 * x2 - m * m, alpha)
            weight = np.cos(y1 * x2[..., None, None] + y2 * x3 + y3 * k31)
            weight *= w3
            weight *= (p1 * w2)[..., None, None]
            if n2 % 2:
                # the middle node x2 = 0 is its own image, so it is paired
                # twice
                weight[:, 0] *= 0.5
            return (half[..., None], (0.5 * (hi4 + lo4))[..., None], sq2, sq3,
                    (half * coef) * weight[..., None])

        def level1(p0):
            out = np.zeros(len(p0))
            for start in range(0, len(p0), step):
                k10 = p0[start:start + step]
                half, mid, sq2, sq3, weight = levels23(k10)
                for i, k in enumerate(k10):
                    sums = level4(k, half[i], mid[i], sq2[i], sq3[i])
                    sums *= weight[i]
                    out[start + i] = 2.0 * float(sums.sum())
            return out

        with np.errstate(divide="ignore"):  # log 0 on a shell
            return pref * float(
                line_quadrature(level1, -energy_box, -m, (-2 * m,), n1))

    # node counts per level grow by 1.4 a round
    schedule = ((40, 20, 28, 20), (56, 28, 39, 28), (78, 39, 54, 39),
                (109, 54, 75, 54))
    return refine(value, schedule, tol, 0.0, "three_point_2d")


# -- factorized evaluator for tensor arguments ----------------------------------


def _osc_npts(amax: float, krange: float) -> int:
    # Gauss-Legendre tracks exp(i a k) once the node count clears the phase
    # half-bandwidth amax*krange/2; the margin covers the transition region
    # before the Bessel-coefficient tail sets in.  The a-axes of
    # factorized_eval take the same count for their equispaced Gregory rule,
    # ~1.7 times the Nyquist count amax*krange/pi, so aliasing is negligible
    # and the order-8 end correction sets the error (order 6 misses a pinned
    # value by 2.6e-12); phase_sums then builds the phases a*k0 by angle
    # addition, each within (4 delta + 2u max|a|) |k0| + 5u.
    return int(0.54 * amax * krange) + 24


_GAP = 0.5 * math.pi - 1e-12  # |u| bound of the gap substitution k0 = w sin u


def _energy_sums(es: Sequence[TestFunction], a: np.ndarray, w: np.ndarray, nt: int,
                 expo: float,
                 tmax: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """(B+, B-), each of shape (len(a), len(es), len(w)), with

        B+-[i, r, c] = sum_t exp(+-i a_i k0) e_r(+-k0) jac w_t

    for the 1-D energy factors e_r.  The energy k0[t, c] runs over one
    smooth-substituted piece of the branch support at each w_c: in d = 1
    w = [m], in d = 2 w_c = sqrt(q_c^2 + m^2) on the half q >= 0 of the
    q-rule.  With ``tmax``: the cosh piece k0 = w cosh t, t in (0, tmax],
    with jac = (w sinh t)^expo, whose two signs are the forward and the
    backward shell regions.  Without it: the gap piece k0 = w sin u,
    |u| < pi/2, with jac = (w cos u)^expo; k0 is odd and jac even in u, so
    the piece is folded onto u >= 0 and equals B+ + B-.  The grid is shared
    by all the factors e_r, so the 2 len(es) bodies share one phase_sums call
    on the len(w) columns of k0.
    """
    if tmax is None:
        u, wu = folded_gl_nodes(_GAP, nt)
        u = u[:, None]
        k0, jac = w * np.sin(u), (w * np.cos(u)) ** expo
    else:
        u, wu = gl_nodes(1e-12, tmax, nt)
        u = u[:, None]
        k0, jac = w * np.cosh(u), (w * np.sinh(u)) ** expo
    weight = jac * wu[:, None]
    bodies = np.stack([e(s * k0[..., None]) * weight for s in (1.0, -1.0) for e in es])
    p, qs = phase_sums(a, k0, bodies)
    qs[:len(es)] *= 1j
    qs[len(es):] *= -1j
    p += qs
    # (energy sign, r, i, c) -> (energy sign, i, r, c), a view
    p = p.reshape(2, len(es), len(a), -1).transpose(0, 2, 1, 3)
    return p[0], p[1]


def _combine_branches(plus, minus, inside, alpha: float) -> np.ndarray:
    """The +, - and 0 branches, stacked, from the unscaled cosh pieces and the gap piece.

    The two-sided branch reuses both cosh pieces, scaled by cos(pi alpha)
    instead of sin(pi alpha); at alpha = 1/2 it is the gap piece alone.
    Each branch is written straight into the stack, with no temporaries.
    """
    sa, ca = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    out = np.empty((3,) + plus.shape, dtype=complex)
    np.multiply(plus, sa, out=out[0])
    np.multiply(minus, sa, out=out[1])
    if abs(ca) > 1e-15:
        np.add(plus, minus, out=out[2])
        out[2] *= ca
        out[2] += inside
    else:
        out[2] = inside
    return out


def _branch_transforms(gs: Sequence[TestFunction], spec: GreenSpec, mult: float,
                       ax0: np.ndarray, ax1: Optional[np.ndarray] = None):
    """The branch transforms A_b[l](a) = integral rho_b(k) g_l(k) e^{i a.k} dk
    for b in "+-0", as (bm, mq, cols) with

        A_b[l][i, j] = bm[b, i, cols[l]] @ mq[cols[l], j],

    i and j running over the a0- and a1-nodes (j over one node in d = 1,
    where there is no ``ax1``).  Each factor is split by
    :meth:`~kreinfield.testfunctions.TestFunction.axis_split` into terms
    e_r(k0) R_r(q); the energy sums run on the factors e_r of all terms, and
    bm holds them, stacked by branch, at every a0-node and every column c
    of the half q >= 0 of the mirror-symmetric q-rule: the energies depend
    on q^2 only.  Row r len(w) + c of mq is term r's q-contraction

        M_r[c, j] = v_c / (2 pi) * (R_r(q_c) e^{i q_c a1_j}
                                    + R_r(-q_c) e^{-i q_c a1_j}),

    with v_c the q-rule's weight, so the product sums both signs of q, and
    the q = 0 node of an odd rule, at half weight, counts once.  cols[l]
    selects factor l's terms, so the product also sums them.  In d = 1 the
    energies sit at w = m alone and mq is the constant (2 pi)^(-1/2).  All
    factors share one energy and spatial grid, sized by the largest spatial
    and energy support edge over the factors.
    """
    m = spec.mass
    expo = 1 - 2 * spec.alpha
    k0cap = max(abs(g.center[0]) + g.effective_radius() for g in gs)
    a0max = float(np.max(np.abs(ax0)))
    splits = [g.axis_split() for g in gs]
    es = [e for terms in splits for e, _ in terms]
    if ax1 is None:
        qmax, w = 0.0, np.array([m])
        mq = np.full((len(es), 1), (2 * math.pi) ** -0.5, dtype=complex)
    else:
        qmax = max(abs(g.center[1]) + g.effective_radius() for g in gs)
        a1max = float(np.max(np.abs(ax1)))
        q, wq = folded_gl_nodes(qmax, int(_osc_npts(a1max, 2 * qmax) * mult))
        w = np.sqrt(q * q + m * m)
        phase1 = np.exp(1j * np.outer(q, ax1))
        wq = (wq / (2 * math.pi))[:, None]
        mq = np.concatenate([wq * (rr(q[:, None])[:, None] * phase1
                                   + rr(-q[:, None])[:, None] * phase1.conj())
                             for terms in splits for _, rr in terms])
    tmax = max(0.25, math.acosh(max(1.0 + 1e-9, k0cap / m)))
    plus, minus = _energy_sums(
        es, ax0, w, int(_osc_npts(a0max, max(k0cap - m, 2 * m)) * mult), expo, tmax)
    inside = sum(_energy_sums(
        es, ax0, w, int(_osc_npts(a0max, 2 * math.sqrt(qmax * qmax + m * m)) * mult),
        expo))
    bm = _combine_branches(plus, minus, inside, spec.alpha)
    edges = np.cumsum([0] + [len(terms) * len(w) for terms in splits])
    return (bm.reshape(3, len(ax0), -1), mq,
            [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])


# complex entries of the per-chunk transform buffer of _pairing_integral
_PAIRING_BUDGET = 1 << 17


def _pairing_integral(bm: np.ndarray, mq: np.ndarray, cols: Sequence[slice],
                      aw0: np.ndarray, aw1: np.ndarray) -> complex:
    """integral da sum_j prod_l A^{b(l, j)}_l(a) on the a-rule with weights
    aw0 x aw1, for the transforms of :func:`_branch_transforms`.

    b(l, j) is - for l < j, 0 for l = j and + for l > j, so factor 0's
    + transform and factor n - 1's - transform are never read, and never
    formed.  The transforms are formed and paired in chunks of a0-rows,
    with at most ``_PAIRING_BUDGET`` entries of transforms per chunk, so no
    full table of them is ever built.
    """
    n, na1 = len(cols), mq.shape[1]
    reads = {0: range(1, n), 1: range(n - 1), 2: range(n)}  # by branch "+-0"
    step = max(1, _PAIRING_BUDGET // (3 * n * na1))
    trans = np.empty((3, n, min(step, len(aw0)), na1), dtype=complex)
    total = 0j
    for s in range(0, len(aw0), step):
        rows = slice(s, min(s + step, len(aw0)))
        tab = trans[:, :, :rows.stop - s]
        for b, factors in reads.items():
            for l in factors:
                np.matmul(bm[b, rows, cols[l]], mq[cols[l]], out=tab[b, l])
        pair = 0.0
        for j in range(n):
            prod = tab[2, j]
            for l in range(n):
                if l != j:
                    prod = prod * tab[1 if l < j else 0, l]
            pair = pair + prod
        total += (pair @ aw1) @ aw0[rows]
    return total


def factorized_eval(
    test: TensorTestFunction,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: float = 1e-3,
) -> complex:
    """n-point value for tensor arguments via the auxiliary-vector route.

    Writing the momentum delta as (2 pi)^{-d} times a Fourier integral over
    an auxiliary a in R^d turns the n-point pairing into

        c_n 2^(n-1) * integral da sum_j prod_l A^{branch(l,j)}_l(a),

    with A^b_l the smooth branch transform of the l-th factor.  All factors'
    transforms are evaluated on one shared energy/spatial grid, so one phase
    evaluation per energy piece (:func:`~kreinfield.quadrature.phase_sums`)
    serves every factor and branch: the - branch is the + branch with
    k0 -> -k0, the two-sided branch reuses both cosh pieces for
    alpha < 1/2, and its gap piece is odd in k0 and folds onto half its
    grid.  In d = 2 each factor is split into terms e_r(k0) R_r(q) (one for
    a Gaussian packet, see
    :meth:`~kreinfield.testfunctions.TestFunction.axis_split`); the energy
    sums run on the e_r alone, on the half q >= 0 of the mirror-symmetric
    Gauss-Legendre q-rule, since the energies depend on q^2 only, and the
    R_r(+-q) join in the q-contraction.  A round makes two phase_sums calls
    whatever n, each with 2 T bodies for the T terms of all factors: 2 n
    for Gaussian packets, and always in d = 1.  The transforms are formed
    and paired in chunks of a0-rows (:func:`_pairing_integral`), so their
    full (3, n, na0, na1) table is never built, and factor 0's + and
    factor n - 1's - transforms, which the pairing never reads, are not
    formed.

    Every a-axis takes :func:`~kreinfield.quadrature.gregory_nodes`, an
    equispaced and exactly antisymmetric rule with order-8 Gregory end
    corrections: on the three values pinned in the tests a plain trapezoid
    rule is up to 5.2e-9 off and order 6 up to 2.6e-12 (d = 2,
    alpha = 0.35), order 8 within 1.5e-13 of each.  On it phase_sums
    evaluates cos and sin only on about 2 sqrt(nh) baby and giant phases of
    the nh non-negative nodes and builds the rest by angle addition, each
    entry within (4 delta + 2u a_box) |k| + 5u of exp(i a k) (delta < 2 ulp
    of a_box, u = 2^-53): about 5e-13 at a_box = 14 and |k| = 30.  The
    energy u-rules and the q-rule stay Gauss-Legendre.

    The products decay like |a|^(-n) (d = 2) or |a|^(-n/2) (d = 1), so the
    a-integral converges absolutely for n >= 3.  Node counts per axis follow
    the phase bandwidth a_box * (momentum support), with a_box = 60 (d = 1)
    or 14 (d = 2), which is what makes the transforms reliable at large
    auxiliary distances; the refinement loop then only has to confirm
    stability.  ``refine`` cannot see the tail beyond a_box, since no round
    moves a_box, and that tail is not below every tolerance a caller may pass:
    in d = 1 (alpha = 1/2, the tests' ``FACTORIZED_D1``) the value is
    ~1.5e-6 relative low against the hyperplane route and larger boxes, so
    a tol below ~1e-5 is accepted but not met; in d = 2 (``FACTORIZED_D2``)
    widening the box to 21 and 28 moves the value by 2e-6 and 3e-6.
    """
    n = len(test.factors)
    if n < 3:
        raise PreconditionError("factorized route needs n >= 3")
    if spec.dim not in (1, 2):
        raise PreconditionError("implemented for d <= 2")
    cn = cumulant_coeff(n, triple)
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
        return sum(abs(g.center[axis]) + 0.55 * g.effective_radius()
                   for g in test.factors)

    def value(mult: float) -> complex:
        (ax0, aw0), *rest = [
            gregory_nodes(-a_box, a_box,
                          int(_osc_npts(bandwidth(axis), 2 * a_box) * mult))
            for axis in range(spec.dim)]
        bm, mq, cols = _branch_transforms(test.factors, spec, mult, ax0,
                                          *(a for a, _ in rest))
        aw1 = rest[0][1] if rest else np.ones(1)
        return pref * (_pairing_integral(bm, mq, cols, aw0, aw1) * test.prefactor)

    # the schedule scales the oscillation node budgets; the absolute floor
    # 1e-12 applies to the integral before the prefactor
    return refine(value, (1.0, 1.3, 1.69), tol, 1e-12 * abs(pref),
                  "factorized_eval")


# -- dispatcher -----------------------------------------------------------------


def truncated_momentum_eval(
    test: TensorTestFunction,
    spec: GreenSpec,
    triple: LevyTriple,
    tol: Optional[float] = None,
) -> complex:
    """Truncated n-point momentum distribution applied to a tensor test function.

    The route follows n and d: the pair evaluators for n = 2, the d = 1
    hyperplane quadrature for n = 3 on the line, and the factorized route
    otherwise.  The one-point value is zero by convention, and a vanishing
    cumulant coefficient c_n gives a vanishing truncated function; neither
    runs a route.  The route's refinement record goes to the open
    :func:`~kreinfield.quadrature.collect` block.  ``tol`` None leaves each
    route at its own default tolerance.
    """
    if not isinstance(test, TensorTestFunction):
        raise PreconditionError("truncated_momentum_eval takes a TensorTestFunction")
    n = len(test.factors)
    if n == 1 or cumulant_coeff(n, triple) == 0.0:
        return 0.0 + 0.0j
    kwargs = {} if tol is None else {"tol": tol}
    if n == 2:
        if spec.alpha == 0.5:
            return two_point_shell_eval(test, spec, triple, **kwargs)
        return two_point_density_eval(test, spec, triple, **kwargs)
    if n == 3 and spec.dim == 1:
        def slots(k1, k2, k3):
            return test(np.stack([k1, k2, k3], axis=-1)[..., None])
        return three_point_eval_1d(slots, spec, triple, **kwargs)
    return factorized_eval(test, spec, triple, **kwargs)


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
    recorder: Optional[list] = None,
) -> BridgeReport:
    """Position-space lattice value against the damped momentum quadrature.

    ``points`` is an (n, d) array of Euclidean points with strictly
    increasing times, checked and snapped by :func:`bridge_points`.  The
    left side is c_n times the lattice kernel-product integral; the right
    side integrates the momentum bracket against the damped exponential
    exp(-sum k0_l y0_l + i sum kvec_l yvec_l) on the total-momentum
    hyperplane.  For n = 2 at alpha = 1/2 that integral is the free
    two-point function c2 e^(-m r) / (2 m) in d = 1 and c2 K_0(m r) / (2 pi)
    in d = 2, r the distance of the two points, and the right side is that
    closed form, with a one-row record of residual 0.  The records go to
    the open :func:`~kreinfield.quadrature.collect` block; ``recorder``, if
    given, is extended with the same list.
    """
    with collect() as records:
        lhs, rhs = _bridge_sides(points, spec, triple, lat)
    if recorder is not None:
        recorder.extend(records)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return BridgeReport(lhs=float(lhs), rhs=float(rhs), gap=float(gap))


def bridge_points(points, spec: GreenSpec, lat: Lattice) -> np.ndarray:
    """The points of a Laplace bridge, snapped to the sites of ``lat``.

    Raises PreconditionError unless ``points`` is an (n, d) array with d the
    model dimension, the bridge covers (n, d, alpha) (n = 3 in d = 1 or 2;
    n = 2 at alpha = 1/2 in d = 1 or 2, and at alpha < 1/2 in d = 1), the
    snapped times increase strictly and every snapped point lies in the
    inner half of the lattice.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if d != spec.dim:
        raise PreconditionError("points do not match the model dimension")
    if n not in (2, 3) or d not in (1, 2):
        raise PreconditionError("bridge implemented for n in {2, 3}, d <= 2")
    if n == 2 and spec.alpha < 0.5 and d != 1:
        raise PreconditionError("pair bridge with alpha < 1/2 kept to d = 1")
    # snap to exact lattice sites so both pipelines see the same configuration
    pts = np.round(pts / lat.spacing) * lat.spacing
    if not np.all(np.diff(pts[:, 0]) > 0):
        raise PreconditionError("Euclidean times must be strictly increasing")
    for p in pts:
        if not lat.in_inner_half(p):
            raise PreconditionError(
                f"point {tuple(p)} outside the inner half of the lattice")
    return pts


def _bessel_k0(x: float) -> float:
    """K_0(x) = integral_0^inf e^(-x cosh t) dt for x > 0.

    The integrand is even and analytic, so the plain trapezoid rule converges
    geometrically: 64 equispaced nodes up to where e^(-x cosh t) < e^(-745)
    give 7e-16 relative for 1e-5 <= x <= 30 and 6e-15 at x = 100.
    """
    t, h = np.linspace(0.0, math.acosh(1.0 + 745.0 / x), 64, retstep=True)
    return h * (float(np.sum(np.exp(-x * np.cosh(t)))) - 0.5 * math.exp(-x))


def _bridge_sides(points, spec: GreenSpec, triple: LevyTriple,
                  lat: Lattice) -> Tuple[float, float]:
    """The lattice and momentum sides of :func:`laplace_bridge_check`."""
    pts = bridge_points(points, spec, lat)
    n, d = pts.shape
    times = pts[:, 0]
    cn = cumulant_coeff(n, triple)
    lhs = cn * kernel_product_integral(green_alpha_lattice(lat, spec), pts)

    min_gap = float(np.min(np.diff(times)))
    box = max(8.0 * spec.mass, 45.0 / min_gap)

    if n == 2 and spec.alpha == 0.5:
        # the free two-point function in closed form
        m, r = spec.mass, math.dist(pts[0], pts[1])
        if d == 1:
            rhs = cn * math.exp(-m * r) / (2 * m)
        else:
            rhs = cn * _bessel_k0(m * r) / (2 * math.pi)
        _emit_closed_form(rhs)
    elif n == 2:
        m = spec.mass
        dt = times[1] - times[0]

        def integrand(k):
            return np.exp(k * dt) * np.abs(k * k - m * m) ** (-2 * spec.alpha)

        # Known defect, kept outside refine on purpose: for alpha in
        # (1/4, 1/2) this loop never meets its 1e-9 test and returns the
        # 4096-node value without raising; its record's residual shows it.
        # The closed form is Gamma(1 - 2 alpha) / sqrt(pi) (2 m / dt)^nu
        # K_nu(m dt) with nu = 1/2 - 2 alpha (see the strict-xfail test in
        # test_wightman).
        npts, prev, resid, history = 64, None, math.inf, []
        for _ in range(7):
            cur = line_quadrature(integrand, -box, -m, (), npts)
            history.append([npts, float(np.real(cur)), float(np.imag(cur))])
            if prev is not None:
                resid = abs(cur - prev)
                if resid <= 1e-9 * max(1.0, abs(cur)):
                    break
            prev = cur
            npts *= 2
        emit({"op": "pair_bridge_1d_density", "value": history[-1][1:],
              "tolerance": 1e-9, "history": history, "residual": float(resid)})
        rhs = cn * math.sin(2 * math.pi * spec.alpha) * float(cur) / math.pi
    elif d == 1:  # n = 3, the only other order bridge_points admits
        def f(k1, k2, k3):
            return np.exp(-(k1 * times[0] + k2 * times[1] + k3 * times[2]))

        rhs = float(np.real(
            three_point_eval_1d(f, spec, triple, tol=1e-7, box=box)))
    else:
        rhs = three_point_eval_2d(pts, spec, triple, tol=2e-3, energy_box=box)
    return lhs, rhs


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


def _vector_cap(j: int, phi) -> float:
    """Modulus cap of a three-slot vector argument, checking j and its form."""
    if j not in (0, 1, 2, 3):
        raise PreconditionError("slot index j must lie in 0..3")
    if not (isinstance(phi, TensorTestFunction) and len(phi.factors) == 3
            and phi.dim == 4):
        raise PreconditionError(
            "need a TensorTestFunction of three four-dimensional factors")
    return max(float(abs(np.asarray(g.center)).max()) + g.effective_radius()
               for g in phi.factors)


def _spatially_radial(g: TestFunction) -> bool:
    """Whether g(k0, kvec) depends on kvec only through |kvec|^2.

    Holds when the spatial center and freq vanish and, for every energy
    degree p, the polynomial's spatial terms of each total degree 2j are one
    multiple of |u|^(2j) (and odd spatial degrees are absent).
    """
    if any(g.center[1:]) or any(g.freq[1:]):
        return False
    ns = g.dim - 1
    groups: dict = {}
    for beta, c in g.coeffs.items():
        groups.setdefault((beta[0], sum(beta[1:])), {})[beta[1:]] = c
    r2 = {tuple(2 * (i == ax) for i in range(ns)): 1.0 for ax in range(ns)}
    for (_, deg), terms in groups.items():
        scale = max(abs(c) for c in terms.values())
        if scale == 0:
            continue
        if deg % 2:
            return False
        power = {(0,) * ns: 1.0}
        for _ in range(deg // 2):
            power = poly_mul(power, r2)
        lam = terms.get((deg,) + (0,) * (ns - 1), 0.0)
        if any(abs(terms.get(b, 0.0) - lam * power.get(b, 0.0)) > 1e-12 * scale
               for b in set(terms) | set(power)):
            return False
    return True


def _pair_vectors(la, lb, om, axis, perp):
    """Spatial a = la axis and b in the (axis, perp) plane, |b| = lb, |a + b| = om."""
    c = np.clip((om * om - la * la - lb * lb) / (2 * la * lb), -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    vb = lb[..., None] * (s[..., None] * perp + c[..., None] * axis)
    return la[..., None] * axis, vb


def _slot_momenta(j: int, la, lb, tot, om, s, va, vb) -> np.ndarray:
    """Slot momenta (k1, k2, k3) of the measure j, stacked as (3, ..., 4).

    The free slots carry va and vb (moduli la, lb, tot = la + lb), the
    resolved slot -(va + vb) (modulus om).  The end measures put the free
    slots on the forward (j = 0) or backward (j = 3) shell; the middle ones
    slide the pinned energy with s in [0, 1].  Energies sum to zero.
    """
    k = np.empty((3,) + va.shape[:-1] + (4,))
    e = k[..., 0]
    if j == 0:
        e[0], e[1], e[2] = -tot, la, lb
    elif j == 3:
        e[0], e[1], e[2] = -la, -lb, tot
    else:
        if j == 1:
            e[2] = lb
        else:
            e[0] = -la
        _slide_energies(j, e, la, lb, tot, om, s)
    res = (0, 0, 1, 2)[j]  # the resolved slot; the free ones keep their order
    fa, fb = (i for i in range(3) if i != res)
    k[fa, ..., 1:] = va
    k[fb, ..., 1:] = vb
    k[res, ..., 1:] = -(va + vb)
    return k


def _slide_energies(j: int, e, la, lb, tot, om, s) -> None:
    """Write the two s-dependent energies of the middle measure j into e.

    ``e`` is the energy row block k[..., 0] of :func:`_slot_momenta`'s stack;
    the pinned energy (lb for j = 1, -la for j = 2) must already be there.
    """
    if j == 1:
        e[0] = -(om * s + tot * (1 - s))
        e[1] = -e[0] - e[2]
    else:
        e[1] = -((la + om) * s + lb * (1 - s) - la)
        e[2] = -e[0] - e[1]


def _shell_density(j: int, v, tot, om):
    """Density of the measure j in (v, u, t[, s]), per unit of the angles.

    Both routes use min/difference moduli v = min(la, lb), u = |la - lb|,
    so tot = 2 v + u, and om = u + span t on the triangle [u, 2 v + u] with
    span = 2 v.  In the plain moduli the triangle's limits have a derivative
    jump across la = lb and the quadrature converges only first order; in
    (v, u, t) they are smooth, at the price of summing both assignments
    (la, lb) = (v, v + u) and (v + u, v).  The angles have total measure
    8 pi^2: the end measures carry -/+span / (8 (tot + om)) for j = 0 / 3,
    the middle ones span / 8.
    """
    span = 2.0 * v
    if j in (1, 2):
        return span / 8.0
    dens = span / (8 * (tot + om))
    return -dens if j == 0 else dens


def vector_measure_radial(j: int, phi: TensorTestFunction) -> complex:
    """Three-slot shell measure against a rotation-invariant test function.

    ``phi`` must be a TensorTestFunction of three four-dimensional factors,
    each with zero spatial center and freq and a polynomial that depends on
    kvec only through |kvec|^2; both are checked on every input and raise
    PreconditionError.  The angular integrals then reduce exactly, leaving
    smooth quadratures over the two free moduli, the resolved modulus on its
    triangle (see :func:`_shell_density`) and, for middle j, s:

    * j = 0:  -pi^2 integral dl2 dl3 dw phi / (l2 + l3 + w);
    * j = 3:  +pi^2 integral dl1 dl2 dw phi / (l1 + l2 + w);
    * j in {1, 2}: pi^2 integral dla dlb dw ds phi  (unit density).

    The node schedule is refined to rtol 5e-3.

    Check: criterion 6 (test_criterion_6_vector_bounds), the vector bounds
    against the measures.
    """
    cap = _vector_cap(j, phi)
    if not all(_spatially_radial(g) for g in phi.factors):
        raise PreconditionError(
            "vector_measure_radial needs factors invariant under spatial "
            "rotations; use vector_measure_eval")
    axis, perp = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])

    def value(npts: int) -> complex:
        v, wv = gl_nodes(0.0, cap, npts)
        u, wu = gl_nodes(0.0, cap, npts)
        t, wt = gl_nodes(0.0, 1.0, max(12, npts // 2))
        V = v[:, None, None]
        U = u[None, :, None]
        OM = U + (2.0 * V) * t[None, None, :]
        TOT = np.broadcast_to(2.0 * V + U, OM.shape)
        W = ((wv[:, None, None] * wu[None, :, None]) * wt[None, None, :]
             * _shell_density(j, V, TOT, OM))
        srule = (list(zip(*gl_nodes(0.0, 1.0, max(10, npts // 3))))
                 if j in (1, 2) else [(None, 1.0)])
        # one momentum stack per modulus assignment; an s node rewrites
        # only the two energies that slide with s
        slots = []
        for la, lb in ((V, V + U), (V + U, V)):
            la, lb = np.broadcast_to(la, OM.shape), np.broadcast_to(lb, OM.shape)
            k = _slot_momenta(j, la, lb, TOT, OM, srule[0][0],
                              *_pair_vectors(la, lb, OM, axis, perp))
            slots.append((la, lb, k))
        total = 0.0 + 0.0j
        for i, (s, sw) in enumerate(srule):
            for la, lb, k in slots:
                if i:
                    _slide_energies(j, k[..., 0], la, lb, TOT, OM, s)
                total += sw * np.sum(phi(np.moveaxis(k, 0, -2)) * W)
        return 8 * math.pi**2 * complex(total)

    # the absolute floor: arguments supported away from the admissible
    # region integrate to numerical zero, where the relative residual is noise
    return refine(value, (40, 60, 90), 5e-3, 1e-12, "vector_measure_radial")


def vector_measure_eval(j: int, phi: TensorTestFunction) -> complex:
    """Three-slot shell measure for a general test function.

    ``phi`` must be a TensorTestFunction of three four-dimensional factors
    (PreconditionError otherwise).  Tensor quadrature over (modulus v, polar
    a, azimuth a, modulus u, resolved-modulus fraction t, relative
    azimuth[, s]) in the coordinates of :func:`_shell_density`, chunked to
    bounded memory.  The resolved modulus stands in for the second slot's
    relative polar angle; its Jacobian cancels the measure's 1/|a + b|, so
    the integrand is smooth.  Two rounds are compared at rtol 2e-2.  For
    rotation-invariant arguments prefer :func:`vector_measure_radial`.

    Check: test_vector_general_matches_radial, the general route against
    the radial one.
    """
    cap = _vector_cap(j, phi)

    def value(npts) -> complex:
        nl, nt, na, ns = npts
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

        def fn(v, ta, aa, u, tt, bb, s=None):
            st, ct = np.sin(ta), np.cos(ta)
            sp, cp = np.sin(aa), np.cos(aa)
            axis = np.stack([st * cp, st * sp, ct], axis=-1)
            e1 = np.stack([ct * cp, ct * sp, -st], axis=-1)
            e2 = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
            perp = np.cos(bb)[..., None] * e1 + np.sin(bb)[..., None] * e2
            tot = 2.0 * v + u
            om = u + (2.0 * v) * tt
            out = 0.0
            for la, lb in ((v, v + u), (v + u, v)):
                va, vb = _pair_vectors(la, lb, om, axis, perp)
                k = _slot_momenta(j, la, lb, tot, om, s, va, vb)
                out = out + phi(np.moveaxis(k, 0, -2))
            return out * _shell_density(j, v, tot, om)

        return tensor_blocks(axes, fn)

    # (modulus, angle, azimuth, s) node counts; the second round is 1.4x
    return refine(value, ((12, 7, 7, 7), (16, 9, 9, 9)), 2e-2, 1e-12,
                  "vector_measure_eval")


def reflect_three_slot(phi: TensorTestFunction) -> TensorTestFunction:
    """phi'(k1, k2, k3) = phi(-k3, -k2, -k1): slot reversal with negation.

    Check: test_vector_reflection_identities, the slot reversal under which
    the measures map onto each other.
    """
    flipped = tuple(g.flip() for g in reversed(phi.factors))
    return TensorTestFunction(flipped, phi.prefactor)
