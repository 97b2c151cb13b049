"""Quadrature core: cached Gauss-Legendre rules, node maps and one refinement driver.

Every integral in the package is built from the same pieces:

* :func:`gauss_legendre` -- the order-n rule on [-1, 1], built once per order
  and handed out as read-only arrays, exactly antisymmetric.  From n = 256
  on it comes straight from Bogaert's expansions of each node and weight,
  in O(n) and without iteration (nodes within 2.2e-16 absolute, weights
  within 7e-16 relative of a 40-digit reference).  Below 256 Bessel-zero
  guesses in theta = arccos x near the endpoints and Tricomi's guesses
  elsewhere are finished by one pass of the Legendre recurrence for
  n >= 63 (Newton steps in theta and x, weights from the Legendre
  equation; nodes within 1.2e-16, weights within 8e-15);
* :func:`gl_nodes` -- that rule mapped affinely onto [lo, hi];
* :func:`sine_nodes` -- the rule under x = mid + half sin(pi t / 2), from
  the cached reference rule :func:`sine_rule` on [-1, 1], which
  puts the distance d to either endpoint at d ~ (1 - |t|)^2: an endpoint
  singularity d^(-1/2) becomes smooth, but d^(-p) stays singular for
  p > 1/2 and converges only algebraically for 0 < p < 1/2; it broadcasts
  over arrays of intervals and gives degenerate intervals zero weight;
* :func:`tanh_sinh_nodes` -- the double-exponential rule, for singularities
  that merge or are stronger than the sine map tames; it hands out each
  node's distances to both endpoints, so none rounds onto a singularity;
* :func:`gregory_nodes` -- the equispaced rule with trapezoid weights and
  order-8 Gregory end corrections (exact to degree 7; order 6 misses a
  pinned factorized value, order 10 has a negative weight), exactly
  antisymmetric on [-c, c];
* :func:`line_quadrature` -- a sine-substituted line integral split at
  interior singular points;
* :func:`tensor_blocks` -- a chunked sum over a tensor grid of rules;
* :func:`phase_sums` -- the cosine and sine sums of several bodies against
  the phases a * k of an equispaced antisymmetric a-rule: cos and sin on
  about 2 sqrt(nh) baby and giant phases of its nh non-negative nodes, the
  table by angle addition, within (4 delta + 2u max|a|) |k| + 5u per entry
  (delta the rule's distance from exactly equispaced, u = 2^-53);
* :func:`refine` -- the one driver that evaluates a quadrature along a node
  schedule until two successive values agree, records what it did, and
  raises :class:`QuadratureError` with the residual and the rounds' history
  otherwise;
* :func:`collect` -- the ``with`` block that gathers the records that
  :func:`refine` and closed forms pass to :func:`emit`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionError, QuadratureError


def _legendre(y: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) - x P_n(x) at x = 1 - y, by the three-term recurrence.

    The recurrence runs on the differences d_k = P_k - P_{k-1} (Reinsch's
    form), so near x = 1 it loses no accuracy to the rounding of x: there y,
    not x, carries the position of a node.  The loop works in place and
    rounds exactly as the textbook form (k d - (2k + 1) y p) / (k + 1) does;
    folding the coefficients into k / (k + 1) and (2k + 1) / (k + 1) would
    round them once for every node alike and bias the weights' sum by ~1e-14
    at n = 4096.
    """
    p, d = 1.0 - y, -y
    t = np.empty_like(y)
    for k in map(float, range(1, n)):
        np.multiply(y, 2.0 * k + 1.0, out=t)
        t *= p
        d *= k
        d -= t
        d /= k + 1.0
        p += d
    np.multiply(y, p, out=t)
    t -= d
    return p, t


# j_{0,k}, the first zeros of the Bessel function J_0 (mpmath.besseljzero)
_J0_ZEROS = (2.4048255576957728, 5.5200781102863106, 8.6537279129110122,
             11.791534439014282, 14.930917708487786, 18.071063967910924,
             21.21163662987926, 24.352471530749302, 27.493479132040253,
             30.634606468431976, 33.77582021357357, 36.917098353664045,
             40.05842576462824, 43.19979171317673, 46.341188371661815,
             49.482609897397815, 52.624051841115, 55.76551075501998,
             58.90698392608094, 62.048469190227166)

# J_1(j_{0,k})^2 (mpmath.besselj at mpmath.besseljzero)
_J1_SQUARED = (0.2695141239419169, 0.11578013858220369, 0.07368635113640822,
               0.05403757319811628, 0.04266142901724309, 0.0352421034909961,
               0.030021070103054673, 0.02614739149530809, 0.023159121824691393,
               0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
               0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
               0.012866181737615133, 0.012098051548626797, 0.011416471224491609,
               0.010807592791180204, 0.010260372926280762, 0.009765897139791051)

# nodes nearest x = 1 that get Gatteschi's Bessel-zero guess
_ENDPOINT_NODES = 40


def _bessel_j0_zeros(m: int, tabulated: int = len(_J0_ZEROS)):
    """beta_k = (k - 1/4) pi and the offsets j_{0,k} - beta_k for k = 1..m.

    The first ``tabulated`` offsets come from ``_J0_ZEROS`` (each difference
    is exact, so beta_k + offset_k gives the tabulated zero back), later
    ones from McMahon's series, summed directly so that no digits cancel.
    Relative to the zero the series is accurate to 4e-12 at k = 5, 4e-13 at
    k = 6, 2e-14 from k = 8 and 1e-19 from k = 21.
    """
    beta = (np.arange(1, m + 1) - 0.25) * math.pi
    u = 1.0 / (8.0 * beta)
    u2 = u * u
    offset = u * (1.0 + u2 * (-124.0 / 3.0 + u2 * (120928.0 / 15.0 + u2 * (
        -401743168.0 / 105.0 + u2 * 1071187749376.0 / 315.0))))
    k = min(m, tabulated)
    offset[:k] = np.array(_J0_ZEROS[:k]) - beta[:k]
    return beta, offset


def _bessel_j1_squared(m: int) -> np.ndarray:
    """J_1(j_{0,k})^2 for k = 1..m: tabulated, then its series in 1/(k - 1/4).

    The series, x (2 / pi^2 - 7 x^4 / (24 pi^6) + ...) with x = 1/(k - 1/4),
    follows from J_1(j) Y_0(j) = 2 / (pi j) at a zero of J_0, the Hankel
    expansion of J_0^2 + Y_0^2 and McMahon's series; its first neglected
    term is under 1e-18 relative at k = 22.
    """
    x = 1.0 / (np.arange(1, m + 1) - 0.25)
    x2 = x * x
    out = x * (0.20264236728467555 + x2 * x2 * (-0.00030338042971129027 + x2 * (
        0.0001989243642459693 + x2 * (-0.00022896990277211166
                                      + x2 * 0.0004337107191307463))))
    k = min(m, len(_J1_SQUARED))
    out[:k] = _J1_SQUARED[:k]
    return out


# the order from which gauss_legendre uses the expansions instead of the
# recurrence (see its docstring for the choice)
_EXPANSION_ORDER = 256

# Bogaert's functions F1-F3 and W1-W3 of the node and weight expansions
# (see _expansion_half) as powers of x = theta^2 for 0 <= theta <= pi/2:
# truncated Chebyshev interpolants, computed offline in 50-digit mpmath
# from the expansion of P_n(cos theta) in J_0 and J_0'.  Each is cut where
# its error moves a node or weight by under 1e-18 at n = 256.
_NODE_F1 = (-0.0416666666666663, 0.004166666666651934, -0.00014880952371390914,
            2.7557316896206124e-06, -3.1314865463599204e-08,
            2.4072468586433013e-10, -1.2905299627428051e-12)
_NODE_F2 = (0.008159721974625559, -0.0020902153899889334, 0.0002820833438640059,
            -2.527203094104021e-05, 1.5743573047653096e-06,
            -5.8971498575335694e-08)
_NODE_F3 = (-0.004159191047594412, 0.001273981989260863,
            -0.00022420685590563084, 2.181375496039575e-05)
_WEIGHT_W1 = (0.08333333333333276, -0.030555555555517793, 0.00436507936467061,
              -0.0003262786579076916, 1.4964455846834881e-05,
              -4.639645313298087e-07, 1.0372775735799559e-08,
              -1.741229652543076e-10, 2.058382085526116e-12)
_WEIGHT_W2 = (-0.011111111103620638, 0.002689594060880055,
              -0.0004072952817503245, 4.659237791693621e-05,
              -3.812975991816219e-06, 2.0848476163305094e-07,
              -6.300397720181659e-09)
_WEIGHT_W3 = (0.0065693768552132865, -8.870727118943678e-05,
              -0.00012668496357684655, -1.5783276620831185e-05,
              5.073714496994688e-06)


def _horner(coeffs, x):
    """sum_i coeffs[i] x^i; importing numpy.polynomial would add ~5 ms to every start."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _expansion_half(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes x_k (k = 1..n // 2) and weights (k = 1..n // 2 + n % 2), no iteration.

    With w = 1/(n + 1/2), nu = j_{0,k}, theta = w nu and
    u = (w^2 nu / sin theta)^2, Bogaert's expansions give the node angle
    w (nu + theta (w^2 nu / sin theta) (F1 + u (F2 + u F3))) and the weight
    2 w / (J_1(nu)^2 (nu / sin theta) (1 + u (W1 + u (W2 + u W3)))).  The
    node is taken as sin phi, phi = pi/2 - node angle, with pi/2 - w (k - 1/4)
    pi written as pi (n/2 - k + 1/2) w, so that neither the large terms of phi
    nor cos of the angle cancel any digits.
    """
    half = n // 2
    m = half + n % 2
    k = np.arange(1, half + 1)
    beta, offset = _bessel_j0_zeros(m)
    w = 1.0 / (n + 0.5)
    nu = beta + offset
    theta = w * nu
    x = theta * theta
    nu_sin = nu / np.sin(theta)
    wis = w * w * nu_sin
    u = wis * wis
    corr = theta * wis * (_horner(_NODE_F1, x)
                          + u * (_horner(_NODE_F2, x) + u * _horner(_NODE_F3, x)))
    phi = (math.pi * w) * (0.5 * n + 0.5 - k) - w * offset[:half] - w * corr[:half]
    weights = 2.0 * w / (_bessel_j1_squared(m) * nu_sin * (1.0 + u * (
        _horner(_WEIGHT_W1, x) + u * (_horner(_WEIGHT_W2, x) + u * _horner(_WEIGHT_W3, x)))))
    return np.sin(phi), weights


def _recurrence_half(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes x_k (k = 1..n // 2) and weights (k = 1..n // 2 + n % 2) by Newton steps."""
    half, odd = n // 2, n % 2
    k = np.arange(1, half + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3))
                      * np.cos((4 * k - 1) * math.pi / (4 * n + 2)))
    m = min(half, _ENDPOINT_NODES)
    v = 1.0 / (n + 0.5)
    # five tabulated zeros already put every guess well inside what one pass
    # needs; more would move these rules by an ulp here and there
    beta, offset = _bessel_j0_zeros(m, tabulated=5)
    psi = (beta + offset) * v
    theta[:m] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi) * v * v
    # an odd rule's middle node sits at theta = pi / 2, y = 1 exactly, and
    # only needs its weight
    theta = np.append(theta, [0.5 * math.pi] * odd)
    for _ in range(40):
        y = 2.0 * np.sin(0.5 * theta) ** 2
        y[half:] = 1.0
        p, q = _legendre(y, n)
        sin_t = np.sin(theta)
        step = p * sin_t / (n * q)
        # a step this small leaves the x-step an error ~ delta^2 and the
        # weight's Taylor series one ~ (n delta)^3, both below rounding
        if np.all(np.abs(step) <= 3e-9 * theta):
            break
        theta = theta + step
    else:
        raise QuadratureError(f"Gauss-Legendre nodes of order {n} did not converge")
    # P_theta and its next two derivatives at the pass point, by the
    # Legendre equation P'' + cot(theta) P' + n (n + 1) P = 0
    cot_t = np.cos(theta) / sin_t
    nn1 = n * (n + 1.0)
    d1 = -n * q / sin_t
    d2 = -cot_t * d1 - nn1 * p
    d3 = -cot_t * d2 + (1.0 / sin_t**2 - nn1) * d1
    w = 2.0 / (d1 + step * (d2 + 0.5 * step * d3)) ** 2
    x = ((1.0 - y) - p * y * (2.0 - y) / (n * q))[:half]
    return x, w


@functools.lru_cache(maxsize=256)
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached).

    The n // 2 positive nodes are built in one of two ways.

    * n >= 256: without iteration, from Bogaert's expansions of each node
      and weight in powers of 1/(n + 1/2) (Bogaert, SIAM J. Sci. Comput. 36
      (2014) A1008), in O(n) time; no recurrence pass runs.  Against a
      40-digit reference the nodes are within 2.2e-16 absolute and the
      weights within 7e-16 relative (every node of n = 256, 257, 512, 513,
      700, 1035 and 1283; 125-152 nodes each of n = 2048 and 4096).
    * n < 256: asymptotic guesses in theta = arccos x (Hale & Townsend, SIAM
      J. Sci. Comput. 35 (2013)), Gatteschi's Bessel-zero form for the 40
      nodes nearest x = 1 and Tricomi's form for the rest, finished by the
      Legendre recurrence.  For n >= 63 every guess is within 1e-9
      (relative) of its node, so one pass finishes the rule; a smaller n
      repeats the pass from the stepped theta until the step is small
      enough.  From P_n and P_{n-1} - x P_n at the guesses the pass gives
      Newton's step delta in theta, whose error is about delta^2 / theta;
      the weight 2 / P_theta^2 at the node, from the Taylor series of
      P_theta about the pass point to order delta^2 with the higher
      derivatives taken from the Legendre equation in theta (which avoids
      the cancellation in 1 - x^2 near the endpoints); and a Newton step in
      x, where a node's absolute accuracy is set.  The nodes are within
      1.2e-16 absolute and the weights within 8e-15 relative (every node
      of n = 64, 100, 128, 181, 200, 255).

    The expansions hold from n ~ 100 on and are faster at every order, but
    at n = 181 a few of their nodes sit 2.8e-16 from numpy's, so the cutoff
    is above that.  The negative half mirrors the positive one and an odd
    rule has the middle node 0.0, so t == -t[::-1] and w == w[::-1] hold
    exactly.
    """
    if n < 1:
        raise PreconditionError("a Gauss-Legendre rule needs n >= 1")
    odd = n % 2
    x, w = (_expansion_half if n >= _EXPANSION_ORDER else _recurrence_half)(n)
    t = np.concatenate([-x, [0.0] * odd, x[::-1]])
    w = np.concatenate([w, w[::-1][odd:]])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gl_nodes(lo: float, hi: float, n: int):
    """Gauss-Legendre rule mapped affinely onto [lo, hi]."""
    t, w = gauss_legendre(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w


def folded_gl_nodes(hi: float, n: int):
    """The half x >= 0 of the Gauss-Legendre rule on [-hi, hi], folded.

    The rule is mirror-symmetric, so a sum over both signs of x runs on this
    half; the middle node x = 0 of an odd rule counts for both signs, so it
    carries half its weight.
    """
    x, w = gl_nodes(-hi, hi, n)
    x, w = x[n // 2:], w[n // 2:]
    if n % 2:
        w[0] *= 0.5
    return x, w


@functools.lru_cache(maxsize=64)
def sine_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The order-n sine rule on [-1, 1] (read-only, cached).

    Nodes sin(pi t / 2) and weights (pi / 2) w_t cos(pi t / 2) for the
    Gauss-Legendre nodes t and weights w_t; the nodes are exactly
    antisymmetric and the weights exactly symmetric, as t and w_t are.  The
    rule on [lo, hi] is mid + half * nodes with weights half * weights.
    """
    t, wt = gauss_legendre(n)
    s = np.sin(0.5 * math.pi * t)
    c = 0.5 * math.pi * wt * np.cos(0.5 * math.pi * t)
    s.setflags(write=False)
    c.setflags(write=False)
    return s, c


def sine_nodes(lo, hi, n: int):
    """Sine-substituted rule on [lo, hi]; arrays of intervals broadcast.

    Near an endpoint d ~ (1 - |t|)^2, so d^(-p) dd ~ (1 - |t|)^(1 - 2p) dt:
    smooth at p = 1/2, still singular for p > 1/2, and converging only
    algebraically in n for 0 < p < 1/2 (see :func:`tanh_sinh_nodes`).

    Nodes and weights gain a trailing axis of length n.  Intervals with
    hi <= lo get zero weight.
    """
    s, c = sine_rule(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * np.maximum(hi - lo, 0.0)[..., None]
    mid = 0.5 * (hi + lo)[..., None]
    return half * s + mid, half * c


# half-width of the tanh-sinh window in s.  The outermost nodes then sit
# exp(-pi sinh 5.25) ~ 1e-130 of the interval length from the endpoints (a
# normal float), so cutting the rule off there loses under 1e-13 of the
# integral of x^(-0.9) (1 - x)^(-0.9); a window of 4 (1e-37) would lose 1e-4.
_TANH_SINH_WINDOW = 5.25


def tanh_sinh_nodes(lo, hi, n: int):
    """Tanh-sinh rule on [lo, hi]; arrays of intervals broadcast.

    The map x = lo + (hi - lo) (1 + tanh(pi/2 sinh s)) / 2 with the
    trapezoid rule on n equispaced s in [-5.25, 5.25] (Takahasi & Mori,
    Publ. RIMS 9 (1974)) converges exponentially for integrands analytic
    inside the interval, whatever their algebraic endpoint singularities.
    Returns ``(dlo, dhi, w)``: each node's distance from lo and from hi and
    its weight, each with a trailing axis of length n.  Both distances are
    computed directly, not as differences of rounded nodes, so an integrand
    singular at an endpoint never sees a zero distance.  The rule is
    mirror-symmetric: dlo[..., i] == dhi[..., -1 - i] and w == w[..., ::-1].
    """
    if n < 2:
        raise PreconditionError("a tanh-sinh rule needs n >= 2")
    s = np.linspace(-_TANH_SINH_WINDOW, _TANH_SINH_WINDOW, n)
    s = 0.5 * (s - s[::-1])  # exactly antisymmetric
    z = 0.5 * math.pi * np.sinh(s)
    h = 2.0 * _TANH_SINH_WINDOW / (n - 1)
    length = (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float))[..., None]
    dlo = length / (1.0 + np.exp(-2.0 * z))
    dhi = length / (1.0 + np.exp(2.0 * z))
    w = length * (0.25 * math.pi * h) * np.cosh(s) / np.cosh(z) ** 2
    return dlo, dhi, w


# the weights of the seven end nodes of the order-8 Gregory rule, in units of
# the spacing h: the trapezoid's (1/2, 1, ..., 1) plus the corrections that
# make the rule exact for polynomials of degree <= 7, namely 5257/17280,
# 22081/15120, 54851/120960, 103/70, 89437/120960, 16367/15120, 23917/24192
_GREGORY_END = (0.30422453703703706, 1.460383597883598, 0.45346395502645503,
                1.4714285714285715, 0.7393931878306879, 1.082473544973545,
                0.9886326058201058)


def gregory_nodes(lo: float, hi: float, n: int):
    """Equispaced rule on [lo, hi]: trapezoid weights with order-8 Gregory ends.

    The n nodes lo + j h, h = (hi - lo) / (n - 1), are built as the
    tanh-sinh rule's s-grid is, so on [-c, c] they are exactly
    antisymmetric.  The weights are h away from the ends and h times
    ``_GREGORY_END`` on the seven nodes at either end (Fornberg & Reeger,
    Numer. Math. 141 (2019)): the rule is exact for polynomials of degree
    <= 7, and on a smooth integrand its error is O(h^8) plus the
    trapezoid's aliasing error, which an integrand resolved by the grid
    makes exponentially small.  Order 8 is the lowest order at which the
    factorized evaluator holds its three pinned values to 1e-12 (it is
    within 1.5e-13; order 6 is 2.6e-12 off at d = 2, alpha = 0.35), and the
    highest at which every Gregory weight stays positive (order 10 has a
    weight -797/5670 h).  Needs n >= 16, so that two uncorrected nodes
    separate the two ends.
    """
    if n < 16:
        raise PreconditionError("a Gregory rule needs n >= 16")
    t = np.linspace(-1.0, 1.0, n)
    t = 0.5 * (t - t[::-1])  # exactly antisymmetric
    h = (hi - lo) / (n - 1)
    w = np.full(n, h)
    end = len(_GREGORY_END)
    w[:end] *= _GREGORY_END
    w[-end:] *= _GREGORY_END[::-1]
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * t, w


def _subdivide(lo: float, hi: float, cuts: Sequence[float]) -> List[Tuple[float, float]]:
    inner = sorted({c for c in cuts if lo < c < hi})
    edges = [lo, *inner, hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def line_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    cuts: Sequence[float] = (),
    npts: int = 32,
):
    """Integral of a vectorized integrand with splits at interior singular points."""
    if hi <= lo:
        return 0.0
    total = 0.0
    for a, b in _subdivide(lo, hi, cuts):
        x, w = sine_nodes(a, b, npts)
        total = total + np.sum(f(x) * w, axis=0)
    return total


# grid points per chunk of :func:`tensor_blocks`
_BLOCK = 1 << 19


def tensor_blocks(axes, fn) -> complex:
    """sum over the tensor grid of fn(columns) * prod weights, in chunks."""
    sizes = [len(a[0]) for a in axes]
    total_pts = int(np.prod(sizes))
    out = 0.0 + 0.0j
    for start in range(0, total_pts, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total_pts))
        unraveled = np.unravel_index(idx, sizes)
        cols, wprod = [], 1.0
        for (nodes, weights), ix in zip(axes, unraveled):
            cols.append(nodes[ix])
            wprod = wprod * weights[ix]
        out += np.sum(fn(*cols) * wprod)
    return complex(out)


# floats held at once by one chunk of :func:`phase_sums`: the phase table
# (about len(a) per column c and row t) plus its contraction with the bodies
# (len(a) * 2 nb per column), so the workspace stays bounded however many
# bodies share the phases and however long a column is.  2^18 floats (2 MiB)
# keeps a chunk cache-sized: on a certify-size d = 2 call (len(a) = 365,
# nt = 126, nq = 125, 12 bodies; 2-vCPU Xeon, one BLAS thread) 2^16-2^20
# took 0.057-0.064 s and 2e6 took 0.071 s, and 2^19 raised the peak RSS of
# the d = 1 and d = 2 benchmark workloads by 3.5 MiB
_PHASE_BUDGET = 1 << 18


def phase_sums(a, k, bodies):
    """Cosine and sine sums of ``bodies`` against the phases a * k.

    ``a`` is an equispaced antisymmetric rule, a[i] == -a[-1 - i] (every
    :func:`gregory_nodes` rule on [-c, c] is one), ``k`` has shape (nt, nq)
    and ``bodies`` shape (nb, nt, nq).  Returns P and Q of shape
    (nb, len(a), nq),

        P[j, i, c] = sum_t cos(a_i k[t, c]) bodies[j, t, c],
        Q[j, i, c] = sum_t sin(a_i k[t, c]) bodies[j, t, c],

    so that sum_t exp(+-i a_i k[t, c]) bodies[j, t, c] = P +- iQ.

    cos is even and sin odd in a, so only the nh non-negative nodes
    a_i = a_0 + i h are needed.  Writing i = g B + r with B = ceil(sqrt(nh)),
    cos and sin are evaluated on a baby grid r h (r < B) and a giant grid
    a_0 + g B h (g < ceil(nh / B)) only, about 2 sqrt(nh) phases per (t, c)
    instead of nh, and the table exp(i a_i k) is built from them by angle
    addition, one complex multiply per entry.  With u = 2^-53 and delta the
    rule's largest distance from an exactly equispaced grid, an entry is
    then within (4 delta + 2u max|a|) |k| + 5u of exp(i a_i k): the split of
    a_i into a giant and a baby node, the rounding of both phases, and of
    cos, sin and the product.  A :func:`gregory_nodes` rule has delta under
    2 ulp of max|a|, so the bound is about 11 u max|a| |k|, 5e-13 at
    max|a| = 14 and |k| = 30 (measured there: 1.3e-13, against 2.8e-14 for
    a direct evaluation, whose rounding of a_i k alone is up to u |a_i k|).
    A rule further than 4 eps max|a| from ``np.linspace(a[0], a[-1],
    len(a))`` (a Gauss-Legendre rule, say) raises PreconditionError.

    The table of each chunk of columns c (of rows t, when one column alone
    exceeds ``_PHASE_BUDGET``) is built in one buffer reused by every chunk
    and contracted against the real and imaginary parts of every body in
    one batched matmul.  All bodies share the phases: stacking the bodies
    of several integrands on one (k, a) grid costs one phase pass.
    """
    a = np.asarray(a, dtype=float)
    if not np.array_equal(a, -a[::-1]):
        raise PreconditionError("phase_sums needs an antisymmetric a-rule")
    if np.shape(k) != bodies.shape[1:]:
        raise PreconditionError(
            f"phase_sums needs k of shape bodies.shape[1:] = {bodies.shape[1:]},"
            f" got {np.shape(k)}")
    na = len(a)
    span = np.abs(a).max(initial=0.0)
    if np.any(np.abs(a - np.linspace(a[0], a[-1], na)) > 4 * np.finfo(float).eps * span):
        raise PreconditionError("phase_sums needs an equispaced a-rule")
    lead = na // 2  # the negative a, mirrored from the half a[lead:]
    half = a[lead:]
    nh = len(half)
    nb, nt, nq = bodies.shape
    baby_n = math.isqrt(nh - 1) + 1  # ceil(sqrt(nh))
    giant = half[::baby_n]
    baby = half[:baby_n] - half[0]
    ng = len(giant)
    p = np.empty((nb, na, nq), dtype=complex)
    q = np.empty((nb, na, nq), dtype=complex)
    # columns c per chunk; a column too large for the budget on its own is
    # split into chunks of rows t instead, whose contractions are summed
    step = _PHASE_BUDGET // (na * (nt + 2 * nb))
    rows = nt if step else max(1, _PHASE_BUDGET // na - 2 * nb)
    step = max(1, step)
    width = min(step, nq)
    # exp(i a k) for a = giant[g] + baby[r] at [c, t, g, r]; its float view
    # interleaves cos and sin along the last axis
    table = np.empty((width, rows, ng, baby_n), dtype=complex)
    factors = [np.empty((width, rows, len(x)), dtype=complex) for x in (giant, baby)]
    phase = np.empty((width, rows, max(ng, baby_n)))
    # (chunk, 2 nb, rows): real parts of all bodies, then their imaginary parts
    parts = np.empty((width, 2 * nb, rows))
    # (chunk, 2 nb, 2 ng baby_n): cos sums at even, sin sums at odd columns
    sums = np.empty((width, 2 * nb, 2 * ng * baby_n))
    for s in range(0, nq, step):
        cols = slice(s, min(s + step, nq))
        c = cols.stop - s
        for t in range(0, nt, rows):
            ts = slice(t, min(t + rows, nt))
            m = ts.stop - t
            kc = k[ts, cols].T[:, :, None]
            for e, x in zip(factors, (giant, baby)):
                ph = phase[:c, :m, :len(x)]
                np.multiply(kc, x, out=ph)
                np.cos(ph, out=e[:c, :m].real)
                np.sin(ph, out=e[:c, :m].imag)
            tab = table[:c, :m]
            np.multiply(factors[0][:c, :m, :, None], factors[1][:c, :m, None, :], out=tab)
            part = parts[:c, :, :m]
            part[:, :nb] = bodies.real[:, ts, cols].transpose(2, 0, 1)
            part[:, nb:] = bodies.imag[:, ts, cols].transpose(2, 0, 1)
            tab = tab.reshape(c, m, -1).view(float)
            if t:
                sums[:c] += part @ tab
            else:
                np.matmul(part, tab, out=sums[:c])
        r = sums[:c].transpose(1, 2, 0)
        for out, cut in ((p, slice(0, 2 * nh, 2)), (q, slice(1, 2 * nh, 2))):
            out.real[:, lead:, cols] = r[:nb, cut]
            out.imag[:, lead:, cols] = r[nb:, cut]
    # cos is even and sin odd in a; the sources a[na - lead:] lie in the half
    p[:, :lead] = p[:, ::-1][:, :lead]
    q[:, :lead] = -q[:, ::-1][:, :lead]
    return p, q


# the record list of the innermost open collect() block, or None
_RECORDS: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "kreinfield_records", default=None)


def emit(record: dict) -> None:
    """Append ``record`` to the innermost open :func:`collect` block, if any."""
    records = _RECORDS.get()
    if records is not None:
        records.append(record)


@contextlib.contextmanager
def collect():
    """``with collect() as records:`` gathers the records emitted in the block.

    When the block closes, its records are appended in order to the
    enclosing block's list, so an outer block sees every record of the
    blocks nested in it.
    """
    records: list = []
    token = _RECORDS.set(records)
    try:
        yield records
    finally:
        _RECORDS.reset(token)
        for record in records:
            emit(record)


def refine(
    value: Callable[[Any], Any],
    schedule: Iterable[Any],
    rtol: float,
    atol: float,
    op: str,
):
    """Evaluate ``value(p)`` along ``schedule`` until two successive values agree.

    The value at round p is accepted once
    |cur - prev| <= max(rtol * max(|cur|, |prev|), atol).  On acceptance a
    record {"op", "value", "tolerance", "history", "residual"} is emitted to
    the open :func:`collect` block, with one history row [p, real, imag] per
    round evaluated and the accepted residual |cur - prev|.  If the schedule
    runs out first, QuadratureError carries the last residual and, as
    ``history``, the same rows; before it is raised the record is emitted
    with the last round's value and one more key, ``"error"`` (the
    exception's message).
    """
    history = []
    prev, resid = None, math.inf
    for p in schedule:
        cur = value(p)
        history.append([p, float(np.real(cur)), float(np.imag(cur))])
        if prev is not None:
            resid = abs(cur - prev)
            if resid <= max(rtol * max(abs(cur), abs(prev)), atol):
                val = complex(cur)
                emit({"op": op, "value": [val.real, val.imag],
                      "tolerance": rtol, "history": history,
                      "residual": float(resid)})
                return cur
        prev = cur
    error = QuadratureError(
        f"{op} did not stabilize (rtol {rtol:g}, atol {atol:g})",
        residual=float(resid),
        history=history,
    )
    emit({"op": op, "value": history[-1][1:] if history else None,
          "tolerance": rtol, "history": history, "residual": error.residual,
          "error": str(error)})
    raise error
