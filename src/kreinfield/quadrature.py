"""Quadrature core: cached Gauss-Legendre rules, node maps and one refinement driver.

Every integral in the package is built from the same pieces:

* :func:`gauss_legendre` -- the order-n rule on [-1, 1], built once per order
  by Newton's method in theta = arccos x and handed out as read-only arrays;
  the rule is exactly antisymmetric;
* :func:`gl_nodes` -- that rule mapped affinely onto [lo, hi];
* :func:`sine_nodes` -- the rule under x = mid + half sin(pi t / 2), which
  crushes the weight at both endpoints so algebraic endpoint singularities
  |x - a|^(-alpha), alpha < 1, are tamed; it broadcasts over arrays of
  intervals and gives degenerate intervals zero weight;
* :func:`line_quadrature` -- a sine-substituted line integral split at
  interior singular points;
* :func:`tensor_blocks` -- a chunked sum over a tensor grid of rules;
* :func:`phase_sums` -- the cosine and sine sums of several bodies against
  the phases a * k of an antisymmetric a-rule, from one evaluation of the
  phases on its non-negative half;
* :func:`refine` -- the one driver that evaluates a quadrature along a node
  schedule until two successive values agree, records what it did, and
  raises :class:`QuadratureError` with the residual otherwise.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionError, QuadratureError


def _legendre(y: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) - x P_n(x) at x = 1 - y, by the three-term recurrence.

    The recurrence runs on the differences d_k = P_k - P_{k-1} (Reinsch's
    form), so near x = 1 it loses no accuracy to the rounding of x: there y,
    not x, carries the position of a node.
    """
    p, d = 1.0 - y, -y
    for k in range(1, n):
        d = (k * d - (2 * k + 1) * y * p) / (k + 1)
        p = p + d
    return p, y * p - d


@functools.lru_cache(maxsize=256)
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached).

    Newton's method in theta = arccos x from Tricomi's initial guesses finds
    the n // 2 positive nodes (Hale & Townsend, SIAM J. Sci. Comput. 35
    (2013)).  The weights 2 sin^2(theta) / (n (P_{n-1} - x P_n))^2 are taken
    in theta, which avoids the cancellation in 1 - x^2 near the endpoints;
    each node gets one Newton step in x, where its absolute accuracy is set.
    The negative half mirrors the positive one and an odd rule has the
    middle node 0.0, so t == -t[::-1] and w == w[::-1] hold exactly.
    """
    if n < 1:
        raise PreconditionError("a Gauss-Legendre rule needs n >= 1")
    k = np.arange(1, n // 2 + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3))
                      * np.cos((4 * k - 1) * math.pi / (4 * n + 2)))
    for _ in range(40):
        p, q = _legendre(2.0 * np.sin(0.5 * theta) ** 2, n)
        step = p * np.sin(theta) / (n * q)
        theta = theta + step
        # Newton converges quadratically: after a step this small the
        # remaining error is below rounding
        if np.all(np.abs(step) <= 1e-12 * theta):
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes of order {n} did not converge")
    odd = n % 2
    sin_t = np.append(np.sin(theta), [1.0] * odd)
    _, q = _legendre(np.append(2.0 * np.sin(0.5 * theta) ** 2, [1.0] * odd), n)
    w = 2.0 * sin_t * sin_t / (n * q) ** 2
    y = 1.0 - np.cos(theta)
    p, q = _legendre(y, n)
    x = (1.0 - y) - p * y * (2.0 - y) / (n * q)
    t = np.concatenate([-x, [0.0] * odd, x[::-1]])
    w = np.concatenate([w, w[::-1][odd:]])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gl_nodes(lo: float, hi: float, n: int):
    """Gauss-Legendre rule mapped affinely onto [lo, hi]."""
    t, w = gauss_legendre(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w


def sine_nodes(lo, hi, n: int):
    """Sine-substituted rule on [lo, hi]; arrays of intervals broadcast.

    Nodes and weights gain a trailing axis of length n.  Intervals with
    hi <= lo get zero weight.
    """
    t, wt = gauss_legendre(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * np.maximum(hi - lo, 0.0)
    mid = 0.5 * (hi + lo)
    x = mid[..., None] + half[..., None] * np.sin(0.5 * math.pi * t)
    w = half[..., None] * wt * 0.5 * math.pi * np.cos(0.5 * math.pi * t)
    return x, w


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


def tensor_blocks(axes, fn, chunk: int = 1 << 19) -> complex:
    """sum over the tensor grid of fn(columns) * prod weights, in chunks."""
    sizes = [len(a[0]) for a in axes]
    total_pts = int(np.prod(sizes))
    out = 0.0 + 0.0j
    for start in range(0, total_pts, chunk):
        idx = np.arange(start, min(start + chunk, total_pts))
        unraveled = np.unravel_index(idx, sizes)
        cols, wprod = [], 1.0
        for (nodes, weights), ix in zip(axes, unraveled):
            cols.append(nodes[ix])
            wprod = wprod * weights[ix]
        out += np.sum(fn(*cols) * wprod)
    return complex(out)


# phases held at once by :func:`phase_sums`: len(a) * nt * (chunk width)
_PHASE_BUDGET = 4_000_000


def phase_sums(a, k, bodies):
    """Cosine and sine sums of ``bodies`` against the phases a * k.

    ``a`` is an antisymmetric rule, a[i] == -a[-1 - i] (every
    :func:`gl_nodes` rule on [-c, c] is one), ``k`` has shape (nt, nq) and
    ``bodies`` shape (nb, nt, nq).  Returns P and Q of shape (nb, len(a), nq),

        P[j, i, c] = sum_t cos(a_i k[t, c]) bodies[j, t, c],
        Q[j, i, c] = sum_t sin(a_i k[t, c]) bodies[j, t, c],

    so that sum_t exp(+-i a_i k[t, c]) bodies[j, t, c] = P +- iQ.  cos and sin
    are evaluated once per chunk of columns c, on the non-negative half of
    ``a`` only, and contracted against the real and imaginary parts of every
    body in one batched matmul.
    """
    a = np.asarray(a, dtype=float)
    if not np.array_equal(a, -a[::-1]):
        raise PreconditionError("phase_sums needs an antisymmetric a-rule")
    na = len(a)
    half = a[na // 2:]
    nh = len(half)
    nb, nt, nq = bodies.shape
    # (nq, nt, 2 nb): real parts of all bodies, then their imaginary parts
    parts = np.ascontiguousarray(
        np.concatenate([bodies.real, bodies.imag]).transpose(2, 1, 0))
    p_half = np.empty((nb, nh, nq), dtype=complex)
    q_half = np.empty((nb, nh, nq), dtype=complex)
    step = max(1, _PHASE_BUDGET // max(1, na * nt))
    for s in range(0, nq, step):
        cols = slice(s, min(s + step, nq))
        cs = np.empty((cols.stop - s, 2 * nh, nt))
        np.multiply(half[None, :, None], k[:, cols].T[:, None, :], out=cs[:, nh:])
        np.cos(cs[:, nh:], out=cs[:, :nh])
        np.sin(cs[:, nh:], out=cs[:, nh:])
        r = (cs @ parts[cols]).transpose(2, 1, 0)  # (2 nb, 2 nh, chunk)
        p_half[:, :, cols] = r[:nb, :nh] + 1j * r[nb:, :nh]
        q_half[:, :, cols] = r[:nb, nh:] + 1j * r[nb:, nh:]
    # the na // 2 negative a mirror the half: cos is even and sin odd in a
    lead = na // 2
    p = np.concatenate([p_half[:, ::-1][:, :lead], p_half], axis=1)
    q = np.concatenate([-q_half[:, ::-1][:, :lead], q_half], axis=1)
    return p, q


def refine(
    value: Callable[[Any], Any],
    schedule: Iterable[Any],
    rtol: float,
    atol: float,
    op: str,
    recorder: Optional[list] = None,
):
    """Evaluate ``value(p)`` along ``schedule`` until two successive values agree.

    The value at round p is accepted once
    |cur - prev| <= max(rtol * max(|cur|, |prev|), atol).  On acceptance a
    record {"op", "value", "tolerance", "history"} is appended to
    ``recorder``, with one history row [p, real, imag] per round evaluated.
    If the schedule runs out first, QuadratureError carries the last
    residual |cur - prev|.
    """
    history = []
    prev, resid = None, math.inf
    for p in schedule:
        cur = value(p)
        history.append([p, float(np.real(cur)), float(np.imag(cur))])
        if prev is not None:
            resid = abs(cur - prev)
            if resid <= max(rtol * max(abs(cur), abs(prev)), atol):
                if recorder is not None:
                    val = complex(cur)
                    recorder.append(
                        {"op": op, "value": [val.real, val.imag],
                         "tolerance": rtol, "history": history}
                    )
                return cur
        prev = cur
    raise QuadratureError(
        f"{op} did not stabilize (rtol {rtol:g}, atol {atol:g})",
        residual=float(resid),
    )
