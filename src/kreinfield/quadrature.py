"""Quadrature core: cached Gauss-Legendre rules, node maps and one refinement driver.

Every integral in the package is built from the same pieces:

* :func:`gauss_legendre` -- the order-n rule on [-1, 1], built once per order
  and handed out as read-only arrays;
* :func:`gl_nodes` -- that rule mapped affinely onto [lo, hi];
* :func:`sine_nodes` -- the rule under x = mid + half sin(pi t / 2), which
  crushes the weight at both endpoints so algebraic endpoint singularities
  |x - a|^(-alpha), alpha < 1, are tamed; it broadcasts over arrays of
  intervals and gives degenerate intervals zero weight;
* :func:`line_quadrature` -- a sine-substituted line integral split at
  interior singular points;
* :func:`tensor_blocks` -- a chunked sum over a tensor grid of rules;
* :func:`refine` -- the one driver that evaluates a quadrature along a node
  schedule until two successive values agree, records what it did, and
  raises :class:`QuadratureError` with the residual otherwise.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import QuadratureError


@functools.lru_cache(maxsize=256)
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached)."""
    t, w = np.polynomial.legendre.leggauss(n)
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
