"""Quaternion algebra and the left Cauchy-Fueter style derivative pair.

Quaternions are stored as (w, x, y, z) against the basis (1, i, j, k) with
the Hamilton relations i^2 = j^2 = k^2 = ijk = -1.  Array routines act on
trailing axes of length 4 so lattice-sized batches multiply vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """One quaternion w + x i + y j + z k with the scalar Hamilton product.

    Check: test_hamilton_product_example and
    test_array_product_matches_scalar, where it is the reference for
    :func:`quaternion_mul`.
    """

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __mul__(self, other):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )


def quaternion_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on trailing axes of length 4, broadcasting elsewhere."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != 4 or b.shape[-1] != 4:
        raise ValueError("quaternion arrays need a trailing axis of length 4")
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


# -- first-order operator on component functions --------------------------------
#
# apply_left_del:  (1 d0 - i d1 - j d2 - k d3) q
#
# Components support .derivative(axis) and addition (e.g. TestFunction with a
# shared envelope); a scalar function f is promoted to (f, 0, 0, 0) by
# passing components=(f,).


def _neg(f):
    return f.scale(-1)


def apply_left_del(q):
    """Left action of the conjugate first-order operator on a 4-tuple.

    Check: test_del_dbar_is_laplacian, the operator pair's identity del
    dbar = Laplacian.
    """
    q0, q1, q2, q3 = q
    d = lambda f, ax: f.derivative(ax)
    return (
        d(q0, 0) + d(q1, 1) + d(q2, 2) + d(q3, 3),
        d(q1, 0) + _neg(d(q0, 1)) + _neg(d(q3, 2)) + d(q2, 3),
        d(q2, 0) + d(q3, 1) + _neg(d(q0, 2)) + _neg(d(q1, 3)),
        d(q3, 0) + _neg(d(q2, 1)) + d(q1, 2) + _neg(d(q0, 3)),
    )


def dbar_of_scalar(f):
    """Gradient 4-tuple (d0 f, d1 f, d2 f, d3 f) of a scalar function.

    Check: test_del_dbar_is_laplacian.
    """
    return tuple(f.derivative(ax) for ax in range(4))
