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
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


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


def quaternion_conj(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


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
    """Left action of the conjugate first-order operator on a 4-tuple."""
    q0, q1, q2, q3 = q
    d = lambda f, ax: f.derivative(ax)
    return (
        d(q0, 0) + d(q1, 1) + d(q2, 2) + d(q3, 3),
        d(q1, 0) + _neg(d(q0, 1)) + _neg(d(q3, 2)) + d(q2, 3),
        d(q2, 0) + d(q3, 1) + _neg(d(q0, 2)) + _neg(d(q1, 3)),
        d(q3, 0) + _neg(d(q2, 1)) + d(q1, 2) + _neg(d(q0, 3)),
    )


def dbar_of_scalar(f):
    """Gradient 4-tuple (d0 f, d1 f, d2 f, d3 f) of a scalar function."""
    return tuple(f.derivative(ax) for ax in range(4))
