import math

import numpy as np
import pytest

from kreinfield.testfunctions import TensorTestFunction, TestFunction


def fd_derivative(f, x, axis, h=1e-5):
    e = np.zeros(f.dim)
    e[axis] = h
    return (f(x + e) - f(x - e)) / (2 * h)


def test_evaluation_and_derivative_match_fd():
    f = TestFunction(2, (0.3, -0.5), 0.8, {(0, 0): 1.0, (2, 1): 0.5 - 0.25j}, (0.7, -1.1))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        for ax in range(2):
            df = f.derivative(ax)
            assert df(x) == pytest.approx(fd_derivative(f, x, ax), rel=1e-6, abs=1e-8)


def test_gaussian_l2_and_integral():
    w = 0.9
    f = TestFunction.gaussian((0.0,), w, 2.0)
    # integral A exp(-x^2/(2w^2)) dx = A w sqrt(2 pi)
    assert f.integral() == pytest.approx(2.0 * w * math.sqrt(2 * math.pi), rel=1e-12)
    assert f.l2_norm_sq() == pytest.approx(4.0 * w * math.sqrt(math.pi), rel=1e-12)


def test_fourier_against_grid_transform():
    f = TestFunction(1, (0.4,), 0.7, {(0,): 1.0, (1,): 0.3j}, (1.3,))
    fhat = f.fourier()
    xs = np.linspace(-12, 12, 6001)
    vals = f(xs.reshape(-1, 1))
    for k in [-2.0, -0.3, 0.0, 1.1, 2.7]:
        num = np.trapezoid(np.exp(-1j * k * xs) * vals, xs) / math.sqrt(2 * math.pi)
        assert fhat(np.array([k])) == pytest.approx(num, rel=1e-7, abs=1e-9)


def test_fourier_involution_roundtrip():
    # F(Ff)(x) = f(-x) in this convention
    f = TestFunction(2, (0.2, -0.1), 1.1, {(1, 0): 1.0, (0, 0): 0.5}, (0.4, 0.0))
    g = f.fourier().fourier()
    flipped = f.flip()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(8, 2))
    assert np.allclose(g(pts), flipped(pts), rtol=1e-10, atol=1e-12)


def test_translate_and_modulate():
    f = TestFunction(1, (0.0,), 1.0, {(2,): 1.0})
    x = np.array([0.7])
    # the polynomial lives in x - center, so moving the center translates
    moved = TestFunction(1, (0.3,), 1.0, {(2,): 1.0})
    assert moved(x) == pytest.approx(f(x - 0.3), rel=1e-12)
    m = f.modulate([2.0])
    assert m(x) == pytest.approx(f(x) * np.exp(2j * x[0]), rel=1e-12)


def test_parseval():
    f = TestFunction(1, (0.3,), 0.6, {(0,): 1.0, (1,): -0.7j}, (0.5,))
    assert f.fourier().l2_norm_sq() == pytest.approx(f.l2_norm_sq(), rel=1e-12)


def test_tensor_eval_and_involutions():
    f = TestFunction.gaussian((0.5, 0.0), 1.0, 1.0, (0.3, 0.0))
    g = TestFunction.gaussian((-0.2, 0.4), 0.7, 1.0 - 0.5j)
    t = TensorTestFunction((f, g), 2.0)
    pts = np.array([[[0.1, 0.2], [0.3, -0.1]]])
    assert t(pts)[0] == pytest.approx(2.0 * f([0.1, 0.2]) * g([0.3, -0.1]), rel=1e-12)
    tm = t.involution_momentum()
    assert tm(pts)[0] == pytest.approx(
        np.conj(2.0 * f([-0.3, 0.1]) * g([-0.1, -0.2])), rel=1e-12
    )


@pytest.mark.parametrize("f, pairs", [
    (TestFunction.gaussian((0.4,), 0.9, 1.0 - 0.3j, (0.6,)), 1),
    (TestFunction(1, (-0.2,), 0.7, {(0,): 1.0, (1,): 0.3j, (3,): -0.2}, (1.1,)), 1),
    (TestFunction.gaussian((0.3, -0.5), 0.8, 0.5 + 0.5j, (0.7, -1.1)), 1),
    (TestFunction(2, (0.3, -0.5), 0.8,
                  {(0, 0): 1.0, (1, 0): 0.4 - 0.2j, (1, 1): -0.7j, (0, 2): 0.25},
                  (0.7, -1.1)), 3),
], ids=["d1-gaussian", "d1-poly", "d2-gaussian", "d2-poly"])
def test_axis_split_reproduces_call(f, pairs):
    """f(x0, xr) = sum_r E_r(x0) R_r(xr), with one pair per power on the
    axes after the first, and the one pair (f, 1) in one dimension."""
    split = f.axis_split()
    assert len(split) == pairs
    rng = np.random.default_rng(7)
    pts = f.center + rng.uniform(-2.5, 2.5, size=(200, f.dim))
    got = sum(e(pts[:, :1]) * (r(pts[:, 1:]) if f.dim > 1 else r) for e, r in split)
    want = f(pts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if f.dim == 1:
        assert split == [(f, 1.0)]
