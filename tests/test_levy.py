import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinfield.levy import (
    LevyTriple,
    QuaternionLevyData,
    characteristic_functional,
    cumulant_coeff,
    psi_eval,
    psi_eval_vector,
)
from kreinfield.testfunctions import TestFunction


def test_psi_normalization_and_symmetry():
    tri = LevyTriple(0.3, 0.5, ((1.5, 2.0), (-0.7, 0.4)))
    assert psi_eval(0.0, tri) == 0.0
    ts = np.linspace(-4, 4, 33)
    assert np.allclose(psi_eval(-ts, tri), np.conj(psi_eval(ts, tri)), atol=1e-14)


def test_cumulant_examples():
    unit = LevyTriple(0.0, 0.0, ((1.0, 1.0),))
    assert cumulant_coeff(1, unit) == pytest.approx(0.5)
    assert cumulant_coeff(2, unit) == pytest.approx(1.0)
    for n in range(3, 7):
        assert cumulant_coeff(n, unit) == pytest.approx(1.0)
    neg = LevyTriple(0.0, 0.0, ((-2.0, 3.0),))
    assert cumulant_coeff(3, neg) == pytest.approx(-24.0)
    gauss = LevyTriple(0.1, 0.9)
    assert cumulant_coeff(1, gauss) == pytest.approx(0.1)
    assert cumulant_coeff(2, gauss) == pytest.approx(0.9)
    assert cumulant_coeff(5, gauss) == 0.0


def test_cumulants_match_taylor_derivatives():
    # central finite differences of psi(lam t) at lam=0, evaluated in extended
    # precision (independent reimplementation of the exponent) so the quintic
    # stencil is not drowned by float64 cancellation
    import mpmath as mp

    mp.mp.dps = 50
    drift, var, atoms = 0.2, 0.4, ((1.2, 0.8), (-0.5, 1.5))
    tri = LevyTriple(drift, var, atoms)

    def psi_mp(t):
        out = mp.mpc(0, drift * t) - mp.mpf(var) * t * t / 2
        for s, lam in atoms:
            out += lam * (mp.expjpi(s * t / mp.pi) - 1 - mp.mpc(0, s * t) / (1 + s * s))
        return out

    t = mp.mpf("0.7")
    h = mp.mpf("1e-3")
    vals = [psi_mp(k * h * t) for k in range(-3, 4)]
    stencils = {
        1: ([(-1, -0.5), (1, 0.5)], 1),
        2: ([(-1, 1), (0, -2), (1, 1)], 2),
        3: ([(-2, -0.5), (-1, 1), (1, -1), (2, 0.5)], 3),
        4: ([(-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)], 4),
        5: ([(-3, -0.5), (-2, 2), (-1, -2.5), (1, 2.5), (2, -2), (3, 0.5)], 5),
    }
    for n in range(1, 6):
        pts, order = stencils[n]
        acc = mp.mpc(0)
        for off, w in pts:
            acc += mp.mpf(w) * vals[off + 3]
        got = acc / h**order / mp.mpc(0, 1) ** n
        want = cumulant_coeff(n, tri) * 0.7**n
        assert float(mp.re(got)) == pytest.approx(want, rel=1e-4)
        assert abs(float(mp.im(got))) < 1e-6 * max(1.0, abs(want))


def test_characteristic_functional_gaussian_closed_form():
    sigma2 = 0.8
    tri = LevyTriple(0.0, sigma2)
    phi = TestFunction(1, (0.2,), 0.9, {(0,): 1.3})
    got = characteristic_functional(phi, tri, tol=1e-11)
    want = math.exp(-0.5 * sigma2 * phi.l2_norm_sq())
    assert got == pytest.approx(want, rel=1e-8)


def test_characteristic_functional_drift_closed_form():
    a = 0.7
    tri = LevyTriple(a, 0.0)
    phi = TestFunction(2, (0.0, -0.3), 0.8, {(0, 0): 0.4, (2, 0): 0.2})
    got = characteristic_functional(phi, tri, tol=1e-11)
    want = np.exp(1j * a * phi.integral())
    assert got == pytest.approx(want, rel=1e-8)


def test_characteristic_functional_modulus_bound():
    tri = LevyTriple(0.4, 0.3, ((2.0, 1.0),))
    for amp, width in [(0.5, 0.6), (2.0, 1.1), (-1.5, 0.8)]:
        phi = TestFunction(1, (0.0,), width, {(0,): amp})
        val = characteristic_functional(phi, tri, tol=1e-9)
        assert abs(val) <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-1, 1),
    st.floats(0, 1),
    st.floats(-2, 2).filter(lambda s: abs(s) > 0.05),
    st.floats(0, 2),
)
def test_psi_bounded_real_part(a, sig2, s, lam):
    tri = LevyTriple(a, sig2, ((s, lam),))
    ts = np.linspace(-5, 5, 41)
    assert np.all(psi_eval(ts, tri).real <= 1e-12)


def test_vector_psi_small_jump_compensated():
    data = QuaternionLevyData(0.0, 0.0, 0.0, ((0.5, 1.0),))
    x = np.array([0.3, 0.1, -0.2, 0.0])
    got = psi_eval_vector(x, data)
    want = np.exp(1j * 0.3 * 0.5) - 1 - 1j * 0.3 * 0.5
    assert got == pytest.approx(want, rel=1e-12)
    # large jumps are not compensated
    data2 = QuaternionLevyData(0.0, 0.0, 0.0, ((2.0, 1.0),))
    got2 = psi_eval_vector(x, data2)
    assert got2 == pytest.approx(np.exp(1j * 0.6) - 1, rel=1e-12)
