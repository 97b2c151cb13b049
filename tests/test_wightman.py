import math

import numpy as np
import pytest
from scipy import integrate

from kreinfield.errors import DomainError, PreconditionError, SingularConfigurationError
from kreinfield.green import GreenSpec
from kreinfield.lattice import Lattice
from kreinfield.levy import LevyTriple, cumulant_coeff
from kreinfield.quadrature import gl_nodes
from kreinfield.testfunctions import TestFunction, TensorTestFunction
from kreinfield.wightman import (
    bracket_scalar,
    cluster_decay,
    factorized_eval,
    laplace_bridge_check,
    minkowski_translate,
    reflect_three_slot,
    spectral_density,
    spectral_support_check,
    three_point_eval_1d,
    truncated_momentum_eval,
    two_point_density_eval,
    two_point_shell_eval,
    vector_measure_eval,
    vector_measure_radial,
)

ATOM_TRIPLE = LevyTriple(drift=0.1, variance=0.5, atoms=((1.0, 2.0),))


# -- branch densities ---------------------------------------------------------


def test_density_branch_values():
    spec = GreenSpec(2, 0.4, 1.0)
    k = np.array([-2.0, 0.5])  # timelike, negative energy
    msq = 4.0 - 0.25 - 1.0
    base = (2 * math.pi) ** -1 * msq ** -0.4
    assert spectral_density(k, spec, "-") == pytest.approx(
        math.sin(0.4 * math.pi) * base, rel=1e-12)
    assert spectral_density(k, spec, "+") == 0.0
    assert spectral_density(k, spec, "0") == pytest.approx(
        math.cos(0.4 * math.pi) * base, rel=1e-12)

    kgap = np.array([0.5, 0.3])  # inside the mass gap
    mgap = abs(0.25 - 0.09 - 1.0)
    assert spectral_density(kgap, spec, "0") == pytest.approx(
        (2 * math.pi) ** -1 * mgap ** -0.4, rel=1e-12)
    assert spectral_density(kgap, spec, "+") == 0.0
    assert spectral_density(kgap, spec, "-") == 0.0

    spec1 = GreenSpec(1, 0.5, 2.0)
    k1 = np.array([-3.0])
    assert spectral_density(k1, spec1, "-") == pytest.approx(
        (2 * math.pi) ** -0.5 * (9.0 - 4.0) ** -0.5, rel=1e-12)


def test_density_guards():
    spec = GreenSpec(1, 0.5, 1.0)
    with pytest.raises(SingularConfigurationError):
        spectral_density(np.array([1.0]), spec, "-")
    with pytest.raises(PreconditionError):
        spectral_density(np.array([1.0, 0.0]), spec, "-")
    with pytest.raises(DomainError):
        spectral_density(np.array([-2.0]), spec, "x")
    with pytest.raises(DomainError):
        GreenSpec(1, 0.7, 1.0)


def test_bracket_pair_reduction_on_hyperplane():
    # with k2 = -k1 the two-slot bracket collapses to
    # (2 pi)^-d sin(2 pi a) |k^2 - m^2|^(-2a) below the backward shell
    spec = GreenSpec(2, 0.3, 1.0)
    k0 = np.array([-2.5, -1.7])
    kv = np.array([0.6, 0.9])
    k0s = np.stack([k0, -k0])
    kvs = np.stack([kv * kv, kv * kv])
    got = bracket_scalar(k0s, kvs, spec)
    msq = k0 * k0 - kv * kv - 1.0
    want = (2 * math.pi) ** -2 * math.sin(0.6 * math.pi) * msq ** -0.6
    assert got == pytest.approx(want, rel=1e-12)
    # and vanishes when the first slot sits in the gap
    k0g = np.array([0.4])
    kvg = np.array([0.2])
    gap = bracket_scalar(np.stack([k0g, -k0g]), np.stack([kvg**2, kvg**2]), spec)
    assert gap[0] == 0.0


# -- pair evaluators ----------------------------------------------------------


def test_pair_shell_closed_form_d1():
    spec = GreenSpec(1, 0.5, 1.3)
    m = spec.mass
    g1 = TestFunction.gaussian((-0.9,), 0.8)
    g2 = TestFunction.gaussian((1.1,), 1.2)
    got = truncated_momentum_eval(TensorTestFunction((g1, g2)), spec, ATOM_TRIPLE)
    c2 = cumulant_coeff(2, ATOM_TRIPLE)
    want = (
        math.pi * c2 / m
        * math.exp(-((-m + 0.9) ** 2) / (2 * 0.8**2))
        * math.exp(-((m - 1.1) ** 2) / (2 * 1.2**2))
    )
    assert complex(got).real == pytest.approx(want, rel=1e-12)
    assert complex(got).imag == pytest.approx(0.0, abs=1e-14)


def test_pair_shell_d2_matches_quad_oracle():
    spec = GreenSpec(2, 0.5, 1.0)
    g1 = TestFunction.gaussian((-1.2, 0.4), 0.9)
    g2 = TestFunction.gaussian((1.0, -0.6), 1.1)
    got = two_point_shell_eval(TensorTestFunction((g1, g2)), spec, ATOM_TRIPLE)

    def integrand(q):
        w = math.sqrt(q * q + 1.0)
        return (g1(np.array([-w, q])) * g2(np.array([w, -q]))).real / (2 * w)

    val, err = integrate.quad(integrand, -30, 30, limit=200)
    want = 2 * math.pi * cumulant_coeff(2, ATOM_TRIPLE) * val
    assert complex(got).real == pytest.approx(want, rel=1e-8)


def test_pair_density_d2_matches_substituted_gauss_rule():
    """alpha = 0.35 in d = 2 against a direct tensor Gauss-Legendre sum in
    which k0 = -w(q) - r^p, p = 1 / (1 - 2 alpha), turns the shell
    singularity (-w - k0)^(-0.7) into the constant p."""
    alpha, m = 0.35, 1.0
    spec = GreenSpec(2, alpha, m)
    g1 = TestFunction.gaussian((-1.5, 0.3), 0.8, freq=(0.3, -0.4))
    g2 = TestFunction.gaussian((1.4, -0.2), 0.9)
    got = two_point_density_eval(TensorTestFunction((g1, g2)), spec, ATOM_TRIPLE)

    p = 1.0 / (1.0 - 2.0 * alpha)
    qmax = math.sqrt(40.0**2 - m * m)
    q, wq = gl_nodes(-qmax, qmax, 600)
    w = np.sqrt(q * q + m * m)[:, None]
    rmax = (40.0 - w) ** (1.0 / p)
    t, wt = gl_nodes(0.0, 1.0, 300)
    d = (rmax * t) ** p
    k = np.stack([-w - d, np.broadcast_to(q[:, None], d.shape)], axis=-1)
    body = g1(k) * g2(-k) * (2.0 * w + d) ** (-2.0 * alpha) * p * rmax * wt
    want = np.sum(np.sum(body, axis=1) * wq)
    want *= 2 * cumulant_coeff(2, ATOM_TRIPLE) * math.sin(2 * math.pi * alpha)
    assert abs(got.imag) > 0.05 * abs(got.real)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_pair_density_vanishes_at_half():
    spec = GreenSpec(1, 0.5, 1.0)
    with pytest.raises(PreconditionError):
        two_point_density_eval(
            TensorTestFunction((TestFunction.gaussian((-1.5,), 0.7),
                                TestFunction.gaussian((1.5,), 0.7))),
            spec, ATOM_TRIPLE)
    with pytest.raises(PreconditionError):
        two_point_shell_eval(
            TensorTestFunction((TestFunction.gaussian((-1.5,), 0.7),
                                TestFunction.gaussian((1.5,), 0.7))),
            GreenSpec(1, 0.3, 1.0), ATOM_TRIPLE)


# -- Laplace bridges ----------------------------------------------------------


def test_pair_bridge_d2_alpha_half():
    spec = GreenSpec(2, 0.5, 1.0)
    lat = Lattice(2, 128, 0.0625)
    report = laplace_bridge_check(
        np.array([[0.0, 0.0], [0.8125, 0.25]]), spec, ATOM_TRIPLE, lat)
    assert report.gap < 1e-2


def test_pair_bridge_d1_alpha_quarter():
    spec = GreenSpec(1, 0.25, 1.0)
    lat = Lattice(1, 2048, 0.015625)
    report = laplace_bridge_check(
        np.array([[0.0], [0.75]]), spec, ATOM_TRIPLE, lat)
    assert report.gap < 5e-3


@pytest.mark.xfail(strict=True, reason="known defect: for alpha in (1/4, 1/2) the "
                   "pair-bridge loop stops at 4096 nodes without meeting its 1e-9 "
                   "test and returns that value (relative error 7.7e-5 here)")
def test_pair_bridge_d1_alpha_035_matches_closed_form():
    # integral_m^inf e^(-k dt) (k^2 - m^2)^(-2 alpha) dk
    #   = Gamma(1 - 2 alpha) / sqrt(pi) (2 m / dt)^nu K_nu(m dt), nu = 1/2 - 2 alpha
    from scipy.special import gamma, kv

    alpha, m, dt = 0.35, 1.0, 0.75
    spec = GreenSpec(1, alpha, m)
    report = laplace_bridge_check(
        np.array([[0.0], [dt]]), spec, ATOM_TRIPLE, Lattice(1, 64, 0.25))
    nu = 0.5 - 2 * alpha
    closed = (cumulant_coeff(2, ATOM_TRIPLE) * math.sin(2 * math.pi * alpha) / math.pi
              * gamma(1 - 2 * alpha) / math.sqrt(math.pi)
              * (2 * m / dt) ** nu * kv(nu, m * dt))
    assert report.rhs == pytest.approx(closed, rel=1e-8)


def test_three_point_bridge_d1():
    spec = GreenSpec(1, 0.5, 1.0)
    lat = Lattice(1, 1024, 0.025)
    report = laplace_bridge_check(
        np.array([[0.0], [0.7], [1.8]]), spec, ATOM_TRIPLE, lat)
    assert report.gap < 5e-2


def test_three_point_bridge_d2():
    spec = GreenSpec(2, 0.5, 1.0)
    lat = Lattice(2, 96, 0.125)
    pts = np.array([[0.0, 0.0], [1.0, 0.25], [2.0, -0.25]])
    report = laplace_bridge_check(pts, spec, ATOM_TRIPLE, lat)
    assert report.gap < 2e-2


def test_bridge_requires_increasing_times():
    spec = GreenSpec(1, 0.5, 1.0)
    lat = Lattice(1, 256, 0.05)
    with pytest.raises(PreconditionError):
        laplace_bridge_check(np.array([[0.5], [0.0]]), spec, ATOM_TRIPLE, lat)


# -- distributional symmetries --------------------------------------------------


def test_translation_phase_invariance():
    # the total-momentum delta makes a common translation phase drop out exactly
    spec = GreenSpec(1, 0.5, 1.0)
    gs = (TestFunction.gaussian((-1.6,), 0.8),
          TestFunction.gaussian((-0.2,), 0.9),
          TestFunction.gaussian((1.9,), 1.0))
    base = truncated_momentum_eval(TensorTestFunction(gs), spec, ATOM_TRIPLE, 1e-6)
    moved = TensorTestFunction(
        tuple(minkowski_translate(g, (0.9,), 1.0) for g in gs))
    shifted = truncated_momentum_eval(moved, spec, ATOM_TRIPLE, 1e-6)
    assert abs(shifted - base) <= 1e-10 * abs(base)

    spec2 = GreenSpec(2, 0.5, 1.0)
    pair = (TestFunction.gaussian((-1.3, 0.5), 0.9),
            TestFunction.gaussian((1.2, -0.4), 1.0))
    b2 = truncated_momentum_eval(TensorTestFunction(pair), spec2, ATOM_TRIPLE)
    m2 = TensorTestFunction(
        tuple(minkowski_translate(g, (0.7, -0.4), 2.0) for g in pair))
    s2 = truncated_momentum_eval(m2, spec2, ATOM_TRIPLE)
    assert abs(s2 - b2) <= 1e-9 * abs(b2)


def test_hermiticity_under_momentum_star():
    spec = GreenSpec(1, 0.5, 1.0)
    t = TensorTestFunction(
        (TestFunction.gaussian((-1.5,), 0.8, freq=(0.7,)),
         TestFunction.gaussian((-0.3,), 1.0, amplitude=0.5 + 0.25j, freq=(-0.4,)),
         TestFunction.gaussian((1.8,), 0.9, freq=(0.2,))),
        prefactor=1.2 - 0.3j,
    )
    val = truncated_momentum_eval(t, spec, ATOM_TRIPLE, 1e-7)
    starred = truncated_momentum_eval(
        t.involution_momentum(), spec, ATOM_TRIPLE, 1e-7)
    assert starred == pytest.approx(np.conj(val), rel=1e-7)

    spec2 = GreenSpec(2, 0.5, 1.0)
    pair = TensorTestFunction(
        (TestFunction.gaussian((-1.2, 0.3), 0.9, freq=(0.5, -0.2)),
         TestFunction.gaussian((1.0, -0.5), 1.1, amplitude=1.0 - 0.5j)),
        prefactor=0.8 + 0.1j,
    )
    v2 = truncated_momentum_eval(pair, spec2, ATOM_TRIPLE)
    s2 = truncated_momentum_eval(pair.involution_momentum(), spec2, ATOM_TRIPLE)
    assert s2 == pytest.approx(np.conj(v2), rel=1e-8)


FACTORIZED_D1 = TensorTestFunction(
    (TestFunction.gaussian((-1.7,), 0.9),
     TestFunction.gaussian((-0.4,), 0.8),
     TestFunction.gaussian((2.0,), 1.0)))
FACTORIZED_D2 = TensorTestFunction(
    (TestFunction.gaussian((-1.2, 0.3), 0.9),
     TestFunction.gaussian((-0.2, -0.5), 0.8),
     TestFunction.gaussian((1.6, 0.4), 1.0)))


def test_factorized_matches_hyperplane_d1():
    spec = GreenSpec(1, 0.5, 1.0)
    via_plane = truncated_momentum_eval(FACTORIZED_D1, spec, ATOM_TRIPLE, 1e-7)
    via_factors = factorized_eval(FACTORIZED_D1, spec, ATOM_TRIPLE, tol=1e-4)
    assert abs(via_factors - via_plane) <= 1e-2 * abs(via_plane)


def test_factorized_matches_tensor_quadrature_d2():
    spec = GreenSpec(2, 0.5, 1.0)
    # pinned from the four-axis split quadrature on the same slots, tol 2e-3
    want = 0.01698840384595328
    got = factorized_eval(FACTORIZED_D2, spec, ATOM_TRIPLE, tol=5e-3)
    assert abs(got.imag) < 1e-12
    assert got.real == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("dim, alpha, test, want", [
    (2, 0.5, FACTORIZED_D2, 0.01699268330016418),
    # alpha < 1/2 brings in the cos(pi alpha) cosh pieces of the 0 branch
    (2, 0.35, FACTORIZED_D2, 0.012176203414709603),
    (1, 0.35, FACTORIZED_D1, 0.28358155381079303),
])
def test_factorized_values_are_pinned(dim, alpha, test, want):
    """Pinned from the per-branch transforms, one complex phase tensor per branch."""
    got = factorized_eval(test, GreenSpec(dim, alpha, 1.0), ATOM_TRIPLE, tol=1e-3)
    assert abs(got.imag) < 1e-12
    assert got.real == pytest.approx(want, rel=1e-12)


def test_factorized_needs_three_slots():
    spec = GreenSpec(1, 0.5, 1.0)
    with pytest.raises(PreconditionError):
        factorized_eval(
            TensorTestFunction((TestFunction.gaussian((-1.0,), 1.0),
                                TestFunction.gaussian((1.0,), 1.0))),
            spec, ATOM_TRIPLE)


# -- spectral condition and clustering -------------------------------------------


def test_spectral_support_check_d1():
    spec = GreenSpec(1, 0.5, 1.0)
    off_centers = [(0.0, 0.0, 0.0), (2.0, 2.0, -4.0),
                   (-3.0, 3.0, 0.0), (1.5, -0.5, -1.0)]
    off = [
        TensorTestFunction(tuple(TestFunction.gaussian((c,), 0.1) for c in cs))
        for cs in off_centers
    ]
    control = TensorTestFunction(
        (TestFunction.gaussian((-1.8,), 0.4),
         TestFunction.gaussian((0.0,), 0.4),
         TestFunction.gaussian((1.8,), 0.4)))
    out = spectral_support_check(spec, ATOM_TRIPLE, off, control)
    assert out["passed"]
    assert out["max_off_support"] <= out["tolerance"]
    assert out["control"] > 10 * out["tolerance"]


def test_cluster_decay_spacelike_ray():
    spec = GreenSpec(2, 0.5, 1.0)
    left = [TestFunction.gaussian((-0.4, 0.3), 1.0)]
    right = [TestFunction.gaussian((0.6, -0.2), 1.1)]
    rows = cluster_decay(left, right, (0.5, 1.0),
                         (0.0, 1.0, 2.0, 4.0, 8.0, 16.0), spec, ATOM_TRIPLE)
    values = [v for _, v in rows]
    assert values[-1] <= 0.1 * values[0]
    assert all(b < a for a, b in zip(values[2:], values[3:]))


def test_cluster_requires_spacelike():
    spec = GreenSpec(2, 0.5, 1.0)
    g = [TestFunction.gaussian((0.0, 0.0), 1.0)]
    with pytest.raises(DomainError):
        cluster_decay(g, g, (1.0, 0.3), (0.0, 1.0), spec, ATOM_TRIPLE)
    with pytest.raises(DomainError):
        cluster_decay(
            [TestFunction.gaussian((0.0,), 1.0)],
            [TestFunction.gaussian((0.0,), 1.0)],
            (1.0,), (0.0,), GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE)


def test_dispatcher_conventions():
    spec = GreenSpec(1, 0.5, 1.0)
    single = TensorTestFunction((TestFunction.gaussian((0.0,), 1.0),))
    assert truncated_momentum_eval(single, spec, ATOM_TRIPLE) == 0.0

    def bare(k1, k2):
        return np.ones_like(k1)

    with pytest.raises(PreconditionError):
        truncated_momentum_eval(bare, spec, ATOM_TRIPLE)


# -- massless vector-model shell measures ----------------------------------------


def radial4(c0: float, width: float) -> TestFunction:
    return TestFunction.gaussian((c0, 0.0, 0.0, 0.0), width)


VEC_PHI = TensorTestFunction((radial4(-1.0, 1.2), radial4(0.4, 1.0),
                              radial4(0.8, 1.1)))

# pinned from a 140-node run of the min/difference reference quadrature
VEC_FROZEN = {0: -2.721903469, 1: 6.240378562, 2: 4.591078334, 3: 1.615915999}


def test_vector_radial_frozen_values():
    for j, want in VEC_FROZEN.items():
        got = vector_measure_radial(j, VEC_PHI)
        assert complex(got).real == pytest.approx(want, rel=1e-5)
        assert abs(complex(got).imag) < 1e-12


def test_vector_endpoint_against_relative_angle_oracle():
    # same measure in (modulus, modulus, relative cosine) coordinates, with the
    # resolved modulus reconstructed instead of substituted; c = -1 + 2 t^2
    # keeps the 1/|a + b| factor integrable at the antiparallel edge
    cs, ws = (-1.0, 0.4, 0.8), (1.2, 1.0, 1.1)

    def g(i, k0, r):
        return np.exp(-((k0 - cs[i]) ** 2 + r**2) / (2 * ws[i] ** 2))

    n, cap = 56, 12.0
    nodes, wts = np.polynomial.legendre.leggauss(n)
    lam = 0.5 * cap * (nodes + 1)
    wl = 0.5 * cap * wts
    t = 0.5 * (nodes + 1)
    wt = 0.5 * wts
    L2, L3, T = lam[:, None, None], lam[None, :, None], t[None, None, :]
    W = wl[:, None, None] * wl[None, :, None] * wt[None, None, :]
    C = -1.0 + 2.0 * T * T
    OM = np.sqrt(np.maximum(L2**2 + L3**2 + 2 * L2 * L3 * C, 1e-300))
    jac = L2 * L3 / OM * 4.0 * T
    F = g(0, -(L2 + L3), OM) * g(1, L2, L2) * g(2, L3, L3)
    oracle = -math.pi**2 * float(np.sum(F / (L2 + L3 + OM) * jac * W))

    got = complex(vector_measure_radial(0, VEC_PHI)).real
    assert got == pytest.approx(oracle, rel=2e-2)


def test_vector_general_matches_radial():
    r0 = complex(vector_measure_radial(0, VEC_PHI)).real
    g0 = complex(vector_measure_eval(0, VEC_PHI)).real
    assert g0 == pytest.approx(r0, rel=1e-2)
    r2 = complex(vector_measure_radial(2, VEC_PHI)).real
    g2 = complex(vector_measure_eval(2, VEC_PHI)).real
    assert g2 == pytest.approx(r2, rel=2e-2)


def test_vector_reflection_identities():
    rphi = reflect_three_slot(VEC_PHI)
    m0 = complex(vector_measure_radial(0, VEC_PHI))
    m3r = complex(vector_measure_radial(3, rphi))
    assert m0.real == pytest.approx(-m3r.real, rel=1e-9)
    m1 = complex(vector_measure_radial(1, VEC_PHI))
    m2r = complex(vector_measure_radial(2, rphi))
    assert m1.real == pytest.approx(m2r.real, rel=1e-9)


def test_vector_off_support_vanishes():
    # forward-shell slot centered at sharply negative energy: no admissible
    # configuration, so the measure integrates to numerical zero
    phi_off = TensorTestFunction((radial4(-1.0, 1.2), radial4(-3.0, 0.3),
                                  radial4(0.8, 1.1)))
    assert abs(vector_measure_radial(0, phi_off)) < 1e-10
    assert abs(vector_measure_eval(0, phi_off)) < 1e-10


def test_vector_slot_index_guard():
    with pytest.raises(PreconditionError):
        vector_measure_radial(4, VEC_PHI)
    with pytest.raises(PreconditionError):
        vector_measure_eval(-1, VEC_PHI)
