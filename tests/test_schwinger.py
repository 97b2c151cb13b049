import math

import numpy as np
import pytest
from scipy import integrate

from kreinfield.errors import PreconditionError, SingularConfigurationError
from kreinfield.euclidean import noise_generator, smear, white_noise_field, convolve
from kreinfield.green import (
    GreenSpec,
    fractional_kernel_values,
    green_alpha_lattice,
    harmonic_kernel_lattice,
)
from kreinfield.lattice import Lattice, LatticeField, sample_function
from kreinfield.levy import LevyTriple, cumulant_coeff
from kreinfield.schwinger import (
    full_from_truncated_lattice,
    kernel_product_integral,
    pair_correlator_vector,
    product_integral_vector,
    smeared_truncated_correlator,
)
from kreinfield.testfunctions import TestFunction

ATOM_TRIPLE = LevyTriple(drift=0.1, variance=0.5, atoms=((1.0, 2.0),))


def test_two_point_contraction_is_doubled_exponent_kernel():
    lat = Lattice(2, 64, 0.25)
    spec = GreenSpec(2, 0.25, 1.0)
    doubled = fractional_kernel_values(lat, 0.5, 1.0)
    y1, y2 = np.array([0.75, -0.5]), np.array([-0.25, 0.5])
    got = kernel_product_integral(green_alpha_lattice(lat, spec), [y1, y2])
    want = doubled[lat.site_index(y1 - y2)]
    assert got == pytest.approx(want, rel=1e-10)


def test_contraction_symmetry_and_translation():
    lat = Lattice(2, 32, 0.25)
    spec = GreenSpec(2, 0.5, 1.0)
    pts = [np.array([0.5, 0.0]), np.array([-0.25, 0.5]), np.array([0.0, -0.75])]
    kernel = green_alpha_lattice(lat, spec)
    base = kernel_product_integral(kernel, pts)
    perm = kernel_product_integral(kernel, [pts[2], pts[0], pts[1]])
    assert perm == base
    shift = np.array([0.5, -0.25])  # a lattice vector
    moved = kernel_product_integral(kernel, [p + shift for p in pts])
    assert moved == pytest.approx(base, rel=1e-12)


def test_points_must_sit_in_inner_half():
    lat = Lattice(2, 16, 0.25)  # extent 4, inner half |x| <= 1
    spec = GreenSpec(2, 0.5, 2.0)
    with pytest.raises(PreconditionError):
        kernel_product_integral(green_alpha_lattice(lat, spec),
                                [np.array([1.5, 0.0]), np.zeros(2)])


def test_vector_pair_printed_values():
    y0 = np.zeros(4)
    assert pair_correlator_vector(y0, np.array([1.0, 0, 0, 0])) == 0.0
    got = pair_correlator_vector(y0, np.array([math.e, 0, 0, 0]))
    assert got == pytest.approx(-1 / (8 * math.pi), rel=1e-12)
    with pytest.raises(SingularConfigurationError):
        pair_correlator_vector(y0, y0)
    with pytest.raises(SingularConfigurationError):
        product_integral_vector(Lattice(4, 8, 0.5), [y0, y0, np.ones(4)])


def oracle_vector_three_point(z1, z2, z3):
    # collinear configuration: reduce the 4-d integral of
    # prod_j 1/(4 pi^2 ((z - z_j)^2 + rho^2)) to a 2-d (z, rho) quadrature,
    # splitting the outer axis at the singular abscissas
    def inner(z):
        val, _ = integrate.quad(
            lambda rho: rho**2
            / ((z - z1) ** 2 + rho**2)
            / ((z - z2) ** 2 + rho**2)
            / ((z - z3) ** 2 + rho**2),
            0,
            np.inf,
        )
        return val

    lo, mid, hi = sorted([z1, z2, z3])
    core, _ = integrate.quad(inner, lo - 8, hi + 8, points=[lo, mid, hi], limit=400)
    left, _ = integrate.quad(inner, -np.inf, lo - 8)
    right, _ = integrate.quad(inner, hi + 8, np.inf)
    return (core + left + right) * 4 * math.pi / (4 * math.pi**2) ** 3


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_vector_three_point_matches_quadrature_oracle():
    # box-truncation tail of the lattice sum scales like 1/(64 pi^4 R^2);
    # extent 10 keeps it near one percent
    z = (-0.5, 0.0, 0.5)
    want = oracle_vector_three_point(*z)
    lat = Lattice(4, 80, 0.125)
    pts = [np.array([zi, 0.0, 0.0, 0.0]) for zi in z]
    got = product_integral_vector(lat, pts)
    assert got == pytest.approx(want, rel=0.02)


def test_smeared_two_point_cross_check():
    lat = Lattice(2, 48, 0.25)
    spec = GreenSpec(2, 0.25, 1.0)
    f1 = TestFunction.gaussian((0.5, 0.0), 0.8)
    f2 = TestFunction.gaussian((-0.5, 0.25), 1.0, amplitude=0.7)
    got = smeared_truncated_correlator(lat, spec, ATOM_TRIPLE, [f1, f2])
    doubled = LatticeField(lat, fractional_kernel_values(lat, 0.5, 1.0))
    g1 = sample_function(lat, f1).values.real
    g2 = sample_function(lat, f2).values.real
    conv = convolve(doubled, LatticeField(lat, g2))
    want = cumulant_coeff(2, ATOM_TRIPLE) * smear(conv, g1).real
    assert got == pytest.approx(want, rel=1e-10)


def test_gaussian_three_point_vanishes():
    lat = Lattice(1, 32, 0.25)
    spec = GreenSpec(1, 0.5, 1.0)
    f = TestFunction.gaussian((0.0,), 1.0)
    got = smeared_truncated_correlator(lat, spec, LevyTriple(variance=1.0), [f, f, f])
    assert got == 0.0


def test_factorized_equals_tensor_grid():
    # tiny 1-d lattice: materialize the full rank-3 kernel tensor and contract
    lat = Lattice(1, 8, 0.5)
    spec = GreenSpec(1, 0.5, 1.5)
    G = green_alpha_lattice(lat, spec).values
    v = lat.cell_volume
    rng = np.random.default_rng(0)
    grids = [rng.normal(size=lat.shape) for _ in range(3)]
    tensor = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            for k in range(8):
                tensor[i, j, k] = (
                    np.sum(np.roll(G, i) * np.roll(G, j) * np.roll(G, k)) * v
                )
    want = cumulant_coeff(3, ATOM_TRIPLE) * np.einsum(
        "ijk,i,j,k->", tensor, *grids
    ) * v**3
    got = smeared_truncated_correlator(lat, spec, ATOM_TRIPLE, grids)
    assert got == pytest.approx(want, rel=1e-10)


def test_multilinearity():
    lat = Lattice(1, 32, 0.25)
    spec = GreenSpec(1, 0.5, 1.0)
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=lat.shape) for _ in range(3))
    s = lambda *grids: smeared_truncated_correlator(lat, spec, ATOM_TRIPLE, list(grids))
    assert s(2.5 * a, b) == pytest.approx(2.5 * s(a, b), rel=1e-12)
    assert s(a + c, b) == pytest.approx(s(a, b) + s(c, b), rel=1e-12)


def test_three_point_matches_mc_band():
    lat = Lattice(1, 64, 0.25)
    spec = GreenSpec(1, 0.5, 1.0)
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    want = smeared_truncated_correlator(lat, spec, ATOM_TRIPLE, [w, w, w])
    from kreinfield.euclidean import estimate_schwinger_mc

    G = green_alpha_lattice(lat, spec)
    est = estimate_schwinger_mc(lat, G, [w, w, w], ATOM_TRIPLE, 4000, seed=17)
    assert abs(est.value - want) < 4 * est.std_error


def test_full_moments_match_raw_mc():
    lat = Lattice(1, 32, 0.5)
    spec = GreenSpec(1, 0.5, 1.0)
    G = green_alpha_lattice(lat, spec)
    w1 = sample_function(lat, TestFunction.gaussian((0.5,), 0.9)).values.real
    w2 = sample_function(lat, TestFunction.gaussian((-0.5,), 1.2)).values.real
    want = full_from_truncated_lattice(lat, spec, ATOM_TRIPLE, [w1, w2])
    raws = []
    for r in range(3000):
        F = white_noise_field(lat, ATOM_TRIPLE, noise_generator(77, r))
        X = convolve(G, F)
        raws.append(smear(X, w1).real * smear(X, w2).real)
    raws = np.asarray(raws)
    se = raws.std(ddof=1) / math.sqrt(len(raws))
    assert abs(raws.mean() - want) < 4 * se
