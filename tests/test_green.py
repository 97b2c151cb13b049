import math

import numpy as np
import pytest
from scipy import integrate

from kreinfield.errors import ConfigurationError, DomainError
from kreinfield.green import (
    GreenSpec,
    dbar_g_analytic,
    dbar_g_kernel,
    fractional_kernel_values,
    green_alpha_lattice,
    harmonic_kernel_lattice,
)
from kreinfield.lattice import Lattice, LatticeField, sample_function
from kreinfield.quaternion import (
    Quaternion,
    apply_left_del,
    dbar_of_scalar,
    quaternion_mul,
)
from kreinfield.testfunctions import TestFunction


# ---- lattice basics ----

def test_lattice_coords_and_duals():
    lat = Lattice(2, 8, 0.5)
    ax = lat.axis_coords()
    assert ax[0] == 0.0 and ax[1] == 0.5 and ax[-1] == -0.5
    assert lat.extent == 4.0
    assert lat.cell_volume == 0.25
    k = lat.dual_axis()
    assert k[1] == pytest.approx(2 * math.pi / 4.0)
    assert lat.site_index((0.5, -0.5)) == (1, 7)
    assert lat.in_inner_half((1.0, -1.0))
    assert not lat.in_inner_half((1.1, 0.0))


def test_lattice_field_shapes():
    lat = Lattice(2, 4, 1.0)
    LatticeField(lat, np.zeros((4, 4)))
    LatticeField(lat, np.zeros((4, 4, 4)))  # quaternion components
    with pytest.raises(Exception):
        LatticeField(lat, np.zeros((4, 3)))


# ---- scalar kernel ----

def test_alpha_range_enforced():
    with pytest.raises(DomainError):
        GreenSpec(2, 0.6, 1.0)
    with pytest.raises(DomainError):
        GreenSpec(2, 0.0, 1.0)
    GreenSpec(2, 0.5, 1.0)


def test_resolution_guard():
    lat = Lattice(1, 16, 0.1)  # extent 1.6, mass 1 -> 1.6 < 4
    with pytest.raises(ConfigurationError):
        green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))


def test_sum_rule_exact():
    for dim, n, dx, alpha, mass in [(1, 64, 0.25, 0.5, 1.0), (2, 32, 0.5, 0.25, 0.5)]:
        lat = Lattice(dim, n, dx)
        field = green_alpha_lattice(lat, GreenSpec(dim, alpha, mass))
        assert field.integral().real == pytest.approx(mass ** (-2 * alpha), rel=1e-12)


def test_kernel_even_and_real():
    lat = Lattice(2, 16, 0.5)
    vals = green_alpha_lattice(lat, GreenSpec(2, 0.5, 1.0)).values
    assert np.allclose(vals, np.roll(vals[::-1, ::-1], (1, 1), axis=(0, 1)), atol=1e-14)
    assert vals.dtype.kind == "f"


def oracle_kernel_1d(x, alpha, mass):
    # (1/pi) * integral_0^inf cos(kx) (k^2+m^2)^(-alpha) dk via Fourier quadrature
    val, _ = integrate.quad(
        lambda k: (k * k + mass * mass) ** (-alpha), 0, np.inf, weight="cos", wvar=x
    )
    return val / math.pi


def test_lattice_kernel_matches_1d_oracle():
    # momentum-truncation ripple scales like dx^2/(pi^3 x^2 G(x)); the chosen
    # spacing keeps it under 5e-4 at every tested site
    lat = Lattice(1, 1024, 1 / 32)
    field = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    xs = lat.axis_coords()
    for j in [16, 32, 64, 96]:  # x in [0.5, 3]
        want = oracle_kernel_1d(xs[j], 0.5, 1.0)
        assert field.values[j] == pytest.approx(want, rel=1e-3)


def test_kernel_monotone_inner_half_1d():
    lat = Lattice(1, 256, 1 / 16)
    vals = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0)).values
    inner = vals[1:64]  # x from dx up to a quarter extent
    assert np.all(np.diff(inner) < 0)


def test_lattice_kernel_matches_2d_closed_form():
    # alpha = 1/2, d = 2: kernel equals exp(-m r) / (2 pi r)
    # off-axis sites: on the axes the truncation tail loses its oscillatory
    # cancellation and the comparison would need a much finer grid
    lat = Lattice(2, 256, 1 / 16)
    vals = green_alpha_lattice(lat, GreenSpec(2, 0.5, 1.0)).values
    xs = lat.axis_coords()
    for i, j in [(16, 12), (20, 20), (24, 10), (12, 28)]:
        r = math.hypot(xs[i], xs[j])
        want = math.exp(-r) / (2 * math.pi * r)
        assert vals[i, j] == pytest.approx(want, rel=2e-3)


def test_doubled_exponent_identity():
    # convolving the kernel with itself squares the symbol
    lat = Lattice(2, 64, 0.25)
    a = fractional_kernel_values(lat, 0.25, 1.0)
    b = fractional_kernel_values(lat, 0.5, 1.0)
    conv = np.fft.ifftn(np.fft.fftn(a) ** 2).real * lat.cell_volume
    assert np.allclose(conv, b, rtol=0, atol=1e-10 * np.max(np.abs(b)))


def test_kernel_that_is_not_real_raises():
    # a non-finite mass leaves the symbol without a real inverse transform;
    # the check is an exception, so it holds under python -O too
    with pytest.raises(DomainError, match="not real"):
        fractional_kernel_values(Lattice(1, 16, 0.5), 0.5, float("nan"))


# ---- quaternion algebra ----

def test_hamilton_product_example():
    one_i = Quaternion(1, 1, 0, 0)
    one_j = Quaternion(1, 0, 1, 0)
    assert one_i * one_j == Quaternion(1, 1, 1, 1)
    i, j, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
    assert i * j == k and j * k == i and k * i == j
    assert i * i == Quaternion(-1, 0, 0, 0)


def test_array_product_matches_scalar():
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 4))
    p = Quaternion(*a) * Quaternion(*b)
    assert np.allclose(quaternion_mul(a, b), [p.w, p.x, p.y, p.z])
    # associativity and norm multiplicativity
    left = quaternion_mul(quaternion_mul(a, b), c)
    right = quaternion_mul(a, quaternion_mul(b, c))
    assert np.allclose(left, right, atol=1e-12)
    assert np.linalg.norm(quaternion_mul(a, b)) == pytest.approx(
        np.linalg.norm(a) * np.linalg.norm(b)
    )
    # conjugation is an anti-automorphism
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    assert np.allclose(
        conj * quaternion_mul(a, b),
        quaternion_mul(conj * b, conj * a),
        atol=1e-12,
    )


def test_del_dbar_is_laplacian():
    # analytic first-order pair applied to a polynomial-Gaussian scalar equals
    # its Laplacian; cross-checked against finite differences of the function
    f = TestFunction(4, (0.1, -0.2, 0.0, 0.3), 1.0, {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): 0.4})
    q = apply_left_del(dbar_of_scalar(f))
    lap = None
    for ax in range(4):
        term = f.derivative(ax).derivative(ax)
        lap = term if lap is None else lap + term
    pts = np.random.default_rng(5).uniform(-1, 1, size=(6, 4))
    assert np.allclose(q[0](pts), lap(pts), rtol=1e-10, atol=1e-12)
    for comp in q[1:]:
        assert np.max(np.abs(comp(pts))) < 1e-12
    # finite-difference Laplacian oracle
    h = 1e-3
    for p in pts[:3]:
        fd = 0.0
        for ax in range(4):
            e = np.zeros(4)
            e[ax] = h
            fd += (f(p + e) - 2 * f(p) + f(p - e)) / h**2
        assert complex(lap(p)) == pytest.approx(complex(fd), rel=1e-4)


# ---- quaternionic kernels ----

def test_dbar_kernel_values_and_symmetry():
    lat = Lattice(4, 16, 0.25)
    K = dbar_g_kernel(lat).values
    assert np.allclose(K[0, 0, 0, 0], 0.0)
    x = np.array([0.5, 0.25, 0.0, -0.25])
    want = x / (2 * math.pi**2 * np.sum(x * x) ** 2)
    got = K[lat.site_index(x)]
    assert np.allclose(got, want, rtol=1e-12)
    # odd under reflection and homogeneous of degree -3
    assert np.allclose(dbar_g_analytic(-x), -dbar_g_analytic(x))
    assert np.allclose(dbar_g_analytic(2 * x), dbar_g_analytic(x) / 8)


def test_harmonic_kernel_origin_average_finite():
    lat = Lattice(4, 8, 0.5)
    g = harmonic_kernel_lattice(lat).values
    assert np.isfinite(g[0, 0, 0, 0])
    assert g[0, 0, 0, 0] > g[1, 0, 0, 0] > 0


def test_dbar_kernel_is_gradient_of_g():
    # central differences of the sampled g against the analytic directional
    # kernel (first component = -d0 g), interior sites
    lat = Lattice(4, 48, 0.125)
    g = harmonic_kernel_lattice(lat).values
    K = dbar_g_kernel(lat).values
    for site in [(16, 0, 0, 0), (12, 8, 4, 0), (0, 14, 8, 6)]:
        x = np.array([lat.axis_coords()[i] for i in site])
        if np.linalg.norm(x) < 1.5:
            continue
        for ax in range(4):
            up = tuple((site[a] + (1 if a == ax else 0)) % 48 for a in range(4))
            dn = tuple((site[a] - (1 if a == ax else 0)) % 48 for a in range(4))
            fd = (g[up] - g[dn]) / (2 * lat.spacing)
            assert fd == pytest.approx(-K[site][ax], rel=1e-2, abs=1e-6)


def test_unit_flux_through_lattice_sphere():
    # forward-difference flux of -grad g through a centered cube surface
    lat = Lattice(4, 32, 0.15)
    g = np.fft.fftshift(harmonic_kernel_lattice(lat).values)
    c = 16
    R = 9  # cube "radius" in cells
    flux = 0.0
    dx = lat.spacing
    for ax in range(4):
        for sign in (+1, -1):
            idx_out = [slice(c - R, c + R + 1)] * 4
            idx_in = [slice(c - R, c + R + 1)] * 4
            if sign > 0:
                idx_in[ax] = c + R
                idx_out[ax] = c + R + 1
            else:
                idx_in[ax] = c - R
                idx_out[ax] = c - R - 1
            # outward normal derivative: one spacing step from the boundary
            # layer to the first exterior layer, same formula on both faces
            grad = (g[tuple(idx_out)] - g[tuple(idx_in)]) / dx
            flux += -np.sum(grad) * dx**3
    assert flux == pytest.approx(1.0, rel=0.05)
