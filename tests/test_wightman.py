import math

import numpy as np
import pytest
from oracles import spherical_endpoint_oracle
from scipy import integrate

from kreinfield import wightman
from kreinfield.errors import (
    DomainError,
    PreconditionError,
    QuadratureError,
    SingularConfigurationError,
)
from kreinfield.green import GreenSpec
from kreinfield.lattice import Lattice
from kreinfield.levy import LevyTriple, cumulant_coeff
from kreinfield.quadrature import (collect, gl_nodes, gregory_nodes, line_quadrature,
                                   phase_sums, refine)
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
    three_point_eval_2d,
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
    with collect() as rec:
        got = truncated_momentum_eval(TensorTestFunction((g1, g2)), spec, ATOM_TRIPLE)
    c2 = cumulant_coeff(2, ATOM_TRIPLE)
    want = (
        math.pi * c2 / m
        * math.exp(-((-m + 0.9) ** 2) / (2 * 0.8**2))
        * math.exp(-((m - 1.1) ** 2) / (2 * 1.2**2))
    )
    assert complex(got).real == pytest.approx(want, rel=1e-12)
    assert complex(got).imag == pytest.approx(0.0, abs=1e-14)
    # the closed form's record has the shape of every refined one
    assert rec == [{"op": "two_point_shell", "value": [got.real, got.imag],
                    "tolerance": 0.0, "history": [[1, got.real, got.imag]],
                    "residual": 0.0}]


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


@pytest.mark.parametrize("alpha", [0.35, 0.45])
def test_pair_density_d1_matches_substituted_gauss_rule(alpha):
    """d = 1 against a Gauss-Legendre sum in which k0 = -m - r^p,
    p = 1 / (1 - 2 alpha), turns the shell singularity (-m - k0)^(-2 alpha)
    into the constant p."""
    m = 1.0
    spec = GreenSpec(1, alpha, m)
    g1 = TestFunction.gaussian((-1.5,), 0.8, freq=(0.3,))
    g2 = TestFunction.gaussian((1.4,), 0.9)
    got = two_point_density_eval(TensorTestFunction((g1, g2)), spec, ATOM_TRIPLE)

    p = 1.0 / (1.0 - 2.0 * alpha)
    r, wr = gl_nodes(0.0, (40.0 - m) ** (1.0 / p), 400)
    d = r**p
    k0 = (-m - d)[:, None]
    want = np.sum(g1(k0) * g2(-k0) * (2.0 * m + d) ** (-2.0 * alpha) * p * wr)
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


@pytest.mark.parametrize("x", [1e-5, 1e-3, 0.02, 0.1, 1.0, 5.0, 30.0, 100.0])
def test_bessel_k0_matches_scipy(x):
    from scipy.special import k0

    assert wightman._bessel_k0(x) == pytest.approx(k0(x), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("dt, dy, lat", [
    (0.125, 4.0, Lattice(2, 96, 0.125)),
    (0.05, 2.0, Lattice(2, 160, 0.05)),
], ids=["dt0.125-dy4", "dt0.05-dy2"])
def test_pair_bridge_d2_alpha_half_is_the_free_two_point_function(dt, dy, lat):
    """Short time gaps with wide spatial ones: the pair side is c2 K_0(m r) / (2 pi)."""
    # integral_0^inf e^(-w dt) cos(q dy) / w dq = K_0(m sqrt(dt^2 + dy^2))
    # with w = sqrt(q^2 + m^2)
    from scipy.special import k0

    spec = GreenSpec(2, 0.5, 1.0)
    pts = np.array([[0.0, -dy / 2], [dt, dy / 2]])
    with collect() as rec:
        report = laplace_bridge_check(pts, spec, ATOM_TRIPLE, lat)
    closed = (cumulant_coeff(2, ATOM_TRIPLE) / (2 * math.pi)
              * k0(spec.mass * math.hypot(dt, dy)))
    assert report.rhs == pytest.approx(closed, rel=1e-14, abs=0.0)
    assert rec == [{"op": "two_point_shell", "value": [report.rhs, 0.0],
                    "tolerance": 0.0, "history": [[1, report.rhs, 0.0]],
                    "residual": 0.0}]


def test_pair_bridge_d1_alpha_half_emits_its_closed_form_record():
    """The closed form cn e^(-m dt) / (2 m) leaves the shell evaluator's one-row record."""
    with collect() as rec:
        report = laplace_bridge_check(np.array([[0.0], [0.75]]),
                                      GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                                      Lattice(1, 64, 0.25))
    rhs = cumulant_coeff(2, ATOM_TRIPLE) * math.exp(-0.75) / 2
    assert report.rhs == rhs
    assert rec == [{"op": "two_point_shell", "value": [rhs, 0.0],
                    "tolerance": 0.0, "history": [[1, rhs, 0.0]],
                    "residual": 0.0}]


def test_pair_bridge_d1_density_loop_leaves_its_record():
    """The alpha < 1/2 loop records every round and its last residual."""
    with collect() as rec:
        report = laplace_bridge_check(np.array([[0.0], [0.75]]),
                                      GreenSpec(1, 0.35, 1.0), ATOM_TRIPLE,
                                      Lattice(1, 64, 0.25))
    assert [r["op"] for r in rec] == ["pair_bridge_1d_density"]
    record = rec[0]
    assert set(record) == {"op", "value", "tolerance", "history", "residual"}
    assert record["tolerance"] == 1e-9
    assert [row[0] for row in record["history"]] == [64 << k for k in range(7)]
    assert record["value"] == record["history"][-1][1:]
    # the loop ran out without meeting its test, and says so
    assert record["residual"] > 1e-9 * abs(record["value"][0])
    assert report.rhs == (cumulant_coeff(2, ATOM_TRIPLE) * math.sin(2 * math.pi * 0.35)
                          * record["value"][0] / math.pi)


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


BRIDGE_D1_TIMES = np.array([0.0, 0.7, 1.8])
# laplace_bridge_check's box for BRIDGE_D1_TIMES: max(8 m, 45 / min gap)
BRIDGE_D1_BOX = 45.0 / 0.7


def bridge_d1_phase(k1, k2, k3):
    """The Laplace bridge's d = 1, n = 3 damped exponential at BRIDGE_D1_TIMES."""
    t = BRIDGE_D1_TIMES
    return np.exp(-(k1 * t[0] + k2 * t[1] + k3 * t[2]))


COMPLEX_D1 = TensorTestFunction(
    (TestFunction.gaussian((-1.5,), 0.8, freq=(0.7,)),
     TestFunction.gaussian((-0.3,), 1.0, amplitude=0.5 + 0.25j, freq=(-0.4,)),
     TestFunction.gaussian((1.8,), 0.9, freq=(0.2,))),
    prefactor=1.2 - 0.3j,
)


def tensor_slots(test):
    """A three-slot tensor test as an f(k1, k2, k3) callable."""
    def f(k1, k2, k3):
        return test(np.stack([k1, k2, k3], axis=-1)[..., None])
    return f


def three_point_1d_per_node(f, spec, triple, tol=1e-6, box=40.0):
    """Oracle: the d = 1 evaluator with one Python-level inner line integral
    per outer node, split at that node's shell cuts."""
    m = spec.mass
    pref = cumulant_coeff(3, triple) * 4 * (2 * math.pi) ** (1 - 1.5)

    def outer(k1):
        out = np.empty(k1.shape, dtype=complex)
        for i, k1i in enumerate(k1):
            def inner(k2, k1i=k1i):
                k1s = np.full_like(k2, k1i)
                k3 = -k1i - k2
                br = bracket_scalar(np.stack([k1s, k2, k3]),
                                    np.zeros((3,) + k2.shape), spec)
                return f(k1s, k2, k3) * br

            cuts = (-m, m, -k1i - m, -k1i + m)
            out[i] = line_quadrature(inner, -box, box, cuts, 32)
        return out

    return refine(
        lambda npts: pref * complex(
            line_quadrature(outer, -box, -m, (-2 * m,), npts)),
        (24, 36, 54, 81, 121, 181), tol, tol * abs(pref), "three_point_1d")


@pytest.mark.parametrize("f, alpha, tol, box", [
    (bridge_d1_phase, 0.5, 1e-7, BRIDGE_D1_BOX),
    (tensor_slots(COMPLEX_D1), 0.5, 1e-7, 40.0),
    # k1 in [-3, -1]: the cut -k1 + m leaves the box for k1 < -2
    (tensor_slots(COMPLEX_D1), 0.35, 1e-6, 3.0),
], ids=["bridge", "complex-tensor", "small-box"])
def test_three_point_1d_matches_per_node_loop(f, alpha, tol, box):
    spec = GreenSpec(1, alpha, 1.0)
    with collect() as got:
        three_point_eval_1d(f, spec, ATOM_TRIPLE, tol, box)
    with collect() as want:
        three_point_1d_per_node(f, spec, ATOM_TRIPLE, tol, box)
    got, want = got[0]["history"], want[0]["history"]
    assert [row[0] for row in got] == [row[0] for row in want]
    for (_, re1, im1), (_, re2, im2) in zip(got, want):
        assert abs(complex(re1, im1) - complex(re2, im2)) \
            <= 1e-14 * abs(complex(re2, im2))


def test_three_point_1d_bridge_rounds_are_pinned():
    """Pinned from the per-node loop on test_three_point_bridge_d1's points."""
    with collect() as rec:
        laplace_bridge_check(np.array([[t] for t in BRIDGE_D1_TIMES]),
                             GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                             Lattice(1, 1024, 0.025))
    history = rec[0]["history"]
    assert [row[0] for row in history] == [24, 36, 54]
    assert [row[1] for row in history] == pytest.approx(
        (0.047840173254327205, 0.047838446082214936, 0.047838166301038786),
        rel=1e-12)
    assert all(row[2] == 0.0 for row in history)


def test_bridge_recorder_matches_a_collect_block():
    """recorder= gets exactly the records a collect() block around the call sees."""
    rec = []
    with collect() as seen:
        laplace_bridge_check(np.array([[t] for t in BRIDGE_D1_TIMES]),
                             GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                             Lattice(1, 1024, 0.025), recorder=rec)
    assert [r["op"] for r in seen] == ["three_point_1d"]
    assert rec == seen


def test_three_point_1d_calls_f_once_per_round():
    """Each round hands f every inner node of the round at once."""
    shapes = []

    def f(k1, k2, k3):
        shapes.append((k1.shape, k2.shape, k3.shape))
        return bridge_d1_phase(k1, k2, k3)

    with collect() as rec:
        three_point_eval_1d(f, GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE, 1e-7,
                            BRIDGE_D1_BOX)
    # two outer pieces, split at -2m, of npts nodes each; five inner
    # k2-intervals of 32 nodes per outer node
    assert shapes == [((2 * npts, 160),) * 3 for npts, _, _ in rec[0]["history"]]


def test_three_point_bridge_d2():
    spec = GreenSpec(2, 0.5, 1.0)
    lat = Lattice(2, 96, 0.125)
    pts = np.array([[0.0, 0.0], [1.0, 0.25], [2.0, -0.25]])
    report = laplace_bridge_check(pts, spec, ATOM_TRIPLE, lat)
    assert report.gap < 2e-2


@pytest.mark.parametrize("alpha", [0.25, 0.35, 0.5])
def test_bracket3_coefficients_match_bracket_scalar(alpha):
    """Per-interval coefficient times P1 P2 P3 against the masked bracket."""
    spec = GreenSpec(2, alpha, 1.0)
    m, box = spec.mass, 25.0
    rng = np.random.default_rng(7)
    npts = 400
    # the level-4 geometry of three_point_eval_2d at random outer nodes
    k10 = rng.uniform(-box, -1.05 * m, npts)
    k11 = np.sqrt(k10 * k10 - m * m) * rng.uniform(-0.99, 0.99, npts)
    k21 = rng.uniform(-box, box, npts)
    k31 = -k11 - k21
    om2, om3 = np.hypot(k21, m), np.hypot(k31, m)
    top = -k10 - om3
    bot = -k10 - box
    c1 = np.clip(-om2, bot, top)
    c2 = np.clip(om2, c1, top)
    coefs = wightman._bracket3_coefficients(spec)
    for coef, lo, hi in zip(coefs, (bot, c1, c2), (c1, c2, top)):
        ok = hi - lo > 1e-6
        assert np.count_nonzero(ok) > 100
        k20 = lo[ok] + (hi - lo)[ok] * rng.uniform(0.001, 0.999, ok.sum())
        k0s = np.stack([k10[ok], k20, -k10[ok] - k20])
        kvs = np.stack([k11[ok], k21[ok], k31[ok]]) ** 2
        powers = np.prod(np.abs(k0s * k0s - kvs - m * m) ** -alpha, axis=0)
        want = bracket_scalar(k0s, kvs, spec)
        scale = (2 * math.pi) ** -3 * powers
        assert np.all(np.abs(coef * powers - want) <= 1e-14 * scale)
    if alpha == 0.5:
        assert coefs[0] == 0.0 and coefs[2] == 0.0
        assert coefs[1] == pytest.approx((2 * math.pi) ** -3, rel=1e-15)
    else:
        assert min(coefs) > 0.0


# the Laplace bridge's n = 3 points (t, y); its box at these times is 45 / 1.25
BRIDGE_N3_POINTS = np.array([[0.0, 0.0], [1.25, 0.25], [2.5, -0.25]])


@pytest.mark.parametrize("alpha, rounds", [
    (0.35, (1.2006988927732813e-3, 1.2000761256988322e-3)),
    (0.5, (1.728883090144059e-3, 1.7277710266892271e-3)),
])
def test_three_point_2d_rounds_are_pinned(alpha, rounds):
    """Pinned from the masked-bracket evaluator (branch masks on every node).

    Run with overflow and invalid operations raising, so that an exponent
    out of range or an inf * 0 in the level-4 exponential fails loudly.
    """
    with collect() as rec, np.errstate(over="raise", invalid="raise"):
        three_point_eval_2d(BRIDGE_N3_POINTS, GreenSpec(2, alpha, 1.0),
                            ATOM_TRIPLE, tol=1.0, energy_box=36.0)
    history = rec[0]["history"]
    assert [row[1] for row in history] == pytest.approx(rounds, rel=1e-12)
    assert all(abs(row[2]) < 1e-15 for row in history)


@pytest.mark.parametrize("alpha, rounds", [
    (0.35, (1.3550898398348808e-3, 1.3525212875387974e-3)),
    (0.5, (1.381027285318738e-3, 1.3800984087378627e-3)),
])
def test_three_point_2d_widest_bridge_box_is_pinned(alpha, rounds):
    """Widely spaced times: box 360 = 45 / 0.125, and (t3 - t2) k20 reaches ~1030.

    The damping exp((t3 - t1) k10 + (t3 - t2) k20) must be formed as one
    exponent, which is <= 0 on the support; a product of the two factors
    overflows to inf * 0 there, which the raising error state catches.
    Pinned from the evaluator that took the damped exponential as a callable.
    """
    pts = np.array([[0.0, 0.0], [0.125, 0.25], [3.0, -0.25]])
    with collect() as rec, np.errstate(over="raise", invalid="raise"):
        three_point_eval_2d(pts, GreenSpec(2, alpha, 1.0), ATOM_TRIPLE,
                            tol=1.0, energy_box=360.0)
    values = [row[1] for row in rec[0]["history"]]
    assert np.all(np.isfinite(values))
    assert values == pytest.approx(rounds, rel=1e-12)


def test_three_point_2d_half_integrates_only_the_spacelike_interval(monkeypatch):
    """At alpha = 1/2 each outer node's level-4 grid holds one interval, not three.

    The grid is observed through the one exponential that forms its density
    and damping, which lives on the upper half of level 2.
    """
    shapes = []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(wightman, "np", SpyNumpy())
    for alpha, intervals in ((0.35, 3), (0.5, 1)):
        shapes.clear()
        with collect() as rec:
            three_point_eval_2d(BRIDGE_N3_POINTS, GreenSpec(2, alpha, 1.0),
                                ATOM_TRIPLE, tol=1.0, energy_box=36.0)
        want = []
        for (n1, n2, n3, n4), _, _ in rec[0]["history"]:
            # two outer pieces, split at -2m, of n1 nodes each
            want += [(n2 - n2 // 2, 2, n3, intervals, n4)] * (2 * n1)
        assert len(rec[0]["history"]) == 2
        assert shapes == want


@pytest.mark.parametrize("alpha", [0.35, 0.5])
def test_three_point_2d_rounds_do_not_depend_on_the_chunk_size(monkeypatch, alpha):
    """Levels 1-3 are built per chunk of outer nodes; no chunk size moves a bit.

    Budgets of one level-3 entry (one outer node per chunk), 7 * 560 (7 and
    3 of the two rounds' 40 and 56 outer nodes per piece, each leaving a
    ragged last chunk) and 2^30 (one chunk per piece), against the default.
    """
    def rounds():
        with collect() as rec:
            three_point_eval_2d(BRIDGE_N3_POINTS, GreenSpec(2, alpha, 1.0),
                                ATOM_TRIPLE, tol=1.0, energy_box=36.0)
        return rec[0]["history"]

    want = rounds()
    assert len(want) == 2
    for budget in (1, 7 * 560, 1 << 30):
        monkeypatch.setattr(wightman, "_LEVEL3_BUDGET", budget)
        history = rounds()
        if budget == 7 * 560:
            for (n1, n2, n3, _), _, _ in history:
                assert n1 % (budget // ((n2 - n2 // 2) * 2 * n3)) != 0
        assert history == want


@pytest.mark.parametrize("alpha, rounds", [
    (0.35, (1.5175241106320678e-4, 1.521136118616694e-4, 1.5120858854435784e-4,
            1.5116201481824e-4)),
    (0.5, (1.26948967117568e-4, 1.3009522687102803e-4, 1.2521087773309392e-4,
           1.2533098446058528e-4)),
])
def test_three_point_2d_one_outer_node_is_pinned_at_every_round(monkeypatch, alpha,
                                                                rounds):
    """Levels 2-4 at the one outer energy k10 = -3, all four rounds.

    Pinned from the full-grid evaluator, which built every level-2 node
    itself.  Round 3's odd n2 = 39 has the self-mirrored middle node x2 = 0,
    which the pinned two-round values above never reach.
    """
    monkeypatch.setattr(wightman, "line_quadrature",
                        lambda f, lo, hi, cuts, npts: f(np.array([-3.0]))[0])
    with collect() as rec, pytest.raises(QuadratureError):
        three_point_eval_2d(BRIDGE_N3_POINTS, GreenSpec(2, alpha, 1.0),
                            ATOM_TRIPLE, tol=1e-14, energy_box=36.0)
    history = rec[0]["history"]
    assert [row[1] for row in history] == pytest.approx(rounds, rel=1e-12)
    assert all(abs(row[2]) < 1e-15 * abs(row[1]) for row in history)


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1.0, 0.25]],
    [[0.0, 0.0], [2.0, 0.25], [1.0, -0.25]],
], ids=["two-points", "decreasing-times"])
def test_three_point_2d_rejects_points_it_cannot_damp(pts):
    with pytest.raises(PreconditionError):
        three_point_eval_2d(np.array(pts), GreenSpec(2, 0.5, 1.0), ATOM_TRIPLE)


@pytest.mark.parametrize("box", [1.0, 0.5, -3.0, math.nan, math.inf])
def test_three_point_2d_rejects_a_box_not_finite_and_above_the_mass(box):
    with pytest.raises(PreconditionError):
        three_point_eval_2d(BRIDGE_N3_POINTS, GreenSpec(2, 0.5, 1.0), ATOM_TRIPLE,
                            energy_box=box)


def test_bridge_requires_increasing_times():
    spec = GreenSpec(1, 0.5, 1.0)
    lat = Lattice(1, 256, 0.05)
    with pytest.raises(PreconditionError):
        laplace_bridge_check(np.array([[0.5], [0.0]]), spec, ATOM_TRIPLE, lat)


@pytest.mark.parametrize("spec, pts", [
    (GreenSpec(3, 0.5, 1.0), [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
    (GreenSpec(2, 0.35, 1.0), [[0.0, 0.0], [0.5, 0.0]]),
    (GreenSpec(1, 0.5, 1.0), [[0.0], [0.5], [1.0], [1.5]]),
], ids=["d3", "d2-pair-below-half", "n4"])
def test_bridge_rejects_cases_it_does_not_cover(spec, pts):
    # checked before the lattice side runs, so the lattice is never built
    lat = Lattice(spec.dim, 16, 0.25)
    with pytest.raises(PreconditionError):
        wightman.bridge_points(pts, spec, lat)
    with pytest.raises(PreconditionError):
        laplace_bridge_check(np.array(pts), spec, ATOM_TRIPLE, lat)


def test_bridge_points_snap_to_sites_and_stay_in_the_inner_half():
    lat = Lattice(1, 64, 0.25)
    spec = GreenSpec(1, 0.5, 1.0)
    snapped = wightman.bridge_points([[0.1], [0.8]], spec, lat)
    assert snapped.tolist() == [[0.0], [0.75]]
    with pytest.raises(PreconditionError):
        wightman.bridge_points([[0.0], [4.5]], spec, lat)  # extent / 4 = 4


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
    t = COMPLEX_D1
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
    # alpha < 1/2 brings in the cos(pi alpha) cosh pieces of the 0 branch;
    # there the endpoint factor (w sinh t)^(1 - 2 alpha) converges only
    # algebraically, so these pin the factors' shared grid
    (2, 0.35, FACTORIZED_D2, 0.012176196026722009),
    (1, 0.35, FACTORIZED_D1, 0.2835815454648208),
])
def test_factorized_values_are_pinned(dim, alpha, test, want):
    """Pinned from the transforms of all factors on one shared grid."""
    got = factorized_eval(test, GreenSpec(dim, alpha, 1.0), ATOM_TRIPLE, tol=1e-3)
    assert abs(got.imag) < 1e-12
    assert got.real == pytest.approx(want, rel=1e-12)


FACTORIZED_D2_FOUR = TensorTestFunction(
    FACTORIZED_D2.factors + (TestFunction.gaussian((0.7, -0.9), 1.1, freq=(0.3, -0.2)),))
# polynomial prefactors: the first and last factors split into two and three
# energy-times-spatial terms, with powers on both axes in one monomial
FACTORIZED_D2_POLY = TensorTestFunction((
    TestFunction(2, (-1.0, 0.2), 0.9, {(0, 0): 1.0, (1, 0): 0.3j, (1, 1): -0.2},
                 (0.2, -0.1)),
    TestFunction.gaussian((0.1, -0.4), 0.85, freq=(-0.3, 0.2)),
    TestFunction(2, (1.3, 0.5), 1.0, {(0, 1): 0.5, (2, 0): 0.1 - 0.2j, (0, 2): 0.15},
                 (0.0, 0.3))))


# -- per-factor oracle: each factor's transforms on its own grid, one
# phase_sums call per factor and energy piece


def _energy_sums_one(g, a, w, q, nt, expo, tmax=None):
    if tmax is None:
        u, wu = gl_nodes(-wightman._GAP, wightman._GAP, nt)
        u, wu = u[nt // 2:, None], wu[nt // 2:].copy()
        if nt % 2:
            wu[0] *= 0.5
        k0, jac = w * np.sin(u), (w * np.cos(u)) ** expo
    else:
        u, wu = gl_nodes(1e-12, tmax, nt)
        u = u[:, None]
        k0, jac = w * np.cosh(u), (w * np.sinh(u)) ** expo
    coords = [] if q is None else [np.broadcast_to(q, k0.shape).ravel()]
    bodies = np.stack([
        np.ravel(g(np.stack([s * k0.ravel(), *coords], axis=-1))).reshape(k0.shape)
        * jac * wu[:, None]
        for s in (1.0, -1.0)
    ])
    p, qs = phase_sums(a, k0, bodies)
    return [p[0] + 1j * qs[0], p[1] - 1j * qs[1]]


def _per_factor_transforms_1d(g, avals, spec, mult, amax):
    m, expo = spec.mass, 1 - 2 * spec.alpha
    kmax = abs(np.asarray(g.center)).max() + g.effective_radius()
    w = np.array([m])

    def sums(krange, tmax=None):
        nt = int(wightman._osc_npts(amax, krange) * mult)
        return [b[:, 0] for b in _energy_sums_one(g, avals, w, None, nt, expo, tmax)]

    inside = sum(sums(2 * m * np.sin(wightman._GAP)))
    if kmax > m:
        tmax = math.acosh(kmax / m)
        plus, minus = sums(m * np.cosh(tmax) - m * np.cosh(1e-12), tmax)
    else:
        plus = minus = np.zeros(len(avals), dtype=complex)
    return {b: (2 * math.pi) ** -0.5 * t for b, t in zip(
        "+-0", wightman._combine_branches(plus, minus, inside, spec.alpha))}


def _per_factor_transforms_2d(g, ax0, ax1, spec, mult):
    m, expo = spec.mass, 1 - 2 * spec.alpha
    rad = g.effective_radius()
    qmax, k0cap = abs(g.center[1]) + rad, abs(g.center[0]) + rad
    a0max, a1max = np.max(np.abs(ax0)), np.max(np.abs(ax1))
    q, wq = gl_nodes(-qmax, qmax, int(wightman._osc_npts(a1max, 2 * qmax) * mult))
    w = np.sqrt(q * q + m * m)
    tmax = max(0.25, math.acosh(max(1.0 + 1e-9, k0cap / m)))
    nt_cosh = int(wightman._osc_npts(a0max, max(k0cap - m, 2 * m)) * mult)
    nt_gap = int(wightman._osc_npts(a0max, 2 * math.sqrt(qmax**2 + m * m)) * mult)
    plus, minus = _energy_sums_one(g, ax0, w, q, nt_cosh, expo, tmax)
    inside = sum(_energy_sums_one(g, ax0, w, q, nt_gap, expo))
    bm = np.stack(wightman._combine_branches(plus, minus, inside, spec.alpha))
    out = (2 * math.pi) ** -1.0 * ((bm * wq) @ np.exp(1j * np.outer(q, ax1)))
    return dict(zip("+-0", out))


def _transforms(bm, mq, cols):
    """The branch transforms A_b[l] from the factors of _branch_transforms."""
    return {b: np.stack([bm[i][:, c] @ mq[c] for c in cols]) for i, b in enumerate("+-0")}


@pytest.mark.parametrize("test", [FACTORIZED_D2, FACTORIZED_D2_FOUR, FACTORIZED_D2_POLY,
                                  FACTORIZED_D1],
                         ids=["d2-n3", "d2-n4", "d2-poly", "d1-n3"])
def test_shared_grid_matches_per_factor_oracle(test, monkeypatch):
    """At alpha = 1/2 every energy piece converges exponentially, so widening
    each factor's grid to the union of the supports leaves the value put.
    The oracle evaluates each factor whole, through __call__, on its own
    (k0, q) grid; the route splits it into energy and spatial factors."""
    spec = GreenSpec(test.dim, 0.5, 1.0)
    got = factorized_eval(test, spec, ATOM_TRIPLE, tol=1e-3)

    def stacked(gs, spec, mult, ax0, ax1=None):
        # the oracle's transforms in the route's factored form, against an
        # identity q-contraction per factor
        per = [_per_factor_transforms_1d(g, ax0, spec, mult, np.max(np.abs(ax0)))
               if ax1 is None else _per_factor_transforms_2d(g, ax0, ax1, spec, mult)
               for g in gs]
        na1 = 1 if ax1 is None else len(ax1)
        bm = np.stack([np.concatenate([t[b].reshape(len(ax0), na1) for t in per], axis=1)
                       for b in "+-0"])
        cols = [slice(l * na1, (l + 1) * na1) for l in range(len(gs))]
        return bm, np.tile(np.eye(na1, dtype=complex), (len(gs), 1)), cols

    monkeypatch.setattr(wightman, "_branch_transforms", stacked)
    want = factorized_eval(test, spec, ATOM_TRIPLE, tol=1e-3)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha", [0.5, 0.35])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd-nq", "even-nq"])
def test_folded_q_axis_matches_full_grid_oracle(alpha, parity):
    """The transforms summed on the half q >= 0 equal the oracle's on the
    full q-rule; with an odd rule this shows the node q = 0 counts once."""
    spec = GreenSpec(2, alpha, 1.0)
    ax0, _ = gregory_nodes(-14.0, 14.0, 61)
    ax1, _ = gregory_nodes(-14.0, 14.0, 40)
    a1max = np.max(np.abs(ax1))
    # one grid per factor, as the oracle's; the polynomial factors split into
    # several terms, each with its own q-contraction
    for g in FACTORIZED_D2_FOUR.factors + FACTORIZED_D2_POLY.factors[::2]:
        qmax = abs(g.center[1]) + g.effective_radius()
        mult = next(mu for mu in (1.0, 1.01, 1.02, 1.03)
                    if int(wightman._osc_npts(a1max, 2 * qmax) * mu) % 2 == parity)
        got = _transforms(*wightman._branch_transforms([g], spec, mult, ax0, ax1))
        want = _per_factor_transforms_2d(g, ax0, ax1, spec, mult)
        for b in "+-0":
            assert got[b].shape == (1,) + want[b].shape
            err = np.max(np.abs(got[b][0] - want[b]))
            assert err <= 1e-12 * np.max(np.abs(want[b]))


@pytest.mark.parametrize("test, alpha", [
    (FACTORIZED_D2, 0.5), (FACTORIZED_D2_FOUR, 0.5), (FACTORIZED_D1, 0.35)],
    ids=["d2-n3", "d2-n4", "d1-n3"])
def test_factorized_makes_two_phase_passes_per_round(test, alpha, monkeypatch):
    calls, nqs = [], []
    monkeypatch.setattr(wightman, "phase_sums",
                        lambda *args: calls.append(args[2].shape) or phase_sums(*args))
    transforms = wightman._branch_transforms

    def spy(gs, spec, mult, ax0, ax1=None):  # the size of the full q-rule, as the oracle's
        if ax1 is not None:
            qmax = max(abs(g.center[1]) + g.effective_radius() for g in gs)
            nqs.append(int(wightman._osc_npts(np.max(np.abs(ax1)), 2 * qmax) * mult))
        return transforms(gs, spec, mult, ax0, ax1)

    monkeypatch.setattr(wightman, "_branch_transforms", spy)
    with collect() as rec:
        factorized_eval(test, GreenSpec(test.dim, alpha, 1.0), ATOM_TRIPLE, tol=1e-3)
    rounds = len(rec[0]["history"])
    n = len(test.factors)
    assert len(calls) == 2 * rounds
    # every call carries both energy signs of every factor's energy factor:
    # a Gaussian packet splits into one term, and its q-factor is applied in
    # the q-contraction, so d = 2 needs no bodies at -q
    assert [shape[0] for shape in calls] == [2 * n] * (2 * rounds)
    if test.dim == 2:
        # on the ceil(nq / 2) columns of the half q >= 0
        assert len(nqs) == rounds
        assert [shape[2] for shape in calls] == [-(-nq // 2) for nq in nqs for _ in "ab"]


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
    # a vanishing cumulant coefficient runs no route: c3 = 0 for Gaussian noise
    triple = TensorTestFunction(tuple(TestFunction.gaussian((c,), 1.0)
                                      for c in (-0.5, 0.2, 0.6)))
    with collect() as rec:
        assert truncated_momentum_eval(triple, spec, LevyTriple(variance=0.7)) == 0.0
    assert rec == []

    def bare(k1, k2):
        return np.ones_like(k1)

    with pytest.raises(PreconditionError):
        truncated_momentum_eval(bare, spec, ATOM_TRIPLE)
    # the evaluators take tensor test functions only: a callable that
    # declares its slot count, or a plain pair callable, is refused
    bare.n_slots = 2
    with pytest.raises(PreconditionError):
        truncated_momentum_eval(bare, spec, ATOM_TRIPLE)
    with pytest.raises(PreconditionError):
        two_point_shell_eval(bare, spec, ATOM_TRIPLE)
    with pytest.raises(PreconditionError):
        two_point_density_eval(bare, GreenSpec(1, 0.35, 1.0), ATOM_TRIPLE)
    with pytest.raises(PreconditionError):
        two_point_density_eval(bare, GreenSpec(2, 0.35, 1.0), ATOM_TRIPLE)


# -- massless vector-model shell measures ----------------------------------------


def radial4(c0: float, width: float) -> TestFunction:
    return TestFunction.gaussian((c0, 0.0, 0.0, 0.0), width)


VEC_PHI = TensorTestFunction((radial4(-1.0, 1.2), radial4(0.4, 1.0),
                              radial4(0.8, 1.1)))

# pinned from a 140-node run of the min/difference reference quadrature
VEC_FROZEN = {0: -2.721903469, 1: 6.240378562, 2: 4.591078334, 3: 1.615915999}
# the radial route's own accepted values, pinned to catch refactors
VEC_RADIAL = {0: -2.721903468740663, 1: 6.240378561520545,
              2: 4.591078333729445, 3: 1.6159159992024503}


def test_vector_radial_frozen_values():
    for j, want in VEC_FROZEN.items():
        got = vector_measure_radial(j, VEC_PHI)
        assert complex(got).real == pytest.approx(want, rel=1e-5)
        assert complex(got).real == pytest.approx(VEC_RADIAL[j], rel=1e-12)
        assert abs(complex(got).imag) < 1e-12


def test_vector_endpoint_against_relative_angle_oracle():
    oracle = spherical_endpoint_oracle((-1.0, 0.4, 0.8), (1.2, 1.0, 1.1), 56, 12.0)
    got = complex(vector_measure_radial(0, VEC_PHI)).real
    assert got == pytest.approx(oracle, rel=2e-2)


def test_vector_general_matches_radial():
    r0 = complex(vector_measure_radial(0, VEC_PHI)).real
    g0 = complex(vector_measure_eval(0, VEC_PHI)).real
    assert g0 == pytest.approx(r0, rel=1e-2)
    r2 = complex(vector_measure_radial(2, VEC_PHI)).real
    g2 = complex(vector_measure_eval(2, VEC_PHI)).real
    assert g2 == pytest.approx(r2, rel=2e-2)
    # the general route's own accepted values, pinned to catch refactors
    assert g0 == pytest.approx(-2.723621832562154, rel=1e-12)
    assert g2 == pytest.approx(4.590317212175853, rel=1e-12)


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


def _with_first_factor(g: TestFunction) -> TensorTestFunction:
    return TensorTestFunction((g,) + VEC_PHI.factors[1:])


@pytest.mark.parametrize("factor", [
    TestFunction.gaussian((-1.0, 0.3, 0.0, 0.0), 1.2),
    TestFunction.gaussian((-1.0, 0.0, 0.0, 0.0), 1.2, freq=(0.0, 0.0, 0.4, 0.0)),
    TestFunction(4, (-1.0, 0.0, 0.0, 0.0), 1.2, {(0, 0, 0, 1): 1.0}),
    TestFunction(4, (-1.0, 0.0, 0.0, 0.0), 1.2, {(1, 2, 0, 0): 1.0, (1, 0, 2, 0): 1.0}),
], ids=["spatial-center", "spatial-freq", "odd-polynomial", "anisotropic-polynomial"])
def test_vector_radial_rejects_non_invariant_factors(factor):
    with pytest.raises(PreconditionError):
        vector_measure_radial(0, _with_first_factor(factor))


def test_vector_radial_accepts_polynomials_in_the_spatial_modulus():
    # k0 (1 + |kvec|^2) and an energy-only frequency keep the rotation symmetry
    coeffs = {(1, 0, 0, 0): 1.0, (1, 2, 0, 0): 1.0, (1, 0, 2, 0): 1.0,
              (1, 0, 0, 2): 1.0}
    g = TestFunction(4, (-1.0, 0.0, 0.0, 0.0), 1.2, coeffs, (0.3, 0.0, 0.0, 0.0))
    assert np.isfinite(vector_measure_radial(0, _with_first_factor(g)))


def test_vector_slot_index_guard():
    with pytest.raises(PreconditionError):
        vector_measure_radial(4, VEC_PHI)
    with pytest.raises(PreconditionError):
        vector_measure_eval(-1, VEC_PHI)


@pytest.mark.parametrize("measure", [vector_measure_radial, vector_measure_eval])
def test_vector_measures_need_three_slot_tensors(measure):
    def plain(k):
        return np.ones(k.shape[1:-1])

    with pytest.raises(PreconditionError):
        measure(0, plain)
    with pytest.raises(PreconditionError):
        measure(0, TensorTestFunction(VEC_PHI.factors[:2]))
