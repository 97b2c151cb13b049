"""Certification layer: weighted norms, bounding integrals, Gram reductions."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinfield.errors import (
    DomainError,
    InvalidMajorantError,
    PreconditionError,
    SizeLimitError,
)
from kreinfield import hssc
from kreinfield.green import GreenSpec
from kreinfield.hssc import (
    GramPair,
    bound_integral_scalar,
    bound_integral_vector,
    build_gram_pair,
    compute_scalar_factors,
    hssc_certify,
    krein_reduce,
    majorization_check,
    norm_constants,
    pair_bound,
    partition_sums,
    schwartz_norm,
    search_indefinite_gram,
    tensor_schwartz_norm,
)
from kreinfield.levy import LevyTriple
from kreinfield.partitions import enumerate_partitions
from kreinfield.quadrature import collect, emit, line_quadrature, refine, sine_nodes
from kreinfield.testfunctions import TensorTestFunction, TestFunction

ATOM_TRIPLE = LevyTriple(drift=0.1, variance=0.5, atoms=((1.0, 2.0),))
GAUSS_TRIPLE = LevyTriple(drift=0.0, variance=0.7, atoms=())


# -- weighted norms ---------------------------------------------------------------


def test_norm_unit_gaussian_is_one():
    f = TestFunction.gaussian((0.0,), 1.0)
    assert schwartz_norm(f, 0) == pytest.approx(1.0, rel=1e-9)


def test_norm_monotone_in_orders():
    # the weight (1 + |x|^2)^(N/2) grows with the weight power N
    f = TestFunction.gaussian((0.4,), 0.9, freq=(0.3,))
    norms = [schwartz_norm(f, n) for n in (0, 2, 3, 4)]
    assert norms == sorted(norms)
    assert norms[0] < norms[-1]


def test_norm_slotwise_multiplicative():
    """The identity tensor_schwartz_norm rests on: the sup of the slot-wise
    weighted product, sup over (x, y) of (1+x^2)(1+y^2) |phi(x) eta(y)|, is
    the product of the factor norms."""
    phi = TestFunction.gaussian((0.3,), 1.0, amplitude=1.3)
    eta = TestFunction.gaussian((-0.5,), 1.0, freq=(0.7,))
    t = TensorTestFunction((phi, eta))
    x, y = np.meshgrid(np.linspace(-8.0, 8.0, 401), np.linspace(-8.0, 8.0, 401),
                       indexing="ij")
    weight = (1.0 + x**2) * (1.0 + y**2)
    grid_sup = float(np.max(weight * np.abs(t(np.stack([x, y], axis=-1)[..., None]))))
    assert tensor_schwartz_norm(t, 2) == pytest.approx(grid_sup, rel=2e-2)


def test_tensor_norm_carries_prefactor():
    f = TestFunction.gaussian((0.2, -0.1), 1.0)
    t = TensorTestFunction((f, f), prefactor=-2.0j)
    assert tensor_schwartz_norm(t, 4) == pytest.approx(
        2.0 * schwartz_norm(f, 4) ** 2, rel=1e-9
    )


def test_norm_rejects_negative_weight_power():
    f = TestFunction.gaussian((0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        schwartz_norm(f, -1)


def _ray_sup(f: TestFunction, weight_power: float) -> float:
    """sup over r >= 0 of (1+r^2)^(N/2) |a| exp(-(r-|c|)^2 / 2w^2) by a scan
    and a bounded scalar maximization around the scan's best node."""
    from scipy.optimize import minimize_scalar

    c, w = float(np.linalg.norm(f.center)), f.width

    def neg_log(r):
        return -(0.5 * weight_power * np.log1p(r * r) - (r - c) ** 2 / (2 * w * w))

    r = np.linspace(0.0, c + 10.0 * w + weight_power, 4001)
    i = int(np.argmin(neg_log(r)))
    lo, hi = r[max(i - 1, 0)], r[min(i + 1, len(r) - 1)]
    res = minimize_scalar(neg_log, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return abs(f.coeffs[(0,) * f.dim]) * math.exp(-res.fun)


@pytest.mark.parametrize("center, width, exact", [
    ((0.0, 1.0), 1.0, 17.1532681),
    ((-0.31, 1.024), 1.058, 21.1674155),
])
def test_norm_is_the_exact_sup_along_the_ray(center, width, exact):
    # the weight depends on |x| and |f| on |x - c|, so the sup lies on the
    # ray through c; the norm matches a 1-D maximization along it
    f = TestFunction.gaussian(center, width)
    got = schwartz_norm(f, 4)
    assert got == pytest.approx(_ray_sup(f, 4), rel=1e-12)
    assert got == pytest.approx(exact, rel=1e-8)


def test_norm_rejects_a_polynomial_prefactor():
    f = TestFunction.gaussian((0.2,), 1.0).derivative(0)
    assert f.degree() == 1
    with pytest.raises(PreconditionError):
        schwartz_norm(f, 2)


# -- pair-level closed bound ------------------------------------------------------


def test_pair_bound_line_closed_form():
    spec = GreenSpec(1, 0.5, 1.0)
    want = 2.0 * math.pi * 2.5 / 2.0 * 0.25  # c2 = 2.5, mass 1, weight power 2
    assert pair_bound(spec, ATOM_TRIPLE, 2) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.26, 0.3, 0.35, 0.4, 0.45, 0.49])
@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("weight_power", [2, 4])
def test_pair_bound_below_half_matches_high_precision_line_integral(
        alpha, mass, weight_power):
    """A2 = 2 c2 sin(2 pi alpha) * integral over k > m of
    (k^2 - m^2)^(-2 alpha) (1 + k^2)^(-n), in r = (k - m)^(1 - 2 alpha),
    where the shell singularity becomes a bounded integrand."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, m, n = mpmath.mpf(alpha), mpmath.mpf(mass), mpmath.mpf(weight_power)
        e = 1 / (1 - 2 * a)

        def f(r):
            u = r ** e
            return (2 * m + u) ** (-2 * a) * (1 + (m + u) ** 2) ** (-n) * e

        line = mpmath.quad(f, [0, 1, mpmath.inf])
        want = float(2 * 2.5 * mpmath.sin(2 * mpmath.pi * a) * line)  # c2 = 2.5
    got = pair_bound(GreenSpec(1, alpha, mass), ATOM_TRIPLE, weight_power)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("weight_power", [4, 6])
def test_pair_bound_plane_matches_high_precision_shell_integral(mass, weight_power):
    """A2 = 2 pi c2 * integral over q of (1 + w^2 + q^2)^(-n) / (2 w),
    w = hypot(q, m), in two dimensions at alpha = 1/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m, n = mpmath.mpf(mass), mpmath.mpf(weight_power)

        def f(q):
            w = mpmath.sqrt(q * q + m * m)
            return (1 + w * w + q * q) ** (-n) / (2 * w)

        want = float(2 * mpmath.pi * 2.5 * mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))
    got = pair_bound(GreenSpec(2, 0.5, mass), ATOM_TRIPLE, weight_power)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.35, 0.45])
def test_pair_bound_dominates_pair_values(alpha):
    spec = GreenSpec(1, alpha, 1.0)
    from kreinfield.wightman import truncated_momentum_eval

    a2 = pair_bound(spec, ATOM_TRIPLE, 2)
    for center, width, freq in ((-0.8, 0.9, None), (0.5, 1.2, (0.6,))):
        f = TestFunction.gaussian((center,), width, freq=freq)
        g = TestFunction.gaussian((0.1,), 1.0)
        t = TensorTestFunction((f, g))
        lhs = abs(truncated_momentum_eval(t, spec, ATOM_TRIPLE))
        assert lhs <= a2 * tensor_schwartz_norm(t, 2)


def test_pair_bound_rejects_thin_weight():
    with pytest.raises(DomainError):
        pair_bound(GreenSpec(2, 0.5, 1.0), ATOM_TRIPLE, 2)


# -- scalar bounding chain --------------------------------------------------------


@pytest.fixture(scope="module")
def factors_d2():
    return compute_scalar_factors(GreenSpec(2, 0.5, 1.0))


def test_scalar_factors_transverse_integral(factors_d2):
    assert factors_d2.spatial == pytest.approx(math.pi, abs=1e-9)


def test_scalar_factors_overlap_stable(factors_d2):
    coarse, fine = factors_d2.overlap_history[0], factors_d2.overlap_history[1]
    assert abs(fine - coarse) <= 0.02 * fine
    assert factors_d2.overlap_sup < factors_d2.overlap_ceiling


@pytest.mark.parametrize("alpha", [0.1, 0.15])
def test_scalar_factors_d2_small_alpha_is_finite(alpha):
    fac = compute_scalar_factors(GreenSpec(2, alpha, 1.0))
    values = [fac.spatial, fac.energy_sup, fac.overlap_sup, fac.third_factor]
    assert all(math.isfinite(x) and x > 0 for x in values)
    coarse, fine = fac.energy_history[-2:]
    assert fine == pytest.approx(coarse, rel=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mass", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 0.35, 0.1, 0.002])
def test_energy_sup_matches_high_precision_line_integral(alpha, mass, dim):
    """E(m) = integral over R of |k^2 - m^2|^(-alpha) / (1 + k^2), split at
    the shell points +-m, to 30 digits.  The sup over the transverse
    momentum sits at the mass shell for every alpha in two dimensions too,
    however slowly the profile decays."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, m = mpmath.mpf(alpha), mpmath.mpf(mass)

        def f(k):
            return abs(k * k - m * m) ** -a / (1 + k * k)

        want = float(mpmath.quad(f, [-mpmath.inf, -m, 0, m, mpmath.inf]))
    fac = compute_scalar_factors(GreenSpec(dim, alpha, mass))
    assert fac.energy_sup == pytest.approx(want, rel=1e-12)
    assert fac.energy_history[-1] == fac.energy_sup


def test_scalar_factors_line_spatial_is_trivial():
    fac = compute_scalar_factors(GreenSpec(1, 0.5, 1.0))
    assert fac.spatial == 1.0


def test_scalar_factors_reject_dimensions_outside_the_chain():
    # the spatial factor is known on the line and in the plane only
    with pytest.raises(DomainError):
        compute_scalar_factors(GreenSpec(3, 0.5, 1.0))


@pytest.mark.parametrize("alpha", [0.5, 0.35, 0.1])
def test_overlap_sup_matches_high_precision_line_integral(alpha):
    """I(0, 0, 0) = pi / sin(pi (2 - 3 alpha)/2) * integral over R of
    |t|^(-alpha) |1+t|^(-alpha) (1 - |t|^(3 alpha)) / (1 - t^2), to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)

        def g(t):
            return abs(t) ** -a * abs(1 + t) ** -a * (1 - abs(t) ** (3 * a)) / (1 - t * t)

        line = mpmath.quad(g, [-mpmath.inf, -2, -1, -0.5, 0, 0.5, 1, 2, mpmath.inf])
        want = float(mpmath.pi / mpmath.sin(mpmath.pi * (2 - 3 * a) / 2) * line)
    # d = 1 skips the energy scan
    got = compute_scalar_factors(GreenSpec(1, alpha, 1.0)).overlap_sup
    assert got == pytest.approx(want, rel=1e-12)


def overlap_value_oracle(a, b, c, alpha, npts):
    """One shift at a time: integral dx dy |x y (x+y+c)|^(-alpha)
    / ((1+(x+a)^2)(1+(y+b)^2)), the outer line split at 0 and the inner one
    at 0 and -y - c."""
    box = 48.0 + 2.0 * max(abs(a), abs(b), abs(c))

    def outer(y):
        s = -y - c
        lo_cut = np.minimum(0.0, s)
        hi_cut = np.maximum(0.0, s)
        shift = (y + c)[:, None]
        tot = np.zeros_like(y)
        pieces = (
            (np.full_like(y, -box), lo_cut),
            (lo_cut, hi_cut),
            (hi_cut, np.full_like(y, box)),
        )
        for lo, hi in pieces:
            x, w = sine_nodes(lo, hi, npts)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = (
                    np.abs(x) ** -alpha
                    * np.abs(x + shift) ** -alpha
                    / (1.0 + (x + a) ** 2)
                )
                contrib = np.where(w > 0.0, v * w, 0.0)
            tot = tot + np.sum(contrib, axis=1)
        return np.abs(y) ** -alpha / (1.0 + (y + b) ** 2) * tot

    return float(line_quadrature(outer, -box, box, cuts=(0.0,), npts=npts))


@pytest.mark.parametrize("alpha", [0.5, 0.35])
def test_no_shift_beats_the_origin(alpha):
    """The rearrangement argument behind overlap_sup: on the 27 shifts with
    every component in {-1, 0, 1}, the direct plane quadrature peaks at the
    origin and stays below the exact I(0, 0, 0)."""
    sup = compute_scalar_factors(GreenSpec(1, alpha, 1.0)).overlap_sup
    vals = {s: overlap_value_oracle(*map(float, s), alpha, 112)
            for s in itertools.product((-1, 0, 1), repeat=3)}
    assert max(vals, key=vals.get) == (0, 0, 0)
    assert max(vals.values()) <= sup


@pytest.mark.parametrize("shift", [(-7.5, 8.75, 1.25), (3.1, 0.4, -9.2), (0.0, 2.5, 0.0)])
def test_overlap_oracle_sign_flip_symmetry(shift):
    a, b, c = shift
    for npts in (20, 28):
        val = overlap_value_oracle(a, b, c, 0.5, npts)
        assert overlap_value_oracle(-a, -b, -c, 0.5, npts) == pytest.approx(val, rel=1e-14)


def test_scalar_factors_are_pinned(factors_d2):
    # the 24-, 48- and 96-node rounds of the line integral for I(0, 0, 0)
    line = compute_scalar_factors(GreenSpec(1, 0.5, 1.0))
    for fac in (factors_d2, line):
        np.testing.assert_allclose(
            fac.overlap_history,
            [38.71675128543898, 38.716803297910346, 38.716803297917544], rtol=1e-13)
        assert fac.overlap_sup == pytest.approx(38.71680329791755, rel=1e-13)
        assert fac.energy_sup == pytest.approx(3.467891949359644, rel=1e-13)


def test_scalar_bound_assembly(factors_d2):
    spec = GreenSpec(2, 0.5, 1.0)
    r3 = bound_integral_scalar(3, spec, ATOM_TRIPLE, factors=factors_d2)
    r4 = bound_integral_scalar(4, spec, ATOM_TRIPLE, factors=factors_d2)
    assert r3.constant > 0.0 and r4.constant > r3.constant
    # order-3 assembly: no energy-sup power yet
    want = (
        3.0
        * r3.cumulant
        * 4.0
        * (2.0 * math.pi) ** (2.0 - 3.0)
        * factors_d2.spatial**2
        * factors_d2.third_factor
    )
    assert r3.constant == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        bound_integral_scalar(2, spec, ATOM_TRIPLE, factors=factors_d2)


# -- vector bounding integrals ----------------------------------------------------


@pytest.fixture(scope="module")
def vec_report():
    return bound_integral_vector(3, 0)


def radial_moment_quadrature(power):
    """4 pi * integral_0^inf  lambda^(2 - power) (1 + lambda^2)^(-3/2) dlambda."""
    total = 400.0 ** (-power) / power  # integrand <= lambda^(-1 - power) past 400
    for lo, hi in ((0.0, 2.0), (2.0, 400.0)):
        lam, wl = sine_nodes(lo, hi, 240)
        total += float(np.sum(lam ** (2.0 - power) * (1.0 + lam * lam) ** -1.5 * wl))
    return 4.0 * math.pi * total


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_radial_moment_closed_form(power):
    assert radial_moment_quadrature(power) == pytest.approx(4.0 * math.pi, abs=1e-6)


def test_vector_radial_moments(vec_report):
    assert vec_report.linear_moment == vec_report.quadratic_moment == 4.0 * math.pi


def test_vector_shift_search_runs_once(vec_report):
    # the shift sup depends on neither n nor j: one evaluation per process
    deep = bound_integral_vector(5, 2)
    assert deep.shifted_sup == vec_report.shifted_sup
    assert hssc._shift_sup.cache_info().misses == 1


def test_vector_shifted_sup(vec_report):
    # the shifted moment peaks at zero shift, where it equals the quadratic moment
    assert vec_report.shifted_sup == pytest.approx(4.0 * math.pi, rel=2e-3)
    assert vec_report.shifted_sup <= 4.0 * math.pi**2


def shifted_moment_oracle(a, npts, cap=60.0):
    """integral |k + a e|^-1 |k|^-1 (1+|k|^2)^(-3/2) d^3k for a shift
    0 < a < cap / 2, in cylindrical coordinates (lambda, z) inside radius
    cap, the z-line split at -a and 0, plus the closed tail beyond the cap."""
    lam, wl = sine_nodes(0.0, cap, npts)
    ll = lam[:, None]
    acc = np.zeros_like(lam)
    for lo, hi in ((-cap, -a), (-a, 0.0), (0.0, cap)):
        z, wz = sine_nodes(lo, hi, npts)
        zz = z[None, :]
        rsq = zz * zz + ll * ll
        v = ((zz + a) ** 2 + ll * ll) ** -0.5 * rsq**-0.5 * (1.0 + rsq) ** -1.5
        acc = acc + np.sum(v * wz[None, :], axis=1)
    core = 2.0 * math.pi * float(np.sum(wl * lam * acc))
    return core + 8.0 * math.pi * (1.0 - cap / math.hypot(1.0, cap))


def test_no_shift_beats_the_origin_vector(vec_report):
    """The rearrangement argument behind the vector shift sup: the direct
    cylindrical quadrature at shifts 0.25 to 3 stays below the zero-shift value."""
    vals = [shifted_moment_oracle(a, 160) for a in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert max(vals) < vec_report.shifted_sup


def test_vector_constant_assembly(vec_report):
    end = vec_report
    mid = bound_integral_vector(3, 1)
    base = (2.0 * math.pi) ** 0 * 2.0**-3
    assert end.constant == pytest.approx(base * end.quadratic_moment * end.shifted_sup)
    assert mid.constant == pytest.approx(base * mid.linear_moment * mid.shifted_sup)
    deep = bound_integral_vector(5, 2)
    assert deep.constant == pytest.approx(
        (2.0 * math.pi) ** -2 * 2.0**-5 * deep.linear_moment**3 * deep.shifted_sup
    )


def test_vector_bounds_domain():
    with pytest.raises(DomainError):
        bound_integral_vector(2, 0)
    with pytest.raises(DomainError):
        bound_integral_vector(3, 4)


# -- partition constant chain -----------------------------------------------------


def test_partition_sums_bell_numbers():
    assert partition_sums([1.0] * 6) == [1.0, 2.0, 5.0, 15.0, 52.0, 203.0]
    assert partition_sums([1.0] * 12)[-1] == 4213597.0  # Bell(12)


def test_partition_sums_match_enumeration():
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 3.0, size=8)
    want = [
        sum(math.prod(a[len(blk) - 1] for blk in p.blocks) for p in enumerate_partitions(n))
        for n in range(1, 9)
    ]
    assert partition_sums(a) == pytest.approx(want, rel=1e-12)


def test_norm_constants_floor_and_running_max():
    assert norm_constants([1.0, 2.0, 3.0, 4.0]) == [2.0, 4.0]
    assert norm_constants([0.1, 0.2]) == [1.0]


def test_constant_chain_size_cap():
    with pytest.raises(SizeLimitError):
        partition_sums([1.0] * 13)
    with pytest.raises(DomainError):
        partition_sums([1.0, -1.0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=10),
    st.data(),
)
def test_norm_constants_dominate_combined_orders(b, data):
    c = norm_constants(b)
    m = data.draw(st.integers(min_value=1, max_value=len(c)))
    n = data.draw(st.integers(min_value=1, max_value=len(c)))
    if m + n <= len(b):
        assert b[m + n - 1] <= c[m - 1] * c[n - 1] * (1.0 + 1e-12)


# -- Gram pairs -------------------------------------------------------------------


def test_gram_vacuum_block():
    pair = build_gram_pair(GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE, [()], lambda m: 1.0)
    assert pair.form == pytest.approx(np.array([[1.0 + 0.0j]]))
    assert pair.majorant == pytest.approx(np.array([[1.0 + 0.0j]]))


def test_gram_gaussian_model_is_positive():
    # purely quadratic noise makes the pairing a genuine Fock-space Gram
    spec = GreenSpec(2, 0.5, 1.0)
    f1 = TestFunction.gaussian((0.3, -0.2), 0.9)
    f2 = TestFunction.gaussian((-0.6, 0.4), 1.1, freq=(0.5, -0.3))
    f3 = TestFunction.gaussian((0.1, 0.8), 0.8)
    basis = [(), (f1,), (f2,), (f1, f3)]
    pair = build_gram_pair(spec, GAUSS_TRIPLE, basis, lambda m: 2.0 ** len(m))
    lam = np.linalg.eigvalsh(pair.form)
    assert lam[0] >= -1e-9 * lam[-1]
    assert np.diag(pair.majorant).real == pytest.approx([1.0, 4.0, 4.0, 16.0])


def test_gram_degree_cap():
    f = TestFunction.gaussian((0.0,), 1.0)
    with pytest.raises(PreconditionError):
        build_gram_pair(GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE, [(f,) * 4], lambda m: 1.0)


def test_gram_rejects_lopsided_matrices():
    with pytest.raises(DomainError):
        GramPair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(DomainError):
        GramPair(np.eye(2), np.eye(3))


def test_indefinite_search_reports_honestly():
    report = search_indefinite_gram(
        GreenSpec(1, 0.5, 1.0),
        LevyTriple(0.1, 0.02, ((1.0, 3.0),)),
        n_candidates=2,
        seed=11,
        tol=1e-5,
    )
    assert report["n_candidates"] == 2
    assert len(report["min_eigenvalues"]) == 2
    hit = report["found"]
    assert hit == (report["witness_index"] is not None)
    assert isinstance(hit, bool)


# -- majorization and Krein reduction ---------------------------------------------


def _random_majorized_pair(rng, dim, degenerate=0):
    # spectrum of the whitened form drawn inside the unit interval
    q, _ = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    lam = rng.uniform(0.15, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    lam[:degenerate] = 0.0
    t = q @ np.diag(lam) @ q.conj().T
    pvals = rng.uniform(0.5, 3.0, size=dim)
    pq, _ = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    p = pq @ np.diag(pvals) @ pq.conj().T
    p = 0.5 * (p + p.conj().T)
    ph = pq @ np.diag(np.sqrt(pvals)) @ pq.conj().T
    w = ph @ t @ ph
    w = 0.5 * (w + w.conj().T)
    return GramPair(w, p)


def test_majorization_identity_and_signature():
    assert majorization_check(GramPair(np.eye(2), np.eye(2))).ratio == pytest.approx(1.0)
    rep = majorization_check(GramPair(np.diag([1.0, -1.0]), np.eye(2)))
    assert rep.passed and rep.ratio == pytest.approx(1.0)


def test_majorization_scale_failure():
    rep = majorization_check(GramPair(2.0 * np.eye(2), np.eye(2)))
    assert not rep.passed and rep.ratio == pytest.approx(2.0)


def test_majorization_invalid_majorant():
    with pytest.raises(InvalidMajorantError):
        majorization_check(GramPair(np.eye(2), np.diag([1.0, 0.0])))


def test_krein_identity_case():
    res = krein_reduce(GramPair(np.eye(3), np.eye(3)))
    assert res.degenerate_dim == 0
    assert res.metric == pytest.approx(np.eye(3), abs=1e-12)
    assert res.remajorization_ratio == pytest.approx(1.0, abs=1e-9)


def test_krein_degenerate_direction():
    res = krein_reduce(GramPair(np.diag([1.0, -1.0, 0.0]), np.eye(3)))
    assert res.degenerate_dim == 1
    assert sorted(np.diag(res.metric).real) == pytest.approx([-1.0, 1.0])
    assert res.reconstruction_error <= 1e-9
    assert res.remajorization_ratio is None


def test_krein_requires_majorization():
    with pytest.raises(PreconditionError):
        krein_reduce(GramPair(2.0 * np.eye(2), np.eye(2)))


def test_krein_random_majorized_pairs():
    rng = np.random.default_rng(3)
    for trial in range(10):
        dim = int(rng.integers(2, 9))
        pair = _random_majorized_pair(rng, dim)
        res = krein_reduce(pair)
        assert res.spectral_norm_ratio <= 1.0 + 1e-10
        assert res.degenerate_dim == 0
        eye = np.eye(dim - res.degenerate_dim)
        assert np.linalg.norm(res.metric @ res.metric - eye, 2) <= 1e-10
        assert res.reconstruction_error <= 1e-9
        assert res.remajorization_ratio == pytest.approx(1.0, abs=1e-9)


def test_krein_metric_is_the_exact_sign_of_the_spectrum():
    # read off the whitened form's eigenvalues: an exact +-1 diagonal with
    # one -1 per negative eigenvalue of the form (Sylvester's inertia)
    rng = np.random.default_rng(11)
    for dim, degenerate in ((3, 0), (6, 2), (8, 0)):
        pair = _random_majorized_pair(rng, dim, degenerate=degenerate)
        res = krein_reduce(pair)
        signs = np.diag(res.metric)
        assert np.array_equal(res.metric, np.diag(signs))
        assert set(signs.tolist()) <= {1.0, -1.0}
        assert np.array_equal(res.metric @ res.metric, np.eye(dim - degenerate))
        lam = np.linalg.eigvalsh(pair.form)
        assert np.count_nonzero(signs == -1.0) == np.count_nonzero(lam < -1e-8)


def test_krein_random_degenerate_pair():
    rng = np.random.default_rng(5)
    pair = _random_majorized_pair(rng, 6, degenerate=2)
    res = krein_reduce(pair)
    assert res.degenerate_dim == 2
    eye = np.eye(4)
    assert np.linalg.norm(res.metric @ res.metric - eye, 2) <= 1e-10
    assert res.reconstruction_error <= 1e-9


# -- end-to-end certification -----------------------------------------------------


def _gaussian_family():
    f1 = TestFunction.gaussian((0.3, -0.2), 0.9)
    f2 = TestFunction.gaussian((-0.6, 0.4), 1.1, freq=(0.5, -0.3))
    f3 = TestFunction.gaussian((0.1, 0.8), 0.8)
    f4 = TestFunction.gaussian((0.5, 0.0), 1.0)
    return [
        TensorTestFunction((f1,)),
        TensorTestFunction((f2,)),
        TensorTestFunction((f1, f3)),
        TensorTestFunction((f2, f4, f1)),
        TensorTestFunction((f3, f1, f4, f2)),
    ]


def test_certify_gaussian_pair_block_only():
    cert = hssc_certify(GreenSpec(2, 0.5, 1.0), GAUSS_TRIPLE, _gaussian_family(), n_max=4)
    assert cert["passed"]
    assert cert["model"]["quadratic"]
    assert cert["scalar_factors"] is None
    bounds = cert["constants"]["order_bounds"]
    assert bounds[0] == 0.0 and bounds[1] > 0.0 and all(x == 0.0 for x in bounds[2:])
    assert cert["pairwise"]["degree_cap"] == 4
    assert cert["pairwise"]["count"] > 0
    assert cert["pairwise"]["min_margin"] > 0.0
    assert cert["runtime_seconds"] < 30.0


def test_certify_scaling_leaves_ratios_invariant():
    fam = _gaussian_family()[:3]
    spec = GreenSpec(2, 0.5, 1.0)
    base = hssc_certify(spec, GAUSS_TRIPLE, fam, n_max=2)
    scaled_fam = [TensorTestFunction(f.factors, f.prefactor * 10.0) for f in fam]
    scaled = hssc_certify(spec, GAUSS_TRIPLE, scaled_fam, n_max=2)
    assert scaled["pairwise"]["worst_ratio"] == pytest.approx(
        base["pairwise"]["worst_ratio"], abs=1e-10
    )
    assert scaled["per_order"][0]["worst_ratio"] == pytest.approx(
        base["per_order"][0]["worst_ratio"], abs=1e-10
    )


def test_certify_atom_line_full_pairwise():
    spec = GreenSpec(1, 0.5, 1.0)
    fs = [
        TestFunction.gaussian((-0.4,), 0.9),
        TestFunction.gaussian((0.6,), 1.1, freq=(0.5,)),
        TestFunction.gaussian((-0.2,), 1.0),
        TestFunction.gaussian((0.3,), 0.8),
    ]
    fam = [
        TensorTestFunction((fs[0],)),
        TensorTestFunction((fs[1],)),
        TensorTestFunction((fs[2], fs[3])),
        TensorTestFunction((fs[0], fs[2], fs[1])),
        TensorTestFunction((fs[3], fs[1], fs[0], fs[2])),
    ]
    cert = hssc_certify(spec, ATOM_TRIPLE, fam, n_max=4, tol=1e-5)
    assert cert["passed"]
    assert cert["pairwise"]["degree_cap"] == 4
    assert cert["per_order"][-1]["order"] == 4
    assert all(row["min_margin"] > 0.0 for row in cert["per_order"])
    assert cert["scalar_factors"]["overlap_sup"] < cert["scalar_factors"]["overlap_ceiling"]


def _fake_evaluator(values: dict):
    """Stands in for truncated_momentum_eval; ``values`` maps an order to (W, residual).

    One slot gives 0 with no record, as the one-point convention does; any
    other order emits one success record, accepted at rtol 1e-3.
    """
    def evaluate(test, spec, triple, tol=None):
        n = len(test.factors)
        if n == 1:
            return 0.0 + 0.0j
        value, residual = values[n]
        emit({"op": "fake", "value": [value, 0.0], "tolerance": 1e-3,
              "history": [[1, value, 0.0]], "residual": residual})
        return complex(value)
    return evaluate


@pytest.mark.parametrize("row", ["per_order", "pairwise"])
def test_certify_verdict_counts_the_accepted_residual(row, monkeypatch):
    """|W| + residual is held against the bound, not |W| (1 + rtol)."""
    spec = GreenSpec(1, 0.5, 1.0)
    f = TestFunction.gaussian((0.2,), 0.9)
    member = TensorTestFunction((f, f) if row == "per_order" else (f,))

    def certify(value, residual):
        monkeypatch.setattr(hssc, "truncated_momentum_eval",
                            _fake_evaluator({2: (value, residual)}))
        cert = hssc_certify(spec, GAUSS_TRIPLE, [member], n_max=2)
        return cert, (cert[row] if row == "pairwise" else cert[row][0])["worst_ratio"]

    base, _ = certify(0.0, 0.0)
    norm = tensor_schwartz_norm(member, 2)
    if row == "per_order":
        bound = base["constants"]["order_bounds"][1] * norm
    else:
        bound = (base["constants"]["norm_constants"][0] * norm) ** 2
    rtol = 1e-3
    residual = bound * rtol / 4
    # less than one residual below the bound: the value may exceed it
    cert, _ = certify(bound - residual / 2, residual)
    assert not cert["passed"]
    # inside its rtol of the bound, yet more than its residual below it
    near = bound * (1 - rtol / 2)
    cert, ratio = certify(near, residual)
    assert cert["passed"]
    assert ratio == pytest.approx((near + residual) / bound, rel=1e-12)


def test_certify_takes_bound_side_factors_at_their_lower_ends(monkeypatch):
    """Each refined factor of the bound side enters at its value minus its
    accepted residual.  With every such residual forced to a quarter of its
    value, the pair and order-3 bounds, each linear in one refined factor
    (the pair line, the overlap sup), fall to exactly 3/4 of their values;
    order 4 also takes the energy sup at its lower end."""
    monkeypatch.setattr(hssc, "truncated_momentum_eval", _fake_evaluator({2: (0.0, 0.0)}))
    spec = GreenSpec(2, 0.5, 1.0)
    member = TensorTestFunction((TestFunction.gaussian((0.2, -0.1), 0.9),))

    def loose(*args):
        with collect() as records:
            value = refine(*args)
        records[-1]["residual"] = abs(value) / 4  # the record the caller reads
        return value

    monkeypatch.setattr(hssc, "refine", loose)
    cert = hssc_certify(spec, ATOM_TRIPLE, [member], n_max=2)
    a = cert["constants"]["order_bounds"]
    factors = cert["scalar_factors"]
    assert factors["overlap_residual"] == factors["overlap_sup"] / 4
    central = compute_scalar_factors(spec)
    assert a[1] == pytest.approx(0.75 * pair_bound(spec, ATOM_TRIPLE, 4), rel=1e-14)
    order3, order4 = (bound_integral_scalar(n, spec, ATOM_TRIPLE, central).constant
                      for n in (3, 4))
    assert a[2] == pytest.approx(0.75 * order3, rel=1e-14)
    energy = factors["energy_sup"]
    assert a[3] == pytest.approx(
        0.75 * order4 * (energy - factors["energy_residual"]) / energy, rel=1e-14)


def test_pair_row_bounds_the_partition_sum_by_the_residuals(monkeypatch):
    # a two-slot member paired with itself: four slots, one-point values 0,
    # so W = T4 + 3 T2^2 and its error is M(|T| + r) - M(|T|); the
    # three-point value enters only with a one-point factor
    t2, r2, t4, r4 = -0.3, 1e-4, -0.2, 2e-5
    monkeypatch.setattr(hssc, "truncated_momentum_eval",
                        _fake_evaluator({2: (t2, r2), 3: (0.7, 0.1), 4: (t4, r4)}))
    member = TensorTestFunction((TestFunction.gaussian((0.2,), 0.9),
                                 TestFunction.gaussian((-0.3,), 1.0)))
    cert = hssc_certify(GreenSpec(1, 0.5, 1.0), GAUSS_TRIPLE, [member], n_max=4)
    assert cert["pairwise"]["count"] == 1
    assert cert["pairwise"]["skipped"] == 0
    lhs = abs(t4 + 3 * t2**2) + r4 + 3 * (2 * abs(t2) * r2 + r2**2)
    bound = (cert["constants"]["norm_constants"][1]
             * tensor_schwartz_norm(member, 2)) ** 2
    assert cert["pairwise"]["worst_ratio"] == pytest.approx(lhs / bound, rel=1e-12)


def test_certify_ratio_is_null_where_only_the_bound_vanishes(monkeypatch):
    # Gaussian noise bounds order 3 by 0, so a nonzero value there has no
    # finite ratio; the certificate stays JSON-ready and fails
    monkeypatch.setattr(hssc, "truncated_momentum_eval",
                        _fake_evaluator({3: (1e-3, 0.0)}))
    f = TestFunction.gaussian((0.2,), 0.9)
    cert = hssc_certify(GreenSpec(1, 0.5, 1.0), GAUSS_TRIPLE,
                        [TensorTestFunction((f, f, f))], n_max=3)
    row = cert["per_order"][0]
    assert row["order"] == 3 and row["worst_ratio"] is None and row["min_margin"] < 0.0
    assert not cert["passed"]
    json.dumps(cert, allow_nan=False)


def test_certify_rejects_members_above_n_max():
    # the member would get no per-order row and its pair is above the cap:
    # without the check the certificate passes with nothing checked
    f = TestFunction.gaussian((0.2,), 0.9)
    with pytest.raises(DomainError, match="above n_max"):
        hssc_certify(GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                     [TensorTestFunction((f, f, f))], n_max=2)


def test_certify_rejections():
    spec = GreenSpec(2, 0.5, 1.0)
    fam = _gaussian_family()[:1]
    with pytest.raises(PreconditionError):
        hssc_certify(spec, GAUSS_TRIPLE, [])
    with pytest.raises(TypeError):
        hssc_certify(spec, GAUSS_TRIPLE, [TestFunction.gaussian((0.0, 0.0), 1.0)])
