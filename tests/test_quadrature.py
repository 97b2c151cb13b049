import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kreinfield.errors import PreconditionError, QuadratureError
from kreinfield import quadrature
from kreinfield.quadrature import (
    collect,
    emit,
    folded_gl_nodes,
    gauss_legendre,
    gl_nodes,
    gregory_nodes,
    line_quadrature,
    phase_sums,
    refine,
    sine_nodes,
    sine_rule,
    tanh_sinh_nodes,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kreinfield"


# -- refinement driver ----------------------------------------------------------


def test_refine_raises_with_residual_when_schedule_runs_out():
    with collect() as rec, pytest.raises(QuadratureError) as info:
        refine(float, (1, 2, 4), 1e-6, 0.0, "diverging")
    assert math.isfinite(info.value.residual)
    assert info.value.residual == pytest.approx(2.0)
    assert [r["op"] for r in rec] == ["diverging"]


def test_failed_refine_leaves_a_record_matching_its_exception():
    vals = {8: 1.0 + 2.0j, 16: 3.0 - 1.0j}
    with collect() as rec, pytest.raises(QuadratureError) as info:
        refine(vals.get, (8, 16), 1e-9, 0.0, "two rounds")
    assert len(rec) == 1
    record = rec[0]
    assert record["op"] == "two rounds"
    assert record["value"] == [3.0, -1.0]
    assert record["tolerance"] == 1e-9
    assert record["history"] == info.value.history
    assert record["residual"] == info.value.residual
    assert record["error"] == str(info.value)


def test_failed_refine_keeps_its_history():
    vals = {8: 1.0 + 2.0j, 16: 3.0 - 1.0j}
    with pytest.raises(QuadratureError) as info:
        refine(vals.get, (8, 16), 1e-9, 0.0, "two rounds")
    assert info.value.history == [[8, 1.0, 2.0], [16, 3.0, -1.0]]
    assert info.value.residual == pytest.approx(abs(vals[16] - vals[8]))


def test_refine_accepts_on_absolute_floor():
    vals = {1: 1e-3, 2: 1.5e-3, 3: 1.6e-3}
    # relative change 1/3 fails rtol, but 5e-4 is inside atol
    assert refine(vals.get, (1, 2, 3), 1e-6, 1e-3, "floor") == 1.5e-3
    with pytest.raises(QuadratureError):
        refine(vals.get, (1, 2), 1e-6, 1e-4, "floor")


def test_refine_accepts_on_relative_rule():
    vals = {1: 100.0, 2: 101.0, 3: 101.0001}
    # 1e-4 / 101 < 1e-5 while atol = 0 cannot help
    assert refine(vals.get, (1, 2, 3), 1e-5, 0.0, "relative") == 101.0001
    assert refine(vals.get, (1, 2, 3), 1e-2, 0.0, "relative") == 101.0


def test_refine_records_one_history_row_per_round():
    vals = {8: 2.0 + 1.0j, 16: 2.5 + 1.0j, 32: 2.5 + 1.0j + 1e-12, 64: 7.0}
    with collect() as rec:
        got = refine(vals.get, (8, 16, 32, 64), 1e-9, 0.0, "demo")
    assert got == vals[32]
    assert len(rec) == 1
    record = rec[0]
    assert set(record) == {"op", "value", "tolerance", "history", "residual"}
    assert record["residual"] == abs(vals[32] - vals[16])
    assert record["op"] == "demo"
    assert record["tolerance"] == 1e-9
    assert record["value"] == [got.real, got.imag]
    assert record["history"] == [[p, vals[p].real, vals[p].imag] for p in (8, 16, 32)]


def test_nested_collect_blocks_reach_the_outer_block_in_order():
    vals = {1: 1.0, 2: 1.0}
    with collect() as outer:
        emit({"op": "first"})
        with collect() as inner:
            refine(vals.get, (1, 2), 1e-9, 0.0, "second")
            with collect() as innermost:
                emit({"op": "third"})
        emit({"op": "fourth"})
    assert [r["op"] for r in innermost] == ["third"]
    assert [r["op"] for r in inner] == ["second", "third"]
    assert [r["op"] for r in outer] == ["first", "second", "third", "fourth"]


def test_refine_outside_a_block_leaves_nothing_behind():
    vals = {8: 2.0 + 1.0j, 16: 2.0 + 1.0j}
    assert refine(vals.get, (8, 16), 1e-9, 0.0, "bare") == vals[16]
    emit({"op": "dropped"})
    with collect() as rec:
        pass
    assert rec == []
    with collect() as rec:
        assert refine(vals.get, (8, 16), 1e-9, 0.0, "bare") == vals[16]
    assert [r["op"] for r in rec] == ["bare"]


def test_characteristic_functional_and_radial_measure_leave_their_record():
    from kreinfield.levy import LevyTriple, characteristic_functional
    from kreinfield.testfunctions import TensorTestFunction, TestFunction
    from kreinfield.wightman import vector_measure_radial

    with collect() as rec:
        characteristic_functional(TestFunction.gaussian((0.0,), 1.0),
                                  LevyTriple(0.1, 0.5, ((1.0, 2.0),)))
    assert [r["op"] for r in rec] == ["characteristic_functional"]
    phi = TensorTestFunction(tuple(TestFunction.gaussian((c0, 0.0, 0.0, 0.0), 1.0)
                                   for c0 in (-1.0, 0.4, 0.8)))
    with collect() as rec:
        vector_measure_radial(3, phi)
    assert [r["op"] for r in rec] == ["vector_measure_radial"]
    assert rec[0]["history"]


# -- nodes ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 48, 181])
def test_cached_rule_matches_numpy_and_is_read_only(n):
    t, w = gauss_legendre(n)
    t_ref, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(t - t_ref)) <= 2e-16
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    assert gauss_legendre(n)[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def _mp_node_and_weight(n, x0, steps=6):
    """Node of the order-n rule next to x0 and its weight, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(steps):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            step = p * (1 - x * x) / (n * (p_prev - x * p))
            x -= step
        return +x, 2 * (1 - x * x) / (n * (p_prev - x * p)) ** 2


# the nodes nearest x = -1, those around the switch from Gatteschi's
# guesses (the 40 nodes nearest an endpoint) to Tricomi's, the middle node
# and the last one; 255 and the cutoff straddle the switch from the
# recurrence to the expansions
@pytest.mark.parametrize("n", [7, 48, 64, 181, 255, quadrature._EXPANSION_ORDER,
                               1024, 1283, 1816, 4096])
def test_rule_weights_match_high_precision_reference(n):
    t, w = gauss_legendre(n)
    for i in sorted({0, 1, 2, 39, 40, 41, n // 2, n - 1} & set(range(n))):
        assert w[i] == pytest.approx(float(_mp_node_and_weight(n, t[i])[1]), rel=1e-13)


@pytest.mark.parametrize("n", [quadrature._EXPANSION_ORDER,
                               quadrature._EXPANSION_ORDER + 1])
def test_expansion_rule_matches_high_precision_reference_at_every_node(n):
    mpmath = pytest.importorskip("mpmath")
    t, w = gauss_legendre(n)
    node_err = weight_err = 0.0
    # two Newton steps from a node within 1e-15 pass 40 digits
    for i in range(n // 2, n):
        x, wx = _mp_node_and_weight(n, t[i], steps=2)
        with mpmath.workdps(40):
            node_err = max(node_err, float(abs(mpmath.mpf(t[i]) - x)))
            weight_err = max(weight_err, float(abs(mpmath.mpf(w[i]) / wx - 1)))
    assert node_err <= 4e-16
    assert weight_err <= 1e-15


# the folded q-rule of the d = 2 factorized transforms relies on the mirror
# symmetry at every size
@pytest.mark.parametrize("n", [1, 2, 7, 48, 181, quadrature._EXPANSION_ORDER,
                               1283, 1816, 4096])
def test_rule_is_exactly_antisymmetric(n):
    t, w = gauss_legendre(n)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    assert np.all(np.diff(t) > 0)
    if n % 2:
        assert t[n // 2] == 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 48, 181])
def test_folded_rule_sums_both_signs_on_the_half(n):
    # an integrand summed at +x and -x over the folded half equals its sum
    # over the full rule, with the odd rule's middle node counted once
    x, w = gl_nodes(-1.3, 1.3, n)
    h, wh = folded_gl_nodes(1.3, n)
    assert np.array_equal(h, x[n // 2:]) and np.all(h >= 0.0)

    def g(t):
        return np.exp(t) * (1.0 + t * t)

    assert np.sum(wh * (g(h) + g(-h))) == pytest.approx(np.sum(w * g(x)), rel=1e-14)


def test_bessel_zero_table_and_mcmahon_series_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        zeros = [mpmath.besseljzero(0, k) for k in range(1, 61)]
        want = np.array([float(z) for z in zeros])
        # both tables are the correctly rounded 40-digit values
        assert np.array_equal(quadrature._J0_ZEROS, want[:20])
        j1sq = np.array([float(mpmath.besselj(1, z) ** 2) for z in zeros])
        assert np.array_equal(quadrature._J1_SQUARED, j1sq[:21])
        beta, offset = quadrature._bessel_j0_zeros(60)
        # past the table the offsets j_{0,k} - (k - 1/4) pi carry no
        # cancellation error; they enter the expansion nodes directly
        off_err = [float(abs(offset[k] - (zeros[k] - (k + 0.75) * mpmath.pi)))
                   for k in range(20, 60)]
    assert np.array_equal((beta + offset)[:20], want[:20])
    assert max(off_err) <= 1e-17
    rel = np.abs(quadrature._bessel_j1_squared(60) / j1sq - 1.0)
    assert np.all(rel[:21] == 0.0) and np.all(rel[21:] <= 3e-16)
    # the recurrence path's guesses: five tabulated zeros, then McMahon
    beta, offset = quadrature._bessel_j0_zeros(40, tabulated=5)
    j = beta + offset
    assert np.array_equal(j[:5], want[:5])
    rel = np.abs(j / want[:40] - 1.0)
    assert rel[5] <= 1e-12 and rel[6] <= 1e-13
    assert np.all(rel[7:] <= 2e-14)
    beta, offset = quadrature._bessel_j0_zeros(3)
    assert np.array_equal(beta + offset, want[:3])


@pytest.mark.parametrize("n", [64, 1816, 4096])
def test_cold_rule_costs_one_recurrence_pass(n, monkeypatch):
    """One pass below the cutoff, none from it on."""
    passes = {64: 1, 1816: 0, 4096: 0}[n]
    calls = []
    legendre = quadrature._legendre

    def counted(y, order):
        calls.append(order)
        return legendre(y, order)

    monkeypatch.setattr(quadrature, "_legendre", counted)
    gauss_legendre.__wrapped__(n)
    assert calls == [n] * passes


def test_package_import_leaves_out_scipy_special_and_mpmath():
    code = (
        "import importlib, pkgutil, sys, kreinfield\n"
        "for mod in pkgutil.iter_modules(kreinfield.__path__):\n"
        "    importlib.import_module('kreinfield.' + mod.name)\n"
        "assert 'kreinfield.cli' in sys.modules\n"
        "kreinfield.quadrature.gauss_legendre(4096)\n"
        "kreinfield.quadrature.gregory_nodes(-14, 14, 365)\n"
        "print(sorted(m for m in ('scipy.special', 'mpmath', 'fractions')\n"
        "             if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _bernoulli(m):
    """B_0..B_m as fractions, from sum_{k <= n} C(n + 1, k) B_k = 0."""
    from fractions import Fraction
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def _gregory_end_weights(m):
    """The m end weights, in units of h, of the rule exact to degree m - 1.

    With h = 1 and f = x^p, Euler-Maclaurin puts the trapezoid's error at
    the left end at -B_{p+1} / (p + 1) for odd p and at 0 for even p; the
    corrections c_j on the nodes j < m cancel it for p < m, a Vandermonde
    system solved exactly.
    """
    from fractions import Fraction
    b = _bernoulli(m)
    rows = [[Fraction(j) ** p for j in range(m)]
            + [b[p + 1] / (p + 1) if p % 2 else Fraction(0)] for p in range(m)]
    for i in range(m):  # Gauss-Jordan; the Vandermonde pivots are non-zero
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for r in range(m):
            if r != i:
                rows[r] = [x - rows[r][i] * y for x, y in zip(rows[r], rows[i])]
    trapezoid = [Fraction(1, 2)] + [Fraction(1)] * (m - 1)
    return [t + row[m] for t, row in zip(trapezoid, rows)]


def test_gregory_end_weights_match_bernoulli_derivation():
    want = [float(x) for x in _gregory_end_weights(7)]
    got = quadrature._GREGORY_END
    assert len(got) == 7
    for g, v in zip(got, want):
        assert abs(g - v) <= np.spacing(v)


@pytest.mark.parametrize("n", [16, 17, 64, 365])
def test_gregory_rule_is_exactly_antisymmetric(n):
    a, w = gregory_nodes(-14.0, 14.0, n)
    assert np.array_equal(a, -a[::-1]) and np.array_equal(w, w[::-1])
    assert a[0] == -14.0 and np.all(np.diff(a) > 0)


@pytest.mark.parametrize("lo, hi", [(-14.0, 14.0), (0.5, 3.0)])
@pytest.mark.parametrize("n", [16, 17, 64, 1817])
def test_gregory_weights_sum_to_the_length(lo, hi, n):
    _, w = gregory_nodes(lo, hi, n)
    assert math.fsum(w) == pytest.approx(hi - lo, rel=1e-14)


@pytest.mark.parametrize("n", [16, 17, 64])
def test_gregory_rule_is_exact_to_degree_seven(n):
    lo, hi = -0.75, 2.5
    x, w = gregory_nodes(lo, hi, n)
    for p in range(8):
        want = (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
        assert math.fsum(w * x ** p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 15])
def test_gregory_rule_needs_sixteen_nodes(n):
    with pytest.raises(PreconditionError):
        gregory_nodes(-1.0, 1.0, n)


def _equispaced(na):
    """The antisymmetric equispaced a-rule on [-14, 14], also below 16 nodes."""
    if na >= 16:
        return gregory_nodes(-14.0, 14.0, na)[0]
    t = np.linspace(-14.0, 14.0, na)
    return 0.5 * (t - t[::-1])


def _baby_giant(na):
    """phase_sums' split of the nh non-negative nodes: B = ceil(sqrt(nh)), G."""
    nh = na - na // 2
    baby = math.isqrt(nh - 1) + 1
    return nh, baby, -(-nh // baby)


@pytest.mark.parametrize("na", [1, 8, 9, 61])
def test_phase_sums_match_direct_exponential(na, monkeypatch):
    rng = np.random.default_rng(na)
    a = _equispaced(na)
    if na == 61:  # ragged: the last giant step holds fewer than B nodes
        nh, baby, _ = _baby_giant(na)
        assert nh % baby
    nb, nt, nq = 8, 13, 5
    k = 4.0 * rng.normal(size=(nt, nq))
    bodies = rng.normal(size=(nb, nt, nq)) + 1j * rng.normal(size=(nb, nt, nq))
    # one q-chunk, then budgets that force chunks of two columns (three
    # chunks), of one column, and of four rows t of one column (3 + 1
    # chunks summed per column); the budget counts the bodies
    per_column = na * (nt + 2 * nb)
    for budget in (None, 2 * per_column, per_column, na * (4 + 2 * nb)):
        if budget is not None:
            monkeypatch.setattr(quadrature, "_PHASE_BUDGET", budget)
        p, q = phase_sums(a, k, bodies)
        assert p.shape == q.shape == (nb, na, nq)
        for sign in (1.0, -1.0):
            direct = np.einsum("atq,jtq->jaq",
                               np.exp(1j * sign * a[:, None, None] * k), bodies)
            err = np.max(np.abs(p + 1j * sign * q - direct))
            assert err <= 1e-13 * np.max(np.abs(direct))


def test_phase_sums_match_direct_exponential_at_d1_size():
    """The largest d = 1 a-rule size, with |k| up to 30 and one column."""
    rng = np.random.default_rng(1817)
    a = _equispaced(1817)
    nb, nt = 6, 452
    k = rng.uniform(-30.0, 30.0, size=(nt, 1))
    bodies = rng.normal(size=(nb, nt, 1)) + 1j * rng.normal(size=(nb, nt, 1))
    p, q = phase_sums(a, k, bodies)
    phases = np.exp(1j * a[:, None] * k[:, 0])
    for sign, table in ((1.0, phases), (-1.0, phases.conj())):
        direct = np.einsum("at,jt->ja", table, bodies[..., 0])
        err = np.max(np.abs(p[..., 0] + 1j * sign * q[..., 0] - direct))
        assert err <= 1e-13 * np.max(np.abs(direct))


def test_phase_sums_evaluate_cos_and_sin_on_the_baby_and_giant_grids_only(monkeypatch):
    """A certify-size call (d = 2): cos and sin see (B + G) nt nq phases each."""
    na, nt, nq, nb = 365, 126, 125, 12
    rng = np.random.default_rng(365)
    a = _equispaced(na)
    k = rng.uniform(-20.0, 20.0, size=(nt, nq))
    bodies = rng.normal(size=(nb, nt, nq)) + 1j * rng.normal(size=(nb, nt, nq))
    seen = []

    def counted(fn):
        def wrapper(x, *args, **kwargs):
            seen.append(np.size(x))
            return fn(x, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "cos", counted(np.cos))
    monkeypatch.setattr(np, "sin", counted(np.sin))
    phase_sums(a, k, bodies)
    nh, baby, giant = _baby_giant(na)
    assert 0 < sum(seen) <= 2 * (baby + giant) * nt * nq
    assert 2 * (baby + giant) < nh  # a direct table would need 2 nh per (t, c)


def test_phase_sums_reject_a_rule_without_mirror_symmetry():
    with pytest.raises(PreconditionError):
        phase_sums(np.array([-1.0, 0.0, 2.0]), np.ones((2, 1)), np.ones((1, 2, 1)))


def test_phase_sums_reject_an_antisymmetric_gauss_legendre_rule():
    a, _ = gl_nodes(-14.0, 14.0, 365)
    assert np.array_equal(a, -a[::-1])
    with pytest.raises(PreconditionError, match="equispaced"):
        phase_sums(a, np.ones((2, 3)), np.ones((1, 2, 3)))


@pytest.mark.parametrize("k_shape", [(2, 4), (2, 1)], ids=["wider", "broadcast"])
def test_phase_sums_reject_k_not_shaped_like_bodies(k_shape):
    a, _ = gregory_nodes(-1.0, 1.0, 16)
    with pytest.raises(PreconditionError):
        phase_sums(a, np.ones(k_shape), np.ones((3, 2, 2)))


def test_sine_map_tames_endpoint_singularity():
    x, w = sine_nodes(0.0, 1.0, 32)
    assert abs(np.sum(w / np.sqrt(x)) - 2.0) < 1e-12


def test_sine_map_broadcasts_and_zeroes_degenerate_intervals():
    lo = np.array([[0.0, 1.0], [2.0, -1.0]])
    hi = np.array([[1.0, 1.0], [1.0, 3.0]])
    x, w = sine_nodes(lo, hi, 12)
    assert x.shape == w.shape == (2, 2, 12)
    assert np.all(w[0, 1] == 0.0) and np.all(w[1, 0] == 0.0)
    assert np.sum(w[0, 0]) == pytest.approx(1.0, rel=1e-12)
    assert np.sum(w[1, 1]) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [
    (-0.5, 2.0),
    # (2, 3) intervals; [0, -1] is empty
    (np.array([[0.0], [2.0]]), np.array([[1.0, 3.0, -1.0], [4.0, 2.5, 3.0]])),
], ids=["scalar", "broadcast-2x3"])
def test_sine_rule_is_cached_and_mirrors_exactly(lo, hi):
    # three_point_eval_2d builds half its grid on this: the reflected
    # intervals [-hi, -lo] get the negated nodes in reverse order and the
    # same weights, bit for bit
    s, c = sine_rule(9)
    assert sine_rule(9)[0] is s and not s.flags.writeable
    assert np.array_equal(s, -s[::-1]) and np.array_equal(c, c[::-1])
    x, w = sine_nodes(lo, hi, 9)
    xm, wm = sine_nodes(np.negative(hi), np.negative(lo), 9)
    assert np.array_equal(xm, -x[..., ::-1]) and np.array_equal(wm, w[..., ::-1])


def per_piece_line_quadrature(f, lo, hi, cuts=(), npts=32):
    """Oracle: one scalar line, one sine rule and one call of f per piece
    between its distinct cuts strictly inside it, the sums added in order."""
    if hi <= lo:
        return 0.0
    edges = [lo, *sorted({c for c in cuts if lo < c < hi}), hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = sine_nodes(a, b, npts)
        total = total + np.sum(f(x) * w, axis=0)
    return total


def kinked(x):
    # finite everywhere, with a square-root kink at the cut 0.3
    return np.sqrt(np.abs(x - 0.3)) * np.exp(1j * x)


@pytest.mark.parametrize("cuts", [
    (), (0.3,), (1.1, 0.3), (0.3, 5.0, -4.0), (0.3, 1.1, 0.3), (-1.0, 0.3, 2.0),
], ids=["none", "inside", "unsorted", "outside", "repeated", "at-the-ends"])
def test_line_quadrature_matches_per_piece_loop(cuts):
    got = line_quadrature(kinked, -1.0, 2.0, cuts, 24)
    want = per_piece_line_quadrature(kinked, -1.0, 2.0, cuts, 24)
    assert np.shape(got) == ()
    assert complex(got) == complex(want)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, -1.0)], ids=["empty", "reversed"])
def test_line_quadrature_of_an_empty_line_is_zero(lo, hi):
    assert line_quadrature(kinked, lo, hi, (0.3,), 16) == 0.0


def test_line_quadrature_over_lines_matches_per_line_loop():
    # three_point_eval_1d's inner level: a k2-line [-box, box] per outer node
    # k1, split at the shells -m, m, -k1 - m and -k1 + m; with box = 3 the
    # last cut leaves the line for k1 < -2
    box, m = 3.0, 1.0
    k1, _ = sine_nodes(-box, -m, 10)

    def g(k1, k2):
        return np.sqrt(np.abs(k1 + k2 + m)) * np.exp(-0.5 * k2 * k2) + 1j * k1 * k2

    got = line_quadrature(lambda k2: g(k1[:, None], k2), -box, box,
                          (-m, m, -k1 - m, -k1 + m), 32)
    assert got.shape == k1.shape
    for k, value in zip(k1, got):
        want = per_piece_line_quadrature(lambda k2: g(k, k2), -box, box,
                                         (-m, m, -k - m, -k + m), 32)
        assert complex(value) == complex(want)


def test_line_quadrature_calls_f_once_with_every_node():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.ones_like(x)

    assert line_quadrature(f, 0.0, 2.0, (0.5, 1.5), 8) == pytest.approx(2.0)
    # lines of shape (3, 4): lo per row, one cut per column
    lo = np.array([[0.0], [1.0], [-2.0]])
    got = line_quadrature(f, lo, 3.0, (np.array([-1.0, 0.5, 2.0, 4.0]),), 8)
    assert shapes == [(24,), (3, 4, 16)]
    np.testing.assert_allclose(got, np.broadcast_to(3.0 - lo, (3, 4)), rtol=1e-12)


TANH_SINH_SCHEDULE = [24 << k for k in range(5)]


def test_tanh_sinh_integrates_strong_endpoint_singularities():
    # B(0.1, 0.1) = Gamma(0.1)^2 / Gamma(0.2); the sine map leaves
    # |t|^(-0.8) here and stalls far above 1e-12
    want = math.gamma(0.1) ** 2 / math.gamma(0.2)

    def value(n):
        dlo, dhi, w = tanh_sinh_nodes(0.0, 1.0, n)
        return np.sum(dlo ** -0.9 * dhi ** -0.9 * w)

    got = refine(value, TANH_SINH_SCHEDULE, 1e-12, 0.0, "beta")
    assert got == pytest.approx(want, rel=1e-12)


def test_tanh_sinh_keeps_every_node_off_the_endpoints():
    dlo, dhi, w = tanh_sinh_nodes(-2.0, 3.0, TANH_SINH_SCHEDULE[-1])
    assert np.all(dlo > 0.0) and np.all(dhi > 0.0) and np.all(w > 0.0)
    np.testing.assert_allclose(dlo + dhi, 5.0, rtol=1e-15)


@pytest.mark.parametrize("n", [2, 24, 97])
def test_tanh_sinh_rule_is_mirror_symmetric(n):
    dlo, dhi, w = tanh_sinh_nodes(0.0, 1.0, n)
    assert np.array_equal(dlo, dhi[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(dlo) >= 0.0)
    with pytest.raises(PreconditionError):
        tanh_sinh_nodes(0.0, 1.0, 1)


def test_tanh_sinh_broadcasts_over_intervals():
    hi = np.array([[1.0, 2.0], [3.0, 4.0]])
    dlo, dhi, w = tanh_sinh_nodes(0.0, hi, 48)
    assert dlo.shape == dhi.shape == w.shape == (2, 2, 48)
    np.testing.assert_allclose(np.sum(w, axis=-1), hi, rtol=1e-12)


# -- structure guard ------------------------------------------------------------


def _names(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value


def test_modules_share_one_quadrature_core():
    """No private cross-module imports; only quadrature.py builds nodes."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("kreinfield")
            ):
                offences += [
                    f"{path.name}:{node.lineno} imports private {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
            if path.name != "quadrature.py" and any(
                "leggauss" in name for name in _names(node)
            ):
                offences.append(f"{path.name}:{node.lineno} mentions leggauss")
    assert offences == []
