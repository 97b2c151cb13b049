import ast
import math
from pathlib import Path

import numpy as np
import pytest

from kreinfield.errors import PreconditionError, QuadratureError
from kreinfield import quadrature
from kreinfield.quadrature import (
    gauss_legendre,
    gl_nodes,
    phase_sums,
    refine,
    sine_nodes,
    tanh_sinh_nodes,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kreinfield"


# -- refinement driver ----------------------------------------------------------


def test_refine_raises_with_residual_when_schedule_runs_out():
    rec = []
    with pytest.raises(QuadratureError) as info:
        refine(float, (1, 2, 4), 1e-6, 0.0, "diverging", rec)
    assert math.isfinite(info.value.residual)
    assert info.value.residual == pytest.approx(2.0)
    assert rec == []


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
    rec = []
    got = refine(vals.get, (8, 16, 32, 64), 1e-9, 0.0, "demo", rec)
    assert got == vals[32]
    assert len(rec) == 1
    record = rec[0]
    assert set(record) == {"op", "value", "tolerance", "history"}
    assert record["op"] == "demo"
    assert record["tolerance"] == 1e-9
    assert record["value"] == [got.real, got.imag]
    assert record["history"] == [[p, vals[p].real, vals[p].imag] for p in (8, 16, 32)]


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


def _mp_weight(n, x0):
    """Weight of the order-n rule at the node next to x0, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(6):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            step = p * (1 - x * x) / (n * (p_prev - x * p))
            x -= step
        return float(2 * (1 - x * x) / (n * (p_prev - x * p)) ** 2)


@pytest.mark.parametrize("n", [7, 48, 181, 1024, 4096])
def test_rule_weights_match_high_precision_reference(n):
    t, w = gauss_legendre(n)
    for i in (0, n // 2, n - 1):
        assert w[i] == pytest.approx(_mp_weight(n, t[i]), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7, 48, 181])
def test_rule_is_exactly_antisymmetric(n):
    t, w = gauss_legendre(n)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(t) > 0)
    if n % 2:
        assert t[n // 2] == 0.0


@pytest.mark.parametrize("na", [1, 8, 9])
def test_phase_sums_match_direct_exponential(na, monkeypatch):
    rng = np.random.default_rng(na)
    a, _ = gl_nodes(-14.0, 14.0, na)
    k = 4.0 * rng.normal(size=(13, 5))
    bodies = rng.normal(size=(3, 13, 5)) + 1j * rng.normal(size=(3, 13, 5))
    # one q-chunk, then a budget of 2 * na * nt phases that forces three
    for budget in (None, 2 * na * 13):
        if budget is not None:
            monkeypatch.setattr(quadrature, "_PHASE_BUDGET", budget)
        p, q = phase_sums(a, k, bodies)
        for sign in (1.0, -1.0):
            direct = np.einsum("atq,jtq->jaq",
                               np.exp(1j * sign * a[:, None, None] * k), bodies)
            err = np.max(np.abs(p + 1j * sign * q - direct))
            assert err <= 1e-13 * np.max(np.abs(direct))


def test_phase_sums_reject_a_rule_without_mirror_symmetry():
    with pytest.raises(PreconditionError):
        phase_sums(np.array([-1.0, 0.0, 2.0]), np.ones((2, 1)), np.ones((1, 2, 1)))


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
