"""End-to-end acceptance gate: one test per numbered criterion, run in order.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
quantities (visible with ``-s``/``-rA`` and in failure reports; with ``-v``
the test name itself is the per-criterion line) and then asserts the stated
tolerances.  Everything here is pinned: seeds, lattice sizes, families, and
the expected runtime envelopes.
"""

import math
import time

import numpy as np
import pytest
from oracles import spherical_endpoint_oracle

from kreinfield.green import GreenSpec
from kreinfield.levy import LevyTriple
from kreinfield.testfunctions import TensorTestFunction, TestFunction

ATOM_TRIPLE = LevyTriple(0.1, 0.5, ((1.0, 2.0),))
GAUSS_TRIPLE = LevyTriple(0.0, 0.7, ())

SPEC_D1 = GreenSpec(1, 0.5, 1.0)
SPEC_D2 = GreenSpec(2, 0.5, 1.0)


def record(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: cumulant/moment round trip -------------------------------------------------


def test_criterion_1_cumulant_round_trip():
    from kreinfield.partitions import (
        BOSE,
        FERMI,
        CorrelationTable,
        cumulants_from_moments,
        moments_from_cumulants,
    )

    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 7):
        keys = CorrelationTable(n, {}).all_keys()
        table = CorrelationTable(
            n,
            {k: complex(rng.standard_normal(), rng.standard_normal())
             for k in keys},
        )
        for parity in (BOSE, FERMI):
            via_moments = cumulants_from_moments(
                moments_from_cumulants(table, parity), parity)
            via_cumulants = moments_from_cumulants(
                cumulants_from_moments(table, parity), parity)
            for k in keys:
                worst = max(worst, abs(via_moments.values[k] - table.values[k]))
                worst = max(worst, abs(via_cumulants.values[k] - table.values[k]))
    elapsed = time.monotonic() - t0
    record(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"round-trip error {worst:.2e} (tol 1e-12), n <= 6, both parities, "
        f"{elapsed:.2f}s (< 5s)",
    )


# -- 2: Monte Carlo vs closed form --------------------------------------------------


def test_criterion_2_mc_analytic_agreement():
    from kreinfield.euclidean import estimate_schwinger_mc
    from kreinfield.green import green_alpha_lattice
    from kreinfield.lattice import Lattice, sample_function
    from kreinfield.schwinger import smeared_truncated_correlator

    t0 = time.monotonic()
    # narrow wave packets so the aliasing systematic is measurable at 0.25
    tests = [TestFunction.gaussian(c, 0.15)
             for c in ((0.25, -0.125), (-0.25, 0.25), (0.125, 0.25))]

    analytic = {}
    for spacing, sites in ((0.25, 64), (0.125, 128), (0.0625, 256)):
        lat = Lattice(2, sites, spacing)
        for n in (2, 3):
            analytic[(spacing, n)] = smeared_truncated_correlator(
                lat, SPEC_D2, ATOM_TRIPLE, tests[:n])

    lat = Lattice(2, 64, 0.25)
    kernel = green_alpha_lattice(lat, SPEC_D2)
    weights = [sample_function(lat, t).values.real for t in tests]

    lines = []
    ok = True
    for n in (2, 3):
        band = abs(analytic[(0.25, n)] - analytic[(0.125, n)])
        band_fine = abs(analytic[(0.125, n)] - analytic[(0.0625, n)])
        est = estimate_schwinger_mc(
            lat, kernel, weights[:n], ATOM_TRIPLE, 10_000, seed=12)
        diff = abs(est.value - analytic[(0.125, n)])
        within = diff <= 3.0 * est.std_error + band
        shrink = 1.0 - band_fine / band
        ok = ok and within and shrink >= 0.40
        lines.append(
            f"n={n}: |MC-analytic| {diff:.2e} <= 3SE+band {3*est.std_error+band:.2e}"
            f" ({within}), band {band:.1e} -> {band_fine:.1e}"
            f" shrink {100*shrink:.0f}% (>= 40%)"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    record(2, ok, "; ".join(lines) + f"; {elapsed:.0f}s (< 10min)")


# -- 3: Laplace bridge between the two pipelines ------------------------------------


def test_criterion_3_laplace_bridge():
    from kreinfield.lattice import Lattice
    from kreinfield.wightman import laplace_bridge_check

    t0 = time.monotonic()
    lat2 = Lattice(2, 128, 0.0625)
    gaps2 = []
    for pts in ([[0.0, 0.0], [0.8125, 0.25]],
                [[0.0, -0.25], [0.625, 0.375]],
                [[0.125, 0.5], [1.25, -0.5]]):
        rep = laplace_bridge_check(np.array(pts), SPEC_D2, ATOM_TRIPLE, lat2)
        gaps2.append(rep.gap)

    lat3 = Lattice(2, 96, 0.125)
    rep3 = laplace_bridge_check(
        np.array([[0.0, 0.0], [1.0, 0.25], [2.0, -0.25]]),
        SPEC_D2, ATOM_TRIPLE, lat3)

    elapsed = time.monotonic() - t0
    ok = (max(gaps2) <= 1e-2 and rep3.gap <= 5e-2 and elapsed < 900.0)
    record(
        3,
        ok,
        f"n=2 gaps {[f'{g:.1e}' for g in gaps2]} (tol 1e-2) at 3 configs; "
        f"n=3 gap {rep3.gap:.1e} (tol 5e-2); {elapsed:.0f}s (< 15min)",
    )


# -- 4: spectral support of the three-point distribution ----------------------------


def test_criterion_4_spectral_support():
    from kreinfield.wightman import spectral_support_check

    off_centers = [
        (0.0, 0.0, 0.0), (2.0, 2.0, -4.0), (-3.0, 3.0, 0.0), (1.5, -0.5, -1.0),
        (1.0, 1.0, -2.0), (3.0, -1.0, -2.0), (-2.0, 4.0, -2.0), (0.5, 0.5, -1.0),
        (2.0, -0.5, -1.5), (-1.5, 2.5, -1.0),
    ]
    off = [
        TensorTestFunction(tuple(TestFunction.gaussian((c,), 0.15) for c in cs))
        for cs in off_centers
    ]
    control = TensorTestFunction(
        (TestFunction.gaussian((-1.8,), 0.4),
         TestFunction.gaussian((0.0,), 0.4),
         TestFunction.gaussian((1.8,), 0.4)))
    out = spectral_support_check(SPEC_D1, ATOM_TRIPLE, off, control)
    record(
        4,
        out["passed"],
        f"max off-support {out['max_off_support']:.1e} <= tol {out['tolerance']:.0e} "
        f"over {len(off)} functions; control {out['control']:.2e} > 10x tol",
    )


# -- 5: scalar bound chain and the certification inequality -------------------------


def test_criterion_5_scalar_chain_certificate():
    from kreinfield.hssc import hssc_certify

    rng = np.random.default_rng(42)

    def rand_tensor(n):
        slots = []
        for _ in range(n):
            center = tuple(rng.uniform(-1.2, 1.2, size=2))
            width = float(rng.uniform(0.8, 1.2))
            freq = tuple(rng.uniform(-0.6, 0.6, size=2))
            slots.append(TestFunction.gaussian(center, width, freq=freq))
        return TensorTestFunction(tuple(slots))

    family = ([rand_tensor(1) for _ in range(4)]
              + [rand_tensor(2) for _ in range(2)]
              + [rand_tensor(3) for _ in range(8)]
              + [rand_tensor(4) for _ in range(6)])
    assert len(family) == 20

    cert = hssc_certify(SPEC_D2, ATOM_TRIPLE, family, n_max=4)
    factors = cert["scalar_factors"]
    coarse, fine = factors["overlap_history"][0], factors["overlap_history"][1]
    stable = abs(fine - coarse) <= 0.02 * max(fine, coarse)
    below = factors["overlap_sup"] <= factors["overlap_ceiling"]
    margins = {row["order"]: row["min_margin"] for row in cert["per_order"]}
    positive = margins[3] > 0.0 and margins[4] > 0.0
    # the d = 2 pair cap 3 checks the 18 single-single and single-double
    # pairs of the 210 pairs i <= j; the certificate counts the rest
    pairs = cert["pairwise"]
    counted = pairs["count"] == 18 and pairs["skipped"] == 192
    ok = (math.isfinite(factors["overlap_sup"]) and stable and below
          and positive and counted and cert["passed"])
    record(
        5,
        ok,
        f"overlap sup {factors['overlap_sup']:.3f} finite, refinement-stable "
        f"({coarse:.3f} -> {fine:.3f}, 2%), below ceiling "
        f"{factors['overlap_ceiling']:.1f}; margins n=3 {margins[3]:.2e}, "
        f"n=4 {margins[4]:.2e} > 0 on a 20-function family; {pairs['count']} "
        f"pairs checked, {pairs['skipped']} above the degree cap; "
        f"certificate passed={cert['passed']}",
    )


# -- 6: vector-model bounds ----------------------------------------------------------


def _axial(c0: float, width: float, f0: float = 0.0) -> TestFunction:
    freq = (f0, 0.0, 0.0, 0.0) if f0 else None
    return TestFunction.gaussian((c0, 0.0, 0.0, 0.0), width, freq=freq)


def test_criterion_6_vector_bounds():
    from kreinfield.hssc import bound_integral_vector, tensor_schwartz_norm
    from kreinfield.wightman import vector_measure_radial

    reports = {j: bound_integral_vector(3, j) for j in range(4)}
    r1 = reports[0].linear_moment
    r2 = reports[0].quadratic_moment
    moments_ok = (abs(r1 - 4 * math.pi) <= 1e-6 and
                  abs(r2 - 4 * math.pi) <= 1e-6)

    rng = np.random.default_rng(17)
    family = [TensorTestFunction(
        (_axial(-0.9, 1.15), _axial(0.55, 0.95), _axial(0.7, 1.25)))]
    while len(family) < 10:
        slots = tuple(
            _axial(rng.uniform(-1.5, 1.5), rng.uniform(0.8, 1.3),
                   rng.uniform(-0.5, 0.5))
            for _ in range(3))
        family.append(TensorTestFunction(slots))

    worst_ratio = 0.0
    for phi in family:
        norm = tensor_schwartz_norm(phi, 3)
        for j in range(4):
            val = abs(vector_measure_radial(j, phi))
            worst_ratio = max(worst_ratio, val / (reports[j].constant * norm))
    bound_ok = worst_ratio <= 1.0

    # brute-force spherical oracle for the endpoint measure on family[0]
    oracle = spherical_endpoint_oracle([g.center[0] for g in family[0].factors],
                                       [g.width for g in family[0].factors], 72, 14.0)
    got = complex(vector_measure_radial(0, family[0])).real
    oracle_gap = abs(got - oracle) / abs(oracle)

    ok = moments_ok and bound_ok and oracle_gap <= 2e-2
    record(
        6,
        ok,
        f"radial moments {r1:.8f}, {r2:.8f} = 4pi to 1e-6; "
        f"worst |value|/(C*norm) {worst_ratio:.3f} <= 1 over 10 functions x 4 slots"
        f" (C = {reports[0].constant:.4f}); j=0 spherical-oracle gap "
        f"{oracle_gap:.1e} (tol 2e-2)",
    )


# -- 7: Krein reduction --------------------------------------------------------------


def test_criterion_7_krein_construction():
    from kreinfield.hssc import GramPair, build_gram_pair, krein_reduce

    rng = np.random.default_rng(77)
    worst_metric = worst_rec = worst_remaj = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 21))
        q, _ = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        lam = rng.uniform(0.15, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        t = q @ np.diag(lam) @ q.conj().T
        pvals = rng.uniform(0.5, 3.0, size=dim)
        pq, _ = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        p = pq @ np.diag(pvals) @ pq.conj().T
        p = 0.5 * (p + p.conj().T)
        ph = pq @ np.diag(np.sqrt(pvals)) @ pq.conj().T
        w = ph @ t @ ph
        res = krein_reduce(GramPair(0.5 * (w + w.conj().T), p))
        eye = np.eye(dim - res.degenerate_dim)
        worst_metric = max(
            worst_metric, float(np.linalg.norm(res.metric @ res.metric - eye, 2)))
        worst_rec = max(worst_rec, res.reconstruction_error)
        worst_remaj = max(worst_remaj, abs(res.remajorization_ratio - 1.0))

    # free (variance-only) model: the Gram form itself must be positive
    f1 = TestFunction.gaussian((-1.0,), 0.8)
    f2 = TestFunction.gaussian((0.5,), 1.0, freq=(0.6,))
    f3 = TestFunction.gaussian((1.2,), 0.9)
    basis = [(), (f1,), (f2,), (f1, f3)]
    pair = build_gram_pair(SPEC_D1, GAUSS_TRIPLE, basis, lambda mono: 1.0)
    eigs = np.linalg.eigvalsh(pair.form)
    gaussian_ok = float(eigs.min()) >= -1e-9

    ok = (worst_metric <= 1e-10 and worst_rec <= 1e-9
          and worst_remaj <= 1e-9 and gaussian_ok)
    record(
        7,
        ok,
        f"50 random pairs (dim <= 20): max ||T^2-I|| {worst_metric:.1e} (tol 1e-10), "
        f"max reconstruction {worst_rec:.1e} (tol 1e-9), max |remajorization-1| "
        f"{worst_remaj:.1e} (tol 1e-9); Gaussian Gram min eig {eigs.min():.2e} >= -1e-9",
    )


# -- 8: cluster decay ----------------------------------------------------------------


def test_criterion_8_cluster_decay():
    from kreinfield.wightman import cluster_decay

    rows = cluster_decay(
        [TestFunction.gaussian((-0.4, 0.3), 1.0)],
        [TestFunction.gaussian((0.6, -0.2), 1.1)],
        (0.6, 0.8),  # spacelike unit vector
        (0.0, 1.0, 2.0, 4.0, 8.0, 16.0),
        SPEC_D2,
        ATOM_TRIPLE,
    )
    vals = [v for _, v in rows]
    final_ok = vals[-1] <= 0.1 * vals[0]
    monotone = all(b < a for a, b in zip(vals[2:], vals[3:]))
    record(
        8,
        final_ok and monotone,
        f"|W^T| along the ray: {', '.join(f'{v:.3e}' for v in vals)}; final/initial "
        f"{vals[-1]/vals[0]:.1e} <= 0.1; monotone beyond lambda=2: {monotone}",
    )


# -- 9: quadratic-noise fast path ------------------------------------------------------


def test_criterion_9_gaussian_fast_path():
    from kreinfield.hssc import hssc_certify

    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    def rand_tensor(n):
        slots = tuple(
            TestFunction.gaussian(
                (float(rng.uniform(-1.2, 1.2)),), float(rng.uniform(0.8, 1.2)),
                freq=(float(rng.uniform(-0.6, 0.6)),))
            for _ in range(n))
        return TensorTestFunction(slots)

    family = [rand_tensor(n) for n in (1, 1, 2, 2, 3, 4)]
    cert = hssc_certify(SPEC_D1, GAUSS_TRIPLE, family, n_max=4)
    elapsed = time.monotonic() - t0

    bounds = cert["constants"]["order_bounds"]
    only_pair = bounds[1] > 0.0 and all(b == 0.0 for b in bounds[2:]) \
        and bounds[0] == 0.0
    pair_row = next(r for r in cert["per_order"] if r["order"] == 2)
    ok = (cert["passed"] and cert["model"]["quadratic"] and only_pair
          and pair_row["count"] > 0 and elapsed < 30.0)
    record(
        9,
        ok,
        f"certificate passed={cert['passed']} with only the n=2 bound active "
        f"(order bounds {['%.3g' % b for b in bounds[:4]]}...); "
        f"{elapsed:.1f}s end to end (< 30s)",
    )
