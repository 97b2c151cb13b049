"""The benchmark's workloads: inputs from a seed, operations, and checks.

Each workload pins the inputs of an acceptance criterion.  The seed picks an
exact symmetry image of those inputs (a permutation of a family, a spatial
reflection, a lattice translation), so the inputs change with the seed while
the correct outputs do not.  That keeps the references recorded at the seed
commit valid for every seed and keeps the work per pass the same.

A workload is ``setup(seed, workdir) -> ctx`` plus a list of operations
``op(ctx, check)``.  Operations call the library only through module
attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import kreinfield.cli as cli
import kreinfield.euclidean as euclidean
import kreinfield.green as green
import kreinfield.hssc as hssc
import kreinfield.lattice as lattice
import kreinfield.partitions as partitions
import kreinfield.schwinger as schwinger
import kreinfield.wightman as wightman
from kreinfield.levy import LevyTriple
from kreinfield.testfunctions import TensorTestFunction, TestFunction

ATOM_TRIPLE = LevyTriple(0.1, 0.5, ((1.0, 2.0),))
SPEC_D2 = green.GreenSpec(2, 0.5, 1.0)
ATOM_MODEL_D1 = {
    "kind": "scalar",
    "dim": 1,
    "alpha": 0.5,
    "mass": 1.0,
    "levy": {"drift": 0.1, "variance": 0.5, "atoms": [[1.0, 2.0]]},
}


class Check:
    """Collects one operation's checks against criteria and references.

    ``close`` compares a value with its reference under a tolerance and
    keeps the worst |value - reference| / tolerance.  In record mode it
    stores the value as the new reference instead.
    """

    def __init__(self, prefix: str, references: dict, record: bool):
        self.prefix = prefix
        self.references = references
        self.record = record
        self.failures = []
        self.tol_ratio = 0.0

    def true(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)

    def close(self, label: str, value, rtol: float = 0.0, atol: float = 0.0) -> None:
        """Check |value - reference| <= atol + rtol * |reference|."""
        key = f"{self.prefix}/{label}"
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            self.failures.append(f"{label}: non-finite value")
            return
        if self.record:
            self.references[key] = [value.real, value.imag]
            return
        if key not in self.references:
            self.failures.append(f"{label}: no reference")
            return
        ref = complex(*self.references[key])
        tol = max(atol + rtol * abs(ref), 1e-300)
        ratio = abs(value - ref) / tol
        self.tol_ratio = max(self.tol_ratio, ratio)
        if not ratio <= 1.0:
            self.failures.append(f"{label}: |{value:.12g} - {ref:.12g}| > {tol:.3g}")


# -- certify-d2: criterion 5's certificate and criterion 6's vector bounds ---------


def _criterion5_family():
    """The criterion-5 draw (seed 42), in the criterion's own order."""
    rng = np.random.default_rng(42)

    def rand_tensor(n):
        slots = []
        for _ in range(n):
            center = tuple(rng.uniform(-1.2, 1.2, size=2))
            width = float(rng.uniform(0.8, 1.2))
            freq = tuple(rng.uniform(-0.6, 0.6, size=2))
            slots.append(TestFunction.gaussian(center, width, freq=freq))
        return TensorTestFunction(tuple(slots))

    return ([rand_tensor(1) for _ in range(4)]
            + [rand_tensor(2) for _ in range(2)]
            + [rand_tensor(3) for _ in range(8)]
            + [rand_tensor(4) for _ in range(6)])


def _reflect_space(t: TensorTestFunction) -> TensorTestFunction:
    """k1 -> -k1 in every slot: a symmetry of the isotropic d = 2 model."""
    return TensorTestFunction(tuple(
        TestFunction.gaussian((g.center[0], -g.center[1]), g.width,
                              freq=(g.freq[0], -g.freq[1]))
        for g in t.factors
    ), prefactor=t.prefactor)


def setup_certify(seed: int, workdir: str) -> dict:
    full = _criterion5_family()
    # the first two singles and the first triple of the criterion draw: one
    # d = 2 factorized evaluation and three pair pairings.  Each further
    # member of order 3 or 4 adds a 10-20 s evaluation to every pass.
    members = [full[0], full[1], full[6]]
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        members = [_reflect_space(f) for f in members]
    return {"family": [members[i] for i in rng.permutation(len(members))]}


def op_certify(ctx: dict, check: Check) -> None:
    cert = hssc.hssc_certify(SPEC_D2, ATOM_TRIPLE, ctx["family"], n_max=4)
    factors = cert["scalar_factors"]
    coarse, fine = factors["overlap_history"][0], factors["overlap_history"][1]
    check.true("certificate passed", cert["passed"])
    check.true("overlap grid-stable to 2%",
               abs(fine - coarse) <= 0.02 * max(fine, coarse))
    check.true("overlap sup below ceiling",
               factors["overlap_sup"] <= factors["overlap_ceiling"])
    margins = {row["order"]: row for row in cert["per_order"]}
    check.true("margin n=3 > 0", margins[3]["min_margin"] > 0.0)
    check.true("pair margin > 0", cert["pairwise"]["min_margin"] > 0.0)
    # the chain's stated accuracy is its 2% grid stability; the member
    # ratios add the factorized evaluator's 1e-3 on top of it
    for n, a in enumerate(cert["constants"]["order_bounds"][1:], start=2):
        check.close(f"order_bound_{n}", a, rtol=2e-2)
    check.close("worst_ratio_3", margins[3]["worst_ratio"], rtol=2e-2)
    check.close("pair_worst_ratio", cert["pairwise"]["worst_ratio"], rtol=2e-2)


def _op_vector_bound(j: int):
    def op(ctx: dict, check: Check) -> None:
        rep = hssc.bound_integral_vector(3, j)
        check.true("radial moments = 4 pi to 1e-6",
                   abs(rep.linear_moment - 4 * math.pi) <= 1e-6
                   and abs(rep.quadratic_moment - 4 * math.pi) <= 1e-6)
        check.close("constant", rep.constant, rtol=1e-6)

    op.__name__ = f"bound_integral_vector_3_{j}"
    return op


# -- bridge-d2: criterion 3's Laplace bridge ----------------------------------------

BRIDGE_N2 = ([[0.0, 0.0], [0.8125, 0.25]],
             [[0.0, -0.25], [0.625, 0.375]],
             [[0.125, 0.5], [1.25, -0.5]])
# criterion 3's n = 3 points take 4 refinement rounds (140 s on a 2-core
# Xeon); these times stop after 2 rounds (11 s), which fits a run's budget
BRIDGE_N3 = [[0.0, 0.0], [1.25, 0.25], [2.5, -0.25]]


def setup_bridge(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    # translations by whole sites of the coarser lattice and a spatial
    # reflection: exact symmetries of both pipelines.  The ranges keep every
    # point within the inner half that kernel_product_integral requires.
    shift = 0.125 * np.array([rng.integers(-16, 5), rng.integers(-12, 13)])
    sign = np.array([1.0, -1.0 if rng.integers(2) else 1.0])

    def image(pts):
        return np.asarray(pts, dtype=float) * sign + shift

    return {
        "lat2": lattice.Lattice(2, 128, 0.0625),
        "lat3": lattice.Lattice(2, 96, 0.125),
        "n2": [image(p) for p in BRIDGE_N2],
        "n3": image(BRIDGE_N3),
        "rounds": 0,
    }


def _op_bridge_n2(i: int):
    def op(ctx: dict, check: Check) -> None:
        rep = wightman.laplace_bridge_check(
            ctx["n2"][i], SPEC_D2, ATOM_TRIPLE, ctx["lat2"])
        check.true("gap <= 1e-2", rep.gap <= 1e-2)
        check.close("lhs", rep.lhs, rtol=1e-9)
        check.close("rhs", rep.rhs, rtol=5e-3)

    op.__name__ = f"laplace_bridge_n2_{i}"
    return op


def op_bridge_n3(ctx: dict, check: Check) -> None:
    rec = []
    rep = wightman.laplace_bridge_check(
        ctx["n3"], SPEC_D2, ATOM_TRIPLE, ctx["lat3"], recorder=rec)
    ctx["rounds"] += sum(len(r["history"]) for r in rec
                         if r["op"] == "three_point_2d")
    check.true("gap <= 5e-2", rep.gap <= 5e-2)
    check.close("lhs", rep.lhs, rtol=1e-9)
    # three_point_eval_2d runs at tol 2e-3 inside the bridge
    check.close("rhs", rep.rhs, rtol=2e-3)


# -- mc-lattice: criterion 2's Monte Carlo and lattice contraction ------------------

MC_CENTERS = ((0.25, -0.125), (-0.25, 0.25), (0.125, 0.25))
TABLE_CENTERS = MC_CENTERS + ((0.0, 0.0), (-0.125, -0.25), (0.375, 0.125))
MC_SAMPLES = 5_000
MC_SEED = 12


def setup_mc(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    # whole sites of the coarsest lattice are sites of all three, and the
    # periodic contraction is invariant under them
    shift = 0.25 * rng.integers(-4, 5, size=2)
    return {
        "shifted": [TestFunction.gaussian(tuple(np.add(c, shift)), 0.15)
                    for c in MC_CENTERS],
        # the Monte Carlo keeps criterion 2's own weights and noise seed: a
        # fresh noise stream per seed would miss the 3-SE check now and then
        "tests": [TestFunction.gaussian(c, 0.15) for c in TABLE_CENTERS],
        "lattices": {sp: lattice.Lattice(2, sites, sp)
                     for sp, sites in ((0.25, 64), (0.125, 128), (0.0625, 256))},
    }


def op_mc_analytic(ctx: dict, check: Check) -> None:
    analytic = {}
    for sp, lat in ctx["lattices"].items():
        for n in (2, 3):
            val = schwinger.smeared_truncated_correlator(
                lat, SPEC_D2, ATOM_TRIPLE, ctx["shifted"][:n])
            analytic[(sp, n)] = val
            check.close(f"smeared_{sp}_{n}", val, rtol=1e-9)
    for n in (2, 3):
        band = abs(analytic[(0.25, n)] - analytic[(0.125, n)])
        band_fine = abs(analytic[(0.125, n)] - analytic[(0.0625, n)])
        check.true(f"n={n} band shrinks >= 40%", 1.0 - band_fine / band >= 0.40)
    ctx["analytic"] = analytic


def _weights(ctx: dict, count: int):
    lat = ctx["lattices"][0.25]
    kernel = green.green_alpha_lattice(lat, SPEC_D2)
    weights = [lattice.sample_function(lat, t).values.real
               for t in ctx["tests"][:count]]
    return lat, kernel, weights


def _op_mc(n: int):
    def op(ctx: dict, check: Check) -> None:
        lat, kernel, weights = _weights(ctx, n)
        est = euclidean.estimate_schwinger_mc(
            lat, kernel, weights, ATOM_TRIPLE, MC_SAMPLES, seed=MC_SEED)
        a = ctx["analytic"]
        band = abs(a[(0.25, n)] - a[(0.125, n)])
        check.true("|MC - analytic| <= 3 SE + band",
                   abs(est.value - a[(0.125, n)]) <= 3.0 * est.std_error + band)
        check.close("value", est.value, atol=3.0 * est.std_error)
        ctx[f"mc{n}"] = est.value

    op.__name__ = f"estimate_schwinger_mc_n{n}"
    return op


def op_moment_table(ctx: dict, check: Check) -> None:
    lat, kernel, weights = _weights(ctx, len(TABLE_CENTERS))
    table = euclidean.estimate_moment_table(
        lat, kernel, weights, ATOM_TRIPLE, MC_SAMPLES, seed=MC_SEED)
    for key, est in table.items():
        check.close("moment_" + "-".join(map(str, key)), est.value,
                    atol=3.0 * est.std_error)
    # same noise stream: the table's subsets of the first n weights must give
    # back the cumulant estimate_schwinger_mc computed from them
    for n in (2, 3):
        sub = {k: table[k].value for k in table if max(k) <= n}
        cum = partitions.cumulants_from_moments(
            partitions.CorrelationTable(n, sub)).values[tuple(range(1, n + 1))]
        ref = ctx[f"mc{n}"]
        check.true(f"n={n} table cumulant equals MC estimate",
                   abs(cum - ref) <= 1e-9 * max(abs(ref), 1e-300))


# -- gram-d1: Gram/Krein, the bridge and momentum evaluators through the CLI --------

KREIN_MONOMIALS = [[], [0], [1, 2]]
LAPLACE_D1 = ([[0.0], [0.75]], [[0.0], [0.75], [1.5]])
WIGHTMAN_D1 = (
    [(-0.5, 1.0), (0.2, 0.9), (0.6, 1.1)],
    [(-0.5, 1.0), (0.2, 0.9), (0.6, 1.1), (0.1, 1.0)],
)


def _tensor_doc(slots) -> dict:
    return {"slots": [{"center": [c], "width": w} for c, w in slots]}


def _write_configs(workdir: str, configs: dict) -> dict:
    """One JSON config per CLI subcommand; the context the CLI ops read."""
    paths = {}
    for command, cfg in configs.items():
        paths[command] = os.path.join(workdir, f"{command}.json")
        with open(paths[command], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    return {"paths": paths, "workdir": workdir}


def setup_gram(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    monos = [KREIN_MONOMIALS[i] for i in rng.permutation(len(KREIN_MONOMIALS))]
    shift = 0.25 * int(rng.integers(-8, 9))
    tests = [WIGHTMAN_D1[i] for i in rng.permutation(len(WIGHTMAN_D1))]
    model35 = dict(ATOM_MODEL_D1, alpha=0.35)
    return _write_configs(workdir, {
        "krein": {"model": ATOM_MODEL_D1, "seed": 3, "tasks": {"krein": {
            "n_functions": 3, "monomials": monos, "seminorm_scale": 50.0,
            "search_candidates": 1}}},
        "laplace-check": {"model": model35,
                          "lattice": {"sites": 64, "spacing": 0.25},
                          "tasks": {"laplace_check": {
                              "configs": [[[t + shift] for (t,) in pts]
                                          for pts in LAPLACE_D1],
                              "tolerance": 0.02}}},
        "wightman": {"model": model35, "tasks": {"wightman": {
            "tests": [_tensor_doc(t) for t in tests]}}},
    })


def _cli(ctx: dict, command: str) -> str:
    out = os.path.join(ctx["workdir"], f"out-{command}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", ctx["paths"][command], "--out", out])
    if rc != 0:
        raise RuntimeError(f"kreinfield {command} exited {rc}: {err.getvalue().strip()}")
    return out


def _csv_rows(path: str):
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.strip().split(",") for line in fh if line.strip()]
    return [dict(zip(header, row)) for row in rows]


def op_krein(ctx: dict, check: Check) -> None:
    out = _cli(ctx, "krein")
    with open(os.path.join(out, "krein.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    check.true("majorization passed", doc["majorization"]["passed"])
    check.true("||T^2 - I|| <= 1e-10",
               doc["krein"]["metric_self_inverse_defect"] <= 1e-10)
    check.true("reconstruction <= 1e-9", doc["krein"]["reconstruction_error"] <= 1e-9)
    eigs = doc["form_eigenvalues"]
    # factorized entries carry 1e-3 relative; the spectrum inherits it
    scale = max(abs(x) for x in eigs)
    for i, x in enumerate(eigs):
        check.close(f"eigenvalue_{i}", x, atol=1e-3 * scale)
    lam = doc["indefinite_search"]["min_eigenvalues"][0]
    check.close("search_min_eigenvalue", lam, rtol=1e-3)


def op_laplace_d1(ctx: dict, check: Check) -> None:
    out = _cli(ctx, "laplace-check")
    rows = _csv_rows(os.path.join(out, "laplace_check.csv"))
    check.true("gaps <= 0.02", all(row["passed"] == "True" for row in rows))
    for row in rows:
        n = row["order"]
        lhs, rhs = float(row["lattice"]), float(row["momentum"])
        check.close(f"n{n}_lhs", lhs, rtol=1e-9)
        # pair route: 1e-9 loop tolerance; triple route: three_point_eval_1d at 1e-7
        check.close(f"n{n}_rhs", rhs, rtol=1e-9 if n == "2" else 1e-7)


def op_wightman_d1(ctx: dict, check: Check) -> None:
    out = _cli(ctx, "wightman")
    rows = _csv_rows(os.path.join(out, "wightman.csv"))
    for row in rows:
        n = row["order"]
        val = complex(float(row["real"]), float(row["imag"]))
        # three_point_eval_1d stops at 1e-6 relative or absolute;
        # factorized_eval at 1e-3 relative plus 1e-12
        if n == "3":
            check.close(f"order_{n}", val, rtol=1e-6, atol=1e-6)
        else:
            check.close(f"order_{n}", val, rtol=1e-3, atol=1e-12)


# -- known failure, run on request only ---------------------------------------------


def setup_known_failure(seed: int, workdir: str) -> dict:
    return _write_configs(workdir, {"wightman": {
        "model": dict(ATOM_MODEL_D1, alpha=0.35),
        "tasks": {"wightman": {"tests": [_tensor_doc([(-0.3, 1.0), (0.4, 0.9)])]}}}})


def op_wightman_pair_d1(ctx: dict, check: Check) -> None:
    out = _cli(ctx, "wightman")
    rows = _csv_rows(os.path.join(out, "wightman.csv"))
    val = complex(float(rows[0]["real"]), float(rows[0]["imag"]))
    # two_point_density_eval stops at 1e-8 * max(1, |value|)
    check.close("order_2", val, rtol=1e-8, atol=1e-8)


WORKLOADS = {
    "certify-d2": (setup_certify,
                   [op_certify] + [_op_vector_bound(j) for j in range(4)]),
    "bridge-d2": (setup_bridge,
                  [_op_bridge_n2(i) for i in range(3)] + [op_bridge_n3]),
    "mc-lattice": (setup_mc,
                   [op_mc_analytic, _op_mc(2), _op_mc(3), op_moment_table]),
    "gram-d1": (setup_gram, [op_krein, op_laplace_d1, op_wightman_d1]),
    "gram-d1-known-failure": (setup_known_failure, [op_wightman_pair_d1]),
}

