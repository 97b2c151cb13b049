import itertools
import math

import numpy as np
import pytest

from kreinfield import euclidean
from kreinfield.errors import ConfigurationError, LatticeMismatchError, SizeLimitError
from kreinfield.euclidean import (
    convolve,
    estimate_moment_table,
    estimate_schwinger_mc,
    noise_generator,
    quaternion_noise_field,
    reflect,
    smear,
    white_noise_field,
)
from kreinfield.green import GreenSpec, green_alpha_lattice
from kreinfield.lattice import Lattice, LatticeField, sample_function
from kreinfield.levy import LevyTriple, QuaternionLevyData, cumulant_coeff
from kreinfield.partitions import CorrelationTable, cumulants_from_moments
from kreinfield.quaternion import quaternion_mul
from kreinfield.schwinger import smeared_truncated_correlator
from kreinfield.testfunctions import TestFunction

ATOM_TRIPLE = LevyTriple(drift=0.0, variance=0.5, atoms=((1.0, 2.0),))


def test_streams_are_reproducible_and_independent():
    lat = Lattice(2, 16, 0.25)
    a = white_noise_field(lat, ATOM_TRIPLE, noise_generator(7, 3)).values
    b = white_noise_field(lat, ATOM_TRIPLE, noise_generator(7, 3)).values
    c = white_noise_field(lat, ATOM_TRIPLE, noise_generator(7, 4)).values
    d = white_noise_field(lat, ATOM_TRIPLE, noise_generator(8, 3)).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rekeyed_streams_match_fresh_generators():
    # the replicates share one generator, and a replicate can leave it with
    # a partly used 64-bit buffer and a pending 32-bit half
    at = euclidean._noise_streams(7)
    partial = []
    for r in (3, 0, 4, 3, 2**40 + 1):
        got, want = at(r), noise_generator(7, r)
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
        assert np.array_equal(got.poisson(0.3, 7), want.poisson(0.3, 7))
        assert np.array_equal(got.integers(0, 9, 3, dtype=np.int32),
                              want.integers(0, 9, 3, dtype=np.int32))
        state = got.bit_generator.state
        partial.append(state["buffer_pos"] < 4 and state["has_uint32"] == 1)
    assert partial[0] and partial[1]


def test_site_statistics_match_cumulants():
    # across-cell sample mean/variance estimate c1 and c2/v
    lat = Lattice(2, 128, 0.5)
    vals = white_noise_field(lat, ATOM_TRIPLE, noise_generator(11, 0)).values
    v = lat.cell_volume
    c1, c2 = cumulant_coeff(1, ATOM_TRIPLE), cumulant_coeff(2, ATOM_TRIPLE)
    n = vals.size
    se_mean = math.sqrt(c2 / v / n)
    assert abs(vals.mean() - c1) < 5 * se_mean
    assert vals.var() == pytest.approx(c2 / v, rel=0.1)


def test_quaternion_noise_channels():
    lat = Lattice(4, 12, 0.5)
    data = QuaternionLevyData(beta=0.3, variance_real=0.2, variance_imag=0.4,
                              atoms=((2.0, 1.0),))
    vals = quaternion_noise_field(lat, data, noise_generator(2, 0)).values
    assert vals.shape == lat.shape + (4,)
    v = lat.cell_volume
    # real channel: jump not compensated (|y| >= 1), mean = beta + lam*y
    assert vals[..., 0].mean() == pytest.approx(0.3 + 2.0, rel=0.15)
    for i in (1, 2, 3):
        assert abs(vals[..., i].mean()) < 5 * math.sqrt(0.4 / v / vals[..., 0].size)
        assert vals[..., i].var() == pytest.approx(0.4 / v, rel=0.1)


def test_convolve_constant_is_zero_mode():
    lat = Lattice(2, 32, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(2, 0.5, 1.0))
    out = convolve(G, LatticeField(lat, np.ones(lat.shape))).values
    assert np.allclose(out, 1.0, rtol=1e-12)  # mass 1: symbol(0) = 1


def test_convolve_translation_equivariance():
    lat = Lattice(2, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(2, 0.25, 1.0))
    F = white_noise_field(lat, ATOM_TRIPLE, noise_generator(1, 0))
    base = convolve(G, F).values
    shifted = convolve(G, LatticeField(lat, np.roll(F.values, (3, -2), (0, 1)))).values
    assert np.allclose(shifted, np.roll(base, (3, -2), (0, 1)), atol=1e-12)


def test_adjoint_smearing_identity():
    # <K*F, w> = <F, K~ * w>, exactly on the lattice
    lat = Lattice(2, 24, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(2, 0.5, 2.0))
    F = white_noise_field(lat, ATOM_TRIPLE, noise_generator(5, 1))
    w = sample_function(lat, TestFunction.gaussian((0.3, -0.5), 0.7)).values.real
    lhs = smear(convolve(G, F), w)
    rhs = smear(F, convolve(reflect(G), LatticeField(lat, w)).values.real)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quaternion_convolution_matches_direct_sum():
    lat = Lattice(4, 4, 0.5)
    rng = noise_generator(9, 0)
    K = LatticeField(lat, rng.normal(size=lat.shape + (4,)))
    F = LatticeField(lat, rng.normal(size=lat.shape + (4,)))
    got = convolve(K, F).values
    # direct O(N^2) circular sum with Hamilton products
    idx = np.indices(lat.shape).reshape(4, -1).T
    want = np.zeros(lat.shape + (4,))
    for x in idx:
        acc = np.zeros(4)
        for y in idx:
            kxy = K.values[tuple((x - y) % 4)]
            acc = acc + quaternion_mul(kxy, F.values[tuple(y)])
        want[tuple(x)] = acc * lat.cell_volume
    assert np.allclose(got, want, atol=1e-10)


def test_reflect_is_lattice_negation():
    lat = Lattice(1, 8, 1.0)
    f = LatticeField(lat, np.arange(8.0))
    r = reflect(f).values
    xs = lat.axis_coords()
    for j in range(8):
        src = lat.site_index((-xs[j] if xs[j] != -4.0 else -4.0,))
        assert r[j] == f.values[src]


def test_mc_matches_lattice_expectation_two_point():
    lat = Lattice(1, 64, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w1 = sample_function(lat, TestFunction.gaussian((0.5,), 0.8)).values.real
    w2 = sample_function(lat, TestFunction.gaussian((-1.0,), 1.1)).values.real
    est = estimate_schwinger_mc(lat, G, [w1, w2], ATOM_TRIPLE, 2000, seed=21)
    want = smeared_truncated_correlator(lat, GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                                        [w1, w2])
    assert abs(est.value - want) < 4 * est.std_error
    assert est.std_error < 0.1 * abs(want)


def test_mc_matches_lattice_expectation_three_point():
    lat = Lattice(1, 64, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    est = estimate_schwinger_mc(lat, G, [w, w, w], ATOM_TRIPLE, 4000, seed=33)
    want = smeared_truncated_correlator(lat, GreenSpec(1, 0.5, 1.0), ATOM_TRIPLE,
                                        [w, w, w])
    assert want != 0
    assert abs(est.value - want) < 4 * est.std_error


def test_gaussian_noise_has_no_third_cumulant():
    lat = Lattice(1, 32, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    gauss = LevyTriple(variance=1.0)
    want = smeared_truncated_correlator(lat, GreenSpec(1, 0.5, 1.0), gauss, [w, w, w])
    assert want == 0.0
    est = estimate_schwinger_mc(lat, G, [w, w, w], gauss, 1000, seed=4)
    assert abs(est.value) < 4 * est.std_error


def _replicate_projections(lat, sks, triple, seed, r):
    """One replicate's smeared values by the stream contract, from a fresh stream."""
    rng = noise_generator(seed, r)
    v = lat.cell_volume
    S = np.stack([sk.ravel() for sk in sks])
    sites = S.shape[1]
    p = triple.compensated_drift() * S.sum(axis=1)
    for s, lam in triple.atoms:
        count = rng.poisson(lam * v * sites)
        idx = rng.integers(0, sites, count)
        p = p + (s / v) * (S @ np.bincount(idx, minlength=sites))
    if triple.variance > 0:
        r_factor = np.linalg.qr(S.T, mode="r")
        z = rng.standard_normal(len(sks))
        p = p + math.sqrt(triple.variance / v) * r_factor.T @ z
    return p * v


def test_jackknife_reduces_to_classic_se_for_mean():
    lat = Lattice(1, 32, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    est = estimate_schwinger_mc(lat, G, [w], ATOM_TRIPLE, 400, seed=1, n_batches=20)
    # recompute batch means directly
    sk = convolve(reflect(G), LatticeField(lat, w)).values
    ms = [_replicate_projections(lat, [sk], ATOM_TRIPLE, 1, r)[0] for r in range(400)]
    bm = np.array(ms).reshape(20, 20).mean(axis=1)
    classic = bm.std(ddof=1) / math.sqrt(20)
    assert est.value == pytest.approx(np.mean(ms), rel=1e-12)
    assert est.std_error == pytest.approx(classic, rel=1e-10)


def test_estimator_input_validation():
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = np.ones(lat.shape)
    with pytest.raises(ConfigurationError):
        estimate_schwinger_mc(lat, G, [w], ATOM_TRIPLE, 10, seed=0, n_batches=20)
    with pytest.raises(ConfigurationError):
        estimate_schwinger_mc(lat, G, [w], ATOM_TRIPLE, 30, seed=0, n_batches=20)
    with pytest.raises(ConfigurationError):
        estimate_schwinger_mc(lat, G, [], ATOM_TRIPLE, 40, seed=0)


def _reference_batch_sums(lat, kernel, weights, triple, n_samples, seed, n_batches):
    """The per-replicate loop: fresh streams and one np.prod per subset."""
    n = len(weights)
    kr = reflect(kernel)
    sks = [convolve(kr, LatticeField(lat, w)).values for w in weights]
    keys = [key for size in range(1, n + 1)
            for key in itertools.combinations(range(1, n + 1), size)]
    per_batch = n_samples // n_batches
    sums = np.zeros((n_batches, len(keys)))
    for r in range(n_samples):
        m = _replicate_projections(lat, sks, triple, seed, r)
        sums[r // per_batch] += [np.prod(m[np.array(key) - 1]) for key in keys]
    return keys, sums


# on the test's 32 sites at v = 1/4: the rate-1/4 atom (mean 2 points, none in
# ~13% of replicates) comes before the rate-2 one (mean 16), so a swapped draw
# order or a mishandled empty replicate shows against the site-count oracle
TWO_ATOMS = ((-0.7, 0.25), (1.0, 2.0))


@pytest.mark.parametrize("slice_entries, triple", [
    pytest.param(None, ATOM_TRIPLE, id="None"),
    pytest.param(7 << 4, ATOM_TRIPLE, id="112"),
    pytest.param(7 << 4, LevyTriple(0.3, 0.5, TWO_ATOMS), id="two-atoms"),
    pytest.param(7 << 4, LevyTriple(0.3, 0.0, TWO_ATOMS), id="two-atoms-no-gauss"),
])
def test_subset_moments_match_per_replicate_reference(monkeypatch, slice_entries,
                                                      triple):
    if slice_entries is not None:  # 2^4 products per replicate: batches of 30
        # are summed in slices of 7, 7, 7, 7, 2 replicates
        monkeypatch.setattr(euclidean, "_SLICE_ENTRIES", slice_entries)
    lat = Lattice(1, 32, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    ws = [sample_function(lat, TestFunction.gaussian((c,), 0.8)).values.real
          for c in (-1.0, -0.25, 0.5, 1.25)]
    n_samples, n_batches, seed = 300, 10, 17
    keys, sums = _reference_batch_sums(lat, G, ws, triple, n_samples, seed,
                                       n_batches)
    table = estimate_moment_table(lat, G, ws, triple, n_samples, seed=seed,
                                  n_batches=n_batches)
    assert list(table) == keys
    grand = sums.sum(axis=0)
    for i, key in enumerate(keys):
        assert table[key].value == pytest.approx(grand[i] / n_samples, rel=1e-12)

    want = cumulants_from_moments(CorrelationTable(
        4, dict(zip(keys, grand / n_samples)))).values[(1, 2, 3, 4)]
    est = estimate_schwinger_mc(lat, G, ws, triple, n_samples, seed=seed,
                                n_batches=n_batches)
    assert est.value == pytest.approx(want, rel=1e-12)


def test_dense_atom_blocks_move_no_bit(monkeypatch):
    # about 20 points per site: a replicate draws ~640 of the 32 sites.  At
    # n = 2 every budget below keeps the slices at 30 replicates, and a block
    # then gathers one replicate (64 sites), about three (2048) or the whole
    # slice (32768): a replicate's sums must not depend on its block
    dense = LevyTriple(0.3, 0.5, ((1.0, 80.0),))
    lat = Lattice(1, 32, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    ws = [sample_function(lat, TestFunction.gaussian((c,), 0.8)).values.real
          for c in (-1.0, 0.5)]
    tables = []
    for entries in (1 << 7, 1 << 12, 1 << 16):
        monkeypatch.setattr(euclidean, "_SLICE_ENTRIES", entries)
        tables.append(estimate_moment_table(lat, G, ws, dense, 300, seed=17,
                                            n_batches=10))
    assert tables[0] == tables[1] == tables[2]
    keys, sums = _reference_batch_sums(lat, G, ws, dense, 300, 17, 10)
    grand = sums.sum(axis=0)
    for i, key in enumerate(keys):
        assert tables[0][key].value == pytest.approx(grand[i] / 300, rel=1e-12)


def test_replayed_replicate_matches_the_reference(monkeypatch):
    # numpy redraws a half with probability 2296 / 2^32 on 2500 sites; at this
    # seed replicate 190 used one, so it is keyed again and replayed
    keyed = []
    streams = euclidean._noise_streams

    def counting(seed):
        at = streams(seed)

        def keyed_at(r):
            keyed.append(r)
            return at(r)

        return keyed_at

    monkeypatch.setattr(euclidean, "_noise_streams", counting)
    lat = Lattice(2, 50, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(2, 0.5, 1.0))
    ws = [sample_function(lat, TestFunction.gaussian(c, 0.3)).values.real
          for c in ((0.25, -0.125), (-0.25, 0.25))]
    triple = LevyTriple(0.3, 0.5, TWO_ATOMS)
    table = estimate_moment_table(lat, G, ws, triple, 200, seed=6, n_batches=10)
    assert len(keyed) == 201 and keyed.count(190) == 2
    keys, sums = _reference_batch_sums(lat, G, ws, triple, 200, 6, 10)
    grand = sums.sum(axis=0)
    for i, key in enumerate(keys):
        assert table[key].value == pytest.approx(grand[i] / 200, rel=1e-12)


# 1, 2 and 4096 sites are powers of two and never redraw a half; 2^31 + 1
# redraws about half of them; 3, 2500 (50^2) and 2^32 - 1 rarely
@pytest.mark.parametrize("sites", [1, 2, 3, 2500, 4096, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("totals", [(2.5,), (0.0, 1.5), (1.5, 0.0, 2.5)],
                         ids=["one-atom", "two-atoms", "three-atoms"])
def test_site_draws_match_integers_and_normals(sites, totals):
    seed, replicates = 23, 60
    stream = euclidean._noise_streams(seed)
    keyed = []

    def at(r):
        keyed.append(r)
        return stream(r)

    # a budget of 7 sites splits the replicates into blocks of one or two
    for budget in (1 << 20, 7):
        keyed.clear()
        drawn = []
        normals = np.empty((replicates, 2))
        first = 0
        while first < replicates:
            counts, starts, idx = euclidean._site_draws(
                at, first, replicates, totals, sites, budget, normals[first:])
            for j, (row, begin) in enumerate(zip(counts, starts)):
                rng = noise_generator(seed, first + j)
                for count, start, total in zip(row, begin, totals):
                    assert count == rng.poisson(total)
                    assert np.array_equal(idx[start : start + count],
                                          rng.integers(0, sites, count))
                    drawn.append(count)
                assert np.array_equal(normals[first + j], rng.standard_normal(2))
            first += len(counts)
        # a replicate is keyed again only to replay a redrawn half
        assert (len(keyed) > replicates) == (sites == 2**31 + 1)
        assert 0 in drawn
        assert {1, 2} <= {count % 2 + 1 for count in drawn if count}


def test_site_draws_take_fewer_than_2_32_sites():
    # refused before any array is built: the kernel's lattice is not even
    # checked, and no 2^32-site field exists
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    with pytest.raises(SizeLimitError):
        estimate_schwinger_mc(Lattice(2, 1 << 16, 1.0), G, [np.ones(lat.shape)],
                              ATOM_TRIPLE, 40, seed=0)


@pytest.mark.parametrize("bad", [
    pytest.param(lambda w: w + 0.5j * w, id="complex"),
    pytest.param(lambda w: np.where(np.arange(w.size) == 5, np.nan, w), id="nan"),
    pytest.param(lambda w: np.where(np.arange(w.size) == 5, -np.inf, w), id="inf"),
])
@pytest.mark.parametrize("estimator", [estimate_schwinger_mc, estimate_moment_table])
def test_weights_must_be_real_and_finite(estimator, bad):
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    with pytest.raises(ConfigurationError, match="weight 1 "):
        estimator(lat, G, [w, bad(w)], ATOM_TRIPLE, 40, seed=0)


@pytest.mark.parametrize("estimator", [estimate_schwinger_mc, estimate_moment_table])
def test_complex_weights_with_zero_imaginary_part_are_real(estimator):
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    real = estimator(lat, G, [w, w], ATOM_TRIPLE, 40, seed=0)
    assert estimator(lat, G, [w, w.astype(complex)], ATOM_TRIPLE, 40, seed=0) == real


def test_moment_table_prefix_gives_back_the_mc_cumulant():
    # the same noise stream: the table's subsets of the first n weights fold
    # into the cumulant estimate_schwinger_mc computes on those n weights
    lat = Lattice(2, 16, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(2, 0.5, 1.0))
    centers = ((0.25, -0.125), (-0.25, 0.25), (0.125, 0.25),
               (0.0, 0.0), (-0.125, -0.25), (0.375, 0.125))
    ws = [sample_function(lat, TestFunction.gaussian(c, 0.3)).values.real
          for c in centers]
    table = estimate_moment_table(lat, G, ws, ATOM_TRIPLE, 200, seed=12)
    for n in (2, 3):
        sub = {k: est.value for k, est in table.items() if max(k) <= n}
        cum = cumulants_from_moments(CorrelationTable(n, sub)).values[
            tuple(range(1, n + 1))]
        ref = estimate_schwinger_mc(lat, G, ws[:n], ATOM_TRIPLE, 200, seed=12).value
        assert cum == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("estimator", [estimate_schwinger_mc, estimate_moment_table])
def test_kernel_on_another_lattice_is_rejected(estimator):
    lat = Lattice(1, 16, 0.5)
    other = green_alpha_lattice(Lattice(1, 16, 0.25), GreenSpec(1, 0.5, 1.0))
    with pytest.raises(LatticeMismatchError):
        estimator(lat, other, [np.ones(lat.shape)], ATOM_TRIPLE, 40, seed=0)


@pytest.mark.parametrize("triple", [
    LevyTriple(drift=0.3, variance=1.0),
    LevyTriple(drift=-0.2, atoms=((1.0, 2.0),)),
    ATOM_TRIPLE,
], ids=["gaussian", "atom", "mixed"])
def test_mc_cumulants_agree_with_lattice_expectation_in_law(triple):
    lat = Lattice(1, 32, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    ws = [sample_function(lat, TestFunction.gaussian((c,), 0.8)).values.real
          for c in (-0.5, 0.0, 0.75)]
    for n in (2, 3):
        est = estimate_schwinger_mc(lat, G, ws[:n], triple, 4000, seed=29)
        want = smeared_truncated_correlator(lat, GreenSpec(1, 0.5, 1.0), triple,
                                            ws[:n])
        assert abs(est.value - want) < 3 * est.std_error


@pytest.mark.parametrize("triple", [LevyTriple(variance=1.0), ATOM_TRIPLE],
                         ids=["gaussian", "mixed"])
def test_rank_deficient_weights_are_sampled(triple):
    # a zero weight and a repeated one: S S^T is singular, which a Cholesky
    # factor would reject; the zero weight's smeared value is exactly 0
    lat = Lattice(1, 32, 0.25)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 0.8)).values.real
    weights = [np.zeros(lat.shape), w, w]
    table = estimate_moment_table(lat, G, weights, triple, 200, seed=3)
    for key, est in table.items():
        if 1 in key:
            assert est.value == 0.0 and est.std_error == 0.0
        else:
            assert est.value != 0.0
    assert estimate_schwinger_mc(lat, G, weights, triple, 200, seed=3).value == 0.0
    est = estimate_schwinger_mc(lat, G, [w, w, w], triple, 200, seed=3)
    assert math.isfinite(est.value) and est.std_error > 0


@pytest.mark.parametrize("estimator", [estimate_schwinger_mc, estimate_moment_table])
def test_estimators_build_no_noise_field(monkeypatch, estimator):
    def no_field(*args, **kwargs):
        raise AssertionError("the estimators sample projections, not fields")

    monkeypatch.setattr(euclidean, "white_noise_field", no_field)
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    w = sample_function(lat, TestFunction.gaussian((0.0,), 1.0)).values.real
    estimator(lat, G, [w, w], ATOM_TRIPLE, 40, seed=0)


@pytest.mark.parametrize("estimator", [estimate_schwinger_mc, estimate_moment_table])
def test_more_than_six_weights_are_rejected(estimator):
    lat = Lattice(1, 16, 0.5)
    G = green_alpha_lattice(lat, GreenSpec(1, 0.5, 1.0))
    with pytest.raises(SizeLimitError):
        estimator(lat, G, [np.ones(lat.shape)] * 7, ATOM_TRIPLE, 40, seed=0)
