import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kreinfield.errors import SizeLimitError
from kreinfield.partitions import (
    BOSE,
    FERMI,
    CorrelationTable,
    SetPartition,
    canonical_partition,
    cumulants_from_moments,
    enumerate_partitions,
    fermionic_parity,
    moments_from_cumulants,
)


# ---- independent enumeration oracle: restricted growth strings ----

def rgs_partitions(n):
    """Enumerate partitions as restricted growth strings a_1=0, a_k <= max+1."""
    out = []

    def rec(a):
        if len(a) == n:
            blocks = {}
            for i, lab in enumerate(a):
                blocks.setdefault(lab, []).append(i + 1)
            out.append(tuple(tuple(b) for _, b in sorted(blocks.items())))
            return
        m = max(a) if a else -1
        for lab in range(m + 2):
            rec(a + [lab])

    rec([0] if n else [])
    return out


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]  # frozen from the RGS oracle


def test_counts_match_rgs_oracle():
    for n in range(1, 8):
        got = enumerate_partitions(n)
        want = rgs_partitions(n)
        assert len(got) == len(want) == BELL[n]
        assert {p.blocks for p in got} == set(want)


def test_singleton_and_cap():
    assert [p.blocks for p in enumerate_partitions(1)] == [((1,),)]
    with pytest.raises(SizeLimitError):
        enumerate_partitions(13)
    with pytest.raises(SizeLimitError):
        enumerate_partitions(0)


def test_canonical_validation():
    with pytest.raises(ValueError):
        SetPartition((((2, 1)),), 2)  # not increasing
    with pytest.raises(ValueError):
        SetPartition(((2,), (1,)), 2)  # wrong block order
    with pytest.raises(ValueError):
        SetPartition(((1,),), 2)  # misses 2
    p = canonical_partition([[3, 1], [2]], 3)
    assert p.blocks == ((1, 3), (2,))


def test_fermionic_parity_examples():
    assert fermionic_parity(canonical_partition([[1, 3], [2, 4]], 4)) == -1
    assert fermionic_parity(canonical_partition([[1, 2], [3, 4]], 4)) == 1
    assert fermionic_parity(canonical_partition([[1, 4], [2, 3]], 4)) == 1
    assert fermionic_parity(canonical_partition([[1, 2, 3, 4]], 4)) == 1
    # single blocks in canonical order splice to the identity
    assert fermionic_parity(canonical_partition([[1], [2], [3]], 3)) == 1


def pair_partitions(n):
    return [p for p in enumerate_partitions(n) if all(len(b) == 2 for b in p.blocks)]


def test_pair_partition_sums():
    # four indices: three pairings; signed sum collapses to 1
    ps = pair_partitions(4)
    assert len(ps) == 3
    assert sum(fermionic_parity(p) for p in ps) == 1


# ---- moment/cumulant conversion against a Poisson oracle ----

def poisson_moment(k, lam, terms=400):
    """E[N^k] for N ~ Poisson(lam), by direct series summation."""
    tot, p = 0.0, math.exp(-lam)
    for j in range(terms):
        tot += p * j**k
        p *= lam / (j + 1)
    return tot


def constant_table(n, fn):
    t = CorrelationTable(n)
    for key in t.all_keys():
        t[key] = fn(len(key))
    return t


def test_poisson_cumulants_recovered():
    lam = 0.7
    n = 5
    mom = constant_table(n, lambda k: poisson_moment(k, lam))
    cum = cumulants_from_moments(mom)
    for key in cum.all_keys():
        assert cum[key] == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_gaussian_moments_from_cumulants():
    # unit-variance centered Gaussian: only pair cumulants; fourth moment 3
    n = 4
    cum = CorrelationTable(n)
    for key in cum.all_keys():
        cum[key] = 1.0 if len(key) == 2 else 0.0
    mom = moments_from_cumulants(cum, BOSE)
    assert mom[(1, 2, 3, 4)] == pytest.approx(3.0)
    assert mom[(1, 2, 3)] == pytest.approx(0.0)
    ferm = moments_from_cumulants(cum, FERMI)
    assert ferm[(1, 2, 3, 4)] == pytest.approx(1.0)


def test_incomplete_table_rejected():
    t = CorrelationTable(3)
    t[(1, 2, 3)] = 1.0
    with pytest.raises(ValueError):
        moments_from_cumulants(t)


@st.composite
def complete_tables(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    t = CorrelationTable(n)
    for key in t.all_keys():
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        t[key] = complex(re, im)
    return t


@settings(max_examples=25, deadline=None)
@given(complete_tables(), st.sampled_from([BOSE, FERMI]))
def test_round_trip(table, parity):
    mom = moments_from_cumulants(table, parity)
    back = cumulants_from_moments(mom, parity)
    for key in table.all_keys():
        assert back[key] == pytest.approx(table[key], rel=1e-9, abs=1e-9)


# ---- first-block recursion against a direct partition sum ----

def partition_sum_oracle(key, parity, weight):
    """sum over set partitions of ``key`` of sign * prod_B weight(B), by enumeration."""
    total = 0j
    for p in enumerate_partitions(len(key)):
        term = complex(fermionic_parity(p) if parity == FERMI else 1)
        for b in p.blocks:
            term *= weight(tuple(key[i - 1] for i in b))
        total += term
    return total


@pytest.mark.parametrize("parity", [BOSE, FERMI])
@pytest.mark.parametrize("n", range(1, 8))
def test_conversions_match_enumeration(n, parity):
    rng = random.Random(100 * n + (parity == FERMI))
    cum = CorrelationTable(n)
    for key in cum.all_keys():
        cum[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mom = moments_from_cumulants(cum, parity)
    for key in cum.all_keys():
        want = partition_sum_oracle(key, parity, lambda b: cum[b])
        assert mom[key] == pytest.approx(want, rel=1e-12, abs=1e-12)
    # the inverse: an independent moment table, checked by re-summing
    # its cumulants over all partitions
    for key in mom.all_keys():
        mom[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    back = cumulants_from_moments(mom, parity)
    for key in mom.all_keys():
        resummed = partition_sum_oracle(key, parity, lambda b: back[b])
        assert resummed == pytest.approx(mom[key], rel=1e-9, abs=1e-9)


def test_conversions_do_not_enumerate(monkeypatch):
    from kreinfield import hssc, partitions

    def refuse(n):
        raise AssertionError("set partitions were enumerated")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    cum = constant_table(6, lambda k: 0.5)
    for parity in (BOSE, FERMI):
        mom = moments_from_cumulants(cum, parity)
        back = cumulants_from_moments(mom, parity)
        assert back[(1, 2, 3, 4, 5, 6)] == pytest.approx(0.5, rel=1e-9)
    assert hssc.partition_sums([1.0] * 12)[-1] == 4213597.0
