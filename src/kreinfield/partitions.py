"""Set partitions of ordered index sets and moment/cumulant conversion.

Joint moments of a family of random variables are sums over set partitions
of products of joint cumulants, with an optional fermionic sign attached to
each partition.  This module provides the partition enumeration, the sign,
and the conversion in both directions for tables of correlation values
indexed by increasing index tuples; the conversion recurses on the block
holding the smallest index instead of listing partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import SizeLimitError

# Enumeration is exponential (Bell numbers); keep a hard cap.
MAX_GROUND_SIZE = 12

Block = Tuple[int, ...]

BOSE = "bose"
FERMI = "fermi"


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., ground_size} into disjoint nonempty blocks.

    Canonical form: each block is strictly increasing and blocks are ordered
    by their smallest element.  The constructor validates this.
    """

    blocks: Tuple[Block, ...]
    ground_size: int

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if list(b) != sorted(b):
                raise ValueError(f"block {b} not increasing")
            seen.update(b)
        if seen != set(range(1, self.ground_size + 1)):
            raise ValueError("blocks do not partition the ground set")
        if len(seen) != sum(len(b) for b in self.blocks):
            raise ValueError("blocks overlap")
        mins = [b[0] for b in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not ordered by smallest element")

    def __len__(self) -> int:
        return len(self.blocks)


def canonical_partition(blocks: Iterable[Iterable[int]], ground_size: int) -> SetPartition:
    """Sort blocks internally and by smallest element, then validate."""
    bs = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    return SetPartition(bs, ground_size)


def enumerate_partitions(n: int) -> List[SetPartition]:
    """All set partitions of {1..n} in canonical form.

    Grows like the Bell numbers; n is capped at MAX_GROUND_SIZE.

    Check: test_round_trip and test_partition_sums_match_enumeration, where
    explicit enumeration is the reference for the recursive conversions and
    for partition_sums; perfbench also traces it.
    """
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise SizeLimitError(f"ground size {n} outside 1..{MAX_GROUND_SIZE}")
    partial: List[List[List[int]]] = [[[1]]]
    for k in range(2, n + 1):
        nxt: List[List[List[int]]] = []
        for p in partial:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(k)
                nxt.append(q)
            nxt.append([list(b) for b in p] + [[k]])
        partial = nxt
    return [canonical_partition(p, n) for p in partial]


def fermionic_parity(p: SetPartition) -> int:
    """Sign of the permutation splicing {1..n} into concatenated blocks.

    Concatenate the blocks (canonical order) and count inversions of the
    resulting sequence; the parity is (-1)**inversions.

    Check: test_round_trip's FERMI reference sum and criterion 1's FERMI
    round trip.
    """
    seq: List[int] = [j for b in p.blocks for j in b]
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


@dataclass
class CorrelationTable:
    """Correlation values indexed by strictly increasing tuples over {1..n}.

    ``values`` maps index tuples (e.g. (1,3,4)) to complex numbers.  A table
    is *complete* when every nonempty increasing tuple has an entry; the
    moment/cumulant conversions require completeness.
    """

    n: int
    values: Dict[Tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.values:
            self._check_key(key)

    def _check_key(self, key: Tuple[int, ...]):
        if not key or list(key) != sorted(set(key)):
            raise ValueError(f"index tuple {key} not strictly increasing")
        if key[0] < 1 or key[-1] > self.n:
            raise ValueError(f"index tuple {key} outside 1..{self.n}")

    def __getitem__(self, key: Tuple[int, ...]) -> complex:
        return self.values[tuple(key)]

    def __setitem__(self, key: Tuple[int, ...], val: complex):
        key = tuple(key)
        self._check_key(key)
        self.values[key] = val

    def all_keys(self) -> List[Tuple[int, ...]]:
        """All nonempty increasing tuples over {1..n}, shortest first."""
        keys: List[Tuple[int, ...]] = []
        for mask in range(1, 1 << self.n):
            keys.append(tuple(i + 1 for i in range(self.n) if mask >> i & 1))
        keys.sort(key=lambda t: (len(t), t))
        return keys

    def is_complete(self) -> bool:
        return all(k in self.values for k in self.all_keys())


def _first_block_splits(key: Block, parity: str) -> Iterator[Tuple[Block, Block, int]]:
    """Yield (B, R, sign) for each block B of ``key`` holding its smallest index.

    R is the rest of ``key``.  Every set partition of ``key`` is B together
    with one partition of R, and the fermionic sign factors the same way:
    the sign of the partition of R times (-1)**#{(x in B, y in R): x > y}.
    """
    head, tail = key[:1], key[1:]
    for mask in range(1 << len(tail)):
        block = head + tuple(x for i, x in enumerate(tail) if mask >> i & 1)
        rest = tuple(x for i, x in enumerate(tail) if not mask >> i & 1)
        crossings = sum(x > y for x in block for y in rest) if parity == FERMI else 0
        yield block, rest, -1 if crossings % 2 else 1


def moments_from_cumulants(table: CorrelationTable, parity: str = BOSE) -> CorrelationTable:
    """Full correlation table from a truncated (cumulant) table.

    Each entry is the partition sum  sum_I sign(I) prod_{B in I} T[B]  over
    set partitions I of the index tuple; sign(I) is 1 in the bosonic case
    and the splice-permutation sign in the fermionic case.  It is computed
    by splitting off the block of the smallest index:
    m(S) = sum_B sign(B, R) T[B] m(R), with m of the empty tuple equal to 1.
    """
    if parity not in (BOSE, FERMI):
        raise ValueError(f"unknown parity {parity!r}")
    if not table.is_complete():
        raise ValueError("cumulant table is incomplete")
    out = CorrelationTable(table.n)
    for key in table.all_keys():  # shortest first
        out[key] = sum(
            (sign * table[b] * (out[r] if r else 1.0)
             for b, r, sign in _first_block_splits(key, parity)),
            0j,
        )
    return out


def cumulants_from_moments(table: CorrelationTable, parity: str = BOSE) -> CorrelationTable:
    """Truncated (cumulant) table from a full correlation table.

    Inverts the first-block split of :func:`moments_from_cumulants` by
    recursion on tuple size: each cumulant is the moment minus the terms
    whose first block is a proper subset, k(S) = m(S) - sum_{B != S}
    sign(B, R) k(B) m(R).
    """
    if parity not in (BOSE, FERMI):
        raise ValueError(f"unknown parity {parity!r}")
    if not table.is_complete():
        raise ValueError("moment table is incomplete")
    out = CorrelationTable(table.n)
    for key in table.all_keys():  # shortest first
        out[key] = complex(table[key]) - sum(
            (sign * out[b] * table[r]
             for b, r, sign in _first_block_splits(key, parity) if r),
            0j,
        )
    return out
