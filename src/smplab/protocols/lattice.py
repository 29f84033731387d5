"""Distance-threshold sketches for distributive lattices.

Both protocols ride on the irreducible-set representation: an element maps
to the set of join-irreducibles below it, and lattice distance is the size
of the symmetric difference of those sets.  Deciding distance <= k is then
a small-set-difference problem, solved two ways:

* ``WeakLatticeDistance`` hashes irreducibles into m buckets, attaches a
  random q-bit vector to each bucket, and sends the XOR of the vectors its
  set touches.  The referee (who here is allowed to read the shared draws)
  accepts iff the two messages differ by an XOR of at most k bucket
  vectors.  Yes instances always pass; message width is q bits.  The test
  is an exact meet in the middle over distinct vectors: the XORs of at
  most ceil(k/2) of them are gathered by a subset plan cached per (m,
  subset size) and sorted once per rule, and each of target ^ (XOR of at
  most floor(k/2)) is looked up with ``searchsorted`` - m + 1 lookups per
  pair for k <= 3.  The sides are 32-bit words when q <= 32 and 64-bit
  otherwise.  The sorted side holds sum_{i <= ceil(k/2)} C(m, i) entries;
  it and m are capped at ``XOR_SIDE_CAP``.

* ``UniversalLatticeDistance`` sends, per round, the parity vector of its
  hashed set occupancy.  The referee accepts iff every round's XOR has
  weight at most k - a fixed rule of the two messages alone, which is what
  makes the messages reusable as vertex labels that one rule decodes; the
  weak sketch's messages, read with the draws, are not labels.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ..bits import Bits, concat_all
from ..errors import CapacityError, InputError
from ..lattices import Lattice, birkhoff
from ..rng import indexed_draws
from .base import (
    ACCEPT,
    REJECT,
    RULE_CACHE_SIZE,
    WIDTH_CAP,
    AllPairs,
    Rule,
    SmpProtocol,
    as_fraction,
    ceil_log2,
    eps_to_json,
    field_table,
    fields_of,
    int_params,
)


XOR_SIDE_CAP = 1 << 22  # entries on the weak referee's sorted XOR side
PLAN_CACHE_SIZE = 8  # subset plans kept by ``_subset_plan``, one per (m, size)


def xor_side_size(m: int, k: int) -> int:
    """Entries on the sorted side of the weak XOR search: the subsets of at
    most ceil(k/2) of m vectors, counted only until they pass the cap."""
    total = 0
    for i in range(min(m, (k + 1) // 2) + 1):
        total += math.comb(m, i)
        if total > XOR_SIDE_CAP:
            break
    return total


def _check_xor_side(m: int, k: int) -> None:
    # m itself counts too: the m vectors are drawn even when k = 0
    if m > XOR_SIDE_CAP or xor_side_size(m, k) > XOR_SIDE_CAP:
        raise CapacityError(f"weak XOR search over {m} vectors at k={k} exceeds "
                            f"{XOR_SIDE_CAP} entries; shrink k or grow eps")


def _check_width(q: int) -> None:
    if q > 63:
        raise CapacityError("sketch width beyond 63 bits; shrink k or grow eps")


def weak_sketch_width(m: int, k: int, eps) -> int:
    """Vector width q making a false k-fold XOR hit rarer than eps.

    There are sum_{i<=k} C(m, i) subsets the referee tests; q grows until
    the union of their 2^-q hit probabilities is under eps.
    """
    candidates = sum(math.comb(m, i) for i in range(k + 1))
    return ceil_log2(candidates / as_fraction(eps))


def weak_bucket_count(k: int, eps) -> int:
    """Bucket count m of the weak-referee sketch."""
    return math.ceil((k + 2) ** 2 / as_fraction(eps))


def universal_sketch_params(k: int, eps) -> tuple[int, int]:
    """Bucket count m and round count r for the parity-vector sketch."""
    eps = as_fraction(eps)
    m = math.ceil(Fraction(3 * (k + 2) ** 2, 2))
    r = 1
    while Fraction(1, 3**r) > eps:
        r += 1
    return m, r


class _LatticeSketch(SmpProtocol):
    one_sided = True

    def __init__(self, L: Lattice, k: int, eps):
        if k < 0:
            raise InputError("negative distance threshold")
        self.lattice = L
        self.k = k
        self.eps = as_fraction(eps)
        rep = birkhoff(L)
        self.rep = rep
        self._jset = rep.members

    def expected(self, x, y):
        d = (self.rep.downsets[x] ^ self.rep.downsets[y]).bit_count()
        return ACCEPT if d <= self.k else REJECT


class WeakLatticeDistance(_LatticeSketch):
    name = "lattice-distance-weak"
    referee_reads_randomness = True

    def __init__(self, L, k, eps, m=None, q=None):
        """m and q default to the guarantee-carrying formulas; explicit
        values are for toy-scale exhaustive analysis and forfeit the
        error bound."""
        super().__init__(L, k, eps)
        self.m = weak_bucket_count(k, self.eps) if m is None else int(m)
        if self.m < 1:
            raise InputError("bucket count must be positive")
        _check_xor_side(self.m, k)  # before the width formula sums C(m, i) up to k
        self.q = weak_sketch_width(self.m, k, self.eps) if q is None else int(q)
        if self.q < 1:
            raise InputError("vector width must be positive")
        _check_width(self.q)

    def params(self):
        return {"name": self.name, "k": self.k, "eps": eps_to_json(self.eps),
                "n": self.lattice.n, "m": self.m, "q": self.q}

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        return weak_xor_rule(*int_params(params, m=1, q=1, k=0), rnd)

    @property
    def cost_bits(self):
        return self.q

    def support(self, v):
        # which vectors encode reads depends on its bucket draws: declare all m
        idx = [(("idx", j), self.m) for j in self._jset[v]]
        vecs = [(("s", i), 2**self.q) for i in range(self.m)]
        return idx + vecs

    def encode(self, v, rnd):
        buckets = {rnd.integer(("idx", j), self.m) for j in self._jset[v]}
        acc = 0
        for i in buckets:
            acc ^= rnd.integer(("s", i), 2**self.q)
        return Bits(acc, self.q)

    def referee(self, ma, mb, rnd=None):
        return weak_xor_referee(ma, mb, rnd, self.m, self.q, self.k)


def weak_xor_rule(m: int, q: int, k: int, rnd) -> Rule:
    """Accept iff the messages differ by an XOR of at most k of rnd's m
    bucket vectors.  The vectors are the draws ``("s", 0) ... ("s", m - 1)``,
    taken in one ``rnd.integers`` call into 32-bit words when q <= 32 and
    64-bit words otherwise, and their search sides are gathered once per
    rule by the cached subset plan; widths beyond 63 bits and search sides
    beyond ``XOR_SIDE_CAP`` are refused before anything is drawn."""
    if rnd is None:
        raise InputError("weak referee needs the shared randomness")
    _check_width(q)
    _check_xor_side(m, k)
    dtype = np.uint32 if q <= 32 else np.uint64
    vecs = np.array(rnd.integers("s", m, 2**q), dtype=dtype)
    big, small = _xor_sides(vecs, k)

    def decide(a, b):
        return ACCEPT if _xor_hit(a ^ b, big, small) else REJECT

    return Rule(q, int, decide)


def weak_xor_referee(ma: Bits, mb: Bits, rnd, m: int, q: int, k: int):
    """``weak_xor_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return weak_xor_rule(m, q, k, rnd)(ma, mb)


def _xor_sides(vecs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Meet-in-the-middle sides for an XOR of at most k distinct vectors:
    the sorted XORs of at most ceil(k/2) of them, and the XORs of at most
    floor(k/2).  A target hits iff target ^ xor(A) == xor(B) for some A on
    the small side and B on the big one; then target == xor(A ^ B) with
    |A ^ B| <= k, so the test is exact, not just one-sided.
    ``_xor_subsets`` lists subsets by size, so the small side is the
    prefix of the unsorted big one that ``xor_side_size`` counts."""
    side = _xor_subsets(vecs, (k + 1) // 2)
    return np.sort(side), side[:xor_side_size(len(vecs), 2 * (k // 2))]


def _xor_hit(target: int, big: np.ndarray, small: np.ndarray) -> bool:
    keys = small ^ big.dtype.type(target)
    found = big.take(np.searchsorted(big, keys), mode="clip")
    return bool(np.any(found == keys))


def _xor_subsets(vecs: np.ndarray, size: int) -> np.ndarray:
    """XORs of every subset of at most ``size`` distinct vectors, one per
    subset, in the vectors' dtype: the empty subset, the vectors, then each
    larger level gathered from the one below by ``_subset_plan``."""
    if size == 0:
        return np.zeros(1, vecs.dtype)
    m = len(vecs)
    levels = _subset_plan(m, size)
    side = np.empty(1 + m + sum(len(rows) for rows, _ in levels), vecs.dtype)
    side[0] = 0
    side[1:m + 1] = vecs
    lo, hi = 1, m + 1  # rows of the level below
    for rows, counts in levels:
        level = side[hi:hi + len(rows)]
        np.take(side[lo:hi], rows, out=level, mode="clip")  # rows are in range
        level ^= np.repeat(vecs, counts)
        lo, hi = hi, hi + len(rows)
    return side


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _subset_plan(m: int, size: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather plan for the subsets of 2 ... ``size`` of m vectors, one
    read-only ``(rows, counts)`` pair per level, in colex order.

    Level i lists, for each top vector j, the (i-1)-subsets of the vectors
    below j - the first C(j, i-1) subsets of level i - 1 - each with j
    added: its XORs are ``level_below[rows] ^ np.repeat(vecs, counts)``,
    with ``counts[j] = C(j, i-1)``.  Levels 0 and 1 (the empty subset and
    the vectors) need no plan.

    Cost: one intp row index per subset of two or more vectors, so under
    8 * XOR_SIDE_CAP bytes (32 MiB) for a side at the cap, plus m intp
    counts per level; m <= 2897 once a side holds pairs, so counts stay
    under 64 KiB.  The cache holds at most PLAN_CACHE_SIZE plans, 256 MiB
    at worst, reached only by sketches sized near the cap.  The
    formula-sized sketch at k = 3, eps = 1/8 (m = 200) plans 19 900 rows,
    about 160 KiB."""
    levels = []
    counts = np.arange(m)  # C(j, 1): the level-2 counts
    for _ in range(size - 1):
        starts = np.cumsum(counts) - counts  # C(j, i): also the next level's counts
        rows = np.arange(counts.sum()) - np.repeat(starts, counts)
        counts.flags.writeable = rows.flags.writeable = False
        levels.append((rows, counts))
        counts = starts
    return tuple(levels)


class UniversalLatticeDistance(_LatticeSketch):
    name = "lattice-distance-universal"

    def __init__(self, L, k, eps, m=None, rounds=None):
        """m and rounds default to the guarantee-carrying formulas;
        explicit values are for toy-scale exhaustive analysis and forfeit
        the error bound."""
        super().__init__(L, k, eps)
        fm, fr = universal_sketch_params(k, self.eps)
        self.m = fm if m is None else int(m)
        self.rounds = fr if rounds is None else int(rounds)
        if self.m < 1 or self.rounds < 1:
            raise InputError("bucket and round counts must be positive")

    def params(self):
        return {"name": self.name, "k": self.k, "eps": eps_to_json(self.eps),
                "n": self.lattice.n, "m": self.m, "rounds": self.rounds}

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        return parity_blocks_rule(*int_params(params, m=1, rounds=1, k=0))

    @property
    def cost_bits(self):
        return self.m * self.rounds

    def encode(self, v, rnd):
        parts = []
        for t in range(self.rounds):
            vec = 0
            for j in self._jset[v]:
                vec ^= 1 << rnd.integer(("idx", t, j), self.m)
            parts.append(Bits(vec, self.m))
        return concat_all(parts)

    def encode_table(self, vs, rnds):
        """The base's table, with each bucket row ``("idx", t, j)`` drawn once
        per seed: irreducible j flips bit b of round t's block.  For m <= 64
        each block is the XOR of its members' one-hot flips, reduced in
        numpy; wider blocks are built as ints and cut into words."""
        vs = list(vs)
        ids = sorted(set().union(*(self._jset[v] for v in vs)))
        place = {j: i for i, j in enumerate(ids)}
        members = [[place[j] for j in self._jset[v]] for v in vs]
        m, rounds = self.m, self.rounds
        rows = [list(map(drawn.__getitem__, ids)) for rnd in rnds
                for drawn in (indexed_draws(rnd, ("idx", t), ids, m) for t in range(rounds))]
        bucket = np.array(rows, dtype=np.uint64).reshape(len(rows) // rounds, rounds, len(ids))
        if m > 64:
            values = []
            for seed in bucket.tolist():
                flips = [[1 << (rounds - 1 - t) * m + b for b in row] for t, row in enumerate(seed)]
                for places in members:
                    value = 0
                    for row in flips:
                        for i in places:
                            value ^= row[i]
                    values.append(value)
            return field_table(values, self.table_widths)
        # place len(ids) flips nothing, so every input's run of places is nonempty
        gather, starts = [], []
        for places in members:
            starts.append(len(gather))
            gather += [len(ids), *places]
        flips = np.zeros(bucket.shape[:2] + (len(ids) + 1,), dtype=np.uint64)
        flips[..., :-1] = np.uint64(1) << bucket
        blocks = np.bitwise_xor.reduceat(flips[..., gather], starts, axis=2)
        return blocks.transpose(1, 0, 2).reshape(rounds, -1).astype(np.min_scalar_type((1 << m) - 1))

    def referee(self, ma, mb, rnd=None):
        return parity_blocks_referee(ma, mb, self.m, self.rounds, self.k)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def parity_blocks_rule(m: int, rounds: int, k: int) -> Rule:
    """Accept iff every m-bit round block XORs to weight at most k.  For
    m <= 64 the all-pairs form XORs every pair's blocks and counts bits in
    numpy; wider blocks keep the ``decide`` loop."""
    cut = fields_of(rounds, m)

    def decide(a, b):
        for block_a, block_b in zip(a, b):
            if (block_a ^ block_b).bit_count() > k:
                return REJECT
        return ACCEPT

    def decide_all(table, left, right):
        xor = table.take(left, axis=1) ^ table.take(right, axis=1)
        return (np.bitwise_count(xor) > k).any(axis=0).view(np.int8)

    if m > 64 or m * rounds > WIDTH_CAP:  # wide blocks, or a rule no message fits
        return Rule(m * rounds, cut, decide)
    return Rule(m * rounds, cut, decide, AllPairs((ACCEPT, REJECT), (m,) * rounds, decide_all))


def parity_blocks_referee(ma: Bits, mb: Bits, m: int, rounds: int, k: int):
    """``parity_blocks_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return parity_blocks_rule(m, rounds, k)(ma, mb)
