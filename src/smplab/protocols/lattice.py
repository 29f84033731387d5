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
  most ceil(k/2) of them are built by combinations and sorted once per
  rule, and each of target ^ (XOR of at most floor(k/2)) is looked up with
  ``searchsorted`` - m + 1 lookups per pair for k <= 3.  That sorted side
  holds sum_{i <= ceil(k/2)} C(m, i) entries; it and m are capped at
  ``XOR_SIDE_CAP``.

* ``UniversalLatticeDistance`` sends, per round, the parity vector of its
  hashed set occupancy.  The referee accepts iff every round's XOR has
  weight at most k - a fixed rule of the two messages alone, which is what
  makes the messages reusable as vertex labels of a fixed decision graph.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..bits import Bits, concat_all
from ..errors import CapacityError, InputError
from ..lattices import Lattice, birkhoff, poset_from_json, poset_to_json, build_lattice
from .base import (
    ACCEPT,
    REJECT,
    Rule,
    SmpProtocol,
    as_fraction,
    ceil_log2,
    eps_from_json,
    eps_to_json,
    fields_of,
    int_params,
)


XOR_SIDE_CAP = 1 << 22  # entries on the weak referee's sorted XOR side


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


def weak_sketch_params(k: int, eps) -> tuple[int, int]:
    """Bucket count m and message width q for the weak-referee sketch."""
    m = weak_bucket_count(k, eps)
    return m, weak_sketch_width(m, k, eps)


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

    def to_payload(self):
        return {"poset": poset_to_json(self.lattice.poset)}


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
    def from_payload(cls, params, payload):
        # birkhoff() re-certifies distributivity, so skip the generic pass
        L = build_lattice(poset_from_json(payload.get("poset")), validate=False)
        k, m, q = int_params(params, k=0, m=1, q=1)
        return cls(L, k, eps_from_json(params.get("eps")), m=m, q=q)

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
    taken in one ``rnd.integers`` call, and their search sides are built
    once per rule; widths beyond 63 bits and search sides beyond
    ``XOR_SIDE_CAP`` are refused before anything is drawn."""
    if rnd is None:
        raise InputError("weak referee needs the shared randomness")
    _check_width(q)
    _check_xor_side(m, k)
    vecs = np.array(rnd.integers("s", m, 2**q), dtype=np.uint64)
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
    |A ^ B| <= k, so the test is exact, not just one-sided."""
    return np.sort(_xor_subsets(vecs, (k + 1) // 2)), _xor_subsets(vecs, k // 2)


def _xor_hit(target: int, big: np.ndarray, small: np.ndarray) -> bool:
    keys = small ^ np.uint64(target)
    found = big.take(np.searchsorted(big, keys), mode="clip")
    return bool(np.any(found == keys))


def _xor_subsets(vecs: np.ndarray, size: int) -> np.ndarray:
    """XORs of every subset of at most ``size`` distinct vectors, one per
    subset: each subset of one level is extended by the vectors above its
    highest index."""
    m = len(vecs)
    level = np.zeros(1, dtype=np.uint64)
    top = np.full(1, -1)  # highest vector index in each subset of the level
    out = [level]
    for _ in range(size):
        counts = (m - 1) - top
        starts = np.cumsum(counts) - counts
        top = np.arange(counts.sum()) - np.repeat(starts - top - 1, counts)
        level = np.repeat(level, counts) ^ vecs[top]
        out.append(level)
    return np.concatenate(out)


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
    def from_payload(cls, params, payload):
        L = build_lattice(poset_from_json(payload.get("poset")), validate=False)
        k, m, rounds = int_params(params, k=0, m=1, rounds=1)
        return cls(L, k, eps_from_json(params.get("eps")), m=m, rounds=rounds)

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

    def referee(self, ma, mb, rnd=None):
        return parity_blocks_referee(ma, mb, self.m, self.k)


def parity_blocks_rule(m: int, rounds: int, k: int) -> Rule:
    """Accept iff every m-bit round block XORs to weight at most k."""

    def unpack(value):
        return fields_of(value, rounds, m)

    def decide(a, b):
        for block_a, block_b in zip(a, b):
            if (block_a ^ block_b).bit_count() > k:
                return REJECT
        return ACCEPT

    return Rule(m * rounds, unpack, decide)


def parity_blocks_referee(ma: Bits, mb: Bits, m: int, k: int):
    """``parity_blocks_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return parity_blocks_rule(m, ma.length // m, k)(ma, mb)
