"""Budgeted adjacency sketch for arbitrary graphs via shared hashing.

Every vertex announces the bucket a shared random hash assigns to it —
nothing else — so the message width is a fixed budget independent of the
graph.  The referee also reads the shared randomness, recomputes every
vertex's bucket (the draws ``("bucket", 0) ... ("bucket", n - 1)``, taken in
one ``integers`` call per rule), and accepts iff *some* adjacent pair
occupies the two announced buckets.  A genuine edge is always such a pair,
so the sketch never rejects adjacent inputs; false accepts come from
unrelated edges colliding into the senders' buckets, and at a fixed budget
their rate grows with the size of the graph.  That degradation is the
point: with no structural assumption on the graph there is no way to spend
a constant number of bits and keep the error flat.

``rule(rnd)`` is that referee for one seed, the per-trial reference.
``run_trials`` reads the same seeds in chunks instead: each trial draws its
n buckets in one ``integers`` call and encodes both inputs, and one numpy
pass decides the whole chunk from the buckets and the width-checked
messages, with no ``Rule`` built per trial.

Because the referee's verdict depends on the buckets of all n vertices,
exhaustively enumerating the senders' draws alone cannot reproduce it:
``exact_error`` fails by design (the table-backed randomness refuses reads
outside the senders' support) and error estimates go through
``monte_carlo_error``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from ..bits import Bits
from ..errors import InputError
from ..graphs import Graph
from .base import ACCEPT, PAIR_CELLS, REJECT, Rule, SmpProtocol, trial_chunk

BUDGET_CAP = 24  # bucket tables above 2**24 would be silly, not useful


class HashedAdjacency(SmpProtocol):
    name = "hashed-adjacency"
    one_sided = True
    referee_reads_randomness = True

    def __init__(self, G: Graph, bits: int = 8):
        if not 1 <= bits <= BUDGET_CAP:
            raise InputError(f"bit budget must be in 1..{BUDGET_CAP}, got {bits}")
        self.graph = G
        self.bits = bits
        self.buckets = 1 << bits
        self._adj = G.matrix()

    def params(self):
        return {"name": self.name, "n": self.graph.n, "bits": self.bits}

    @property
    def cost_bits(self):
        return self.bits

    @property
    def error_bound(self) -> Fraction:
        """Union bound on the false-accept probability of any single pair.

        A wrong accept for non-adjacent (x, y) needs an adjacent ordered
        pair (u, v) with bucket(u) = bucket(x) and bucket(v) = bucket(y).
        Pairs touching a sender cost one collision, all others two.
        """
        degs = [self.graph.degree(v) + (v in self.graph.loops) for v in range(self.graph.n)]
        ordered = 2 * self.graph.edge_count() + len(self.graph.loops)
        near = 2 * max(degs, default=0)
        bound = Fraction(near, self.buckets) + Fraction(ordered, self.buckets**2)
        return min(bound, Fraction(1))

    def encode(self, v, rnd):
        return Bits(rnd.integer(("bucket", v), self.buckets), self.bits)

    def rule(self, rnd=None):
        """The referee under rnd, with every vertex's bucket drawn once, in
        one ``rnd.integers("bucket", n, buckets)`` call.  ``referee`` and
        ``run`` decide through it; the batched ``run_trials`` builds none,
        and gives the same verdicts from the same draws."""
        if rnd is None:
            raise InputError("the hashed-adjacency referee reads the shared randomness")
        bucket = np.array(rnd.integers("bucket", self.graph.n, self.buckets), dtype=np.int64)

        def decide(a, b):
            return ACCEPT if self._adj[np.ix_(bucket == a, bucket == b)].any() else REJECT

        return Rule(self.bits, int, decide)

    def run_trials(self, pairs, rnds):
        """The verdicts of the base's per-trial loop, the reference, with a
        chunk of trials decided in one numpy pass.

        Each trial draws every bucket in one ``rnd.integers("bucket", n,
        buckets)`` call and encodes x, and y when x != y; both messages are
        width-checked through ``Rule.value``.  A chunk holds at most
        ``PAIR_CELLS`` bucket cells, and its decision gathers at most
        ``PAIR_CELLS`` adjacency cells at a time, however crowded a bucket.
        """
        n, encode = self.graph.n, self.encode
        value = Rule(self.bits, int, None).value  # the width check; it decides nothing
        trials = zip(pairs, rnds)
        while batch := list(itertools.islice(trials, trial_chunk(n))):
            drawn, sent = [], []
            for (x, y), rnd in batch:
                drawn += rnd.integers("bucket", n, self.buckets)
                va = value(encode(x, rnd))
                sent += (va, va if x == y else value(encode(y, rnd)))
            bucket = np.array(drawn, dtype=np.int64).reshape(len(batch), n)
            a, b = np.array(sent, dtype=np.int64).reshape(len(batch), 2).T
            yield from (ACCEPT if hit else REJECT for hit in self._accepts(bucket, a, b).tolist())

    def _accepts(self, bucket, a, b) -> np.ndarray:
        """Per trial t, whether some adjacent pair (u, v) has ``bucket[t, u] ==
        a[t]`` and ``bucket[t, v] == b[t]``: the adjacency rows of the
        vertices in bucket a, ANDed with the trial's bucket-b row, each
        block at most ``PAIR_CELLS`` cells; no float matmul."""
        in_b = bucket == b[:, None]
        trial, u = np.nonzero(bucket == a[:, None])
        hit = np.zeros(len(bucket), dtype=bool)
        rows = max(1, PAIR_CELLS // bucket.shape[1])
        for at in range(0, len(u), rows):
            t = trial[at:at + rows]
            hit[t[(self._adj[u[at:at + rows]] & in_b[t]).any(axis=1)]] = True
        return hit

    def expected(self, x, y):
        return ACCEPT if self.graph.adjacent(x, y) else REJECT
