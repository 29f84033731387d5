"""Brute-force reference implementations.

Everything here is deliberately naive (different algorithm, no shared code
with the library) so tests can cross-check the real implementations against
an independent route.
"""

import copy
import itertools
from math import inf

import numpy as np

from smplab.bits import Bits
from smplab.errors import InputError
from smplab.gadgets import SUBSPACE_DIMENSION, _ambient
from smplab.graphs import Graph, VertexMap
from smplab.protocols.base import ACCEPT, REJECT, Rule, SmpProtocol
from smplab.rng import HashRandomness


def floyd_warshall(G: Graph):
    """All-pairs distances by Floyd-Warshall; ignores self-loops."""
    n = G.n
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in G.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik is inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + d[k][j]
                if alt < row[j]:
                    row[j] = alt
    return d


def faithful_maps_brute(G: Graph, H: Graph):
    """Every faithful map G -> H by checking all |H|^|G| assignments."""
    out = []
    for image in itertools.product(range(H.n), repeat=G.n):
        ok = True
        for u in range(G.n):
            for v in range(u, G.n):
                if G.adjacent(u, v) != H.adjacent(image[u], image[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(VertexMap(image, H.n))
    return out


def find_embedding(G, H, injective=False):
    """First faithful map G -> H by backtracking, or None.

    Faithful means edges, non-edges, and loops are all preserved; the map
    need not be injective unless asked.  Exhaustive over the search tree,
    so a None return certifies that no faithful map exists.
    """
    gm, hm = G.matrix(), H.matrix()
    assign = [0] * G.n
    used = [False] * H.n

    def extend(i):
        if i == G.n:
            return True
        for c in range(H.n):
            if injective and used[c]:
                continue
            if hm[c, c] != gm[i, i]:
                continue
            if all(hm[c, assign[j]] == gm[i, j] for j in range(i)):
                assign[i] = c
                if injective:
                    used[c] = True
                if extend(i + 1):
                    return True
                if injective:
                    used[c] = False
        return False

    return tuple(assign) if extend(0) else None


def is_faithful(G, H, phi):
    gm, hm = G.matrix(), H.matrix()
    idx = np.fromiter(phi, dtype=np.intp, count=G.n)
    return bool(np.array_equal(hm[np.ix_(idx, idx)], gm))


def twin_classes_brute(G: Graph):
    """Group vertices by their full adjacency row, probing pair by pair."""
    rows = {}
    for u in range(G.n):
        row = tuple(G.adjacent(u, v) for v in range(G.n))
        rows.setdefault(row, []).append(u)
    return sorted(rows.values(), key=lambda c: c[0])


def random_graph(rng, n, p=0.5, loop_p=0.3):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return Graph(n, edges, loops=loops)


def join_irreducibles_brute(down, n):
    """Elements not expressible as the least upper bound of other elements.

    ``down[x]`` is the bitmask downset of x.  The join of S is the unique
    minimal common upper bound when it exists.  The empty set's join is the
    bottom element, so bottom is never irreducible.
    """
    def join_of(subset):
        uppers = [x for x in range(n) if all(down[x] >> s & 1 for s in subset)]
        least = [x for x in uppers if all(down[u] >> x & 1 for u in uppers)]
        return least[0] if least else None

    out = []
    for x in range(n):
        others = [y for y in range(n) if y != x]
        expressible = False
        for r in range(len(others) + 1):
            for subset in itertools.combinations(others, r):
                if join_of(subset) == x:
                    expressible = True
                    break
            if expressible:
                break
        if not expressible:
            out.append(x)
    return out


def closure_brute(n, covers):
    """Reflexive downset masks of a cover relation by Warshall's algorithm:
    bit y of out[x] is set when y <= x."""
    below = [[x == y for y in range(n)] for x in range(n)]
    for a, b in covers:
        below[b][a] = True
    for k in range(n):
        for x in range(n):
            if below[x][k]:
                for y in range(n):
                    below[x][y] = below[x][y] or below[k][y]
    return [sum(1 << y for y in range(n) if below[x][y]) for x in range(n)]


def irreducible_covers_brute(L, irr):
    """Covers of the order restricted to ``irr``, by the O(k^3) loop over
    ``L.leq``: (i, j) when irr[i] < irr[j] and no irr[h] lies strictly
    between."""
    k = len(irr)
    covers = []
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            if i != j and L.leq(a, b):
                between = any(
                    h != i and h != j and L.leq(a, irr[h]) and L.leq(irr[h], b)
                    for h in range(k)
                )
                if not between:
                    covers.append((i, j))
    return covers


# -- blind referees over Bits slices --------------------------------------
# The four blind decision rules as first written, cutting messages with
# Bits.take; the library states them once over ints, and tests require the
# same verdict on every message pair.


def _fields(msg, start, count, width):
    return [msg.take(start + i * width, width).value for i in range(count)]


def fields_formula(value, count, width):
    """``count`` big-endian ``width``-bit fields of value, as the rules once
    cut them: a generator over the shifts, with the mask made per call."""
    mask = (1 << width) - 1
    return tuple(value >> shift & mask
                 for shift in range((count - 1) * width, -1, -width))


def window_scan_slices(ma, mb, k, res_width, color_width):
    from smplab.protocols import beyond_verdict, distance_verdict

    def unpack(msg):
        res = min(msg.take(2, res_width).value, k - 1)
        return msg.take(0, 2).value, res, _fields(msg, 2 + res_width, 2 * k, color_width)

    (ta, ra, ca), (tb, rb, cb) = unpack(ma), unpack(mb)
    off = {0: ra - rb, 1: k + ra - rb, 2: ra - rb - k}[(ta - tb) % 3]
    hits = [pa + pb for pb in range(rb + k + 1) for pa in [pb + off]
            if 0 <= pa <= ra + k
            and ca[pa:pa + min(ra + k - pa, rb + k - pb) + 1]
            == cb[pb:pb + min(ra + k - pa, rb + k - pb) + 1]]
    best = min(hits, default=None)
    return beyond_verdict(k) if best is None or best > k else distance_verdict(best)


def two_hop_slices(ma, mb, w1, w2):
    from smplab.protocols import ACCEPT, REJECT

    if ma == mb:
        return ACCEPT
    slots = (ma.length - 13 * w1) // w2
    a, b = _fields(ma, 0, 13, w1), _fields(mb, 0, 13, w1)
    a2, b2 = _fields(ma, 13 * w1, slots, w2), _fields(mb, 13 * w1, slots, w2)
    hit = (a[0] in b[1:13] or b[0] in a[1:13]
           or any(c in b[1:4] for c in a[1:4])
           or a2[0] in b2[1:] or b2[0] in a2[1:])
    return ACCEPT if hit else REJECT


def color_slots_slices(ma, mb, color_width):
    from smplab.protocols import ACCEPT, REJECT

    a = _fields(ma, 0, ma.length // color_width, color_width)
    b = _fields(mb, 0, mb.length // color_width, color_width)
    return ACCEPT if ma == mb or a[0] in b[1:] or b[0] in a[1:] else REJECT


def parity_blocks_slices(ma, mb, m, k):
    from smplab.protocols import ACCEPT, REJECT

    rounds = ma.length // m
    xs = zip(_fields(ma, 0, rounds, m), _fields(mb, 0, rounds, m))
    return REJECT if any((u ^ v).bit_count() > k for u, v in xs) else ACCEPT


# -- seed-reading referees and the per-seed vote ----------------------------
# The weak lattice and hashed adjacency referees by exhaustive search over
# the draws, and the label vote as first written: slice each label per seed
# with Bits.take and run the referee under that seed's draws.


def weak_xor_subsets(ma, mb, rnd, m, q, k):
    """Accept iff ma ^ mb is the XOR of at most k of the m drawn vectors."""
    from smplab.protocols import ACCEPT, REJECT

    vecs = [rnd.integer(("s", i), 2**q) for i in range(m)]
    for size in range(k + 1):
        for subset in itertools.combinations(vecs, size):
            acc = 0
            for vec in subset:
                acc ^= vec
            if acc == ma.value ^ mb.value:
                return ACCEPT
    return REJECT


def hashed_pairs(G: Graph, buckets, ma, mb, rnd):
    """Accept iff some adjacent ordered pair sits in the two announced buckets."""
    from smplab.protocols import ACCEPT, REJECT

    where = [rnd.integer(("bucket", v), buckets) for v in range(G.n)]
    hit = any(G.adjacent(u, v) and where[u] == ma.value and where[v] == mb.value
              for u in range(G.n) for v in range(G.n))
    return ACCEPT if hit else REJECT


def seed_values(values, m, c):
    """Per seed, the c-bit messages that label values of m messages hold,
    cut by big-int shifts: the reference for the library's one numpy cut of
    every label."""
    mask = (1 << c) - 1
    return [[value >> shift & mask for value in values] for shift in range((m - 1) * c, -1, -c)]


def seed_vote_slices(referee, m, c, seeds, lx, ly):
    """Majority of ``referee(slice_x, slice_y, rnd)`` over the m bank seeds."""
    from smplab.rng import HashRandomness

    votes = 0
    for j, seed in enumerate(seeds):
        verdict = referee(lx.take(j * c, c), ly.take(j * c, c), HashRandomness(seed))
        votes += verdict.kind in ("accept", "distance")
    return 2 * votes > m


# -- experiment strata and encoders as first written ----------------------
# The stratum pools as per-pair tuple lists, and the tree and planar2
# encoders packing fields through Bits.pack and concat_all; the library
# builds index arrays and shifts cached per-vertex plans into one int, and
# tests require equal pools and equal messages.


def strata_pools_tuples(oracle_graph, threshold, mode, k, policy_count, rng):
    """Pairs bucketed by BFS distance: label -> sorted list of (x, y, d)."""
    import math

    from smplab.errors import PreconditionError
    from smplab.graphs import all_pairs_distances, bfs_from

    N = oracle_graph.n
    upto = k if mode == "tree" else threshold
    pools = {label: [] for label in [str(d) for d in range(upto + 1)] + ["beyond"]}

    def bucket(x, y, d):
        if d is None or math.isinf(d):
            if mode == "tree":
                raise PreconditionError("tree-mode strata need a connected oracle graph")
            pools["beyond"].append((x, y, None))
            return
        d = int(d)
        pools[str(d) if d <= upto else "beyond"].append((x, y, d))

    if policy_count is None:
        dmat = all_pairs_distances(oracle_graph)
        for x in range(N):
            for y in range(x, N):
                bucket(x, y, dmat[x][y])
    else:
        seen = set()
        for _ in range(policy_count):
            x, y = rng.randrange(N), rng.randrange(N)
            seen.add((min(x, y), max(x, y)))
        dist_cache = {}
        for x, y in sorted(seen):
            if x not in dist_cache:
                dist_cache[x] = bfs_from(oracle_graph, x)
            bucket(x, y, dist_cache[x][y])
    for pool in pools.values():
        pool.sort()
    return pools


def tree_encode_fields(proto, v, rnd):
    """TreeKDistance.encode: band mod 3, residue, then 2k packed colors."""
    from smplab.bits import Bits, concat_all

    ext, _, window = proto._window_vertices(v)
    colors = [rnd.integer(("c", u), proto.m) if kind == "real" else u % proto.m
              for kind, u in window]
    colors += [proto.pad] * (2 * proto.k - len(colors))
    return concat_all([
        Bits(ext // proto.k % 3, 2),
        Bits(ext % proto.k, proto.res_width),
        Bits.pack(colors, proto.color_width),
    ])


def planar2_encode_fields(proto, v, rnd):
    """PlanarTwoDistance.encode: 13 tree colors, then 18 closure colors."""
    from smplab.bits import Bits, concat_all
    from smplab.protocols.planar import CLOSURE_SLOTS

    colors = []
    for pos, u in enumerate(proto._tree_slots(v)):
        if u is not None:
            colors.append(rnd.integer(("c1", u), proto.m1))
        elif pos < 4:
            colors.append(colors[0])
        else:
            colors.append(colors[1 + (pos - 4) // 3])
    own2 = rnd.integer(("c2", v), proto.m2)
    closure = [rnd.integer(("c2", p), proto.m2)
               for p in proto.closure_orientation.parents[v]]
    closure += [own2] * (CLOSURE_SLOTS - len(closure))
    return concat_all([Bits.pack(colors, proto.w1), Bits.pack([own2] + closure, proto.w2)])


def arboricity_encode(proto, v, rnd):
    """ArboricityAdjacency.encode: own color, parent colors, then the own
    color again in each empty parent slot."""
    own = rnd.integer(("c", v), proto.m)
    slots = [rnd.integer(("c", p), proto.m) for p in proto.orientation.parents[v]]
    slots += [own] * (proto.outdeg - len(slots))
    return Bits.pack([own] + slots, proto.color_width)


def restated(proto, message_fields):
    """A copy of a planned sketch that states its messages by
    ``message_fields`` and builds its own plans."""
    copied = copy.copy(proto)
    copied._plans = {}
    copied.message_fields = message_fields
    return copied


def drifted_plan(proto, wide, drift="extra"):
    """A copy of a planned sketch whose plan of input ``wide`` no longer fits
    its fields: one extra field (``drift="extra"``), or a first field fixed
    one past its width (``drift="fixed"``)."""

    def message_fields(v):
        out = list(proto.message_fields(v))
        if v == wide:
            if drift == "extra":
                out.append(0)
            else:
                out[0] = 1 << proto.field_widths[0]
        return out

    return restated(proto, message_fields)


# -- draw supports and the equality referee as first written --------------
# Each protocol once stated the draws its encoder reads by hand; the library
# now records them from one encode, and tests require the same (label,
# cardinality) pairs on every vertex.  The equality referee cut messages
# with Bits.take; the library states it as a rule on ints.


def declared_supports(proto, v):
    """The draw support proto once declared for input v."""
    from smplab.protocols import (
        ArboricityAdjacency,
        HashedAdjacency,
        PlanarTwoDistance,
        TreeKDistance,
        UniversalLatticeDistance,
        WeakLatticeDistance,
    )

    if isinstance(proto, FixedSeedProtocol):
        return []
    if isinstance(proto, EqualitySketch):
        return [(("h", t, v), 2) for t in range(proto.rounds)]
    if isinstance(proto, TreeKDistance):
        _, _, window = proto._window_vertices(v)
        one = [(("c", u), proto.m) for kind, u in window if kind == "real"]
    elif isinstance(proto, PlanarTwoDistance):
        one = [(("c1", u), proto.m1) for u in proto._tree_slots(v) if u is not None]
        one += [(("c2", u), proto.m2) for u in (v, *proto.closure_orientation.parents[v])]
    elif isinstance(proto, ArboricityAdjacency):
        one = [(("c", u), proto.m) for u in (v, *proto.orientation.parents[v])]
    elif isinstance(proto, HashedAdjacency):
        one = [(("bucket", v), proto.buckets)]
    elif isinstance(proto, UniversalLatticeDistance):
        one = [(("idx", t, j), proto.m) for t in range(proto.rounds) for j in proto._jset[v]]
    elif isinstance(proto, WeakLatticeDistance):
        one = [(("idx", j), proto.m) for j in proto._jset[v]]
        one += [(("s", i), 2**proto.q) for i in range(proto.m)]
    else:
        raise TypeError(f"no declared support for {type(proto).__name__}")
    return one


def equality_take(ma, mb, rnd=None):
    """Accept iff the overlapping leading rounds of the two messages agree."""
    overlap = min(ma.length, mb.length)
    return ACCEPT if ma.take(0, overlap) == mb.take(0, overlap) else REJECT


# -- Birkhoff's closing check as first written -----------------------------
# ``birkhoff`` once compared every meet and join with the mask intersection
# and union after its other checks passed.  Those checks already imply it, so
# the library dropped the loop; tests require the same outcome with it.


def birkhoff_meet_checked(L):
    """``birkhoff(L)``, then every meet and join against the masks."""
    from smplab.errors import PreconditionError
    from smplab.lattices import birkhoff

    rep = birkhoff(L)
    masks, element_of = rep.downsets, rep.element_of
    for x in range(L.n):
        for y in range(x, L.n):
            if L.meet(x, y) != element_of[masks[x] & masks[y]]:
                raise PreconditionError(f"meet of ({x},{y}) is not the mask intersection")
            if L.join(x, y) != element_of[masks[x] | masks[y]]:
                raise PreconditionError(f"join of ({x},{y}) is not the mask union")
    return rep


# -- degeneracy peel as first written ---------------------------------------
# The library pops (remaining degree, index) from a heap; this is the
# linear-scan peel it replaced, and tests require equal orientations.


def degeneracy_orientation_scan(G: Graph):
    """Min-degree peel by a linear scan per step; (parents, max out-degree)."""
    remaining_deg = [G.degree(v) for v in range(G.n)]
    alive = [True] * G.n
    parents = [()] * G.n
    for _ in range(G.n):
        v = min((u for u in range(G.n) if alive[u]), key=lambda u: (remaining_deg[u], u))
        alive[v] = False
        outs = sorted(w for w in G.neighbors(v) if alive[w])
        parents[v] = tuple(outs)
        for w in outs:
            remaining_deg[w] -= 1
    return tuple(parents), max((len(p) for p in parents), default=0)


# -- protocols and lattices that only tests build ---------------------------
# No run, label file or demo pins a seed, sends the equality toy or reads the
# bare subspace lattice; tests use them as protocols with closed-form errors,
# as deterministic seed-reading sketches, and as modular lattices.


class EqualitySketch(SmpProtocol):
    """A deliberately tiny equality sketch.

    Each party sends ``rounds`` shared hash bits of its input; the referee
    accepts iff the two messages agree.  It exists to exercise the exact
    error enumerator and the width checks on something with a closed-form
    answer: for x != y the false-accept probability is exactly 2^-rounds.
    """

    name = "equality-hash"
    one_sided = True

    def __init__(self, size: int, rounds: int = 2):
        if size < 1 or rounds < 1:
            raise InputError("size and round count must be positive")
        self.size = size
        self.rounds = rounds

    def params(self):
        return {"name": self.name, "size": self.size, "rounds": self.rounds}

    @property
    def cost_bits(self):
        return self.rounds

    def encode(self, v, rnd):
        if not 0 <= v < self.size:
            raise InputError(f"input {v} outside [0, {self.size})")
        return Bits.pack([rnd.integer(("h", t, v), 2) for t in range(self.rounds)], 1)

    def rule(self, rnd=None):
        """Accept iff the two messages agree."""
        return Rule(self.rounds, int, lambda a, b: ACCEPT if a == b else REJECT)

    def expected(self, x, y):
        return ACCEPT if x == y else REJECT


class FixedSeedProtocol(SmpProtocol):
    """A seed-reading protocol with the shared randomness pinned.

    Encoding and refereeing both use the stored seed, so the referee
    becomes a fixed function of the messages and the protocol as a whole
    is deterministic (its draw support is empty).
    """

    def __init__(self, inner: SmpProtocol, seed: int):
        self.inner = inner
        self.seed = seed
        self._rnd = HashRandomness(seed)
        self.name = f"{inner.name}-seed{seed}"
        self.one_sided = inner.one_sided

    def params(self):
        return {"inner": self.inner.params(), "seed": self.seed}

    @property
    def cost_bits(self):
        return self.inner.cost_bits

    def encode(self, v, rnd=None):
        return self.inner.encode(v, self._rnd)

    def rule(self, rnd=None):
        return self.inner.rule(self._rnd)

    def expected(self, x, y):
        return self.inner.expected(x, y)


def fix_seed(protocol: SmpProtocol, seed: int) -> FixedSeedProtocol:
    return FixedSeedProtocol(protocol, seed)


def subspace_ambient(d: int = SUBSPACE_DIMENSION):
    """The (cached) full subspace lattice of F_2^d."""
    return _ambient(d).lattice
