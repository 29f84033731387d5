"""Brute-force reference implementations.

Everything here is deliberately naive (different algorithm, no shared code
with the library) so tests can cross-check the real implementations against
an independent route.
"""

import itertools
from math import inf

from smplab.graphs import Graph, VertexMap


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


# -- blind referees over Bits slices --------------------------------------
# The four blind decision rules as first written, cutting messages with
# Bits.take; the library states them once over ints, and tests require the
# same verdict on every message pair.


def _fields(msg, start, count, width):
    return [msg.take(start + i * width, width).value for i in range(count)]


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


def seed_vote_slices(referee, m, c, seeds, lx, ly):
    """Majority of ``referee(slice_x, slice_y, rnd)`` over the m bank seeds."""
    from smplab.rng import HashRandomness

    votes = 0
    for j, seed in enumerate(seeds):
        verdict = referee(lx.take(j * c, c), ly.take(j * c, c), HashRandomness(seed))
        votes += verdict.kind in ("accept", "distance")
    return 2 * votes > m
