"""Checks of smplab's outputs that do not call smplab.

Each function recomputes a quantity from first principles, for the
benchmark to compare with what the program reported:

* hop distances by one breadth-first search per source (scipy.sparse.csgraph);
* whether a target is the XOR of at most k vectors, by exhaustive search;
* message widths from each sketch's sizing formula;
* the Newman seed-bank size;
* degeneracy by min-degree peeling, and the hashed sketch's union bound;
* whether an observed error count fits a bound plus a sampling margin;
* the shared draw stream itself (keyed BLAKE2b), so draws can be rebuilt
  without going through the program.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

UNREACHABLE = -1


def hop_distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances, UNREACHABLE where no path exists."""
    edges = list(edges)
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for s in range(n):
        order, pred = breadth_first_order(adj, s, directed=False, return_predecessors=True)
        row = dist[s]
        row[s] = 0
        for v in order[1:]:  # BFS order: a predecessor is always settled first
            row[v] = row[pred[v]] + 1
    return dist


def xor_of_at_most(target: int, vecs, k: int) -> bool:
    """Is target the XOR of a set of at most k of the vectors?

    Every set of at most k-1 positions is tried, and the last vector is
    looked up; a hit through a position already in the set means a smaller
    set already XORs to the target, so the answer is exact.
    """
    if target == 0:
        return True
    values = set(vecs)
    for size in range(k):
        for combo in itertools.combinations(vecs, size):
            acc = target
            for v in combo:
                acc ^= v
            if acc in values:
                return True
    return False


def blocks_within(a: int, b: int, block: int, blocks: int, k: int) -> bool:
    """Does every block-bit slice of a XOR b have at most k ones?"""
    diff = a ^ b
    mask = (1 << block) - 1
    return all((diff >> (i * block) & mask).bit_count() <= k for i in range(blocks))


# -- sizing formulas ---------------------------------------------------------


def weak_lattice_params(k: int, eps: Fraction) -> tuple[int, int]:
    """Buckets m = ceil((k+2)^2/eps); width q: 2^q >= sum_{i<=k} C(m,i)/eps."""
    m = math.ceil(Fraction((k + 2) ** 2) / eps)
    subsets = sum(math.comb(m, i) for i in range(k + 1))
    q = 0
    while (1 << q) * eps < subsets:
        q += 1
    return m, q


def universal_lattice_params(k: int, eps: Fraction) -> tuple[int, int]:
    """Buckets m = ceil(3(k+2)^2/2); rounds r: the least r with 3^-r <= eps."""
    m = math.ceil(Fraction(3 * (k + 2) ** 2, 2))
    r = 1
    while 3**r * eps < 1:
        r += 1
    return m, r


def _field(m: int) -> int:
    return max(1, (m - 1).bit_length())


def tree_width(k: int, eps: Fraction) -> int:
    """Band (2 bits), residue, and 2k colors of bit_length(ceil(6/eps)) bits."""
    m = math.ceil(6 / eps)
    return 2 + max(1, (k - 1).bit_length()) + 2 * k * max(1, m.bit_length())


def planar2_width(eps: Fraction) -> int:
    """13 first-family colors over ceil(86/eps), 18 second over ceil(68/eps)."""
    return 13 * _field(math.ceil(86 / eps)) + 18 * _field(math.ceil(68 / eps))


def sparse_width(outdegree: int, eps: Fraction) -> int:
    """Own color plus one per parent, colors over ceil(2 max(1, D)/eps)."""
    return (1 + outdegree) * _field(math.ceil(2 * max(1, outdegree) / eps))


def degeneracy(n: int, edges) -> int:
    """Largest minimum degree met while peeling minimum-degree vertices."""
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    alive = set(range(n))
    best = 0
    while alive:
        v = min(alive, key=lambda u: len(nbr[u]))
        best = max(best, len(nbr[v]))
        alive.remove(v)
        for w in nbr[v]:
            nbr[w].discard(v)
        nbr[v] = set()
    return best


def hashed_union_bound(n: int, edges, loops, bits: int) -> Fraction:
    """2·max degree/B + ordered adjacent pairs/B^2, capped at 1 (B = 2^bits)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in loops:
        deg[v] += 1
    buckets = 1 << bits
    ordered = 2 * len(edges) + len(loops)
    bound = Fraction(2 * max(deg), buckets) + Fraction(ordered, buckets**2)
    return min(bound, Fraction(1))


def bank_size(n: int, eps: Fraction, delta: Fraction) -> int:
    """floor(3·eps/delta^2 · ln n^2) + 1."""
    return math.floor(float(3 * eps / delta**2) * math.log(n * n)) + 1


def log2_ceil(n: int) -> int:
    return max(1, (n - 1).bit_length())


# -- rates -----------------------------------------------------------------


def rate_within(errors: int, trials: int, bound: Fraction) -> bool:
    """errors/trials <= bound plus four binomial standard errors and 1/trials.

    A zero bound admits no error at all: that is one-sidedness.
    """
    if bound == 0:
        return errors == 0
    b = float(bound)
    margin = 4 * math.sqrt(b * (1 - b) / trials) + 1 / trials
    return errors / trials <= b + margin


# -- the shared draw stream --------------------------------------------------


def _label_bytes(label) -> bytes:
    if isinstance(label, tuple):
        return b"(" + b",".join(_label_bytes(x) for x in label) + b")"
    return repr(label).encode()


def draw(seed: int, label, n: int) -> int:
    """The value HashRandomness(seed).integer(label, n) is documented to give."""
    if n == 1:
        return 0
    key = int(seed).to_bytes(16, "big", signed=True)
    digest = hashlib.blake2b(_label_bytes(label), key=key, digest_size=16).digest()
    return int.from_bytes(digest, "big") % n
