"""Seeded instance families: lattices, trees, triangulations, sparse graphs.

Every generator takes an explicit ``random.Random`` so experiment configs can
derive independent streams per instance.  Outputs are deterministic functions
of the generator state.
"""

from __future__ import annotations

import heapq
import random

from .errors import CapacityError, InputError
from .graphs import Graph
from .lattices import DOWNSET_BASE_CAP, Lattice, Poset, cover_reduction, downset_lattice
from .planar import PlanarEmbedding


def random_poset(rng: random.Random, base_size: int, edge_prob: float = 0.3) -> Poset:
    """Random partial order from a sprinkled DAG, reduced to covers."""
    if base_size < 0:
        raise InputError("base_size must be nonnegative")
    n = base_size
    below = [1 << i for i in range(n)]  # below[i]: mask of j with j <= i
    order = list(range(n))
    rng.shuffle(order)
    for bi in range(1, n):
        for ai in range(bi):
            if rng.random() < edge_prob:
                a, b = order[ai], order[bi]
                below[b] |= below[a]
    return Poset(n, cover_reduction(below))


def random_downset_lattice(
    rng: random.Random,
    base_size: int,
    element_cap: int = 4096,
    retries: int = 50,
) -> Lattice:
    """Distributive lattice of ideals over a random poset, capped in size."""
    if base_size > DOWNSET_BASE_CAP:
        raise InputError(f"base_size above {DOWNSET_BASE_CAP} is not supported")
    for _ in range(retries):
        dense = rng.uniform(0.15, 0.6)
        P = random_poset(rng, base_size, dense)
        try:
            return downset_lattice(P, element_cap=element_cap)
        except CapacityError:
            continue
    raise CapacityError(
        f"no ideal lattice under {element_cap} elements found in {retries} draws"
    )


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labeled tree (Pruefer decode)."""
    if n < 1:
        raise InputError("a tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def stacked_triangulation(rng: random.Random, n: int) -> PlanarEmbedding:
    """Random planar triangulation grown by repeated face subdivision.

    Starts from a triangle and inserts each new vertex into a uniformly
    chosen interior face, splitting it into three.  The outer face stays
    (0, 2, 1) throughout; all faces are triangles.
    """
    if n < 3:
        raise InputError("a triangulation needs at least three vertices")
    rot = [[1, 2], [2, 0], [0, 1]]
    interior = [(0, 1, 2)]  # directed face cycles, trace orientation
    for v in range(3, n):
        idx = rng.randrange(len(interior))
        a, b, c = interior[idx]
        rot.append([a, c, b])
        rot[a].insert(rot[a].index(c) + 1, v)
        rot[b].insert(rot[b].index(a) + 1, v)
        rot[c].insert(rot[c].index(b) + 1, v)
        interior[idx] = (a, b, v)
        interior.append((b, c, v))
        interior.append((c, a, v))
    return PlanarEmbedding(tuple(tuple(r) for r in rot), (0, 2, 1))


def union_of_two_trees(rng: random.Random, n: int) -> Graph:
    """Union of two random spanning trees: arboricity at most two."""
    t1 = random_tree(rng, n)
    t2 = random_tree(rng, n)
    edges = set(t1.edges()) | set(t2.edges())
    return Graph(n, sorted(edges))


def random_graph(rng: random.Random, n: int, p: float, loops: str = "none") -> Graph:
    """Erdos-Renyi graph; ``loops`` passes through to the Graph policy."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if loops == "random":
        chosen = [v for v in range(n) if rng.random() < 0.5]
        return Graph(n, edges, loops=chosen)
    return Graph(n, edges, loops=loops)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices."""
    if d < 0 or d > 20:
        raise InputError("dimension out of range")
    n = 1 << d
    edges = [
        (u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)
    ]
    return Graph(n, sorted(edges))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_embedding(n: int) -> PlanarEmbedding:
    """The n-cycle with its two faces; handy triangulation test input."""
    if n < 3:
        raise InputError("a cycle needs at least three vertices")
    rot = tuple(((i - 1) % n, (i + 1) % n) for i in range(n))
    return PlanarEmbedding(rot, tuple(range(n)))
