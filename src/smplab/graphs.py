"""Finite graphs with an explicit self-loop policy, plus twin reduction.

A *faithful map* phi maps V(G) into V(H) with G(u, v) == H(phi(u), phi(v))
for every ordered pair including u == v, so both edges and non-edges are
preserved and phi need not be injective.  Because the diagonal participates,
self-loops matter and every graph carries a loop policy ("none", "all", or an
explicit loop set).

Twin reduction merges vertices with identical adjacency rows (diagonal
included); its projection is a faithful map onto the smallest graph the
original maps into faithfully.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import CapacityError, InputError

DENSE_CAP = 4096  # largest n for which a dense adjacency matrix is materialized
GRAPH_FAMILY_CAP = 10_000  # most vertices a generated or loaded graph may have


@dataclass(frozen=True)
class VertexMap:
    """A total map V(G) -> V(H), stored as image[i] = phi(i)."""

    image: tuple[int, ...]
    codomain: int

    def __post_init__(self):
        if any(not 0 <= w < self.codomain for w in self.image):
            raise InputError("map image out of codomain range")

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self):
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls(tuple(range(n)), n)


@dataclass(frozen=True)
class Orientation:
    """An assignment of a direction to every non-loop edge.

    parents[v] lists v's out-neighbors in a fixed order; protocols read
    them as message slots, so the order must be deterministic.
    """

    parents: tuple[tuple[int, ...], ...]
    max_outdegree: int

    @property
    def n(self) -> int:
        return len(self.parents)


class Graph:
    """Undirected graph on vertices 0..n-1 with a self-loop policy."""

    __slots__ = ("n", "self_loops", "_nbr", "_loops", "_matrix")

    def __init__(self, n: int, edges, loops="none"):
        if not isinstance(n, int) or n < 1:
            raise InputError("vertex count must be a positive integer")
        self.n = n
        nbr = [set() for _ in range(n)]
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e} out of range")
            if u == v:
                raise InputError(f"self-loop {e} given as an edge; use the loop set")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(key)
            nbr[u].add(v)
            nbr[v].add(u)
        if loops == "none":
            loop_set, policy = frozenset(), "none"
        elif loops == "all":
            loop_set, policy = frozenset(range(n)), "all"
        else:
            loop_set, policy = frozenset(loops), "explicit"
            if any(not 0 <= v < n for v in loop_set):
                raise InputError("loop vertex out of range")
        self._nbr = tuple(frozenset(s) for s in nbr)
        self._loops = loop_set
        self.self_loops = policy
        self._matrix = None

    # -- basic accessors -------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return u in self._loops
        return v in self._nbr[u]

    def neighbors(self, v: int) -> frozenset:
        return self._nbr[v]

    def degree(self, v: int) -> int:
        return len(self._nbr[v])

    @property
    def loops(self) -> frozenset:
        return self._loops

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in range(self.n) for v in self._nbr[u] if u < v)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._nbr) // 2

    def matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix, diagonal = loops."""
        if self.n > DENSE_CAP:
            raise CapacityError(f"dense matrix only materialized up to n={DENSE_CAP}")
        if self._matrix is None:
            m = np.zeros((self.n, self.n), dtype=bool)
            for u in range(self.n):
                for v in self._nbr[u]:
                    m[u, v] = True
            for v in self._loops:
                m[v, v] = True
            self._matrix = m
        return self._matrix

    # -- value semantics --------------------------------------------------

    def _key(self):
        return (self.n, self._nbr, self._loops)

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()}, loops={self.self_loops})"


# -- distance ------------------------------------------------------------


def bfs_from(G: Graph, x: int):
    """Distances from x to every vertex (math.inf where unreachable)."""
    dist = [inf] * G.n
    dist[x] = 0
    q = deque([x])
    while q:
        u = q.popleft()
        for w in G.neighbors(u):
            if dist[w] is inf:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist

def bfs_distance(G: Graph, x: int, y: int):
    """Shortest-path distance by plain BFS; self-loops do not shorten paths."""
    if not (0 <= x < G.n and 0 <= y < G.n):
        raise InputError("vertex out of range")
    if x == y:
        return 0
    dist = [None] * G.n
    dist[x] = 0
    q = deque([x])
    while q:
        u = q.popleft()
        for w in G.neighbors(u):
            if dist[w] is None:
                dist[w] = dist[u] + 1
                if w == y:
                    return dist[w]
                q.append(w)
    return inf


def all_pairs_distances(G: Graph, within: int | None = None, sources=None) -> np.ndarray:
    """All-pairs hop distances as a float matrix (np.inf when unreachable).

    With ``within``, the search stops at that distance: pairs farther apart
    read np.inf too, and the search costs what the near pairs do.  With
    ``sources``, a sequence of vertices, row i holds the distances from
    ``sources[i]`` alone.  Backed by scipy's compiled search; bfs_distance
    stays the pure-Python reference so the two can cross-check each other.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    edges = G.edges()
    n = G.n
    if edges:
        rows = [u for u, v in edges] + [v for u, v in edges]
        cols = [v for u, v in edges] + [u for u, v in edges]
        m = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    else:
        m = csr_matrix((n, n))
    return dijkstra(m, directed=False, unweighted=True, indices=sources,
                    limit=np.inf if within is None else within)


def k_closure(G: Graph, k: int) -> Graph:
    """The graph with an edge wherever 0 < dist <= k, all self-loops."""
    if k < 1:
        raise InputError("closure radius must be >= 1")
    d = all_pairs_distances(G, within=k)
    iu, iv = np.nonzero(np.triu(d <= k, 1))
    return Graph(G.n, list(zip(iu.tolist(), iv.tolist())), loops="all")


# -- twin reduction --------------------------------------------------------


def twin_reduction(G: Graph) -> tuple[Graph, VertexMap]:
    """Collapse vertices with identical adjacency rows (diagonal included).

    Returns the quotient graph and the projection map; the projection is a
    faithful map of G into the quotient, and the quotient has no twins.
    """
    class_of = {}
    reps = []
    image = []
    for u in range(G.n):
        # u's adjacency row, diagonal included
        key = G.neighbors(u) | {u} if u in G.loops else G.neighbors(u)
        if key not in class_of:
            class_of[key] = len(reps)
            reps.append(u)
        image.append(class_of[key])
    q = len(reps)
    edges = []
    qloops = []
    for a in range(q):
        for b in range(a, q):
            if a == b:
                # A class is self-adjacent iff its representative has a loop
                # (singleton) or its members are mutually adjacent (twins
                # share rows, so one probe decides for the whole class).
                members = [u for u in range(G.n) if image[u] == a]
                if len(members) == 1:
                    if G.adjacent(members[0], members[0]):
                        qloops.append(a)
                elif G.adjacent(members[0], members[1]):
                    qloops.append(a)
            elif G.adjacent(reps[a], reps[b]):
                edges.append((a, b))
    return Graph(q, edges, loops=qloops), VertexMap(tuple(image), q)


# -- orientations ----------------------------------------------------------


def degeneracy_orientation(G: Graph) -> Orientation:
    """Orient edges by min-degree peeling (lowest index breaks ties).

    Each vertex points at the neighbors removed after it, so the maximum
    out-degree equals the graph's degeneracy.  Self-loops are ignored.
    The peel pops (remaining degree, index) from a heap; a vertex whose
    degree drops is pushed again, and an entry whose degree is no longer
    the vertex's (so also every entry left of a removed vertex) is skipped.
    """
    remaining_deg = [G.degree(v) for v in range(G.n)]
    alive = [True] * G.n
    parents: list[tuple[int, ...]] = [()] * G.n
    heap = [(d, v) for v, d in enumerate(remaining_deg)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d != remaining_deg[v]:
            continue
        alive[v] = False
        outs = sorted(w for w in G.neighbors(v) if alive[w])
        parents[v] = tuple(outs)
        for w in outs:
            remaining_deg[w] -= 1
            heapq.heappush(heap, (remaining_deg[w], w))
    maxdeg = max((len(p) for p in parents), default=0)
    return Orientation(tuple(parents), maxdeg)


def orientation_covers(G: Graph, o: Orientation) -> bool:
    """True iff every non-loop edge is directed exactly once."""
    if o.n != G.n:
        return False
    seen = set()
    for u in range(G.n):
        for v in o.parents[u]:
            if not G.adjacent(u, v) or u == v:
                return False
            key = (min(u, v), max(u, v))
            if key in seen:
                return False
            seen.add(key)
    return len(seen) == G.edge_count()


def degeneracy(G: Graph) -> int:
    return degeneracy_orientation(G).max_outdegree


# -- serialization ---------------------------------------------------------


def graph_to_json(G: Graph) -> dict:
    out = {
        "n": G.n,
        "edges": [list(e) for e in G.edges()],
        "self_loops": G.self_loops,
    }
    if G.self_loops == "explicit":
        out["loops"] = sorted(G.loops)
    return out


def graph_from_json(data: dict) -> Graph:
    if not isinstance(data, dict):
        raise InputError("graph document must be an object")
    try:
        n = data["n"]
        edges = data["edges"]
        policy = data["self_loops"]
    except KeyError as e:
        raise InputError(f"graph document missing field {e}") from None
    if isinstance(n, int) and n > GRAPH_FAMILY_CAP:
        raise CapacityError(f"graph documents are capped at {GRAPH_FAMILY_CAP} vertices")
    if policy not in ("all", "none", "explicit"):
        raise InputError(f"unknown self-loop policy {policy!r}")
    if policy == "explicit":
        loops = data.get("loops")
        if not (isinstance(loops, list) and all(type(v) is int for v in loops)):
            raise InputError("explicit self-loop policy requires a loops array of vertex ids")
    else:
        if "loops" in data:
            raise InputError("loops array only allowed with the explicit policy")
        loops = policy
    if not isinstance(edges, list):
        raise InputError("graph edges must be a list of vertex pairs")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(type(u) is int for u in e)):
            raise InputError(f"malformed edge entry {e!r}")
    return Graph(n, [tuple(e) for e in edges], loops=loops)
