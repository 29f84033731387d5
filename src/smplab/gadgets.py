"""Hard-instance constructions used as correctness stress tests.

Three builders plus one random family, each packaged as a ``GadgetInstance``
whose ``injection`` places the source graph inside a product structure so
that adjacency becomes a distance-2 question there:

* ``modular_gadget`` realizes any reflexive source graph inside the cover
  graph of a modular lattice -- the full lattice of subspaces of F_2^5 --
  so that two source vertices are adjacent exactly when their images are
  within distance 2.  Vertices map to subspaces of *mixed* dimensions;
  adjacency arises either from a codimension-1 intersection or from a
  containment with dimension gap at most 2.  Same-dimension maps cannot
  work in general: if two subspaces of equal dimension r meet in dimension
  r-1, nothing fits strictly between, so they sit at distance 2 in every
  sublattice -- and the "book" graph (two adjacent vertices dominating
  three pairwise non-adjacent ones) forces exactly that collision.
* ``arboricity2_gadget`` subdivides adjacency through per-edge middle
  vertices, yielding a degeneracy-2 product in which original vertices are
  adjacent iff their product distance is exactly 2.
* ``interval_gt_instance`` encodes order comparison as two interval-graph
  adjacency queries.
* ``all_graphs_instance`` wraps a uniformly random reflexive graph; such
  sources admit no structure a sketch could exploit, so they drive the
  error-growth trend experiments.

All constructions verify their own claims at build time and raise
``VerificationError`` on mismatch; a failure there is a bug, not an input
problem.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .graphs import (
    Graph,
    VertexMap,
    bfs_distance,
    bfs_from,
    degeneracy,
    graph_from_json,
    graph_to_json,
)
from .lattices import (
    MODULAR,
    Lattice,
    Poset,
    build_lattice,
    classify,
    cover_graph,
    poset_from_json,
    poset_to_json,
)

FAMILY_TAGS = ("modular", "arboricity2", "interval", "allgraphs")

MODULAR_SOURCE_CAP = 5  # every isomorphism class up to this size is realizable
ARBORICITY2_SOURCE_CAP = 64  # keeps the all-pairs BFS verification affordable
ALLGRAPHS_SOURCE_CAP = 1536  # builds in a 1 GiB address space, with room to spare
INTERVAL_ORDER_CAP = 768  # about 1.5 n^2 edges; generated and re-verified in 1 GiB

SUBSPACE_DIMENSION = 5  # ambient F_2^d for the modular construction


@dataclass(frozen=True)
class GadgetInstance:
    """A source graph planted inside a product structure.

    ``product`` is a Graph for the sparse families and a Lattice for the
    modular one; ``injection`` maps source vertices to product elements and
    witnesses the family's distance claim (checked by the builders).
    """

    source: Graph
    product: object
    injection: VertexMap
    family_tag: str

    def __post_init__(self):
        if self.family_tag not in FAMILY_TAGS:
            raise InputError(f"unknown family tag {self.family_tag!r}")
        if len(self.injection) != self.source.n:
            raise InputError("injection domain must be the source vertex set")


# -- the modular-lattice construction --------------------------------------


def _span_mask(gens, d):
    """Bitmask over vector ids of the subspace spanned by ``gens``."""
    out = {0}
    for g in gens:
        out |= {x ^ g for x in out}
    mask = 0
    for x in out:
        mask |= 1 << x
    return mask


def _all_subspaces(d):
    """Every subspace of F_2^d as a vector-id bitmask, smallest first."""
    found = set()
    frontier = {_span_mask([], d)}
    found |= frontier
    while frontier:
        grown = set()
        for s in frontier:
            members = [x for x in range(1, 1 << d) if s >> x & 1]
            for v in range(1, 1 << d):
                if not s >> v & 1:
                    grown.add(_span_mask(members + [v], d))
        grown -= found
        found |= grown
        frontier = grown
    return sorted(found, key=lambda s: (bin(s).count("1"), s))


class _Ambient:
    """The subspace lattice of F_2^d with search tables, built once.

    ``dist`` holds rank-formula distances dim x + dim y - 2 dim(x ^ y);
    the builder cross-checks a sample of them against BFS on the cover
    graph, and every injection is verified against BFS alone.
    """

    def __init__(self, d):
        masks = _all_subspaces(d)
        n = len(masks)
        dims = [bin(m).count("1").bit_length() - 1 for m in masks]
        by_dim = {}
        for i, dim in enumerate(dims):
            by_dim.setdefault(dim, []).append(i)
        covers = []
        for k in range(d):
            for lo in by_dim[k]:
                for hi in by_dim[k + 1]:
                    if masks[lo] & masks[hi] == masks[lo]:
                        covers.append((lo, hi))
        # classify builds the meet/join tables next, which checks every pair
        self.lattice = build_lattice(Poset(n, covers), validate=False)
        verdict = classify(self.lattice, cap=max(n, 1))
        if verdict != MODULAR:
            raise VerificationError(
                f"subspace lattice of F_2^{d} classified as {verdict!r}"
            )
        self.masks = masks
        self.dims = dims
        dist = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(i + 1, n):
                meet_dim = bin(masks[i] & masks[j]).count("1").bit_length() - 1
                dist[i, j] = dist[j, i] = dims[i] + dims[j] - 2 * meet_dim
        self.dist = dist
        self.near = dist <= 2
        self.cover = cover_graph(self.lattice.poset)
        # one representative per dimension: the coordinate subspaces
        self.dim_reps = [
            masks.index(_span_mask([1 << b for b in range(k)], d))
            for k in range(d + 1)
        ]
        rng = random.Random(0)
        for _ in range(32):
            i, j = rng.randrange(n), rng.randrange(n)
            if bfs_distance(self.cover, i, j) != int(dist[i, j]):
                raise VerificationError("rank-formula distance disagrees with BFS")


_AMBIENTS: dict[int, _Ambient] = {}


def _ambient(d):
    if d not in _AMBIENTS:
        _AMBIENTS[d] = _Ambient(d)
    return _AMBIENTS[d]


def _find_injection(G: Graph, amb: _Ambient):
    """Depth-first search for subspaces realizing G's adjacency pattern.

    Adjacency must match rank distance <= 2 for every assigned pair.  The
    first vertex only ranges over one representative subspace per dimension:
    the ambient's linear symmetries act transitively within a dimension, so
    this loses no solutions.  Vertex order and candidate order are fixed,
    making the result deterministic.
    """
    n = G.n
    order = sorted(range(n), key=lambda v: (-G.degree(v), v))
    assign = [-1] * n
    blank = np.ones(amb.near.shape[0], dtype=bool)

    def dfs(k):
        if k == n:
            return True
        v = order[k]
        ok = blank.copy()
        for j in range(k):
            w = order[j]
            column = amb.near[assign[w]]
            ok &= column if G.adjacent(v, w) else ~column
            ok[assign[w]] = False
        candidates = amb.dim_reps if k == 0 else np.flatnonzero(ok)
        for c in candidates:
            assign[v] = int(c)
            if dfs(k + 1):
                return True
        assign[v] = -1
        return False

    if not dfs(0):
        return None
    return assign


def modular_gadget(G: Graph) -> GadgetInstance:
    """Plant G inside the cover graph of a modular lattice.

    Requires G reflexive (a self-loop on every vertex) and at most
    ``MODULAR_SOURCE_CAP`` vertices.  The product is always the full
    subspace lattice of F_2^5, so all sources of a given size (indeed all
    sizes here) share one product size.  After the search, the distance-2
    equivalence is re-verified by plain BFS on the cover graph.
    """
    if G.loops != frozenset(range(G.n)):
        raise PreconditionError("modular gadget sources carry all self-loops")
    if G.n > MODULAR_SOURCE_CAP:
        raise CapacityError(
            f"modular gadget supports up to {MODULAR_SOURCE_CAP} source vertices"
        )
    amb = _ambient(SUBSPACE_DIMENSION)
    assign = _find_injection(G, amb)
    if assign is None:
        raise VerificationError(
            f"no subspace assignment realizes this {G.n}-vertex source"
        )
    injection = VertexMap(tuple(assign), amb.lattice.n)
    _check_distance2_claim(G, amb.cover, injection)
    return GadgetInstance(G, amb.lattice, injection, "modular")


def _check_distance2_claim(G: Graph, product: Graph, injection: VertexMap,
                           exact: bool = False):
    """BFS re-verification of a family's distance claim: two source vertices
    are adjacent iff their images lie at product distance at most 2, or
    exactly 2 when ``exact``.  Raises ``VerificationError`` on the first
    source pair that breaks it."""
    for u in range(G.n):
        row = bfs_from(product, injection(u))
        for v in range(u + 1, G.n):
            d = row[injection(v)]
            close = d == 2 if exact else d <= 2
            if close != G.adjacent(u, v):
                raise VerificationError(
                    f"distance-2 claim fails on source pair ({u}, {v})"
                )


# -- the arboricity-2 construction -----------------------------------------


def arboricity2_gadget(G: Graph) -> GadgetInstance:
    """Route every source edge through its own middle vertex.

    The product keeps the n originals plus one vertex per unordered pair
    (pairs without a source edge stay isolated), has degeneracy at most 2,
    and puts originals at distance exactly 2 iff they were adjacent.
    """
    if G.loops:
        raise PreconditionError("arboricity-2 gadget sources must be loop-free")
    if G.n > ARBORICITY2_SOURCE_CAP:
        raise CapacityError(
            f"arboricity-2 gadget supports up to {ARBORICITY2_SOURCE_CAP} vertices"
        )
    n = G.n
    pair_vertex = {
        pair: n + i for i, pair in enumerate(itertools.combinations(range(n), 2))
    }
    edges = []
    for u, v in G.edges():
        middle = pair_vertex[(u, v)]
        edges.append((u, middle))
        edges.append((v, middle))
    product = Graph(n + n * (n - 1) // 2, edges)
    inst = GadgetInstance(G, product, VertexMap(tuple(range(n)), product.n), "arboricity2")
    verify_gadget(inst)
    return inst


# -- the interval-graph order encoder --------------------------------------


@dataclass(frozen=True)
class IntervalGtInstance:
    """Interval graph whose adjacency answers order comparisons.

    Vertex i-1 carries [1, i] and vertex n+i-1 carries [i, n].  Comparing
    x against y issues two adjacency queries; both accepting proves y <= x,
    since [1, x] always meets [1, y] and meets [y, n] exactly when y <= x.
    """

    n: int
    graph: Graph
    intervals: tuple

    def prefix_vertex(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise InputError(f"query value {x} outside [1, {self.n}]")
        return x - 1

    def suffix_vertex(self, y: int) -> int:
        if not 1 <= y <= self.n:
            raise InputError(f"query value {y} outside [1, {self.n}]")
        return self.n + y - 1

    def queries(self, x: int, y: int):
        """The two vertex pairs whose adjacency decides x vs y."""
        return (
            (self.prefix_vertex(x), self.prefix_vertex(y)),
            (self.prefix_vertex(x), self.suffix_vertex(y)),
        )

    def decide(self, first_accepts: bool, second_accepts: bool) -> bool:
        """Map the two query verdicts to the claim "x < y"."""
        return not (first_accepts and second_accepts)

    def less_than(self, x: int, y: int) -> bool:
        (a1, b1), (a2, b2) = self.queries(x, y)
        return self.decide(
            self.graph.adjacent(a1, b1), self.graph.adjacent(a2, b2)
        )


def interval_gt_instance(n: int) -> IntervalGtInstance:
    """Intervals [1, i] and [i, n] for i in 1..n, with all intersections."""
    if n < 2:
        raise PreconditionError("order comparison needs n >= 2")
    if n > INTERVAL_ORDER_CAP:
        raise CapacityError(f"interval orders supported up to n={INTERVAL_ORDER_CAP}")
    intervals = [(1, i) for i in range(1, n + 1)] + [(i, n) for i in range(1, n + 1)]
    edges = []
    for i, (a1, b1) in enumerate(intervals):
        for j in range(i + 1, len(intervals)):
            a2, b2 = intervals[j]
            if a2 <= b1 and a1 <= b2:
                edges.append((i, j))
    graph = Graph(2 * n, edges, loops="all")
    return IntervalGtInstance(n, graph, tuple(intervals))


# -- the unrestricted random family ----------------------------------------


def all_graphs_instance(n: int, seed: int) -> GadgetInstance:
    """A uniformly random reflexive graph, wrapped as its own product."""
    if n < 1:
        raise InputError("need at least one vertex")
    if n > ALLGRAPHS_SOURCE_CAP:
        raise CapacityError(f"random sources supported up to n={ALLGRAPHS_SOURCE_CAP}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    source = Graph(n, edges, loops="all")
    return GadgetInstance(source, source, VertexMap.identity(n), "allgraphs")


# -- serialization and re-verification --------------------------------------


def gadget_to_json(inst: GadgetInstance) -> dict:
    if isinstance(inst.product, Lattice):
        product = {"kind": "lattice", "poset": poset_to_json(inst.product.poset)}
    else:
        product = {"kind": "graph", "graph": graph_to_json(inst.product)}
    return {
        "family": inst.family_tag,
        "source": graph_to_json(inst.source),
        "product": product,
        "injection": list(inst.injection.image),
    }


def gadget_from_json(doc: dict) -> GadgetInstance:
    if not isinstance(doc, dict):
        raise InputError("gadget document must be an object")
    try:
        family, source_doc = doc["family"], doc["source"]
        product_doc, image = doc["product"], doc["injection"]
    except KeyError as e:
        raise InputError(f"gadget document missing field {e}") from None
    if not (isinstance(image, list) and all(type(x) is int for x in image)):
        raise InputError("gadget injection must be a list of vertex ids")
    if not isinstance(product_doc, dict):
        raise InputError("gadget product must be an object")
    source = graph_from_json(source_doc)
    # a missing part reads as None, which its loader rejects
    if product_doc.get("kind") == "lattice":
        product = build_lattice(poset_from_json(product_doc.get("poset")), validate=True)
    elif product_doc.get("kind") == "graph":
        product = graph_from_json(product_doc.get("graph"))
    else:
        raise InputError("product kind must be 'lattice' or 'graph'")
    return GadgetInstance(source, product, VertexMap(tuple(image), product.n), family)


def verify_gadget(inst: GadgetInstance) -> None:
    """Re-run the family's structural claim; raise VerificationError if broken.

    ``arboricity2_gadget`` calls it on each fresh instance, and the CLI on
    instances loaded from disk.  ``modular_gadget`` runs only the distance
    check, since ``_Ambient`` has already classified its lattice.
    """
    if inst.family_tag == "modular":
        if not isinstance(inst.product, Lattice):
            raise VerificationError("modular gadget product must be a lattice")
        verdict = classify(inst.product, cap=max(inst.product.n, 1))
        if verdict != MODULAR:
            raise VerificationError(f"product classified as {verdict!r}")
        _check_distance2_claim(inst.source, cover_graph(inst.product.poset), inst.injection)
    elif inst.family_tag == "arboricity2":
        if degeneracy(inst.product) > 2:
            raise VerificationError("product exceeded degeneracy 2")
        _check_distance2_claim(inst.source, inst.product, inst.injection, exact=True)
    elif inst.family_tag == "allgraphs":
        if inst.product is not inst.source and inst.product != inst.source:
            raise VerificationError("random family instances are their own product")
    else:
        raise VerificationError(f"no verifier for family {inst.family_tag!r}")
