"""Combinatorial planar embeddings, triangulation, and 3-tree decompositions.

An embedding is a rotation system: the cyclic order of neighbors around each
vertex.  Faces are traced by the successor rule succ(u -> v) = (v, w) with w
the neighbor after u in rotation[v]; validity is Euler's formula plus an
outer face that matches a traced face.

``schnyder_wood`` decomposes a triangulation into three parent maps (one per
color) via a canonical vertex peeling.  The three outer vertices act as
roots; the outer edges are oriented cyclically (root i-1 -> root i carries
color i) so that *every* edge of the triangulation is directed and colored
exactly once - the distance sketches need each length-2 path to fall into an
orientation pattern, with no uncolored exceptions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf

from .errors import InputError, PreconditionError, VerificationError
from .graphs import Graph, bfs_from


@dataclass(frozen=True)
class PlanarEmbedding:
    rotation: tuple[tuple[int, ...], ...]
    outer_face: tuple[int, ...]
    aux_edges: frozenset = frozenset()

    @property
    def n(self) -> int:
        return len(self.rotation)

    # Derived values (both graphs, the face walks, the validation report)
    # are built on first use and kept in the instance's __dict__, outside the
    # dataclass fields, so equality, hashing and repr are unchanged; each is
    # immutable, so every caller may share one.
    def _kept(self, key: str, build):
        value = self.__dict__.get(key)
        if value is None:
            value = self.__dict__[key] = build()
        return value

    def graph(self) -> Graph:
        """All embedded edges, auxiliary ones included."""
        return self._kept("_graph", lambda: Graph(self.n, sorted(self._edges())))

    def base_graph(self) -> Graph:
        """The embedded edges minus auxiliary (triangulation) edges."""
        return self._kept("_base_graph", lambda: Graph(
            self.n, sorted(self._edges() - set(self.aux_edges))))

    def _edges(self) -> set:
        return {(min(u, v), max(u, v)) for u in range(self.n) for v in self.rotation[u]}


def embedding_to_json(emb: PlanarEmbedding) -> dict:
    return {
        "n": emb.n,
        "rotation": [list(r) for r in emb.rotation],
        "outer_face": list(emb.outer_face),
    }


def embedding_from_json(data: dict) -> PlanarEmbedding:
    if not isinstance(data, dict):
        raise InputError("embedding document must be an object")
    try:
        n, rotation, outer = data["n"], data["rotation"], data["outer_face"]
    except KeyError as e:
        raise InputError(f"embedding document missing field {e}") from None
    if not isinstance(rotation, list) or len(rotation) != n:
        raise InputError("rotation table must be a list of n vertex lists")
    for row in [*rotation, outer]:
        if not (isinstance(row, list) and all(type(v) is int and 0 <= v < n for v in row)):
            raise InputError(f"malformed rotation row or outer face {row!r}")
    return PlanarEmbedding(tuple(tuple(r) for r in rotation), tuple(outer))


def trace_faces(emb: PlanarEmbedding) -> list[tuple[int, ...]]:
    """Face walks as vertex tuples; each directed edge lies on one walk.

    The walks are traced once per embedding object and kept on it; each
    call returns a fresh list of them."""
    return list(emb._kept("_faces", lambda: tuple(_walk_faces(emb))))


def _walk_faces(emb: PlanarEmbedding) -> list[tuple[int, ...]]:
    """Trace every face walk of emb by the successor rule."""
    succ_cache = {}
    for v, rot in enumerate(emb.rotation):
        deg = len(rot)
        for i, u in enumerate(rot):
            succ_cache[(u, v)] = rot[(i + 1) % deg]
    faces = []
    visited = set()
    for start in sorted(succ_cache):
        if start in visited:
            continue
        walk = []
        edge = start
        while edge not in visited:
            visited.add(edge)
            walk.append(edge[0])
            edge = (edge[1], succ_cache[edge])
        faces.append(tuple(walk))
    return faces


def _cyclic_variants(seq):
    out = set()
    for s in (tuple(seq), tuple(reversed(seq))):
        for i in range(len(s)):
            out.add(s[i:] + s[:i])
    return out


@dataclass(frozen=True)
class EmbeddingReport:
    valid: bool
    faces: int
    problems: tuple[str, ...]


def validate_embedding(emb: PlanarEmbedding) -> EmbeddingReport:
    """Rotation-system consistency, connectivity, Euler count, outer face.

    The checks run once per embedding object, whose report is kept on it
    and returned by every later call; ``require_valid``, ``triangulate`` and
    ``schnyder_wood`` read the same report, so an invalid embedding raises
    on each of their calls."""
    return emb._kept("_report", lambda: _check_embedding(emb))


def _check_embedding(emb: PlanarEmbedding) -> EmbeddingReport:
    """Run every check of ``validate_embedding`` on emb."""
    problems = []
    n = emb.n
    if n < 1:
        return EmbeddingReport(False, 0, ("embedding has no vertices",))
    for v, rot in enumerate(emb.rotation):
        if v in rot:
            problems.append(f"vertex {v} lists itself")
        if len(set(rot)) != len(rot):
            problems.append(f"vertex {v} repeats a neighbor")
        for u in rot:
            if not 0 <= u < n:
                problems.append(f"vertex {v} lists out-of-range neighbor {u}")
            elif v not in emb.rotation[u]:
                problems.append(f"edge {v}-{u} is one-sided")
    if problems:
        return EmbeddingReport(False, 0, tuple(problems))
    g = emb.graph()
    m = g.edge_count()
    if inf in bfs_from(g, 0):
        problems.append("embedding is not connected")
    faces = trace_faces(emb)
    f = len(faces) if m else 1
    if n - m + f != 2:
        problems.append(f"Euler check failed: n={n} m={m} f={f}")
    if m:
        if len(emb.outer_face) < 3:
            problems.append("outer face must have at least three vertices")
        elif _outer_walk(emb, faces) is None:
            problems.append("outer face does not match any traced face")
    return EmbeddingReport(not problems, f, tuple(problems))


def require_valid(emb: PlanarEmbedding) -> None:
    report = validate_embedding(emb)
    if not report.valid:
        raise InputError("invalid embedding: " + "; ".join(report.problems))


def _outer_walk(emb, faces):
    """The traced face that ``emb.outer_face`` names up to rotation and
    reversal, or None when no face matches."""
    variants = _cyclic_variants(emb.outer_face)
    return next((face for face in faces if face in variants), None)


def triangulate(emb: PlanarEmbedding) -> PlanarEmbedding:
    """Add chords until every face (outer included) is a triangle.

    Faces are ear-clipped: a chord is drawn between the neighbors of a walk
    vertex whenever that chord is not already an edge.  Added chords are
    recorded in ``aux_edges``.  Face walks may repeat vertices (bridges,
    trees); the exists-check skips degenerate ears.
    """
    if emb.n < 3:
        raise PreconditionError("triangulation needs at least three vertices")
    require_valid(emb)
    rot = [list(r) for r in emb.rotation]
    present = {(min(u, v), max(u, v)) for u in range(emb.n) for v in emb.rotation[u]}
    aux = set(emb.aux_edges)
    faces = trace_faces(emb)
    outer = _outer_walk(emb, faces)
    new_outer = outer

    def add_chord(walk, i):
        """Chord between walk[i-1] and walk[i+1], splitting off an ear."""
        u, v, w = walk[i - 1], walk[i], walk[(i + 1) % len(walk)]
        rot[u].insert(rot[u].index(v), w)
        rot[w].insert(rot[w].index(v) + 1, u)
        present.add((min(u, w), max(u, w)))
        aux.add((min(u, w), max(u, w)))

    for face in faces:
        walk = list(face)
        is_outer = face == outer
        while len(walk) > 3:
            for i in range(len(walk)):
                u, v, w = walk[i - 1], walk[i], walk[(i + 1) % len(walk)]
                if u != w and (min(u, w), max(u, w)) not in present:
                    add_chord(walk, i)
                    del walk[i]
                    break
            else:
                raise InputError("face cannot be ear-triangulated without multi-edges")
        if is_outer:
            new_outer = tuple(walk)
        if len(set(walk)) != 3:
            raise InputError("degenerate triangular face; graph too small to triangulate")

    out = PlanarEmbedding(tuple(tuple(r) for r in rot), new_outer, frozenset(aux))
    report = validate_embedding(out)
    if not report.valid:
        raise VerificationError("triangulation broke the embedding: " + "; ".join(report.problems))
    if any(len(f) != 3 for f in trace_faces(out)):
        raise VerificationError("triangulation left a non-triangular face")
    return out


@dataclass(frozen=True)
class SchnyderWood:
    """Three parent maps on a triangulation, restricted to the base edges.

    ``tri_parent[v][i]`` is v's color-(i+1) parent in the triangulation (None
    where the vertex has no out-edge of that color - roots have exactly one).
    ``parent`` is the same map with entries whose edge is auxiliary replaced
    by None; the sketches only ever read ``parent``.
    """

    roots: tuple[int, int, int]
    tri_parent: tuple[tuple, ...]
    parent: tuple[tuple, ...]

    @property
    def n(self) -> int:
        return len(self.tri_parent)


def schnyder_wood(emb: PlanarEmbedding) -> SchnyderWood:
    """Peel the triangulation from the outer face, assigning colors.

    At each step a boundary vertex with no chord is removed; its boundary
    predecessor becomes its color-2 parent, its successor the color-1
    parent, and interior fan vertices point at it in color 3.  The outer
    cycle is oriented r1 <- r3 <- r2 <- r1 with edge (r_{i-1}, r_i) given
    color i, so roots have exactly one outgoing edge each.
    """
    require_valid(emb)
    faces = trace_faces(emb)
    if any(len(f) != 3 for f in faces):
        raise PreconditionError("3-tree decomposition needs a triangulated embedding")
    n = emb.n
    outer = _outer_walk(emb, faces)
    if outer is None:  # only a one-vertex embedding, which traces no face
        raise InputError("outer face does not match any traced face")
    shift = outer.index(min(outer))
    outer = outer[shift:] + outer[:shift]
    r1, r2, r3 = outer

    if n == 3:
        tri = [[None] * 3 for _ in range(3)]
    else:
        nbrs = [frozenset(r) for r in emb.rotation]
        alive = [True] * n
        on_b = [False] * n
        next_b = {}
        prev_b = {}
        for i, v in enumerate(outer):
            on_b[v] = True
            next_b[v] = outer[(i + 1) % 3]
            prev_b[v] = outer[(i - 1) % 3]
        chord = {v: 0 for v in outer}  # alive boundary neighbors minus two
        tri = [[None] * 3 for _ in range(n)]
        heap = [r3]
        alive_count = n

        def boundary_nbr_count(v):
            return sum(1 for w in nbrs[v] if alive[w] and on_b[w])

        while alive_count > 2:
            while True:
                if not heap:
                    raise VerificationError("no chord-free boundary vertex available")
                v = heapq.heappop(heap)
                if alive[v] and on_b[v] and v not in (r1, r2) and chord[v] == 0:
                    break
            p, x = prev_b[v], next_b[v]
            fan = [w for w in emb.rotation[v] if alive[w]]
            k = fan.index(p)
            fan = fan[k:] + fan[:k]
            if fan[-1] != x:
                # the alive arc runs the other way around the rotation
                k = fan.index(x)
                fan = fan[k:] + fan[:k]
                fan.reverse()
            if fan[0] != p or fan[-1] != x:
                raise VerificationError("boundary fan is inconsistent with the rotation")
            middles = fan[1:-1]

            alive[v] = False
            on_b[v] = False
            alive_count -= 1
            if v != r3:
                tri[v][1] = p  # color 2 toward the predecessor root side
                tri[v][0] = x  # color 1 toward the successor root side
            for u in nbrs[v]:
                if alive[u] and on_b[u]:
                    chord[u] -= 1
                    if chord[u] == 0:
                        heapq.heappush(heap, u)
            seq = [p] + middles + [x]
            for a, b in zip(seq, seq[1:]):
                next_b[a] = b
                prev_b[b] = a
            for m in middles:
                on_b[m] = True
                tri[m][2] = v
            mid_set = set(middles)
            for m in middles:
                chord[m] = boundary_nbr_count(m) - 2
                if chord[m] == 0:
                    heapq.heappush(heap, m)
                for u in nbrs[m]:
                    if alive[u] and on_b[u] and u not in mid_set and u != m:
                        chord[u] += 1

    # orient the outer cycle: (r_{i-1} -> r_i) carries color i
    tri[r1][1] = r2
    tri[r2][2] = r3
    tri[r3][0] = r1

    base = emb.base_graph()
    restricted = tuple(
        tuple(p if p is not None and base.adjacent(v, p) else None for p in tri[v])
        for v in range(n)
    )
    wood = SchnyderWood((r1, r2, r3), tuple(tuple(t) for t in tri), restricted)
    report = validate_schnyder(emb, wood)
    if report:
        raise VerificationError("decomposition failed validation: " + "; ".join(report))
    return wood


def validate_schnyder(emb: PlanarEmbedding, wood: SchnyderWood) -> list[str]:
    """Return a list of violated decomposition invariants (empty if valid)."""
    problems = []
    n = wood.n
    tri_graph = emb.graph()
    roots = set(wood.roots)

    colored = {}
    for v in range(n):
        parents = wood.tri_parent[v]
        present = [p for p in parents if p is not None]
        if v in roots:
            if len(present) != 1:
                problems.append(f"root {v} must have exactly one outgoing edge")
        else:
            if len(present) != 3 or len(set(present)) != 3:
                problems.append(f"vertex {v} lacks three distinct parents")
        for i, p in enumerate(parents):
            if p is None:
                continue
            if not tri_graph.adjacent(v, p):
                problems.append(f"parent edge {v}->{p} is not in the triangulation")
                continue
            key = (min(v, p), max(v, p))
            if key in colored:
                problems.append(f"edge {key} colored twice")
            colored[key] = i

    if len(colored) != tri_graph.edge_count() or len(colored) != 3 * n - 6:
        problems.append("colored edge count does not cover the triangulation")

    # each color class is a forest whose chains end at that color's root
    # (the remaining two roots may only appear as isolated vertices)
    for i, root in enumerate(wood.roots):
        state = {}
        for v in range(n):
            chain = []
            u = v
            while u is not None and state.get(u) is None:
                chain.append(u)
                state[u] = "open"
                u = wood.tri_parent[u][i]
            if u is not None and state[u] == "open":
                problems.append(f"color {i + 1} contains a cycle through {v}")
                for c in chain:
                    state[c] = "bad"
                continue
            terminal = chain[-1] if u is None else None
            for c in chain:
                state[c] = "ok"
            if terminal is not None and terminal != root:
                if not (len(chain) == 1 and terminal in roots):
                    problems.append(f"color {i + 1} chain from {v} ends at {terminal}, not its root")

    # local sector rule around internal vertices: reading the rotation
    # cyclically from the color-1 out-edge, one must see out1, in-3s, out2,
    # in-1s, out3, in-2s (in one global handedness or the other).
    handedness = set()
    for v in range(n):
        if v in roots:
            continue
        rot = emb.rotation[v]
        pos = {}
        for i in range(3):
            p = wood.tri_parent[v][i]
            pos[i] = rot.index(p)
        incoming = []
        for w in rot:
            colors = [i for i in range(3) if wood.tri_parent[w][i] == v]
            incoming.append(colors[0] if colors else None)
        deg = len(rot)
        for direction in (1, -1):
            order = [rot[(pos[0] + direction * s) % deg] for s in range(deg)]
            inc = [incoming[(pos[0] + direction * s) % deg] for s in range(deg)]
            sector = 0
            expected_in = {0: 2, 1: 0, 2: 1}  # after out_i, entering color
            ok = True
            for s in range(1, deg):
                w = order[s]
                if w == wood.tri_parent[v][1] and sector == 0:
                    sector = 1
                    continue
                if w == wood.tri_parent[v][2] and sector == 1:
                    sector = 2
                    continue
                if inc[s] != expected_in[sector]:
                    ok = False
                    break
            if ok and sector == 2:
                handedness.add(direction)
                break
        else:
            problems.append(f"vertex {v} violates the sector rule")
    if len(handedness) > 1:
        problems.append("mixed rotation handedness across vertices")

    # restriction: parent entries must be exactly the base-graph edges
    base = emb.base_graph()
    for v in range(n):
        for i in range(3):
            t, r = wood.tri_parent[v][i], wood.parent[v][i]
            if r is not None and (t != r or not base.adjacent(v, r)):
                problems.append(f"restricted parent {v}->{r} is wrong")
            if r is None and t is not None and base.adjacent(v, t):
                problems.append(f"restricted parent {v}->{t} missing")
    return problems


@dataclass(frozen=True)
class SplitResult:
    graph: Graph
    satellite_of: dict
    missing_root_edges: tuple[int, ...]


def split_graph(G: Graph, wood: SchnyderWood) -> SplitResult:
    """Expand each vertex into per-color satellites along the tree edges.

    For every vertex s and color i, a satellite s_i exists iff s has an
    incoming color-i edge.  Tree edge (u -> v) of color i is rerouted to run
    from u's two other-color satellites into v_i; each color's root edge
    (r_{i-1} -> r_i) instead attaches those satellites directly to r_i, and
    colors whose root edge is not a base edge are reported, not added.
    """
    n = G.n
    has_incoming = [[False] * 3 for _ in range(n)]
    for v in range(n):
        for i in range(3):
            p = wood.parent[v][i]
            if p is not None:
                has_incoming[p][i] = True
    ids = {}
    counter = n
    for s in range(n):
        for i in range(3):
            if has_incoming[s][i]:
                ids[(s, i)] = counter
                counter += 1
    edges = set()

    def add(a, b):
        if a != b:
            edges.add((min(a, b), max(a, b)))

    for s in range(n):
        for i in range(3):
            if has_incoming[s][i]:
                add(ids[(s, i)], s)
    r = wood.roots
    root_edge = {i: (r[(i - 1) % 3], r[i]) for i in range(3)}
    missing = []
    for u in range(n):
        for i in range(3):
            v = wood.parent[u][i]
            if v is None:
                continue
            if (u, v) == root_edge[i]:
                continue  # handled below
            for j in ((i - 1) % 3, (i + 1) % 3):
                if (u, j) in ids:
                    add(ids[(u, j)], ids[(v, i)])
    for i in range(3):
        u, v = root_edge[i]
        if not G.adjacent(u, v) or wood.parent[u][i] != v:
            missing.append(i)
            continue
        for j in ((i - 1) % 3, (i + 1) % 3):
            if (u, j) in ids:
                add(ids[(u, j)], v)
    return SplitResult(Graph(max(counter, 1), sorted(edges)), ids, tuple(missing))


@dataclass(frozen=True)
class ClosureResult:
    per_color: tuple[Graph, Graph, Graph]
    union: Graph


def head_to_head_closure(G: Graph, wood: SchnyderWood) -> ClosureResult:
    """Edges between pairs of out-neighbors, per color-deleted subgraph.

    Removing color i leaves each vertex with at most two outgoing edges
    (its other-color parents); whenever both exist, their heads become
    adjacent in the color-i closure.  The union contains every pair joined
    by a length-2 path whose middle vertex has two outgoing base edges.
    """
    n = G.n
    per = []
    union = set()
    for i in range(3):
        edges = set()
        for w in range(n):
            a = wood.parent[w][(i + 1) % 3]
            b = wood.parent[w][(i + 2) % 3]
            if a is not None and b is not None and a != b:
                edges.add((min(a, b), max(a, b)))
        per.append(Graph(n, sorted(edges)))
        union |= edges
    return ClosureResult(tuple(per), Graph(n, sorted(union)))
