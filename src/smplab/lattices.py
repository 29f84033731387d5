"""Finite posets and lattices, with the structure theory the distance
sketches rely on.

A lattice is stored as its cover relation plus per-element downset bitmasks;
meets and joins are resolved by intersecting downsets and looking the result
up in a mask -> element table, which doubles as the "is this a lattice"
validation (a missing mask names a witness pair with no greatest lower
bound).

For distributive lattices, ``birkhoff`` maps every element to the set of
join-irreducibles below it.  The verification run by ``birkhoff`` (the map
is a bijection onto the ideals of the irreducible subposet and an order
isomorphism) is a complete distributivity certificate, so it serves as the
precondition check as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    InputError,
    NotALatticeError,
    PreconditionError,
    VerificationError,
)
from .graphs import Graph

CLASSIFY_CAP = 500  # largest lattice for which dense meet/join tables are built
DOWNSET_BASE_CAP = 14

DISTRIBUTIVE = "distributive"
MODULAR = "modular-not-distributive"
NEITHER = "neither"


class Poset:
    """A finite poset given by its cover relation (transitive reduction)."""

    __slots__ = ("n", "covers", "_down", "_up")

    def __init__(self, n: int, covers):
        if not isinstance(n, int) or n < 0:
            raise InputError("element count must be a nonnegative integer")
        self.n = n
        seen = set()
        for c in covers:
            a, b = c
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"cover {c} out of range")
            if a == b:
                raise InputError(f"cover {c} is reflexive")
            if (a, b) in seen:
                raise InputError(f"duplicate cover {c}")
            seen.add((a, b))
        self.covers = tuple(sorted(seen))
        self._down = None
        self._up = None
        self._validate()

    def _validate(self):
        down = self.down_masks()  # raises on cycles
        lower = [[] for _ in range(self.n)]
        for a, b in self.covers:
            lower[b].append(a)
        for b in range(self.n):
            for a in lower[b]:
                # a -< b must not be implied by a path through another cover
                for c in lower[b]:
                    if c != a and down[c] >> a & 1:
                        raise InputError(
                            f"cover ({a}, {b}) is implied by ({c}, {b}); "
                            "covers must form a transitive reduction"
                        )

    def down_masks(self) -> list[int]:
        """down[x] = bitmask of {y : y <= x} (reflexive)."""
        if self._down is None:
            self._down = _closure(self.n, self.covers)
        return self._down

    def up_masks(self) -> list[int]:
        """up[x] = bitmask of {y : x <= y} (reflexive)."""
        if self._up is None:
            self._up = _closure(self.n, [(b, a) for a, b in self.covers])
        return self._up

    def leq(self, x: int, y: int) -> bool:
        return bool(self.down_masks()[y] >> x & 1)

    def _key(self):
        return (self.n, self.covers)

    def __eq__(self, other):
        return isinstance(other, Poset) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"


def _closure(n: int, arcs) -> list[int]:
    """Reflexive reach masks over ``arcs`` (pairs (a, b) read a -> b):
    bit y of out[x] is set when y == x or a path runs from y to x.

    Kahn order, so each arc is relaxed once, after every arc into its tail;
    raises ``InputError`` when the arcs contain a cycle.
    """
    indeg = [0] * n
    heads = [[] for _ in range(n)]
    for a, b in arcs:
        indeg[b] += 1
        heads[a].append(b)
    out = [1 << x for x in range(n)]
    order = [x for x in range(n) if indeg[x] == 0]
    for x in order:  # grows as in-degrees reach zero
        for b in heads[x]:
            out[b] |= out[x]
            indeg[b] -= 1
            if indeg[b] == 0:
                order.append(b)
    if len(order) != n:
        raise InputError("cover relation contains a cycle")
    return out


def cover_reduction(down: list[int]) -> list[tuple[int, int]]:
    """The covers of the order whose reflexive downset masks are ``down``.

    ``down`` must be transitively closed (bit a of down[b] set implies
    down[a] within down[b]).  Returns every (a, b) with a strictly below b
    and nothing strictly between, grouped by b and ascending in a.
    """
    covers = []
    for b, mask in enumerate(down):
        lower = [a for a in range(len(down)) if a != b and mask >> a & 1]
        implied = 0  # everything strictly below some strict lower of b
        for a in lower:
            implied |= down[a] & ~(1 << a)
        covers += [(a, b) for a in lower if not implied >> a & 1]
    return covers


def chain_poset(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain_poset(n: int) -> Poset:
    return Poset(n, [])


def cover_graph(P: Poset) -> Graph:
    """The undirected cover (Hasse) graph."""
    if P.n == 0:
        raise InputError("cover graph of an empty poset")
    return Graph(P.n, [tuple(c) for c in P.covers])


def poset_to_json(P: Poset) -> dict:
    return {"n": P.n, "covers": [list(c) for c in P.covers]}


def poset_from_json(data: dict) -> Poset:
    if not isinstance(data, dict):
        raise InputError("poset document must be an object")
    try:
        n, covers = data["n"], data["covers"]
    except KeyError as e:
        raise InputError(f"poset document missing field {e}") from None
    if isinstance(n, int) and n > 1 << DOWNSET_BASE_CAP:  # the largest lattice generated
        raise CapacityError(f"poset documents are capped at {1 << DOWNSET_BASE_CAP} elements")
    if not isinstance(covers, list):
        raise InputError("poset covers must be a list of element pairs")
    for c in covers:
        if not (isinstance(c, (list, tuple)) and len(c) == 2
                and all(type(x) is int for x in c)):
            raise InputError(f"malformed cover entry {c!r}")
    return Poset(n, [tuple(c) for c in covers])


def enumerate_ideals(P: Poset, cap: int | None = None) -> list[int]:
    """All downward-closed subsets as bitmasks, sorted by (size, value).

    Breadth-first over single-element additions, so the work is
    O(#ideals * n^2) rather than 2^n.
    """
    down = P.down_masks()
    strict = [down[x] & ~(1 << x) for x in range(P.n)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for S in frontier:
            for x in range(P.n):
                if S >> x & 1:
                    continue
                if strict[x] & ~S:
                    continue
                T = S | 1 << x
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
                    if cap is not None and len(seen) > cap:
                        raise CapacityError(
                            f"ideal count exceeds cap {cap} for base poset of size {P.n}"
                        )
        frontier = nxt
    return sorted(seen, key=lambda m: (bin(m).count("1"), m))


class Lattice:
    """A lattice over elements 0..n-1; construct via build_lattice/downset_lattice."""

    __slots__ = (
        "poset",
        "n",
        "down",
        "up",
        "bottom",
        "top",
        "rank",
        "kind",
        "lower_semimodular",
        "upper_semimodular",
        "_meet_of_mask",
        "_join_of_mask",
        "_tables",
        "_birkhoff",
    )

    def __init__(self, poset: Poset):
        self.poset = poset
        self.n = poset.n
        self.down = poset.down_masks()
        self.up = poset.up_masks()
        self._meet_of_mask = {m: x for x, m in enumerate(self.down)}
        self._join_of_mask = {m: x for x, m in enumerate(self.up)}
        bottoms = [x for x in range(self.n) if self.down[x] == 1 << x]
        tops = [x for x in range(self.n) if self.up[x] == 1 << x]
        self.bottom = bottoms[0] if len(bottoms) == 1 else None
        self.top = tops[0] if len(tops) == 1 else None
        self.rank = self._compute_rank()
        self.kind = None
        self.lower_semimodular = None
        self.upper_semimodular = None
        self._tables = None
        self._birkhoff = None

    def _compute_rank(self):
        if self.bottom is None:
            return None
        order = sorted(range(self.n), key=lambda x: bin(self.down[x]).count("1"))
        rank = [0] * self.n
        lower = [[] for _ in range(self.n)]
        for a, b in self.poset.covers:
            lower[b].append(a)
        for x in order:
            if lower[x]:
                rank[x] = max(rank[a] for a in lower[x]) + 1
        # a rank function must increase by exactly one across every cover
        for a, b in self.poset.covers:
            if rank[b] != rank[a] + 1:
                return None
        return tuple(rank)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)

    def meet(self, x: int, y: int) -> int:
        mask = self.down[x] & self.down[y]
        try:
            return self._meet_of_mask[mask]
        except KeyError:
            raise NotALatticeError(
                f"elements {x} and {y} have no greatest lower bound", witness=(x, y)
            ) from None

    def join(self, x: int, y: int) -> int:
        mask = self.up[x] & self.up[y]
        try:
            return self._join_of_mask[mask]
        except KeyError:
            raise NotALatticeError(
                f"elements {x} and {y} have no least upper bound", witness=(x, y)
            ) from None

    def tables(self, cap: int = CLASSIFY_CAP):
        """Dense meet/join tables (int32), built once, capped by size."""
        if self._tables is None:
            n = self.n
            if n > cap:
                raise CapacityError(f"dense lattice tables capped at {cap} elements")
            meet = np.empty((n, n), dtype=np.int32)
            join = np.empty((n, n), dtype=np.int32)
            for x in range(n):
                dx, ux = self.down[x], self.up[x]
                for y in range(x, n):
                    m = self._meet_of_mask.get(dx & self.down[y])
                    j = self._join_of_mask.get(ux & self.up[y])
                    if m is None or j is None:
                        raise NotALatticeError(
                            f"elements {x} and {y} lack a meet or join", witness=(x, y)
                        )
                    meet[x, y] = meet[y, x] = m
                    join[x, y] = join[y, x] = j
            self._tables = (meet, join)
        return self._tables

    def __repr__(self):
        return f"Lattice(n={self.n}, kind={self.kind})"


def build_lattice(P: Poset, validate: bool = True) -> Lattice:
    """Wrap a poset as a lattice, checking every pair has a meet and a join."""
    if P.n == 0:
        raise InputError("a lattice needs at least one element")
    L = Lattice(P)
    if L.bottom is None or L.top is None:
        raise NotALatticeError("poset lacks a unique bottom or top")
    if validate:
        down, up = L.down, L.up
        meet_of, join_of = L._meet_of_mask, L._join_of_mask
        for x in range(P.n):
            dx, ux = down[x], up[x]
            for y in range(x + 1, P.n):
                if dx & down[y] not in meet_of:
                    raise NotALatticeError(
                        f"no greatest lower bound for ({x}, {y})", witness=(x, y)
                    )
                if ux & up[y] not in join_of:
                    raise NotALatticeError(
                        f"no least upper bound for ({x}, {y})", witness=(x, y)
                    )
    return L


def classify(L: Lattice, cap: int = CLASSIFY_CAP) -> str:
    """Exhaustively sort a lattice into distributive / modular / neither.

    Distributivity is the triple law meet(x, join(y,z)) == join(meet(x,y),
    meet(x,z)); modularity is equivalent (in finite lattices) to being both
    upper and lower cover-semimodular, which checks in O(n^2).
    """
    if L.kind is not None and L.lower_semimodular is not None:
        return L.kind
    meet, join = L.tables(cap)
    n = L.n
    covers = np.zeros((n, n), dtype=bool)
    for a, b in L.poset.covers:
        covers[a, b] = True
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    prem_up = covers[meet, rows] & covers[meet, cols]
    conc_up = covers[rows, join] & covers[cols, join]
    upper = bool(np.all(~prem_up | conc_up))
    prem_lo = covers[rows, join] & covers[cols, join]
    conc_lo = covers[meet, rows] & covers[meet, cols]
    lower = bool(np.all(~prem_lo | conc_lo))
    L.upper_semimodular = upper
    L.lower_semimodular = lower

    distributive = True
    for x in range(n):
        lhs = meet[x][join]  # [y,z] -> meet(x, join(y,z))
        mrow = meet[x]
        rhs = join[mrow[:, None], mrow[None, :]]
        if not np.array_equal(lhs, rhs):
            distributive = False
            break
    if distributive:
        L.kind = DISTRIBUTIVE
        if not (upper and lower):
            raise VerificationError("distributive lattice failed semimodularity")
    elif upper and lower:
        L.kind = MODULAR
    else:
        L.kind = NEITHER
    return L.kind


def _check_lower_semimodular(L: Lattice) -> bool:
    if L.lower_semimodular is None:
        n = L.n
        cov_up = [set() for _ in range(n)]
        for a, b in L.poset.covers:
            cov_up[a].add(b)
        ok = True
        for x in range(n):
            for y in range(x + 1, n):
                j = L.join(x, y)
                if j in cov_up[x] and j in cov_up[y]:
                    m = L.meet(x, y)
                    if x not in cov_up[m] or y not in cov_up[m]:
                        ok = False
                        break
            if not ok:
                break
        L.lower_semimodular = ok
    return L.lower_semimodular


@dataclass(frozen=True)
class BirkhoffRep:
    """Every element as the set of join-irreducibles below it.

    ``downsets[x]`` is a bitmask over ``irreducibles`` (lattice element ids
    in ascending order); ``element_of`` inverts it.  Meets and joins of the
    lattice correspond to intersection and union of the masks.
    """

    irreducible_poset: Poset
    irreducibles: tuple[int, ...]
    downsets: tuple[int, ...]
    element_of: dict

    @property
    def width(self) -> int:
        return len(self.irreducibles)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the indices of the irreducibles below it, ascending."""
        return tuple(
            tuple(j for j in range(self.width) if mask >> j & 1)
            for mask in self.downsets
        )


def birkhoff(L: Lattice) -> BirkhoffRep:
    """Compute and fully verify the irreducible-set representation.

    The verification (distinct masks, masks = exactly the ideals of the
    irreducible subposet, order isomorphism) is a complete certificate of
    distributivity, so a lattice that is not distributive raises
    PreconditionError here no matter how it was tagged.  It also makes every
    meet the mask intersection and every join the mask union: an order
    isomorphism onto the ideals preserves meets and joins, and ideals are
    closed under both.
    """
    if L._birkhoff is not None:
        return L._birkhoff
    if L.kind not in (None, DISTRIBUTIVE):
        raise PreconditionError(f"lattice is {L.kind}, not distributive")
    n = L.n
    lower_count = [0] * n
    for a, b in L.poset.covers:
        lower_count[b] += 1
    irr = [x for x in range(n) if lower_count[x] == 1 and x != L.bottom]
    if len(irr) > 63:
        raise CapacityError("irreducible width above 63 is not supported")
    masks = [sum(1 << i for i, j in enumerate(irr) if dx >> j & 1) for dx in L.down]

    # irreducible subposet: masks[irr[i]] is the set of irreducibles below irr[i]
    jposet = Poset(len(irr), cover_reduction([masks[x] for x in irr]))

    def fail(msg):
        raise PreconditionError(f"lattice is not distributive: {msg}")

    if len(set(masks)) != n:
        fail("two elements share the same irreducible set")
    try:
        ideal_list = enumerate_ideals(jposet, cap=max(n, 1))
    except CapacityError:
        fail("irreducible subposet has more ideals than the lattice has elements")
    if len(ideal_list) != n:
        fail("irreducible ideal count does not match the element count")
    if set(ideal_list) != set(masks):
        fail("element masks are not exactly the irreducible ideals")
    # order isomorphism: x <= y iff mask(x) subseteq mask(y), vectorized
    arr = np.array(masks, dtype=np.uint64)
    subset = (arr[:, None] & ~arr[None, :]) == 0
    leq_mat = np.zeros((n, n), dtype=bool)
    nbytes = (n + 7) // 8
    for x in range(n):
        row = np.unpackbits(
            np.frombuffer(L.down[x].to_bytes(nbytes, "little"), dtype=np.uint8),
            bitorder="little",
        )[:n]
        leq_mat[:, x] = row  # y <= x
    if not np.array_equal(subset, leq_mat):
        fail("irreducible sets do not mirror the order relation")

    rep = BirkhoffRep(jposet, tuple(irr), tuple(masks), {m: x for x, m in enumerate(masks)})
    L._birkhoff = rep
    if L.kind is None:
        L.kind = DISTRIBUTIVE
    return rep


def lattice_distance(L: Lattice, x: int, y: int) -> int:
    """Cover-graph distance, computed structurally.

    Distributive lattices: symmetric difference of irreducible sets.
    Other lower-semimodular (incl. modular) lattices: the shortest path runs
    through the meet, so rank(x) + rank(y) - 2*rank(meet).
    """
    if not (0 <= x < L.n and 0 <= y < L.n):
        raise InputError("element out of range")
    kind = L.kind
    if kind is None and L.n <= CLASSIFY_CAP:
        kind = classify(L)
    if kind == DISTRIBUTIVE:
        rep = birkhoff(L)
        return bin(rep.downsets[x] ^ rep.downsets[y]).count("1")
    if not _check_lower_semimodular(L):
        raise PreconditionError(
            "distance formula needs a lower-semimodular lattice"
        )
    if L.rank is None:
        raise PreconditionError("lattice has no rank function")
    m = L.meet(x, y)
    return L.rank[x] + L.rank[y] - 2 * L.rank[m]


def downset_lattice(
    P: Poset, base_cap: int = DOWNSET_BASE_CAP, element_cap: int | None = None
) -> Lattice:
    """The lattice of downward-closed subsets of P, ordered by inclusion.

    Distributive by construction (intersections and unions of downsets are
    downsets), so pair validation is skipped; covers are the single-element
    additions.  Elements are sorted by (size, mask value).
    """
    if P.n > base_cap:
        raise CapacityError(f"downset lattice capped at base posets of {base_cap} elements")
    ideal_list = enumerate_ideals(P, cap=element_cap)
    index = {m: i for i, m in enumerate(ideal_list)}
    down = P.down_masks()
    strict = [down[x] & ~(1 << x) for x in range(P.n)]
    covers = []
    for m in ideal_list:
        src = index[m]
        for x in range(P.n):
            if not (m >> x & 1) and not (strict[x] & ~m):
                covers.append((src, index[m | 1 << x]))
    L = build_lattice(Poset(len(ideal_list), covers), validate=False)
    L.kind = DISTRIBUTIVE
    return L


def boolean_lattice(d: int) -> Lattice:
    return downset_lattice(antichain_poset(d))
