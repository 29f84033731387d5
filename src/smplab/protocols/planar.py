"""Distance <= 2 sketch for planar graphs via 3-tree decompositions.

The input graph rides inside a triangulation of its embedding; the
triangulation's three-color parent decomposition, restricted to real edges,
orients every edge with at most three parents per vertex.  A length-2 path
through a middle vertex then falls into one of four orientation patterns:

* out-out from an endpoint (parent's parent) - caught by comparing a color
  against the other side's grandparent slots;
* into a shared parent - caught by comparing parent slots;
* both edges out of the middle vertex - the head-to-head case.  These pairs
  form the closure graph, which is itself sparse; a second color family
  over a bounded-outdegree orientation of the closure catches them.

Identity of the full message covers distance 0 and the parent slots cover
distance 1, so the sketch accepts every pair at distance <= 2 with
certainty; each of the finitely many comparisons falsely fires with
probability 1/m against fresh colors, so the two bucket counts scale as
86/eps and 68/eps to keep the union under eps.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..bits import Bits
from ..errors import VerificationError
from ..graphs import bfs_from, degeneracy_orientation
from ..planar import (
    PlanarEmbedding,
    head_to_head_closure,
    schnyder_wood,
    triangulate,
)
from .base import (
    ACCEPT,
    REJECT,
    RULE_CACHE_SIZE,
    AllPairs,
    PlannedProtocol,
    Rule,
    as_fraction,
    eps_to_json,
    field_width,
    fields_of,
    int_params,
)

CLOSURE_SLOTS = 17


class PlanarTwoDistance(PlannedProtocol):
    name = "planar-distance-2"
    one_sided = True

    def __init__(self, emb: PlanarEmbedding, eps):
        self.embedding = emb
        self.eps = as_fraction(eps)
        self.base = emb.base_graph()
        tri = triangulate(emb)
        self.wood = schnyder_wood(tri)
        closure = head_to_head_closure(self.base, self.wood)
        self.closure_orientation = degeneracy_orientation(closure.union)
        if self.closure_orientation.max_outdegree > CLOSURE_SLOTS:
            raise VerificationError(
                "closure orientation needs more than "
                f"{CLOSURE_SLOTS} slots; embedding is not plane"
            )
        self.m1 = math.ceil(86 / self.eps)
        self.m2 = math.ceil(68 / self.eps)
        self.w1, self.w2 = two_hop_widths(self.m1, self.m2)
        self._dist_cache = {}
        self.field_widths = (self.w1,) * 13 + (self.w2,) * (1 + CLOSURE_SLOTS)

    def params(self):
        return {"name": self.name, "eps": eps_to_json(self.eps),
                "n": self.base.n, "m1": self.m1, "m2": self.m2}

    # -- slots ---------------------------------------------------------------
    def _tree_slots(self, v):
        """13 vertices-or-None: self, 3 parents, 9 grandparents."""
        parents = self.wood.parent[v]
        slots = [v] + list(parents)
        for p in parents:
            if p is None:
                slots += [None, None, None]
            else:
                slots += list(self.wood.parent[p])
        return slots

    def message_fields(self, v):
        """v's 13 tree colors, a missing parent repeating v's own and a
        missing grandparent its parent's, then its own closure color, its
        closure parents' and its own again in each empty closure slot."""
        tree = []
        for pos, u in enumerate(self._tree_slots(v)):
            if u is not None:
                tree.append((("c1", u), self.m1))
            else:
                tree.append(tree[0] if pos < 4 else tree[1 + (pos - 4) // 3])
        closure = [(("c2", u), self.m2) for u in (v, *self.closure_orientation.parents[v])]
        return tree + closure + closure[:1] * (1 + CLOSURE_SLOTS - len(closure))

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        return two_hop_rule(*two_hop_widths(*int_params(params, m1=1, m2=1)))

    def referee(self, ma, mb, rnd=None):
        return two_hop_referee(ma, mb, self.w1, self.w2)

    def distance(self, x, y):
        if x not in self._dist_cache:
            self._dist_cache[x] = bfs_from(self.base, x)
        return self._dist_cache[x][y]

    def expected(self, x, y):
        return ACCEPT if self.distance(x, y) <= 2 else REJECT


def two_hop_widths(m1: int, m2: int) -> tuple[int, int]:
    """Field widths of the two color families."""
    return field_width(m1), field_width(m2)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def two_hop_rule(w1: int, w2: int) -> Rule:
    """Accept on equal messages or on any of the four two-hop patterns.

    A message is 13 tree colors (self, 3 parents, 9 grandparents) followed
    by 1 + CLOSURE_SLOTS closure colors (self, then closure parents).  The
    all-pairs form tests the same patterns on (31, pairs) color arrays;
    colors wider than 64 bits keep the ``decide`` loop.
    """
    closure_bits = (1 + CLOSURE_SLOTS) * w2
    tree_cut = fields_of(13, w1)
    closure_cut = fields_of(1 + CLOSURE_SLOTS, w2)

    def unpack(value):
        return value, tree_cut(value >> closure_bits), closure_cut(value)

    def decide(fa, fb):
        va, a, a2 = fa
        vb, b, b2 = fb
        if va == vb:
            return ACCEPT
        # direct edge: one side is a parent of the other
        if a[0] in b[1:4] or b[0] in a[1:4]:
            return ACCEPT
        # grandparent routes: out-out paths through a middle vertex
        if a[0] in b[4:13] or b[0] in a[4:13]:
            return ACCEPT
        # shared parent: both edges point into the middle vertex
        if any(c in b[1:4] for c in a[1:4]):
            return ACCEPT
        # head-to-head: the closure color families
        if a2[0] in b2[1:] or b2[0] in a2[1:]:
            return ACCEPT
        return REJECT

    def decide_all(table, left, right):
        # fields 0-12 are the tree colors, 13 on the closure colors
        a, b = table.take(left, axis=1), table.take(right, axis=1)
        accept = ((a == b).all(axis=0)
                  | (a[:1] == b[1:13]).any(axis=0) | (b[:1] == a[1:13]).any(axis=0)
                  | (a[1:4, None] == b[None, 1:4]).any(axis=(0, 1))
                  | (a[13:14] == b[14:]).any(axis=0) | (b[13:14] == a[14:]).any(axis=0))
        return (~accept).view(np.int8)

    widths = (w1,) * 13 + (w2,) * (1 + CLOSURE_SLOTS)
    return Rule(13 * w1 + closure_bits, unpack, decide,
                AllPairs((ACCEPT, REJECT), widths, decide_all) if max(widths) <= 64 else None)


def two_hop_referee(ma: Bits, mb: Bits, w1: int, w2: int):
    """``two_hop_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return two_hop_rule(w1, w2)(ma, mb)
