"""Adjacency sketch for graphs with a bounded-outdegree orientation.

Orient the edges so every vertex has at most D parents (a degeneracy
orientation does this with D = degeneracy).  Each vertex sends its own
random color plus the colors of its parents; the senders are adjacent iff
one of them lists the other's color.  Missing parent slots repeat the
sender's own color so the width is fixed at (1 + D) color fields.

Equal messages are accepted outright, which serves x = y on reflexive
graphs: adjacency instances are expected to carry all self-loops.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..bits import Bits
from ..errors import InputError
from ..graphs import Graph, Orientation, degeneracy_orientation
from .base import (
    ACCEPT,
    REJECT,
    RULE_CACHE_SIZE,
    WIDTH_CAP,
    AllPairs,
    PlannedProtocol,
    Rule,
    as_fraction,
    eps_to_json,
    field_width,
    fields_of,
    int_params,
)


class ArboricityAdjacency(PlannedProtocol):
    name = "sparse-adjacency"
    one_sided = True

    def __init__(self, G: Graph, eps, orientation: Orientation | None = None):
        self.graph = G
        self.eps = as_fraction(eps)
        if orientation is None:
            orientation = degeneracy_orientation(G)
        if not all(len(p) <= orientation.max_outdegree for p in orientation.parents):
            raise InputError("orientation outdegree exceeds its declared bound")
        self.orientation = orientation
        self.outdeg = orientation.max_outdegree
        self.m = math.ceil(2 * max(1, self.outdeg) / self.eps)
        self.color_width = field_width(self.m)
        self.field_widths = (self.color_width,) * (1 + self.outdeg)

    def params(self):
        return {"name": self.name, "eps": eps_to_json(self.eps),
                "n": self.graph.n, "outdegree": self.outdeg, "m": self.m}

    def message_fields(self, v):
        """The colors of v, of its parents, then of v again in each empty
        parent slot."""
        parents = self.orientation.parents[v]
        return [(("c", u), self.m) for u in (v, *parents, *(v,) * (self.outdeg - len(parents)))]

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        outdegree, m = int_params(params, outdegree=0, m=1)
        return color_slots_rule(1 + outdegree, field_width(m))

    def referee(self, ma, mb, rnd=None):
        return color_slots_referee(ma, mb, 1 + self.outdeg, self.color_width)

    def expected(self, x, y):
        return ACCEPT if self.graph.adjacent(x, y) else REJECT


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def color_slots_rule(slots: int, color_width: int) -> Rule:
    """Accept iff the messages agree or either lists the other's own color.
    The all-pairs form compares slot arrays (equal slots are equal
    messages); colors wider than 64 bits keep the ``decide`` loop."""
    cut = fields_of(slots, color_width)

    def unpack(value):
        return value, cut(value)

    def decide(fa, fb):
        va, a = fa
        vb, b = fb
        if va == vb or a[0] in b[1:] or b[0] in a[1:]:
            return ACCEPT
        return REJECT

    def decide_all(table, left, right):
        a, b = table.take(left, axis=1), table.take(right, axis=1)
        accept = ((a == b).all(axis=0) | (a[:1] == b[1:]).any(axis=0)
                  | (b[:1] == a[1:]).any(axis=0))
        return (~accept).view(np.int8)

    width = slots * color_width
    if color_width > 64 or width > WIDTH_CAP:  # wide colors, or a rule no message fits
        return Rule(width, unpack, decide)
    return Rule(width, unpack, decide,
                AllPairs((ACCEPT, REJECT), (color_width,) * slots, decide_all))


def color_slots_referee(ma: Bits, mb: Bits, slots: int, color_width: int):
    """``color_slots_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return color_slots_rule(slots, color_width)(ma, mb)
