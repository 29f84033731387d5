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

import math

from ..bits import Bits
from ..errors import InputError
from ..graphs import Graph, Orientation, degeneracy_orientation, graph_from_json, graph_to_json
from .base import (
    ACCEPT,
    REJECT,
    Rule,
    SmpProtocol,
    as_fraction,
    eps_from_json,
    eps_to_json,
    field_width,
    fields_of,
    int_params,
)


class ArboricityAdjacency(SmpProtocol):
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

    def params(self):
        return {"name": self.name, "eps": eps_to_json(self.eps),
                "n": self.graph.n, "outdegree": self.outdeg, "m": self.m}

    @property
    def cost_bits(self):
        return (1 + self.outdeg) * self.color_width

    def to_payload(self):
        return {"graph": graph_to_json(self.graph),
                "parents": [list(p) for p in self.orientation.parents]}

    @classmethod
    def from_payload(cls, params, payload):
        G = graph_from_json(payload.get("graph"))
        rows = payload.get("parents")
        if not isinstance(rows, list) or len(rows) != G.n or not all(isinstance(p, list) and all(
                type(u) is int and 0 <= u < G.n for u in p) for p in rows):
            raise InputError("parents must be a list of n lists of vertex ids")
        parents = tuple(map(tuple, rows))
        orient = Orientation(parents, max(len(p) for p in parents) if parents else 0)
        return cls(G, eps_from_json(params.get("eps")), orient)

    def encode(self, v, rnd):
        own = rnd.integer(("c", v), self.m)
        slots = [rnd.integer(("c", p), self.m) for p in self.orientation.parents[v]]
        slots += [own] * (self.outdeg - len(slots))
        return Bits.pack([own] + slots, self.color_width)

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        outdegree, m = int_params(params, outdegree=0, m=1)
        return color_slots_rule(1 + outdegree, field_width(m))

    def referee(self, ma, mb, rnd=None):
        return color_slots_referee(ma, mb, self.color_width)

    def expected(self, x, y):
        return ACCEPT if self.graph.adjacent(x, y) else REJECT


def color_slots_rule(slots: int, color_width: int) -> Rule:
    """Accept iff the messages agree or either lists the other's own color."""

    def unpack(value):
        return value, fields_of(value, slots, color_width)

    def decide(fa, fb):
        va, a = fa
        vb, b = fb
        if va == vb or a[0] in b[1:] or b[0] in a[1:]:
            return ACCEPT
        return REJECT

    return Rule(slots * color_width, unpack, decide)


def color_slots_referee(ma: Bits, mb: Bits, color_width: int):
    """``color_slots_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return color_slots_rule(ma.length // color_width, color_width)(ma, mb)
