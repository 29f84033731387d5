"""Exact distance sketches on trees, up to a threshold k.

Each vertex sends the random colors of an ancestor window: itself and its
k1 nearest ancestors, where k1 = (extended depth mod k) + k.  The extended
depth adds a virtual chain of 2k sentinel ancestors above the root (with
fixed colors), so every vertex has a full window and the window end always
sits exactly one k-band below a band boundary.

The referee aligns the two windows at every offset compatible with the
senders' band residues and takes the smallest candidate distance whose
aligned color runs agree.  A true meeting point always matches, so the
sketch never overestimates; rare color coincidences can underestimate,
which is why this one is *not* one-sided.
"""

from __future__ import annotations

import math

from ..bits import Bits
from ..errors import InputError
from ..graphs import Graph, bfs_from, graph_from_json, graph_to_json
from .base import (
    Rule,
    SmpProtocol,
    Verdict,
    as_fraction,
    beyond_verdict,
    distance_verdict,
    eps_from_json,
    eps_to_json,
    field_width,
    fields_of,
    int_params,
)


class TreeKDistance(SmpProtocol):
    name = "tree-distance"
    one_sided = False

    def __init__(self, tree: Graph, k: int, eps, root: int = 0):
        if k < 1:
            raise InputError("distance threshold must be at least 1")
        if tree.edge_count() != tree.n - 1:
            raise InputError("input graph is not a tree")
        if type(root) is not int or not 0 <= root < tree.n:
            raise InputError(f"root {root!r} is not a vertex")
        dist_from_root = bfs_from(tree, root)
        if any(d == math.inf for d in dist_from_root):
            raise InputError("input graph is not connected")
        self.tree = tree
        self.k = k
        self.eps = as_fraction(eps)
        self.root = root
        self.m = math.ceil(6 / self.eps)
        self.pad = self.m
        self.res_width, self.color_width = window_widths(k, self.m)
        self.depth = [int(d) for d in dist_from_root]
        self.parent = [None] * tree.n
        for v in sorted(range(tree.n), key=lambda u: self.depth[u]):
            for u in tree.neighbors(v):
                if self.depth[u] == self.depth[v] - 1:
                    self.parent[v] = u
        self._plans = {}  # vertex -> (header, 2k slots); see _plan

    def params(self):
        return {"name": self.name, "k": self.k, "eps": eps_to_json(self.eps),
                "n": self.tree.n, "root": self.root, "m": self.m}

    @property
    def cost_bits(self):
        return 2 + self.res_width + 2 * self.k * self.color_width

    def to_payload(self):
        return {"graph": graph_to_json(self.tree)}

    @classmethod
    def from_payload(cls, params, payload):
        return cls(graph_from_json(payload.get("graph")), *int_params(params, k=1),
                   eps_from_json(params.get("eps")), params.get("root", 0))

    # -- ancestor window ---------------------------------------------------
    def _window_vertices(self, v):
        """Ancestors 0..k1 above v: real vertices, then virtual heights."""
        ext = self.depth[v] + 2 * self.k
        k1 = ext % self.k + self.k
        out = []
        u = v
        for j in range(k1 + 1):
            if j <= self.depth[v]:
                out.append(("real", u))
                u = self.parent[u]
            else:
                out.append(("virtual", j - self.depth[v]))
        return ext, k1, out

    def _plan(self, v):
        """v's header value (band mod 3, residue) and its 2k color slots.

        A slot is a draw label for a real ancestor, or the fixed color of a
        virtual height or of padding.
        """
        plan = self._plans.get(v)
        if plan is None:
            ext, _, window = self._window_vertices(v)
            header = (ext // self.k % 3) << self.res_width | ext % self.k
            slots = [("c", u) if kind == "real" else u % self.m  # sentinel color by height
                     for kind, u in window]
            slots += [self.pad] * (2 * self.k - len(slots))
            plan = self._plans[v] = (header, tuple(slots))
        return plan

    def encode(self, v, rnd):
        value, slots = self._plan(v)
        width, m = self.color_width, self.m
        for slot in slots:
            color = rnd.integer(slot, m) if type(slot) is tuple else slot
            value = value << width | color
        return Bits(value, self.cost_bits)

    @classmethod
    def rule_from_params(cls, params, rnd=None):
        k, m = int_params(params, k=1, m=1)
        return window_rule(k, *window_widths(k, m))

    def referee(self, ma, mb, rnd=None) -> Verdict:
        return window_scan_referee(ma, mb, self.k, self.res_width, self.color_width)

    def true_distance(self, x, y):
        d = 0
        while self.depth[x] > self.depth[y]:
            x = self.parent[x]
            d += 1
        while self.depth[y] > self.depth[x]:
            y = self.parent[y]
            d += 1
        while x != y:
            x, y = self.parent[x], self.parent[y]
            d += 2
        return d

    def expected(self, x, y):
        d = self.true_distance(x, y)
        return distance_verdict(d) if d <= self.k else beyond_verdict(self.k)


def window_widths(k: int, m: int) -> tuple[int, int]:
    """Widths of the residue field and of one color field."""
    return field_width(k), field_width(m + 1)  # colors and the pad m


def window_rule(k: int, res_width: int, color_width: int) -> Rule:
    """Smallest distance at which the two ancestor windows can meet.

    A message is (band mod 3, residue, 2k colors); a residue above k - 1
    is clamped.  The senders' band residues fix the depth offset up to one
    of three cases (same band, or either side one band deeper); under that
    alignment the candidate meeting points are the positions whose color
    suffixes agree, and the nearest is where the common suffix begins.
    """
    colors_bits = 2 * k * color_width
    res_mask = (1 << res_width) - 1

    def unpack(value):
        band3 = value >> (res_width + colors_bits) & 3
        res = min(value >> colors_bits & res_mask, k - 1)
        return band3, res, fields_of(value, 2 * k, color_width)

    beyond = beyond_verdict(k)
    within = {}  # distance -> verdict, made as distances first occur

    def decide(a, b):
        ta, ra, ca = a
        tb, rb, cb = b
        k1a, k1b = ra + k, rb + k
        delta = (ta - tb) % 3
        if delta == 0:
            off = ra - rb
        elif delta == 1:
            off = k + ra - rb
        else:
            off = ra - rb - k
        # window b position j faces window a position j + off; a meeting
        # point at j needs both color runs to agree from j to the end, so
        # the nearest one starts the longest common aligned suffix
        lo = -off if off < 0 else 0
        hi = k1b if k1b < k1a - off else k1a - off
        j = hi + 1
        while j > lo and ca[j - 1 + off] == cb[j - 1]:
            j -= 1
        d = 2 * j + off
        if j > hi or d > k:
            return beyond
        verdict = within.get(d)
        if verdict is None:
            verdict = within[d] = distance_verdict(d)
        return verdict

    return Rule(2 + res_width + colors_bits, unpack, decide)


def window_scan_referee(ma: Bits, mb: Bits, k: int, res_width: int,
                        color_width: int) -> Verdict:
    """``window_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return window_rule(k, res_width, color_width)(ma, mb)
