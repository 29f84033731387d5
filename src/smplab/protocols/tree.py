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

import functools
import math

import numpy as np

from ..bits import Bits
from ..errors import InputError
from ..graphs import Graph, bfs_from
from .base import (
    RULE_CACHE_SIZE,
    WIDTH_CAP,
    AllPairs,
    PlannedProtocol,
    Rule,
    Verdict,
    as_fraction,
    beyond_verdict,
    distance_verdict,
    eps_to_json,
    field_width,
    fields_of,
    int_params,
)


class TreeKDistance(PlannedProtocol):
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
        self.field_widths = (2, self.res_width) + (self.color_width,) * (2 * k)

    def params(self):
        return {"name": self.name, "k": self.k, "eps": eps_to_json(self.eps),
                "n": self.tree.n, "root": self.root, "m": self.m}

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

    def message_fields(self, v):
        """Band mod 3 and residue of v's extended depth, then its window's 2k
        colors: a draw for each real ancestor, the fixed color of each
        virtual height, then the pad."""
        ext, _, window = self._window_vertices(v)
        colors = [(("c", u), self.m) if kind == "real" else u % self.m  # sentinel color by height
                  for kind, u in window]
        return [ext // self.k % 3, ext % self.k, *colors] + [self.pad] * (2 * self.k - len(colors))

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


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
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
    cut = fields_of(2 * k, color_width)

    def unpack(value):
        band3 = value >> (res_width + colors_bits) & 3
        res = min(value >> colors_bits & res_mask, k - 1)
        return band3, res, cut(value)

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

    shift = np.array([0, k, -k])  # the offset each band difference mod 3 adds

    def decide_all(table, left, right):
        # fields: band mod 3, residue (clamped here), then the 2k colors
        band, res = table[0].astype(np.intp), np.minimum(table[1].astype(np.intp), k - 1)
        ra, rb = res[left], res[right]
        off = ra - rb + shift[(band[left] - band[right]) % 3]
        lo = np.maximum(-off, 0)
        hi = np.minimum(rb + k, ra + k - off)
        # decide's suffix scan over the pairs still scanning: j steps down
        # while the colors it passes agree, at most 2k times; window
        # position q is field 2 + q, so entry (2 + q) * n + x of the table
        colors, n = table.ravel(), table.shape[1]
        j = hi + 1
        scan = np.flatnonzero(j > lo)
        while scan.size:
            at = (j[scan] + 1) * n  # the row of position j - 1
            scan = scan[colors[at + off[scan] * n + left[scan]] == colors[at + right[scan]]]
            j[scan] -= 1
            scan = scan[j[scan] > lo[scan]]
        d = 2 * j + off
        return np.where((j > hi) | (d > k), k + 1, d)

    width = 2 + res_width + colors_bits
    if color_width > 64 or width > WIDTH_CAP:  # wide colors, or a rule no message fits
        return Rule(width, unpack, decide)
    verdicts = (*map(distance_verdict, range(k + 1)), beyond)
    widths = (2, res_width) + (color_width,) * (2 * k)
    return Rule(width, unpack, decide, AllPairs(verdicts, widths, decide_all))


def window_scan_referee(ma: Bits, mb: Bits, k: int, res_width: int,
                        color_width: int) -> Verdict:
    """``window_rule`` on two messages, kept as ``bench/tracer.py``'s named hook."""
    return window_rule(k, res_width, color_width)(ma, mb)
