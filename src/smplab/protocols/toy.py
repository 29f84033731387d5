"""A deliberately tiny equality sketch.

Each party sends ``rounds`` shared hash bits of its input; the referee
accepts iff the two messages agree.  It exists to exercise the exact error
enumerator and the width checks on something with a closed-form answer: for
x != y the false-accept probability is exactly 2^-rounds.
"""

from __future__ import annotations

from ..bits import Bits
from ..errors import InputError
from .base import ACCEPT, REJECT, Rule, SmpProtocol


class EqualitySketch(SmpProtocol):
    name = "equality-hash"
    one_sided = True

    def __init__(self, size: int, rounds: int = 2):
        if size < 1 or rounds < 1:
            raise InputError("size and round count must be positive")
        self.size = size
        self.rounds = rounds

    def params(self):
        return {"name": self.name, "size": self.size, "rounds": self.rounds}

    @property
    def cost_bits(self):
        return self.rounds

    def encode(self, v, rnd):
        if not 0 <= v < self.size:
            raise InputError(f"input {v} outside [0, {self.size})")
        return Bits.pack([rnd.integer(("h", t, v), 2) for t in range(self.rounds)], 1)

    def rule(self, rnd=None):
        """Accept iff the two messages agree."""
        return Rule(self.rounds, int, lambda a, b: ACCEPT if a == b else REJECT)

    def expected(self, x, y):
        return ACCEPT if x == y else REJECT
