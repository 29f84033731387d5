"""A deliberately tiny equality sketch with distinct sender roles.

Each side sends some number of shared hash bits of its input; the referee
compares the overlapping rounds.  It exists to exercise the symmetrization
wrapper and the exact error enumerator on something with a closed-form
answer: for x != y the false-accept probability is exactly 2^-min(rounds).
"""

from __future__ import annotations

from ..bits import Bits
from ..errors import InputError
from .base import ACCEPT, REJECT, Rule, SmpProtocol


class EqualitySketch(SmpProtocol):
    name = "equality-hash"
    one_sided = True

    def __init__(self, size: int, rounds_a: int = 2, rounds_b: int = 2):
        if size < 1 or rounds_a < 1 or rounds_b < 1:
            raise InputError("size and round counts must be positive")
        self.size = size
        self.rounds_a = rounds_a
        self.rounds_b = rounds_b

    def params(self):
        return {
            "name": self.name,
            "size": self.size,
            "rounds_a": self.rounds_a,
            "rounds_b": self.rounds_b,
        }

    @property
    def cost_bits(self):
        raise InputError("role-split protocol: use cost_bits_a / cost_bits_b")

    @property
    def cost_bits_a(self):
        return self.rounds_a

    @property
    def cost_bits_b(self):
        return self.rounds_b

    def _hash_bits(self, v, rounds, rnd):
        bits = [rnd.integer(("h", t, v), 2) for t in range(rounds)]
        return Bits.pack(bits, 1)

    def encode_a(self, v, rnd):
        self._check(v)
        return self._hash_bits(v, self.rounds_a, rnd)

    def encode_b(self, v, rnd):
        self._check(v)
        return self._hash_bits(v, self.rounds_b, rnd)

    def rule(self, rnd=None):
        """Accept iff the first min(rounds) bits of the two messages agree."""
        overlap = min(self.rounds_a, self.rounds_b)
        shift_a, shift_b = self.rounds_a - overlap, self.rounds_b - overlap
        return Rule(self.rounds_a, int,
                    lambda a, b: ACCEPT if a >> shift_a == b >> shift_b else REJECT,
                    self.rounds_b)

    def expected(self, x, y):
        return ACCEPT if x == y else REJECT

    def _check(self, v):
        if not 0 <= v < self.size:
            raise InputError(f"input {v} outside [0, {self.size})")
