"""Fixed-length bit strings used as protocol messages and labels.

A ``Bits`` is an immutable (value, length) pair.  Fields are packed
big-endian: the first field occupies the most significant bits, so
``pack([a, b], w)`` equals ``Bits(a << w | b, 2 * w)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Bits:
    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise InputError("bit length must be nonnegative")
        if self.value < 0 or self.value >> self.length:
            raise InputError(f"value {self.value} does not fit in {self.length} bits")

    def __len__(self):
        return self.length

    def concat(self, other: "Bits") -> "Bits":
        return Bits(self.value << other.length | other.value, self.length + other.length)

    def take(self, start: int, length: int) -> "Bits":
        """Bits [start, start+length) counting from the most significant end."""
        if start < 0 or length < 0 or start + length > self.length:
            raise InputError("slice out of range")
        shift = self.length - start - length
        return Bits(self.value >> shift & ((1 << length) - 1), length)

    def blocks(self, width: int) -> list["Bits"]:
        if width <= 0 or self.length % width:
            raise InputError(f"length {self.length} is not a multiple of {width}")
        return [self.take(i * width, width) for i in range(self.length // width)]

    def unpack(self, width: int) -> list[int]:
        return [b.value for b in self.blocks(width)]

    def to_hex(self) -> str:
        nibbles = max(1, (self.length + 3) // 4)
        return format(self.value, f"0{nibbles}x")

    @classmethod
    def from_hex(cls, text: str, length: int) -> "Bits":
        return cls(int(text, 16), length)

    @classmethod
    def pack(cls, fields: list[int], width: int) -> "Bits":
        out = 0
        for f in fields:
            if f < 0 or f >> width:
                raise InputError(f"field {f} does not fit in {width} bits")
            out = out << width | f
        return cls(out, width * len(fields))


def concat_all(parts: list[Bits]) -> Bits:
    """The parts joined first to last, built and checked as one ``Bits``."""
    value = length = 0
    for p in parts:
        value = value << p.length | p.value
        length += p.length
    return Bits(value, length)
