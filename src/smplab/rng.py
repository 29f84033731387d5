"""Shared randomness for simultaneous-message protocols.

Both encoders and (in the seed-visible model) the referee must derive the
same random values without talking to each other.  Values are therefore
keyed by ``(seed, label)``: any party holding the seed can reproduce the
draw for a label such as ``("color", 17)``.  Draws are backed by BLAKE2b,
so they are deterministic across platforms and independent of call order.

A draw hashes the label's canonical bytes (``_canon``) under the seed as
BLAKE2b key.  ``integer`` draws one label; ``integers(tag, count, n)`` draws
the indexed family ``(tag, 0) ... (tag, count - 1)`` in one call, which is
how a seed-reading referee builds its whole table of vectors or buckets.
``HashRandomness`` keys one hash state per seed and copies it for each
draw, so the key block is compressed once; the bytes of flat labels such as
``("s", 17)``, and of whole indexed families, are memoized in bounded
module-level tables.  These are shortcuts to the same digests: the stream is
unchanged, ``integers`` returns exactly the ``integer`` loop's values, and
``tests/test_rng.py`` pins both with known-answer vectors.

``TableRandomness`` replaces the hash with an explicit assignment of values
to labels; exhaustive error computations enumerate all assignments of the
labels a protocol declares it may touch.  ``RecordingRandomness`` answers 0
to every draw and records each (label, cardinality) read: one encode under
it lists the labels that encoder reads, and a label the list misses is one
the table refuses.
"""

from __future__ import annotations

import hashlib
import itertools

from .errors import CapacityError, InputError


def _canon(label) -> bytes:
    """Stable byte encoding of a label (nested tuples of ints/strings)."""
    if isinstance(label, tuple):
        return b"(" + b",".join(_canon(x) for x in label) + b")"
    if isinstance(label, (int, str)):
        return repr(label).encode()
    raise InputError(f"label parts must be ints or strings, got {type(label)!r}")


# label -> (types of its parts, _canon(label)), for flat tuples of exact
# ints and strings only.  A hit must match the part types too, because
# ("s", 1), ("s", True) and ("s", 1.0) are equal keys with other bytes.
# The bytes are a function of the label alone, so one table serves every
# seed and caller; it is emptied when full.
_LABEL_BYTES: dict = {}
_LABEL_BYTES_CAP = 4096


def _label_bytes(label) -> bytes:
    """``_canon(label)``, memoized for flat tuples of exact ints and strings."""
    try:
        hit = _LABEL_BYTES.get(label)
    except TypeError:  # an unhashable part, which _canon rejects
        return _canon(label)
    if hit is not None and hit[0] == tuple(map(type, label)):
        return hit[1]
    data = _canon(label)
    if type(label) is tuple:
        types = tuple(map(type, label))
        if all(t is int or t is str for t in types):
            if len(_LABEL_BYTES) >= _LABEL_BYTES_CAP:
                _LABEL_BYTES.clear()
            _LABEL_BYTES[label] = (types, data)
    return data


# (type(tag), tag, count) -> the bytes _canon((tag, i)) for i < count.  The
# type is part of the key because True == 1 while their bytes differ.  At
# most _INDEXED_BYTES_CAP families are kept, each of at most
# _LABEL_BYTES_CAP labels; the table is emptied when full.
_INDEXED_BYTES: dict = {}
_INDEXED_BYTES_CAP = 32


def _check_family(tag, n: int) -> None:
    """What every ``integers`` checks first, even when count == 0 or n == 1."""
    if not isinstance(tag, (int, str)):
        raise InputError(f"draw tag must be an int or a string, got {type(tag)!r}")
    if n <= 0:
        raise InputError("draw cardinality must be positive")


def _indexed_bytes(tag, count: int) -> tuple[bytes, ...]:
    """``_canon((tag, i))`` for i < count, memoized for small families."""
    key = (type(tag), tag, count)
    hit = _INDEXED_BYTES.get(key)
    if hit is None:
        hit = tuple(_canon((tag, i)) for i in range(count))
        if count <= _LABEL_BYTES_CAP:
            if len(_INDEXED_BYTES) >= _INDEXED_BYTES_CAP:
                _INDEXED_BYTES.clear()
            _INDEXED_BYTES[key] = hit
    return hit


class SharedRandomness:
    """Interface: uniform draws addressed by label."""

    def integer(self, label, n: int) -> int:
        raise NotImplementedError

    def integers(self, tag, count: int, n: int) -> list[int]:
        """The draws of ``(tag, 0) ... (tag, count - 1)``, each in range(n).

        The tag is one int or string.  This loop over ``integer`` is the
        reference; a subclass may draw faster but must return the same
        values and raise the same errors.
        """
        _check_family(tag, n)
        return [self.integer((tag, i), n) for i in range(count)]


class HashRandomness(SharedRandomness):
    """Pseudorandom draws keyed by (seed, label).

    The 128-bit digest makes the modulo bias below 2**-90 for any draw
    cardinality used here; we treat the draws as exactly uniform.
    """

    def __init__(self, seed: int):
        key = int(seed).to_bytes(16, "big", signed=True)
        self._keyed = hashlib.blake2b(key=key, digest_size=16)

    def integer(self, label, n: int) -> int:
        if n <= 0:
            raise InputError("draw cardinality must be positive")
        data = _label_bytes(label)  # a malformed label raises even when n == 1
        if n == 1:
            return 0
        h = self._keyed.copy()
        h.update(data)
        return int.from_bytes(h.digest(), "big") % n

    def integers(self, tag, count: int, n: int) -> list[int]:
        _check_family(tag, n)
        labels = _indexed_bytes(tag, count)
        if n == 1:
            return [0] * len(labels)
        copy = self._keyed.copy
        from_bytes = int.from_bytes
        out = []
        for data in labels:
            h = copy()
            h.update(data)
            out.append(from_bytes(h.digest(), "big") % n)
        return out


class TableRandomness(SharedRandomness):
    """Draws read from a fixed table; unknown labels are an error.

    Raising on unknown labels keeps a protocol's declared draw support
    honest: if an encoder consumes a draw it did not declare, exhaustive
    enumeration fails loudly instead of silently under-counting.
    """

    def __init__(self, assignment: dict):
        self._assignment = assignment

    def integer(self, label, n: int) -> int:
        try:
            value = self._assignment[label]
        except KeyError:
            raise InputError(f"draw {label!r} missing from assignment") from None
        if not 0 <= value < n:
            raise InputError(f"assigned value {value} out of range for {label!r}")
        return value


class RecordingRandomness(SharedRandomness):
    """All-zero draws; ``reads`` keeps each label's one cardinality, in read order."""

    def __init__(self):
        self.reads = {}

    def integer(self, label, n: int) -> int:
        if n <= 0:
            raise InputError("draw cardinality must be positive")
        if self.reads.setdefault(label, n) != n:
            raise InputError(f"draw {label!r} read with two cardinalities")
        return 0


def derive_seed(master: int, *parts) -> int:
    """A 63-bit stream seed derived from a master seed and a label path."""
    key = int(master).to_bytes(16, "big", signed=True)
    digest = hashlib.blake2b(_canon(tuple(parts)), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def support_size(support: list[tuple]) -> int:
    total = 1
    for _, card in support:
        total *= card
    return total


def enumerate_assignments(support: list[tuple], cap: int = 1 << 24):
    """Yield every assignment of values to the labels in ``support``.

    ``support`` is a list of (label, cardinality) pairs; the product of the
    cardinalities is the size of the enumerated space and must stay under
    ``cap``.
    """
    labels = [label for label, _ in support]
    if len(set(labels)) != len(labels):
        raise InputError("duplicate labels in draw support")
    total = support_size(support)
    if total > cap:
        raise CapacityError(f"draw space of size {total} exceeds cap {cap}")
    ranges = [range(card) for _, card in support]
    for values in itertools.product(*ranges):
        yield dict(zip(labels, values))

