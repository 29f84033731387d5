"""Shared randomness for simultaneous-message protocols.

Both encoders and (in the seed-visible model) the referee must derive the
same random values without talking to each other.  Values are therefore
keyed by ``(seed, label)``: any party holding the seed can reproduce the
draw for a label such as ``("color", 17)``.  Draws are backed by BLAKE2b,
so they are deterministic across platforms and independent of call order.

A draw hashes the label's canonical bytes (``_canon``) under the seed as
BLAKE2b key.  ``integer`` draws one label; ``integers(tag, count, n)`` draws
the indexed family ``(tag, 0) ... (tag, count - 1)`` in one call, which is
how a seed-reading referee builds its whole table of vectors or buckets.  A
tag may also be a flat tuple of ints and strings, a prefix: ``("idx", 2)``
draws ``("idx", 2, 0) ... ("idx", 2, count - 1)``.  ``indexed_draws`` draws
any index set of a family, each label once, which is how ``encode_all``
reads every label a whole universe needs under one seed.  ``draw_plan``
draws a ``DrawPlan``: labels fixed ahead of time, each once, stored with
their cardinalities and canonical bytes (``plan_reads`` builds one from a
message's reads), which is how a planned protocol draws one message.
``HashRandomness`` keys one hash state per seed and copies it for each
draw, so the key block is compressed once; the bytes of flat labels such as
``("s", 17)``, and of whole indexed families, are memoized in bounded
module-level tables, and a plan carries its own.  These are shortcuts to the
same digests: the stream is unchanged, ``integers`` and ``draw_plan`` return
exactly the ``integer`` loop's values, and ``tests/test_rng.py`` pins them
with known-answer vectors.

``derive_seed`` derives a stream seed from a master seed and a label path
by the same keyed hash; ``derive_seeds`` derives the seeds of one path
prefix followed by 0, 1, 2, ..., canonicalizing the prefix once.

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
from typing import NamedTuple

from .errors import CapacityError, InputError


def _canon(label) -> bytes:
    """Stable byte encoding of a label (nested tuples of ints/strings)."""
    if isinstance(label, tuple):
        return b"(" + b",".join(_canon(x) for x in label) + b")"
    if isinstance(label, (int, str)):
        return repr(label).encode()
    raise InputError(f"label parts must be ints or strings, got {type(label)!r}")


# label -> _canon(label), for flat tuples of exact ints and strings only.  A
# hit counts only when the asked label's parts are exact ints and strings
# too, because ("s", 1), ("s", True) and ("s", 1.0) are equal keys with other
# bytes.  The bytes are a function of the label alone, so one table serves
# every seed and caller; it is emptied when full.
_LABEL_BYTES: dict = {}
_LABEL_BYTES_CAP = 4096
_EXACT_PARTS = frozenset((int, str))


def _label_bytes(label) -> bytes:
    """``_canon(label)``, memoized for flat tuples of exact ints and strings."""
    try:
        hit = _LABEL_BYTES.get(label)
    except TypeError:  # an unhashable part, which _canon rejects
        return _canon(label)
    if hit is not None and _EXACT_PARTS.issuperset(map(type, label)):
        return hit
    data = _canon(label)
    if type(label) is tuple and _EXACT_PARTS.issuperset(map(type, label)):
        if len(_LABEL_BYTES) >= _LABEL_BYTES_CAP:
            _LABEL_BYTES.clear()
        _LABEL_BYTES[label] = data
    return data


# (type(tag), tag, count), or for a prefix tag (the types of its parts,
# tag, count) -> the bytes _canon((*prefix, i)) for i < count.  The types
# are part of the key because True == 1 while their bytes differ.  At most
# _INDEXED_BYTES_CAP families are kept, each of at most _LABEL_BYTES_CAP
# labels; the table is emptied when full.
_INDEXED_BYTES: dict = {}
_INDEXED_BYTES_CAP = 32


def _prefix(tag) -> tuple:
    """A family's label prefix: the tag's parts, or the one int or string tag."""
    return tag if isinstance(tag, tuple) else (tag,)


def _check_family(tag, n: int) -> None:
    """What every ``integers`` checks first, even when count == 0 or n == 1."""
    if not isinstance(tag, (int, str)) and not (
            isinstance(tag, tuple) and all(isinstance(part, (int, str)) for part in tag)):
        raise InputError(f"draw tag must be an int, a string or a flat tuple of them, "
                         f"got {tag!r}")
    if n <= 0:
        raise InputError("draw cardinality must be positive")


def _indexed_bytes(tag, count: int) -> tuple[bytes, ...]:
    """``_canon((*prefix, i))`` for i < count, memoized for small families."""
    key = (tuple(map(type, tag)) if isinstance(tag, tuple) else type(tag), tag, count)
    hit = _INDEXED_BYTES.get(key)
    if hit is None:
        prefix = _prefix(tag)
        hit = tuple(_canon((*prefix, i)) for i in range(count))
        if count <= _LABEL_BYTES_CAP:
            if len(_INDEXED_BYTES) >= _INDEXED_BYTES_CAP:
                _INDEXED_BYTES.clear()
            _INDEXED_BYTES[key] = hit
    return hit


class DrawPlan(NamedTuple):
    """Labels drawn together by ``draw_plan``, each once: its cardinality,
    and its ``_label_bytes``, the bytes the keyed hash reads."""

    labels: tuple
    cards: tuple[int, ...]
    data: tuple[bytes, ...]


def plan_reads(reads) -> tuple[DrawPlan, list[int]]:
    """The draw plan of (label, cardinality) reads, each label once at its
    first read, and the index into it of each read's draw.

    Labels are told apart by their bytes, as the hash tells them apart, so
    ``("c", True)`` and ``("c", 1)`` are two draws.  A malformed label, a
    cardinality below 1, or a label read at two cardinalities raises
    ``InputError``.
    """
    at, labels, cards, data, index = {}, [], [], [], []
    for label, n in reads:
        key = _label_bytes(label)
        i = at.get(key)
        if i is None:
            if n <= 0:
                raise InputError("draw cardinality must be positive")
            i = at[key] = len(labels)
            labels.append(label)
            cards.append(n)
            data.append(key)
        elif cards[i] != n:
            raise InputError(f"draw {label!r} read with two cardinalities")
        index.append(i)
    return DrawPlan(tuple(labels), tuple(cards), tuple(data)), index


class SharedRandomness:
    """Interface: uniform draws addressed by label."""

    def integer(self, label, n: int) -> int:
        raise NotImplementedError

    def integers(self, tag, count: int, n: int) -> list[int]:
        """The draws of ``(tag, 0) ... (tag, count - 1)``, each in range(n).

        The tag is one int or string, or a flat tuple of them that prefixes
        each label: ``(*tag, i)``.  This loop over ``integer`` is the
        reference; a subclass may draw faster but must return the same
        values and raise the same errors.
        """
        _check_family(tag, n)
        prefix = _prefix(tag)
        return [self.integer((*prefix, i), n) for i in range(count)]

    def draw_plan(self, plan: DrawPlan) -> list[int]:
        """The draws of ``plan.labels`` at ``plan.cards``, in order.

        This loop over ``integer`` is the reference; a subclass may draw
        faster from ``plan.data`` but must return the same values.
        """
        return [self.integer(label, n) for label, n in zip(plan.labels, plan.cards)]


class HashRandomness(SharedRandomness):
    """Pseudorandom draws keyed by (seed, label).

    The 128-bit digest makes the modulo bias below 2**-90 for any draw
    cardinality used here; we treat the draws as exactly uniform.
    ``integers`` hashes the label bytes of its family, prefix tags
    included, from a bounded table keyed on the prefix and its part types;
    ``draw_plan`` hashes the bytes its plan carries.
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

    def draw_plan(self, plan: DrawPlan) -> list[int]:
        copy = self._keyed.copy
        from_bytes = int.from_bytes
        out = []
        for data, n in zip(plan.data, plan.cards):
            if n > 1:
                h = copy()
                h.update(data)
                out.append(from_bytes(h.digest(), "big") % n)
            elif n == 1:
                out.append(0)
            else:
                raise InputError("draw cardinality must be positive")
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


def indexed_draws(rnd: SharedRandomness, tag, ids, n: int) -> dict[int, int]:
    """The draw of each label ``(*prefix, i)``, i in ids, keyed by i.

    ``tag`` is a family tag as ``integers`` takes it, and ids are
    nonnegative ints.  Each label is drawn once: by one ``integers`` call
    when ids are 0 ... len - 1, and by one ``integer`` call each otherwise,
    so no label outside ids is read.
    """
    ids = sorted(set(ids))
    if not ids or ids[0] == 0 and ids[-1] == len(ids) - 1:
        return dict(enumerate(rnd.integers(tag, len(ids), n)))
    _check_family(tag, n)
    prefix = _prefix(tag)
    return {i: rnd.integer((*prefix, i), n) for i in ids}


def derive_seed(master: int, *parts) -> int:
    """A 63-bit stream seed derived from a master seed and a label path."""
    key = int(master).to_bytes(16, "big", signed=True)
    digest = hashlib.blake2b(_canon(tuple(parts)), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def derive_seeds(master: int, prefix: tuple, count: int):
    """``derive_seed(master, *prefix, t)`` for t in range(count), lazily.

    The prefix is canonicalized and the keyed state fed its bytes once, up
    front (so a bad part raises here); each seed hashes a copy of that state
    fed only ``repr(t)`` and the closing bracket.
    """
    prefix = tuple(prefix)
    head = _canon(prefix)[:-1] + (b"," if prefix else b"")
    state = hashlib.blake2b(head, key=int(master).to_bytes(16, "big", signed=True),
                            digest_size=8)

    def seeds():
        copy, from_bytes = state.copy, int.from_bytes
        for t in range(count):
            h = copy()
            h.update(b"%d)" % t)
            yield from_bytes(h.digest(), "big") >> 1

    return seeds()


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

