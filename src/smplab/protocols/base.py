"""Simultaneous-message sketches: the shared machinery.

A protocol is an encoder and a rule: ``encode`` maps an input to a
fixed-width bit message using labeled shared randomness, and both parties
send it; ``rule_from_params`` (or an overridden ``rule``) maps two message
values to a verdict.  With ``expected``, ``params`` and ``cost_bits`` that is
the contract.  ``encode_all`` encodes many inputs under one seed; its loop
over ``encode`` is the reference, and a labelable protocol overrides it to
draw each label the inputs read once and build every message from cached
per-input plans, returning the same messages and reading no label outside
their supports.  ``support`` is recorded from one encode under
``RecordingRandomness``, and ``referee`` calls the rule, the one check of
both message widths.  Most rules are *blind* (a fixed function of the
messages alone, which is what lets the messages double as vertex labels in a
fixed decision structure); others read the shared randomness
(``referee_reads_randomness = True``) and are built per seed.

``run_trials`` is the one trial loop; ``exact_error`` runs it over every
draw assignment, so small instances get exact rational error probabilities
rather than estimates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from ..bits import Bits
from ..errors import InputError
from ..rng import (
    HashRandomness,
    RecordingRandomness,
    SharedRandomness,
    TableRandomness,
    enumerate_assignments,
    support_size,
)

WIDTH_CAP = 1 << 20  # widest message or label, in bits, built from outside input
# rules kept by each blind rule builder's lru_cache; a builder's arguments
# are a few ints, so a run meets only a handful of distinct rules
RULE_CACHE_SIZE = 64


@dataclass(frozen=True)
class Verdict:
    kind: str  # "accept" | "reject" | "distance" | "beyond"
    value: int | None = None

    def sort_key(self):
        rank = {"accept": 0, "distance": 0, "reject": 1, "beyond": 1}.get(self.kind)
        if rank is None:
            raise InputError(f"unknown verdict kind {self.kind!r}")
        return (rank, self.value or 0)

    def __str__(self):
        if self.value is None:
            return self.kind
        return f"{self.kind}({self.value})"


ACCEPT = Verdict("accept")
REJECT = Verdict("reject")


def distance_verdict(d: int) -> Verdict:
    return Verdict("distance", d)


def beyond_verdict(k: int) -> Verdict:
    return Verdict("beyond", k)


def verdict_max(u: Verdict, v: Verdict) -> Verdict:
    """The more pessimistic of two verdicts (reject/larger distance wins)."""
    return max(u, v, key=Verdict.sort_key)


class Rule(NamedTuple):
    """A referee stated once, over message values (a seed-reading one for
    one seed's draws).

    ``unpack`` cuts a ``width``-bit message value into the fields the rule
    reads (``int`` keeps it whole); ``decide`` maps two such field sets to
    the verdict.  Calling the rule on two ``Bits`` is the referee itself.
    ``fields`` is the one width check: the call runs it on both messages,
    and a caller that meets a message many times runs it once and decides
    on the fields.
    """

    width: int
    unpack: Callable[[int], object]
    decide: Callable[[object, object], "Verdict"]

    def fields(self, message: Bits):
        """``unpack`` of one message, after checking its width; a message of
        another width raises ``InputError``."""
        if message.length != self.width:
            raise InputError(f"messages must be {self.width} bits, got {message.length}")
        return self.unpack(message.value)

    def __call__(self, ma: Bits, mb: Bits) -> "Verdict":
        return self.decide(self.fields(ma), self.fields(mb))


def int_params(params: dict, **least: int) -> tuple[int, ...]:
    """The named integer parameters, in order, each at least its given floor."""
    out = []
    for key, floor in least.items():
        value = params.get(key)
        if type(value) is not int or value < floor:
            raise InputError(f"parameter {key!r} must be an integer >= {floor}, got {value!r}")
        out.append(value)
    return tuple(out)


def field_width(m: int) -> int:
    """Bits of a field holding any value in range(m)."""
    return max(1, (m - 1).bit_length())


def fields_of(count: int, width: int) -> Callable[[int], tuple[int, ...]]:
    """The cutter of a value into ``count`` big-endian ``width``-bit fields,
    first field first; a rule builds it once and calls it per unpack.  The
    shifts stay a ``range``, so a huge ``count`` read from a file costs
    nothing until the rule's width check refuses it, and a field wider than
    ``WIDTH_CAP``, which no message can hold, is refused before its mask is
    built."""
    if width > WIDTH_CAP:
        raise InputError(f"{width}-bit fields exceed the {WIDTH_CAP}-bit message cap")
    mask = (1 << width) - 1
    shifts = range((count - 1) * width, -1, -width)

    def cut(value: int) -> tuple[int, ...]:
        return tuple([value >> shift & mask for shift in shifts])

    return cut


@dataclass(frozen=True)
class TrialResult:
    x: int
    y: int
    message_a: Bits
    message_b: Bits
    verdict: Verdict
    expected: Verdict

    @property
    def correct(self) -> bool:
        return self.verdict == self.expected


def merge_support(*supports):
    """Deduplicate (label, cardinality) lists; clashing cardinalities fail."""
    rnd = RecordingRandomness()
    for label, card in itertools.chain(*supports):
        rnd.integer(label, card)
    return list(rnd.reads.items())


def recorded_support(encoder, v: int) -> list[tuple]:
    """The (label, cardinality) pairs one ``encoder(v, rnd)`` call reads."""
    rnd = RecordingRandomness()
    encoder(v, rnd)
    return list(rnd.reads.items())


class SmpProtocol:
    """Base class; subclasses state an encoder, a rule and ground truth."""

    name = "abstract"
    one_sided = False
    referee_reads_randomness = False
    # a classmethod (scalar params, rnd=None) -> Rule, on protocols whose
    # rule rebuilds from params() alone; only those can be labeled
    rule_from_params = None

    # -- per-protocol surface -------------------------------------------
    def encode(self, v: int, rnd: SharedRandomness) -> Bits:
        raise NotImplementedError

    def encode_all(self, vs, rnd: SharedRandomness) -> list[Bits]:
        """``[self.encode(v, rnd) for v in vs]``; this loop is the reference
        that an override drawing each label once must equal."""
        return [self.encode(v, rnd) for v in vs]

    def expected(self, x: int, y: int) -> Verdict:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def rule(self, rnd: SharedRandomness | None = None) -> Rule:
        """The referee as a ``Rule`` for the draws of rnd (blind rules ignore it),
        by ``rule_from_params``; a protocol without that overrides this."""
        rebuild = type(self).rule_from_params
        if rebuild is None:
            raise NotImplementedError(f"{type(self).__name__} states no rule")
        return rebuild(self.params(), rnd)

    @property
    def cost_bits(self) -> int:
        raise NotImplementedError

    # -- derived from the encoder and the rule ---------------------------
    def support(self, v: int):
        """Labeled draws ``encode(v)`` reads, as (label, cardinality) pairs; an
        encoder whose labels depend on its draws overrides this with them all."""
        return recorded_support(self.encode, v)

    def referee(self, ma: Bits, mb: Bits, rnd: SharedRandomness | None = None) -> Verdict:
        """The verdict on Alice's message ma and Bob's mb, by the rule for rnd."""
        return self.rule(rnd)(ma, mb)

    # -- running ----------------------------------------------------------
    def draw_support(self, x: int, y: int):
        return merge_support(self.support(x), self.support(y))

    def run(self, x: int, y: int, rnd: SharedRandomness) -> TrialResult:
        """One trial, decided through ``referee``, with its expected verdict."""
        ma, mb = self.encode(x, rnd), self.encode(y, rnd)
        return TrialResult(x, y, ma, mb, self.referee(ma, mb, rnd), self.expected(x, y))

    def run_trials(self, pairs, rnds):
        """The verdicts ``run`` gives the trials ``zip(pairs, rnds)``, lazily, by the
        ``Rule``: built once, or once per rnd for a referee that reads the draws."""
        blind = None if self.referee_reads_randomness else self.rule()
        for (x, y), rnd in zip(pairs, rnds):
            ma, mb = self.encode(x, rnd), self.encode(y, rnd)
            yield (blind or self.rule(rnd))(ma, mb)

    def _errors(self, x: int, y: int, rnds) -> int:
        """How many trials of the pair (x, y), one per rnd, miss its expected verdict."""
        expected = self.expected(x, y)
        return sum(v != expected for v in self.run_trials(itertools.repeat((x, y)), rnds))

    def exact_error(self, x: int, y: int, cap: int = 1 << 24) -> Fraction:
        """P[verdict != expected] over every draw assignment, one trial each."""
        support = self.draw_support(x, y)
        rnds = map(TableRandomness, enumerate_assignments(support, cap=cap))
        return Fraction(self._errors(x, y, rnds), support_size(support))

    def monte_carlo_error(self, x: int, y: int, trials: int, seed: int) -> Fraction:
        """The error rate over ``trials`` trials seeded from ``random.Random(seed)``."""
        master = random.Random(seed)
        rnds = (HashRandomness(master.getrandbits(63)) for _ in range(trials))
        return Fraction(self._errors(x, y, rnds), trials)


def as_fraction(eps) -> Fraction:
    value = Fraction(eps)
    if not 0 < value < 1:
        raise InputError("error budget must lie strictly between 0 and 1")
    return value


def eps_to_json(eps: Fraction):
    return [eps.numerator, eps.denominator]


def eps_from_json(doc) -> Fraction:
    if (not isinstance(doc, list) or len(doc) != 2
            or any(type(x) is not int for x in doc) or doc[1] == 0):
        raise InputError(f"eps must be [numerator, denominator], got {doc!r}")
    return Fraction(doc[0], doc[1])


def ceil_log2(x: Fraction) -> int:
    """Smallest q with 2**q >= x (exact rational comparison)."""
    if x <= 0:
        raise InputError("ceil_log2 needs a positive argument")
    q = max(0, (x.numerator // x.denominator).bit_length() - 1)
    while 2**q < x:
        q += 1
    return q
