"""Simultaneous-message sketches: the shared machinery.

A protocol is an encoder and a rule: ``encode`` (or ``encode_a`` and
``encode_b`` for distinct sender roles) maps an input to a fixed-width bit
message using labeled shared randomness, and ``rule_from_params`` (or an
overridden ``rule``) maps two message values to a verdict.  With ``expected``,
``params`` and ``cost_bits`` that is the contract.  ``support`` is recorded
from one encode under ``RecordingRandomness``, and ``referee`` checks the
widths and decides through the rule.  Most rules are *blind* (a fixed
function of the messages alone, which is what lets the messages double as
vertex labels in a fixed decision structure); others read the shared
randomness (``referee_reads_randomness = True``) and are built per seed.

``run_trials`` is the one trial loop; ``exact_error`` runs it over every
draw assignment, so small instances get exact rational error probabilities
rather than estimates.  ``symmetrize`` turns a protocol with distinct sender
roles into a role-free one: both parties send both encodings, and the
rule takes the more pessimistic of the two cross evaluations.
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
    the verdict.  Calling the rule on two ``Bits`` is the referee itself, and
    a caller that meets a message many times unpacks it once.  A role-split
    protocol's rule has the a-side width; ``SmpProtocol.referee`` checks both.
    """

    width: int
    unpack: Callable[[int], object]
    decide: Callable[[object, object], "Verdict"]

    def __call__(self, ma: Bits, mb: Bits) -> "Verdict":
        if ma.length != self.width or mb.length != self.width:
            raise InputError(
                f"messages must be {self.width} bits, got {ma.length} and {mb.length}"
            )
        return self.decide(self.unpack(ma.value), self.unpack(mb.value))


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


def fields_of(value: int, count: int, width: int) -> tuple[int, ...]:
    """``count`` big-endian ``width``-bit fields of value, first field first."""
    mask = (1 << width) - 1
    return tuple(value >> shift & mask
                 for shift in range((count - 1) * width, -1, -width))


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
        if ma.length != self.cost_bits_a or mb.length != self.cost_bits_b:
            raise InputError(f"messages must be {self.cost_bits_a} and {self.cost_bits_b} "
                             f"bits, got {ma.length} and {mb.length}")
        rule = self.rule(rnd)
        return rule.decide(rule.unpack(ma.value), rule.unpack(mb.value))

    # -- role split (overridden by role-split protocols) -----------------
    def encode_a(self, v, rnd):
        return self.encode(v, rnd)

    def encode_b(self, v, rnd):
        return self.encode(v, rnd)

    def support_a(self, v):
        return self.support(v) if self.symmetric else recorded_support(self.encode_a, v)

    def support_b(self, v):
        return self.support(v) if self.symmetric else recorded_support(self.encode_b, v)

    @property
    def cost_bits_a(self):
        return self.cost_bits

    @property
    def cost_bits_b(self):
        return self.cost_bits

    @property
    def symmetric(self) -> bool:
        return type(self).encode_a is SmpProtocol.encode_a and (
            type(self).encode_b is SmpProtocol.encode_b
        )

    # -- running ----------------------------------------------------------
    def draw_support(self, x: int, y: int):
        return merge_support(self.support_a(x), self.support_b(y))

    def _messages(self, x: int, y: int, rnd: SharedRandomness) -> tuple[Bits, Bits]:
        """Alice's message for x and Bob's for y, checked for width."""
        ma = self.encode_a(x, rnd)
        mb = self.encode_b(y, rnd)
        if ma.length != self.cost_bits_a or mb.length != self.cost_bits_b:
            raise InputError("encoder produced a message of the wrong width")
        return ma, mb

    def run(self, x: int, y: int, rnd: SharedRandomness) -> TrialResult:
        """One trial, decided through ``referee``, with its expected verdict."""
        ma, mb = self._messages(x, y, rnd)
        return TrialResult(x, y, ma, mb, self.referee(ma, mb, rnd), self.expected(x, y))

    def run_trials(self, pairs, rnds):
        """The verdicts ``run`` gives the trials ``zip(pairs, rnds)``, lazily, by the
        ``Rule``: built once, or once per rnd for a referee that reads the draws."""
        blind = None if self.referee_reads_randomness else self.rule()
        for (x, y), rnd in zip(pairs, rnds):
            ma, mb = self._messages(x, y, rnd)
            rule = blind or self.rule(rnd)
            yield rule.decide(rule.unpack(ma.value), rule.unpack(mb.value))

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


class SymmetrizedProtocol(SmpProtocol):
    """Role-free wrapper: send both encodings, judge both cross pairings.

    The rule evaluates the inner protocol on (a-part of x, b-part of y)
    and on (a-part of y, b-part of x) and returns the more pessimistic
    verdict, so a one-sided inner protocol stays one-sided and the cost is
    the sum of the two inner widths on each side.
    """

    def __init__(self, inner: SmpProtocol):
        self.inner = inner
        self.name = f"symmetrized-{inner.name}"
        self.one_sided = inner.one_sided
        self.referee_reads_randomness = inner.referee_reads_randomness

    def params(self):
        return {"inner": self.inner.params()}

    @property
    def cost_bits(self):
        return self.inner.cost_bits_a + self.inner.cost_bits_b

    def encode(self, v, rnd):
        return self.inner.encode_a(v, rnd).concat(self.inner.encode_b(v, rnd))

    def support(self, v):
        # the inner supports, so an inner override (the weak sketch's) holds
        return merge_support(self.inner.support_a(v), self.inner.support_b(v))

    def rule(self, rnd=None):
        """The inner rule on (a-part of x, b-part of y) and on (a-part of
        y, b-part of x), the more pessimistic verdict of the two."""
        inner, wb = self.inner.rule(rnd), self.inner.cost_bits_b
        return Rule(self.cost_bits,
                    lambda value: tuple(map(inner.unpack, divmod(value, 1 << wb))),
                    lambda x, y: verdict_max(inner.decide(x[0], y[1]), inner.decide(y[0], x[1])))

    def expected(self, x, y):
        return self.inner.expected(x, y)


def symmetrize(protocol: SmpProtocol) -> SymmetrizedProtocol:
    return SymmetrizedProtocol(protocol)


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
