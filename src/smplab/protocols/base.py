"""Simultaneous-message sketches: the shared machinery.

A protocol is an encoder and a rule: ``encode`` maps an input to a
fixed-width bit message using labeled shared randomness, and both parties
send it; ``rule_from_params`` (or an overridden ``rule``) maps two message
values to a verdict.  With ``expected``, ``params`` and ``cost_bits`` that is
the contract.  ``encode_table`` encodes many inputs under many seeds into
one seed-major numpy table of message fields, cut at ``table_widths``;
its width-checked loop over ``encode`` is the reference, and a labelable
protocol draws each label the inputs read once per seed instead and
gathers the table in numpy, returning the same table, building no
``Bits`` and reading no label outside their supports.  A
``PlannedProtocol`` states its message once per input, as fields that are
each a labeled draw or a fixed value; one cached ``Plan`` per input then
gives its ``encode``, its ``encode_table`` and its batched trial table.  ``support`` is recorded from one encode under
``RecordingRandomness``, and ``referee`` calls the rule, the one check of
both message widths.  Most rules are *blind* (a fixed function of the
messages alone, which is what lets the messages double as vertex labels in a
fixed decision structure, and only those label); others read the shared
randomness (``referee_reads_randomness = True``) and are built per trial.

``run_trials`` is the one trial loop, which decides chunks of trials in one
all-pairs kernel call where the rule is blind and states the form (a
planned protocol gathers that call's table from its plans' draws, with no
message built).  A referee that reads the draws is rebuilt per trial, the
reference; a protocol may override ``run_trials`` to read each chunk's
seeds in one pass instead, as the hashed adjacency sketch does.
``exact_error`` runs it over every draw assignment, so small instances get
exact rational error probabilities rather than estimates.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from ..bits import Bits
from ..errors import InputError
from ..rng import (
    DrawPlan,
    HashRandomness,
    RecordingRandomness,
    SharedRandomness,
    TableRandomness,
    enumerate_assignments,
    indexed_draws,
    plan_reads,
    support_size,
)

WIDTH_CAP = 1 << 20  # widest message or label, in bits, built from outside input
# rules kept by each blind rule builder's lru_cache; a builder's arguments
# are a few ints, so a run meets only a handful of distinct rules
RULE_CACHE_SIZE = 64
PAIR_CELLS = 1 << 20  # fields times message pairs one all-pairs kernel call holds
TRIAL_CHUNK = 512  # trials one batched ``run_trials`` kernel call decides at most


@dataclass(frozen=True)
class Verdict:
    kind: str  # "accept" | "reject" | "distance" | "beyond"
    value: int | None = None

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


class AllPairs(NamedTuple):
    """A rule's verdicts on many message pairs at once.

    ``widths`` cuts a message, big-endian, into the fields the kernel reads:
    each at most 64 bits, together the rule's width.  ``decide_all(table,
    left, right)`` takes the messages' fields as a (fields, messages)
    ``table`` and the pairs as two index arrays into its columns, and returns
    one integer code per pair; code c stands for ``verdicts[c]``, so the
    codes keep the rule's full verdict.
    """

    verdicts: tuple[Verdict, ...]
    widths: tuple[int, ...]
    decide_all: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def seed_codes(self, table: np.ndarray, n: int, rows, cols) -> np.ndarray:
        """The codes of the pairs (rows[p], cols[p]), indices into each seed's
        n values in either order, under every seed of a seed-major ``table``
        (seed s holds columns s*n to s*n + n - 1), as a (seeds, pairs) array.
        Each ``decide_all`` call holds at most ``PAIR_CELLS`` fields."""
        room = max(1, PAIR_CELLS // len(self.widths))  # pairs one call holds
        offsets = np.arange(0, table.shape[1], n)[:, None]
        left, right = (offsets + rows).ravel(), (offsets + cols).ravel()
        codes = np.concatenate([self.decide_all(table, left[at:at + room], right[at:at + room])
                                for at in range(0, len(left), room)])
        return codes.reshape(len(offsets), len(rows))


def field_table(values: list[int], widths: tuple[int, ...]) -> np.ndarray:
    """The (fields, len(values)) array of the values' big-endian fields of
    ``widths`` bits, each at most 64, cut in numpy from each value's 64-bit
    words, in the narrowest unsigned dtype that holds the widest field."""
    words, low, low_shift, high, high_shift, masks, dtype = _word_layout(widths)
    table = np.zeros((words + 1, len(values)), dtype=np.uint64)  # the last row stays 0
    if words == 1:  # numpy converts ints of up to 64 bits itself, and faster
        table[0] = values
    else:
        table[:words] = np.frombuffer(b"".join([v.to_bytes(8 * words, "big") for v in values]),
                                      dtype=">u8").reshape(len(values), words).T
    return ((table[low] >> low_shift | table[high] << high_shift) & masks).astype(dtype)


def word_widths(width: int) -> tuple[int, ...]:
    """A ``width``-bit value's big-endian 64-bit words, the first holding
    what is left over: the fields a table of rule without an all-pairs
    form is cut into."""
    head = (width - 1) % 64 + 1
    return (head,) + (64,) * ((width - head) // 64)


def field_values(table: np.ndarray, widths: tuple[int, ...]) -> list[int]:
    """The values whose fields of ``widths`` bits are the table's columns:
    ``field_table`` run backwards.  Each field is shifted into its place in
    its value's 64-bit words, where fields hold disjoint bits, so a sum is
    their OR; then each value's words are joined."""
    words, low, low_shift, high, high_shift, _, _ = _word_layout(widths)
    fields = table.astype(np.uint64)
    starts = np.searchsorted(low, np.arange(words))  # each word's first field
    out = np.add.reduceat(fields << low_shift, starts, axis=0)
    out[starts == np.append(starts[1:], len(low))] = 0  # a head word that only a field below runs into
    crossing = np.flatnonzero(high_shift[:, 0])  # fields whose high bits run into the word above
    out[np.asarray(high)[crossing]] |= fields[crossing] >> high_shift[crossing]
    if words == 1:
        return out[0].tolist()
    data = out.T.astype(">u8").tobytes()
    return [int.from_bytes(data[at:at + 8 * words], "big") for at in range(0, len(data), 8 * words)]


class Rule(NamedTuple):
    """A referee stated once, over message values (a seed-reading one for
    one seed's draws).

    ``unpack`` cuts a ``width``-bit message value into the fields the rule
    reads (``int`` keeps it whole); ``decide`` maps two such field sets to
    the verdict.  Calling the rule on two ``Bits`` is the referee itself.
    ``fields`` checks the width: the call runs it on both messages, and a
    caller that meets a message many times runs it once and decides on the
    fields.  ``all_pairs``, when a rule states it, decides many pairs in
    one numpy pass; ``pair_codes`` uses it, and otherwise loops over
    ``decide``, the reference it must equal.
    """

    width: int
    unpack: Callable[[int], object]
    decide: Callable[[object, object], "Verdict"]
    all_pairs: AllPairs | None = None

    def fields(self, message: Bits):
        """``unpack`` of one message's width-checked ``value``."""
        return self.unpack(self.value(message))

    def value(self, message: Bits) -> int:
        """A message's value, after checking its width; a message of another
        width raises ``InputError``."""
        if message.length != self.width:
            raise InputError(f"messages must be {self.width} bits, got {message.length}")
        return message.value

    def __call__(self, ma: Bits, mb: Bits) -> "Verdict":
        return self.decide(self.fields(ma), self.fields(mb))

    @property
    def table_widths(self) -> tuple[int, ...]:
        """The fields a table of this rule's messages is cut into: the
        all-pairs form's, else the message's ``word_widths``."""
        return word_widths(self.width) if self.all_pairs is None else self.all_pairs.widths

    def pair_codes(self, table: np.ndarray, n: int):
        """The verdicts on a seed-major ``table`` of width-checked messages cut
        at ``table_widths``, n per seed (seed s holds columns s*n to s*n + n
        - 1), as (verdicts, codes) blocks in seed order: ``codes[s, p]`` is
        the code into ``verdicts`` of pair p of ``triu_pairs(n)`` under the
        block's seed s.  No messages give no blocks.

        The all-pairs form decides the pairs of as many seeds as fit in
        ``PAIR_CELLS`` fields at once, or one seed's pairs in slices that do,
        so its memory is bounded whatever the seed count, universe or layout;
        without the form, ``decide`` runs on every pair of each seed's
        message values, joined from their words, and each seed is a block of
        its own.
        """
        form = self.all_pairs
        if not n:
            return
        if form is None:
            for at in range(0, table.shape[1], n):
                yield self._loop_codes(field_values(table[:, at:at + n], self.table_widths))
            return
        rows, cols = triu_pairs(n)
        batch = n * max(1, PAIR_CELLS // len(form.widths) // len(rows))  # columns one call holds
        for at in range(0, table.shape[1], batch):
            yield form.verdicts, form.seed_codes(table[:, at:at + batch], n, rows, cols)

    def _loop_codes(self, values: list[int]) -> tuple[tuple[Verdict, ...], np.ndarray]:
        fields = list(map(self.unpack, values))
        index = {}  # verdict -> code, in order of first occurrence
        codes = [index.setdefault(self.decide(fields[i], fields[j]), len(index))
                 for i, j in zip(*(side.tolist() for side in triu_pairs(len(values))))]
        return tuple(index), np.array([codes], dtype=np.intp)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _word_layout(widths: tuple[int, ...]):
    """Where each field of a big-endian layout sits in its value's 64-bit
    words, most significant word first: the word holding its low bit and
    the shift down to that bit; the word above, when the field runs into
    it, and the shift up that joins it (else the zero word past the last,
    shifted by 0); its mask; and the dtype of the widest field.  Shifts and
    masks are (fields, 1) columns."""
    words = -(-sum(widths) // 64)
    low, low_shift, high, high_shift = [], [], [], []
    shift = sum(widths)
    for width in widths:
        shift -= width
        word, bit = divmod(shift, 64)
        crosses = bit + width > 64
        low.append(words - 1 - word)
        low_shift.append(bit)
        high.append(words - 2 - word if crosses else words)
        high_shift.append(64 - bit if crosses else 0)
    low_shift, high_shift, masks = (
        np.array(column, dtype=np.uint64)[:, None]
        for column in (low_shift, high_shift, [(1 << width) - 1 for width in widths]))
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if max(widths) <= np.iinfo(t).bits)
    return words, low, low_shift, high, high_shift, masks, dtype


@functools.lru_cache(maxsize=8)
def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, read-only: the unordered pairs (i, j), i <= j,
    of n items in row order, the order of every all-pairs pass."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def trial_chunk(cells: int) -> int:
    """Trials one batched ``run_trials`` chunk holds when each trial puts
    ``cells`` cells in its numpy blocks: at most ``TRIAL_CHUNK``, and at most
    ``PAIR_CELLS`` cells in all, but never fewer than one trial."""
    return max(1, min(TRIAL_CHUNK, PAIR_CELLS // max(cells, 1)))


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

    def encode_table(self, vs, rnds) -> np.ndarray:
        """The messages of the inputs vs under each of rnds, as one seed-major
        (fields, seeds * len(vs)) table cut at ``table_widths``: column
        s * len(vs) + i holds vs[i]'s message under the s-th rnd.  This loop
        over ``encode``, each message width-checked, is the reference that an
        override drawing each label once per seed must equal; a message of
        another width raises ``InputError``."""
        vs, widths = list(vs), self.table_widths
        value = Rule(sum(widths), int, None).value  # the width check; it decides nothing
        return field_table([value(self.encode(v, rnd)) for rnd in rnds for v in vs], widths)

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

    @property
    def table_widths(self) -> tuple[int, ...]:
        """The fields ``encode_table`` cuts each message into: the blind
        rule's ``table_widths``."""
        return self.rule().table_widths

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
        """The verdicts ``run`` gives the trials ``zip(pairs, rnds)``, lazily.

        A trial of equal inputs encodes once and sends that message twice.  A
        blind rule with an all-pairs form decides a chunk of at most
        ``TRIAL_CHUNK`` trials, and at most ``PAIR_CELLS`` fields, in one
        kernel call on the width-checked message values, so memory and
        read-ahead stay one chunk whatever the trial count.  Other rules
        decide each trial through the ``Rule``, built once, or once per rnd
        for a referee that reads the draws; that loop is the reference.  A
        seed-reading protocol may override this to decide a chunk's seeds
        in one pass; ``HashedAdjacency`` does, checking both widths through
        ``Rule.value`` and keeping its blocks under ``PAIR_CELLS`` cells.
        """
        blind = None if self.referee_reads_randomness else self.rule()
        form = None if blind is None else blind.all_pairs
        trials = zip(pairs, rnds)
        if form is None:
            for (x, y), rnd in trials:
                ma = self.encode(x, rnd)
                yield (blind or self.rule(rnd))(ma, ma if x == y else self.encode(y, rnd))
            return
        for table in self._trial_tables(trials, blind, trial_chunk(2 * len(form.widths))):
            codes = form.seed_codes(table, 2, [0], [1])
            yield from map(form.verdicts.__getitem__, codes[:, 0].tolist())

    def _trial_tables(self, trials, rule: Rule, chunk: int):
        """Per chunk of at most ``chunk`` trials, the kernel table of its
        messages: each trial's x message, then its y message (x's again when
        x == y), cut from their width-checked values."""
        encode, value, form = self.encode, rule.value, rule.all_pairs
        while batch := list(itertools.islice(trials, chunk)):
            values = []
            for (x, y), rnd in batch:
                va = value(encode(x, rnd))
                values += (va, va if x == y else value(encode(y, rnd)))
            yield field_table(values, form.widths)

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


class Plan(NamedTuple):
    """One input's message as the kernel reads it: the labels it draws, each
    once, and its fields, field f being ``(draws + fixed)[source[f]]``."""

    draws: DrawPlan
    source: tuple[int, ...]
    fixed: tuple[int, ...]


class _Layout(NamedTuple):
    """Many plans' messages over one pool of values: each family's draws in
    order, then every plan's fixed values; message p's field f is
    ``pool[gathers[p][f]]``."""

    plans: list
    families: list  # (prefix, cardinality, sorted indices)
    fixed: list
    gathers: list

    @classmethod
    def of(cls, plans):
        members = {}  # (prefix, cardinality) -> {index: label bytes}
        for plan in plans:
            for label, n, data in zip(*plan.draws):
                members.setdefault((label[:-1], n), {})[label[-1]] = data
        families = [(prefix, n, sorted(ids)) for (prefix, n), ids in members.items()]
        pool = [members[prefix, n][i] for prefix, n, ids in families for i in ids]
        slot = {data: at for at, data in enumerate(pool)}  # label bytes -> place in the pool
        fixed, gathers = [], []
        for plan in plans:
            start = len(slot) + len(fixed)
            values = [slot[data] for data in plan.draws.data]
            values += range(start, start + len(plan.fixed))
            fixed += plan.fixed
            gathers.append([values[at] for at in plan.source])
        return cls(plans, families, fixed, gathers)


class PlannedProtocol(SmpProtocol):
    """A sketch whose message is ``field_widths`` fields, big-endian, each a
    labeled draw or a fixed value, as ``message_fields`` states per input.

    ``plan`` states it once per input and checks it against the widths: the
    field count, every fixed value and every draw's cardinality must fit.
    ``encode``, ``encode_table`` and the batched ``run_trials`` all read the
    cached plan; a bank's or a trial's messages go straight to the kernel
    table, with no ``Bits`` built, and a plan whose fields do not fit raises
    ``InputError`` on every path.
    """

    field_widths: tuple[int, ...]  # set by each subclass, first field first
    _layout: _Layout | None = None  # of the last ``encode_table`` call's plans

    def message_fields(self, v: int) -> list:
        """Per field of v's message, first first: a fixed int, or a
        (label, cardinality) draw."""
        raise NotImplementedError

    @property
    def cost_bits(self) -> int:
        return sum(self.field_widths)

    @functools.cached_property
    def _plans(self) -> dict:
        return {}

    def plan(self, v: int) -> Plan:
        """v's message plan, built on first use and kept."""
        plan = self._plans.get(v)
        if plan is None:
            plan = self._plans[v] = self._build_plan(v)
        return plan

    def _build_plan(self, v: int) -> Plan:
        widths = self.field_widths
        fields = list(self.message_fields(v))
        if len(fields) != len(widths):
            raise InputError(f"messages must be {len(widths)} fields, "
                             f"input {v!r} states {len(fields)}")
        draws, at = plan_reads(field for field in fields if type(field) is not int)
        at, source, fixed = iter(at), [], []
        for field, width in zip(fields, widths):
            if type(field) is int:
                if not 0 <= field < 1 << width:
                    raise InputError(f"fixed value {field} does not fit its {width}-bit field")
                source.append(len(draws.labels) + len(fixed))
                fixed.append(field)
            elif field[1] > 1 << width:
                raise InputError(f"draw {field[0]!r} of {field[1]} values overflows "
                                 f"its {width}-bit field")
            else:
                source.append(next(at))
        return Plan(draws, tuple(source), tuple(fixed))

    def encode(self, v, rnd):
        plan = self.plan(v)
        return _pack([*rnd.draw_plan(plan.draws), *plan.fixed], plan.source,
                     self.field_widths, self.cost_bits)

    def encode_table(self, vs, rnds):
        """The base's table, with each label of the inputs' plans drawn once
        per seed, by one ``indexed_draws`` call per family: the labels
        ``(*prefix, i)`` of one prefix and cardinality.  The families, and
        where each message's fields sit in their draws, are laid out once per
        run of plans and kept; one numpy take then gathers every seed's
        fields, and ``field_widths`` is checked against ``table_widths`` once."""
        widths = self.table_widths
        if self.field_widths != widths:
            raise InputError(f"message fields {self.field_widths} differ from "
                             f"the rule's {widths}")
        plans = [self.plan(v) for v in vs]
        layout = self._layout
        if layout is None or layout.plans != plans:
            layout = self._layout = _Layout.of(plans)
        pool, starts = [], []
        for rnd in rnds:
            starts.append(len(pool))
            for prefix, n, ids in layout.families:
                drawn = indexed_draws(rnd, prefix, ids, n)
                pool += map(drawn.__getitem__, ids)
            pool += layout.fixed
        gathers = np.array(layout.gathers, dtype=np.intp).reshape(len(plans), len(widths)).T
        index = gathers[:, None, :] + np.array(starts, dtype=np.intp)[:, None]
        return np.array(pool, dtype=_word_layout(widths)[-1])[index.reshape(len(widths), -1)]

    def _trial_tables(self, trials, rule: Rule, chunk: int):
        """The base's tables, gathered by numpy from the plans' draws and
        fixed values, with no ``Bits`` built; the field widths are checked
        against the rule's once."""
        form = rule.all_pairs
        if self.field_widths != form.widths:
            raise InputError(f"message fields {self.field_widths} differ from "
                             f"the rule's {form.widths}")
        plan, dtype = self.plan, _word_layout(form.widths)[-1]
        while batch := list(itertools.islice(trials, chunk)):
            pool, starts, sources = [], [], []
            for (x, y), rnd in batch:
                for v in (x,) if x == y else (x, y):
                    p = plan(v)
                    starts.append(len(pool))
                    sources.append(p.source)
                    pool += rnd.draw_plan(p.draws)
                    pool += p.fixed
                if x == y:
                    starts.append(starts[-1])
                    sources.append(sources[-1])
            index = np.array(sources, dtype=np.intp).T + np.array(starts, dtype=np.intp)
            yield np.array(pool, dtype=dtype)[index]


def _pack(values: list[int], source: tuple[int, ...], widths: tuple[int, ...], bits: int) -> Bits:
    """The message whose field f, ``widths[f]`` bits wide, is ``values[source[f]]``."""
    value = 0
    for width, at in zip(widths, source):
        value = value << width | values[at]
    return Bits(value, bits)


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
