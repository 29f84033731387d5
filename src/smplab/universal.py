"""Seed banks and derandomized vertex labelings.

A blind referee is a fixed function of two messages.  Fix the shared
randomness to a bank of seeds and a protocol becomes a labeling: sample a
bank, verify per input pair that only a small fraction of seeds mislead
the referee, then concatenate the per-seed messages into one label per
vertex and decode a pair of labels by majority vote of the per-seed
verdicts.  Each seed's messages come from one ``encode_all`` call over the
whole universe, which draws each label once per seed, and the bank keeps
them for the labels, so a label run encodes each seed once.  After
verification the scheme is deterministic and exact -- zero errors on its
instance, checked before anything is returned.

Checking cost: the bank check and both verify passes decide every pair
under every seed through ``Rule.pair_codes``: one numpy kernel call per
batch of seeds (bounded by ``PAIR_CELLS``) for the four blind rules, and
the ``decide`` loop for rules without that form (the seed-reading weak
rule, fields wider than 64 bits).  The expected verdicts are asked once
per pair of a label run and kept with the bank's messages, for every bank
attempt and the verify pass.

Decoding cost: a scheme holds one rule per bank seed -- the protocol's
rule, built once for that seed's draws, or the same blind rule m times.
Its verdict matrix decodes every pair of its own N labels: one
``pair_codes`` pass over all of them, as in the verify pass, which
builds it, so a scheme ``derandomized_labeling`` returns holds it
already.  A re-read scheme builds it on its second pair when its rule is
blind with an all-pairs form.  Every other pair goes through the vote,
which stops once it is settled: m // 2 + 1 ``decide`` calls on a pair
whose seeds all agree positive, ceil(m / 2) on one whose seeds all agree
negative, and at most m.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import Bits, concat_all
from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .protocols.base import (
    WIDTH_CAP,
    Rule,
    SmpProtocol,
    Verdict,
    as_fraction,
    triu_pairs,
)
from .protocols.registry import PROTOCOLS
from .rng import HashRandomness


_verdict_key = operator.attrgetter("kind", "value")  # what Verdict equality compares


def positive_verdict(v: Verdict) -> bool:
    """Collapse a verdict to the boolean a labeling decodes: accept, or a
    distance within the threshold."""
    return v.kind in ("accept", "distance")


def _input_list(inputs) -> list[int]:
    if isinstance(inputs, int):
        return list(range(inputs))
    return list(inputs)


# -- seed banks -------------------------------------------------------------


def newman_bank_size(n: int, eps, delta) -> int:
    """Bank size: the smallest count strictly above (3*eps/delta^2)*ln(n^2)."""
    if n < 1:
        raise InputError("need at least one input")
    coef = 3 * as_fraction(eps) / as_fraction(delta) ** 2
    return math.floor(float(coef) * math.log(n * n)) + 1


@dataclass(frozen=True)
class SeedBank:
    """Verified shared-randomness seeds with their error budget.

    ``worst_bad`` records the largest per-pair fraction of misleading
    seeds observed at verification time (None for hand-built banks).
    A checked bank keeps, in ``_messages``, a ``_Kept`` record of the
    protocol object it was checked against, its inputs, the messages
    ``encode_all`` gave them under each seed and their expected verdicts,
    so labels built from the bank reuse them; the private field takes no
    part in equality or repr.  A bank without seeds raises ``InputError``.
    """

    seeds: tuple[int, ...]
    eps: Fraction
    delta: Fraction
    worst_bad: Fraction | None = field(default=None, compare=False)
    _messages: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.seeds:
            raise InputError("a seed bank needs at least one seed")

    @property
    def m(self) -> int:
        return len(self.seeds)


@dataclass
class _Kept:
    """What a bank keeps for one protocol object and input list: per seed,
    the messages, and the expected verdicts as codes into ``keys``, the
    distinct (kind, value) pairs in first-seen order, one code per
    ``triu_pairs`` pair.  Each is filled on first need."""

    protocol: SmpProtocol
    xs: list
    messages: list[list[Bits]] | None = None
    keys: list[tuple] | None = None
    wanted: np.ndarray | None = None


def _kept(protocol: SmpProtocol, xs: list, bank: SeedBank) -> _Kept:
    """The record the bank keeps for this very protocol object and these
    inputs, made empty and kept on the bank when it keeps none."""
    kept = bank._messages
    if kept is None or kept.protocol is not protocol or kept.xs != xs:
        kept = _Kept(protocol, xs)
        object.__setattr__(bank, "_messages", kept)
    return kept


def _seed_messages(protocol: SmpProtocol, xs: list, bank: SeedBank) -> list[list[Bits]]:
    """Per bank seed, ``protocol.encode_all`` of the inputs, in order: the
    messages the bank keeps for them, else every seed encoded and kept."""
    kept = _kept(protocol, xs, bank)
    if kept.messages is None:
        kept.messages = [protocol.encode_all(xs, rnd) for rnd in map(HashRandomness, bank.seeds)]
    return kept.messages


def _expected_codes(protocol: SmpProtocol, xs: list, bank: SeedBank):
    """(keys, wanted) of the ``_Kept`` record: ``protocol.expected`` runs on
    each pair once per protocol object and input list, however many banks
    are checked and labels built."""
    kept = _kept(protocol, xs, bank)
    if kept.wanted is None:
        keys = {}
        rows, cols = triu_pairs(len(xs))
        kept.wanted = np.array([keys.setdefault(_verdict_key(protocol.expected(xs[i], xs[j])),
                                                len(keys))
                                for i, j in zip(rows.tolist(), cols.tolist())], dtype=np.intp)
        kept.keys = list(keys)
    return kept.keys, kept.wanted


def bank_bad_fraction(protocol: SmpProtocol, inputs, bank: SeedBank):
    """Worst per-pair fraction of seeds with a wrong verdict: (fraction, pair).

    Pairs run over unordered input pairs, diagonal included, in
    ``triu_pairs`` order; the worst pair is the first of those with the most
    bad seeds.  Verdicts come from ``Rule.pair_codes``: a blind rule's
    all-pairs kernel over many seeds per call, else the ``decide`` loop.  A
    verdict is bad when its (kind, value) differs from the expected one's,
    so an expected verdict the rule never returns is bad under every seed.
    The messages and expected verdicts come from the bank's ``_Kept``
    record, so the labeling reuses them, and the messages pass
    ``Rule.value``, so an encoder that drifts from its rule raises
    ``InputError``.  No inputs raise ``InputError``.
    """
    xs = _input_list(inputs)
    if not xs:
        raise InputError("need at least one input")
    rows, cols = triu_pairs(len(xs))
    messages = _seed_messages(protocol, xs, bank)
    keys, wanted = _expected_codes(protocol, xs, bank)
    bad = np.zeros(len(rows), dtype=np.intp)
    for verdicts, codes in _bank_codes(protocol, bank, messages):
        code_of = {_verdict_key(v): c for c, v in enumerate(verdicts)}
        bad += (codes != np.array([code_of.get(key, -1) for key in keys])[wanted]).sum(axis=0)
    worst = int(np.argmax(bad))
    return Fraction(int(bad[worst]), bank.m), (xs[rows[worst]], xs[cols[worst]])


def _bank_codes(protocol: SmpProtocol, bank: SeedBank, messages):
    """``_pair_code_blocks`` of the seeds' width-checked messages: one blind
    rule for every seed, or a seed-reading rule per seed, each built when
    its seed comes up.  A protocol's rules share its width, so the first
    rule checks every message."""
    if protocol.referee_reads_randomness:
        later = map(protocol.rule, map(HashRandomness, bank.seeds))
        rule = next(later)
        rules = itertools.chain([rule], later)
    else:
        rules = rule = protocol.rule()
    return _pair_code_blocks(rules, [list(map(rule.value, sent)) for sent in messages])


def _pair_code_blocks(rules, seed_values):
    """``Rule.pair_codes`` blocks of ``seed_values``, a list of message values
    per seed, in seed order.  ``rules`` is one blind rule, which decides
    every seed in one call, or an iterable of per-seed rules, read one at a
    time, each deciding its own seed in a call of its own."""
    if isinstance(rules, Rule):
        return rules.pair_codes(seed_values)
    return (block for rule, values in zip(rules, seed_values)
            for block in rule.pair_codes([values]))


def newman_seed_bank(protocol: SmpProtocol, inputs, eps, delta, rng,
                     retries: int = 16) -> SeedBank:
    """Sample and verify a seed bank; resample on failure, up to a limit.

    The returned bank satisfies, for every input pair, that at most an
    eps+delta fraction of its seeds make the referee err -- checked
    exhaustively, not assumed.  Each attempt is one ``bank_bad_fraction``
    call.  The expected verdicts of the first attempt's check carry over to
    the later attempts, and the returned bank keeps the messages its check
    encoded, so ``derandomized_labeling`` over the same protocol and inputs
    encodes nothing again and asks ``expected`` nothing.
    """
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    xs = _input_list(inputs)
    m = newman_bank_size(len(xs), eps, delta)
    if isinstance(rng, int):
        rng = random.Random(rng)
    bound = eps + delta
    worst, pair, kept = None, None, None
    for _ in range(retries):
        seeds = tuple(rng.getrandbits(63) for _ in range(m))
        bank = SeedBank(seeds, eps, delta)
        if kept is not None:  # the new seeds' messages are encoded anew
            kept = _Kept(protocol, xs, keys=kept.keys, wanted=kept.wanted)
            object.__setattr__(bank, "_messages", kept)
        worst, pair = bank_bad_fraction(protocol, xs, bank)
        kept = bank._messages
        if worst <= bound:
            verified = SeedBank(seeds, eps, delta, worst)
            object.__setattr__(verified, "_messages", bank._messages)
            return verified
    raise VerificationError(
        f"seed bank failed verification {retries} times; worst pair "
        f"{pair} errs on {worst} of the seeds (budget {bound})"
    )


# -- derandomized labelings --------------------------------------------------


@dataclass(frozen=True)
class LabelingScheme:
    """Per-vertex labels plus the named rule that decodes a pair of them.

    Treat a scheme as read-only: ``decode_labels`` and ``scheme_mismatches``
    keep what they build in one private field, ``_decoding``, that lives
    and dies with this object and takes no part in equality: a
    ``_Decoding`` of the scheme's rules, built from its params on first
    use, and, once built, the verdict matrix of its N labels, N*N bools.
    """

    decoder: str
    params: dict
    label_bits: int
    labels: tuple[Bits, ...]
    _decoding: object = field(default=None, init=False, compare=False, repr=False)


@dataclass
class _Decoding:
    """What a scheme keeps for decoding: its rules, one per bank seed, and
    message width c; ``index``, each label value's index (the last, where
    values repeat: equal values decode alike), made when first needed; and
    ``matrix``, once built, where ``matrix[i][j]`` is the decoded verdict
    on labels i and j."""

    rules: list[Rule]
    c: int
    index: dict[int, int] | None = None
    matrix: list[list[bool]] | None = None


def _bank_shape(params, label_bits: int) -> tuple[int, int]:
    """Bank size m and message width c of a labeling, checked for sense."""
    if not isinstance(params, dict):
        raise InputError("labeling params must be an object")
    shape = []
    for key in ("bank_m", "message_bits"):
        value = params.get(key)
        if type(value) is not int or value < 1:
            raise InputError(f"labeling params need a positive integer {key!r}")
        shape.append(value)
    m, c = shape
    if m * c != label_bits:
        raise InputError("scheme parameters disagree with the label width")
    if not isinstance(params.get("protocol"), dict):
        raise InputError("scheme parameters lack the protocol block")
    return m, c


def _labelable_class(proto_params: dict):
    """The registered class whose rule rebuilds from these params, or None."""
    name = proto_params.get("name")
    return PROTOCOLS.get(name) if isinstance(name, str) else None


def _scheme_rules(scheme: LabelingScheme) -> tuple[list[Rule], int]:
    """The scheme's rules, one per bank seed, and its message width, from
    its params."""
    if scheme.decoder != "seed-majority":
        raise InputError(f"unknown decoder {scheme.decoder!r}")
    m, c = _bank_shape(scheme.params, scheme.label_bits)
    proto_params = scheme.params["protocol"]
    cls = _labelable_class(proto_params)
    if cls is None:
        raise InputError(f"protocol {proto_params.get('name')!r} cannot be decoded")
    if cls.referee_reads_randomness:
        seeds = scheme.params.get("seeds")
        if not (isinstance(seeds, list) and len(seeds) == m
                and all(type(s) is int for s in seeds)):
            raise InputError(f"labeling seeds must be a list of {m} integers")
        rules = [cls.rule_from_params(proto_params, HashRandomness(s)) for s in seeds]
    else:
        rules = [cls.rule_from_params(proto_params)] * m
    if rules[0].width != c:
        raise InputError(f"message_bits {c} disagrees with the {rules[0].width}-bit protocol")
    return rules, c


def _blind_rule(rules: list[Rule]) -> Rule | None:
    """The one rule a scheme's rules all are, when they are one blind rule,
    else None."""
    return rules[0] if all(rule is rules[0] for rule in rules) else None


def _seed_values(values: list[int], m: int, c: int) -> list[list[int]]:
    """Per seed, the c-bit messages that label values of m messages hold."""
    mask = (1 << c) - 1
    return [[value >> shift & mask for value in values] for shift in range((m - 1) * c, -1, -c)]


def _vote(rules: list[Rule], c: int, x: int, y: int) -> bool:
    """Strict majority of the per-seed verdicts on label values x and y.

    Seed s's rule decides message s of each, in seed order, and the vote
    stops once it is settled: True at the (m // 2 + 1)-th positive
    verdict, False at the ceil(m / 2)-th negative one, so a tie is False.
    """
    m = len(rules)
    mask = (1 << c) - 1
    yes = 0
    for seen, (rule, shift) in enumerate(zip(rules, range((m - 1) * c, -1, -c)), 1):
        yes += positive_verdict(rule.decide(rule.unpack(x >> shift & mask),
                                            rule.unpack(y >> shift & mask)))
        if 2 * yes > m or 2 * (seen - yes) >= m:  # settled, at the latest by seed m
            return 2 * yes > m


def _scheme_decoding(scheme: LabelingScheme) -> _Decoding:
    """The scheme's ``_Decoding``, its rules built from its params on first use."""
    if scheme._decoding is None:
        object.__setattr__(scheme, "_decoding", _Decoding(*_scheme_rules(scheme)))
    return scheme._decoding


def _label_index(scheme: LabelingScheme) -> dict[int, int]:
    """The scheme's label value -> index map, made on first use."""
    kept = _scheme_decoding(scheme)
    if kept.index is None:
        kept.index = {label.value: i for i, label in enumerate(scheme.labels)}
    return kept.index


def _verdict_matrix(scheme: LabelingScheme) -> list[list[bool]]:
    """The scheme's verdict matrix, built when it holds none.

    A label of another width raises ``InputError`` before anything is
    built.  ``Rule.pair_codes`` gives every ``triu_pairs`` pair's verdict
    under every seed, as in ``bank_bad_fraction``, and a strict majority of
    positive verdicts decodes positive in both triangles.
    """
    kept = scheme._decoding
    if kept is not None and kept.matrix is not None:
        return kept.matrix
    labels = scheme.labels
    for i, label in enumerate(labels):
        if label.length != scheme.label_bits:
            raise InputError(f"label {i} is {label.length} bits, not {scheme.label_bits}")
    kept = _scheme_decoding(scheme)
    m, n = len(kept.rules), len(labels)
    rows, cols = triu_pairs(n)
    blind = _blind_rule(kept.rules)
    blocks = _pair_code_blocks(kept.rules if blind is None else blind,
                               _seed_values([label.value for label in labels], m, kept.c))
    positives = np.zeros(len(rows), dtype=np.intp)
    for verdicts, codes in blocks:
        positives += np.array(list(map(positive_verdict, verdicts)), dtype=bool)[codes].sum(axis=0)
    matrix = np.zeros((n, n), dtype=bool)
    matrix[rows, cols] = matrix[cols, rows] = 2 * positives > m
    kept.matrix = matrix.tolist()
    _label_index(scheme)
    return kept.matrix


def decode_labels(scheme: LabelingScheme, lx: Bits, ly: Bits) -> bool:
    """Majority vote of the per-seed referee verdicts on two labels.

    Pure and symmetric; a strict majority of positive verdicts decodes to
    True, everything else (ties included) to False.  A pair of two scheme
    labels reads the scheme's verdict matrix, built first when the scheme
    holds none, its rules are one blind rule with an all-pairs form and the
    pair is not its first.  Every other pair takes ``_vote``: the first, so
    one decode of a freshly read file builds no matrix, strangers, and every
    pair of a seed-reading or form-less rule, whose matrix would cost
    N*N*m/2 ``decide`` calls.
    """
    if lx.length != scheme.label_bits or ly.length != scheme.label_bits:
        raise InputError(
            f"labels must be {scheme.label_bits} bits, "
            f"got {lx.length} and {ly.length}"
        )
    x, y = lx.value, ly.value
    kept = scheme._decoding
    if kept is None:  # the scheme's first pair builds its rules alone
        kept = _scheme_decoding(scheme)
    elif kept.matrix is None:
        blind = _blind_rule(kept.rules)
        if blind is not None and blind.all_pairs is not None:
            index = _label_index(scheme)
            if x in index and y in index:
                _verdict_matrix(scheme)
    if kept.matrix is not None:
        i, j = kept.index.get(x), kept.index.get(y)
        if i is not None and j is not None:
            return kept.matrix[i][j]
    return _vote(kept.rules, kept.c, x, y)


def scheme_mismatches(scheme: LabelingScheme, want):
    """Every label pair (i, j), i <= j, that decodes other than ``want(i, j)``,
    in ``triu_pairs`` order, read from the scheme's verdict matrix, built
    first when it holds none; so a scheme ``derandomized_labeling``
    returns decodes its own pairs from the matrix its check built.  A
    label of another width raises ``InputError``.
    """
    matrix = _verdict_matrix(scheme)
    rows, cols = triu_pairs(len(scheme.labels))
    for i, j in zip(rows.tolist(), cols.tolist()):
        if matrix[i][j] != want(i, j):
            yield i, j


def derandomized_labeling(protocol: SmpProtocol, inputs, bank: SeedBank,
                          margin: Fraction = Fraction(1, 32)) -> LabelingScheme:
    """Concatenate per-seed messages into labels and verify exactness.

    Requires a bank whose guarantee leaves a real majority margin: with at
    most an eps+delta < 1/2 fraction of bad seeds per pair, the correct
    verdict always holds a strict majority, so the decoded predicate has
    zero errors -- which is checked on every pair before returning.  The
    per-seed messages and expected verdicts are the ones the bank kept
    from its check when it was checked against this protocol object and
    these inputs, and are made here otherwise.
    """
    if _labelable_class(protocol.params()) is None:
        raise PreconditionError(f"protocol {protocol.name!r} is not registered with a "
                                "rule that rebuilds from its parameters; it cannot be labeled")
    bound = bank.eps + bank.delta
    if bound >= Fraction(1, 2) - margin:
        raise PreconditionError(
            f"bank budget {bound} leaves no majority margin below 1/2"
        )
    xs = _input_list(inputs)
    c = protocol.cost_bits
    labels = tuple(map(concat_all, zip(*_seed_messages(protocol, xs, bank))))
    params = {
        "protocol": protocol.params(),
        "bank_m": bank.m,
        "message_bits": c,
    }
    if protocol.referee_reads_randomness:
        params["seeds"] = list(bank.seeds)
    scheme = LabelingScheme("seed-majority", params, bank.m * c, labels)
    keys, wanted = _expected_codes(protocol, xs, bank)
    near = np.zeros((len(xs), len(xs)), dtype=bool)
    near[triu_pairs(len(xs))] = np.array([positive_verdict(Verdict(*key)) for key in keys],
                                         dtype=bool)[wanted]
    near = near.tolist()
    for i, j in scheme_mismatches(scheme, lambda a, b: near[a][b]):
        raise VerificationError(
            f"pair ({xs[i]}, {xs[j]}) decodes wrongly; the seed bank is insufficient"
        )
    return scheme


def labeling_to_json(scheme: LabelingScheme) -> dict:
    return {
        "decoder": scheme.decoder,
        "params": scheme.params,
        "label_bits": scheme.label_bits,
        "labels": [label.to_hex() for label in scheme.labels],
    }


def labeling_from_json(doc: dict) -> LabelingScheme:
    if not isinstance(doc, dict):
        raise InputError("labeling document must be an object")
    try:
        decoder = doc["decoder"]
        params = doc["params"]
        label_bits = doc["label_bits"]
        labels = doc["labels"]
    except KeyError as e:
        raise InputError(f"labeling document missing field {e}") from None
    if type(label_bits) is not int or label_bits < 1:
        raise InputError("label_bits must be a positive integer")
    if label_bits > WIDTH_CAP:
        raise CapacityError(f"{label_bits}-bit labels exceed the {WIDTH_CAP}-bit cap")
    _bank_shape(params, label_bits)
    if not isinstance(labels, list):
        raise InputError("labels must be a list of hex strings")
    try:
        parsed = tuple(Bits.from_hex(text, label_bits) for text in labels)
    except (TypeError, ValueError):
        raise InputError("labels must be hex strings") from None
    return LabelingScheme(decoder, params, label_bits, parsed)
