"""Seed banks and derandomized vertex labelings.

A blind referee is a fixed function of two messages.  Fix the shared
randomness to a bank of seeds and a protocol with a blind referee becomes
a labeling (one whose referee reads the seeds is refused): sample a
bank, verify per input pair that only a small fraction of seeds mislead
the referee, then concatenate the per-seed messages into one label per
vertex and decode a pair of labels by majority vote of the per-seed
verdicts.  Every seed's messages come from one ``encode_table`` call over
the whole universe, which draws each label once per seed into one
seed-major field table, and the bank keeps that table for the labels, so
a label run encodes each seed once; the labels are packed from it in
numpy, with no per-message ``Bits``.  After verification the scheme is
deterministic and exact -- zero errors on its instance, checked before
anything is returned.

Checking cost: the bank check and both verify passes decide every pair
under every seed through the protocol's one rule, by ``Rule.pair_codes``
on a field table: the bank's own, or the labels cut back into one by a
single ``field_table`` call over the rule's fields repeated m times.
That is one numpy kernel call per batch of seeds (bounded by
``PAIR_CELLS``) for a rule with an all-pairs form, and the ``decide``
loop for one without (fields wider than 64 bits).  The expected verdicts
are asked once per pair of a label run and kept with the bank's table,
for every bank attempt and the verify pass.

Decoding cost: a scheme holds its one rule, rebuilt from its params, which
decides every seed's messages.  Its verdict matrix decodes every pair of
its own N labels: one ``pair_codes`` pass over all of them, as in the
verify pass, which builds it, so a scheme ``derandomized_labeling``
returns holds it already.  A re-read scheme builds it on its second pair
when its rule has an all-pairs form.  Every other pair goes through the
vote, which stops once it is settled: m // 2 + 1 ``decide`` calls on a
pair whose seeds all agree positive, ceil(m / 2) on one whose seeds all
agree negative, and at most m.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import Bits
from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .protocols.base import (
    WIDTH_CAP,
    Rule,
    SmpProtocol,
    Verdict,
    as_fraction,
    field_table,
    field_values,
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
    protocol object it was checked against, its inputs, the table
    ``encode_table`` gave them under the seeds and their expected verdicts,
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
    """What a bank keeps for one protocol object and input list: the
    seed-major table of every seed's messages, and the expected verdicts as
    codes into ``keys``, the distinct (kind, value) pairs in first-seen
    order, one code per ``triu_pairs`` pair.  Each is filled on first need."""

    protocol: SmpProtocol
    xs: list
    table: np.ndarray | None = None
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


def _seed_table(protocol: SmpProtocol, xs: list, bank: SeedBank) -> np.ndarray:
    """``protocol.encode_table`` of the inputs under the bank's seeds: the
    table the bank keeps for them, else one encoded, checked and kept.  A
    table that is not one column per seed and input of ``table_widths``
    fields, each within its width, raises ``InputError``."""
    kept = _kept(protocol, xs, bank)
    if kept.table is None:
        widths = protocol.table_widths
        table = protocol.encode_table(xs, map(HashRandomness, bank.seeds))
        if table.shape != (len(widths), bank.m * len(xs)):
            raise InputError(f"messages must be {len(widths)} fields each; the table of "
                             f"{bank.m} seeds and {len(xs)} inputs is {table.shape}")
        if np.any(table > np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)[:, None]):
            raise InputError(f"messages must be fields of {widths} bits; one overflows")
        kept.table = table
    return kept.table


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
    The message table and expected verdicts come from the bank's ``_Kept``
    record, so the labeling reuses them, and the table is width-checked, so
    an encoder that drifts from its rule raises ``InputError``.  A referee
    that reads the shared randomness raises ``PreconditionError`` before
    anything is encoded, and no inputs raise ``InputError``.
    """
    if protocol.referee_reads_randomness:
        raise PreconditionError(f"protocol {protocol.name!r} has a referee that reads the "
                                "shared randomness; a seed bank needs a blind rule")
    xs = _input_list(inputs)
    if not xs:
        raise InputError("need at least one input")
    rows, cols = triu_pairs(len(xs))
    table = _seed_table(protocol, xs, bank)
    keys, wanted = _expected_codes(protocol, xs, bank)
    bad = np.zeros(len(rows), dtype=np.intp)
    for verdicts, codes in protocol.rule().pair_codes(table, len(xs)):
        code_of = {_verdict_key(v): c for c, v in enumerate(verdicts)}
        bad += (codes != np.array([code_of.get(key, -1) for key in keys])[wanted]).sum(axis=0)
    worst = int(np.argmax(bad))
    return Fraction(int(bad[worst]), bank.m), (xs[rows[worst]], xs[cols[worst]])


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
    ``_Decoding`` of the scheme's rule, built from its params on first
    use, and, once built, the verdict matrix of its N labels, an N×N bool
    array.
    """

    decoder: str
    params: dict
    label_bits: int
    labels: tuple[Bits, ...]
    _decoding: object = field(default=None, init=False, compare=False, repr=False)


@dataclass
class _Decoding:
    """What a scheme keeps for decoding: its one blind rule, which decides
    every bank seed's messages, its bank size m and message width c;
    ``index``, each label value's index (the last, where values repeat:
    equal values decode alike), made when first needed; and ``matrix``, once
    built, a bool array where ``matrix[i, j]`` is the decoded verdict on
    labels i and j."""

    rule: Rule
    m: int
    c: int
    index: dict[int, int] | None = None
    matrix: np.ndarray | None = None


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


def _scheme_rule(scheme: LabelingScheme) -> tuple[Rule, int, int]:
    """The scheme's rule, bank size and message width, from its params."""
    if scheme.decoder != "seed-majority":
        raise InputError(f"unknown decoder {scheme.decoder!r}")
    m, c = _bank_shape(scheme.params, scheme.label_bits)
    proto_params = scheme.params["protocol"]
    cls = _labelable_class(proto_params)
    if cls is None:
        raise InputError(f"protocol {proto_params.get('name')!r} cannot be decoded")
    rule = cls.rule_from_params(proto_params)
    if rule.width != c:
        raise InputError(f"message_bits {c} disagrees with the {rule.width}-bit protocol")
    return rule, m, c


def _label_table(values: list[int], widths: tuple[int, ...], m: int) -> np.ndarray:
    """The seed-major table of the messages that label values of m messages
    hold, each cut at ``widths``: one ``field_table`` cut of every label at
    the widths repeated m times, its rows then put seed after seed."""
    table = field_table(values, widths * m).reshape(m, len(widths), len(values))
    return table.transpose(1, 0, 2).reshape(len(widths), m * len(values))


def _label_values(table: np.ndarray, widths: tuple[int, ...], m: int) -> list[int]:
    """The label values that hold a seed-major table's messages of m seeds,
    cut at ``widths``, first seed first: one ``field_values`` join of each
    label's fields, the widths repeated m times."""
    n = table.shape[1] // m
    fields = table.reshape(len(widths), m, n).transpose(1, 0, 2).reshape(m * len(widths), n)
    return field_values(fields, widths * m)


def _vote(rule: Rule, m: int, c: int, x: int, y: int) -> bool:
    """Strict majority of the per-seed verdicts on label values x and y.

    The rule decides message s of each, one seed after another, and the
    vote stops once it is settled: True at the (m // 2 + 1)-th positive
    verdict, False at the ceil(m / 2)-th negative one, so a tie is False.
    """
    mask = (1 << c) - 1
    yes = 0
    for seen, shift in enumerate(range((m - 1) * c, -1, -c), 1):
        yes += positive_verdict(rule.decide(rule.unpack(x >> shift & mask),
                                            rule.unpack(y >> shift & mask)))
        if 2 * yes > m or 2 * (seen - yes) >= m:  # settled, at the latest by seed m
            return 2 * yes > m


def _scheme_decoding(scheme: LabelingScheme) -> _Decoding:
    """The scheme's ``_Decoding``, its rule built from its params on first use."""
    if scheme._decoding is None:
        object.__setattr__(scheme, "_decoding", _Decoding(*_scheme_rule(scheme)))
    return scheme._decoding


def _label_index(scheme: LabelingScheme) -> dict[int, int]:
    """The scheme's label value -> index map, made on first use."""
    kept = _scheme_decoding(scheme)
    if kept.index is None:
        kept.index = {label.value: i for i, label in enumerate(scheme.labels)}
    return kept.index


def _verdict_matrix(scheme: LabelingScheme) -> np.ndarray:
    """The scheme's verdict matrix, built when it holds none.

    A label of another width raises ``InputError`` before anything is
    built.  The labels are cut into one seed-major table of their messages
    (``_label_table``), ``Rule.pair_codes`` gives every ``triu_pairs`` pair's
    verdict under every seed, as in ``bank_bad_fraction``, and a strict
    majority of positive verdicts decodes positive in both triangles.
    """
    kept = scheme._decoding
    if kept is not None and kept.matrix is not None:
        return kept.matrix
    labels = scheme.labels
    for i, label in enumerate(labels):
        if label.length != scheme.label_bits:
            raise InputError(f"label {i} is {label.length} bits, not {scheme.label_bits}")
    kept = _scheme_decoding(scheme)
    m, n = kept.m, len(labels)
    rows, cols = triu_pairs(n)
    table = _label_table([label.value for label in labels], kept.rule.table_widths, m)
    positives = np.zeros(len(rows), dtype=np.intp)
    for verdicts, codes in kept.rule.pair_codes(table, n):
        positives += np.array(list(map(positive_verdict, verdicts)), dtype=bool)[codes].sum(axis=0)
    matrix = np.zeros((n, n), dtype=bool)
    matrix[rows, cols] = matrix[cols, rows] = 2 * positives > m
    kept.matrix = matrix
    _label_index(scheme)
    return matrix


def decode_labels(scheme: LabelingScheme, lx: Bits, ly: Bits) -> bool:
    """Majority vote of the per-seed referee verdicts on two labels.

    Pure and symmetric; a strict majority of positive verdicts decodes to
    True, everything else (ties included) to False.  A pair of two scheme
    labels reads the scheme's verdict matrix, built first when the scheme
    holds none, its rule has an all-pairs form and the pair is not its
    first.  Every other pair takes ``_vote``: the first, so one decode of a
    freshly read file builds no matrix, strangers, and every pair of a
    form-less rule, whose matrix would cost N*N*m/2 ``decide`` calls.
    """
    if lx.length != scheme.label_bits or ly.length != scheme.label_bits:
        raise InputError(
            f"labels must be {scheme.label_bits} bits, "
            f"got {lx.length} and {ly.length}"
        )
    x, y = lx.value, ly.value
    kept = scheme._decoding
    if kept is None:  # the scheme's first pair builds its rule alone
        kept = _scheme_decoding(scheme)
    elif kept.matrix is None and kept.rule.all_pairs is not None:
        index = _label_index(scheme)
        if x in index and y in index:
            _verdict_matrix(scheme)
    if kept.matrix is not None:
        i, j = kept.index.get(x), kept.index.get(y)
        if i is not None and j is not None:
            return kept.matrix.item(i, j)
    return _vote(kept.rule, kept.m, kept.c, x, y)


def scheme_mismatches(scheme: LabelingScheme, want: np.ndarray):
    """Every label pair (i, j), i <= j, that decodes other than ``want[i, j]``,
    an N×N bool matrix over the scheme's N labels, in ``triu_pairs`` order:
    ``np.nonzero`` of the upper triangle of their difference from the
    scheme's verdict matrix, built first when it holds none; so a scheme
    ``derandomized_labeling`` returns decodes its own pairs from the matrix
    its check built.  A label of another width, or a ``want`` of another
    shape, raises ``InputError``.
    """
    matrix = _verdict_matrix(scheme)
    if np.shape(want) != matrix.shape:
        raise InputError(f"want must be {matrix.shape}, got {np.shape(want)}")
    rows, cols = np.nonzero(np.triu(matrix != want))
    return zip(rows.tolist(), cols.tolist())


def derandomized_labeling(protocol: SmpProtocol, inputs, bank: SeedBank,
                          margin: Fraction = Fraction(1, 32)) -> LabelingScheme:
    """Concatenate per-seed messages into labels and verify exactness.

    Requires a bank whose guarantee leaves a real majority margin: with at
    most an eps+delta < 1/2 fraction of bad seeds per pair, the correct
    verdict always holds a strict majority, so the decoded predicate has
    zero errors -- which is checked on every pair before returning.  The
    message table and expected verdicts are the ones the bank kept from
    its check when it was checked against this protocol object and these
    inputs, and are made here otherwise; the labels are packed from that
    table in numpy.
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
    values = _label_values(_seed_table(protocol, xs, bank), protocol.table_widths, bank.m)
    labels = tuple(Bits(value, bank.m * c) for value in values)
    params = {
        "protocol": protocol.params(),
        "bank_m": bank.m,
        "message_bits": c,
    }
    scheme = LabelingScheme("seed-majority", params, bank.m * c, labels)
    keys, wanted = _expected_codes(protocol, xs, bank)
    near = np.zeros((len(xs), len(xs)), dtype=bool)
    near[triu_pairs(len(xs))] = np.array([positive_verdict(Verdict(*key)) for key in keys],
                                         dtype=bool)[wanted]
    for i, j in scheme_mismatches(scheme, near):
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
