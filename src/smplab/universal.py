"""Decision graphs, universal-graph search, seed banks, and derandomized
vertex labelings.

A blind referee is a fixed function of two messages, so its accept set is
a graph: vertices are messages, edges the accepted pairs.  Running a
protocol then *is* mapping inputs into that fixed graph -- encoders become
vertex maps, per-pair correctness becomes faithfulness of the map, and
message length becomes the log of the graph's size.  ``decision_graph``
materializes that graph, ``check_prob_embedding`` measures how faithful a
seeded family of maps is, and ``min_universal_graph`` searches, by brute
force at toy scale, for the smallest twin-free target a whole family of
graphs maps into.

The derandomization half: sample a bank of seeds, verify per input pair
that only a small fraction of seeds mislead the referee, then concatenate
the per-seed messages into one label per vertex and decode by majority
vote.  After verification the scheme is deterministic and exact -- zero
errors on its instance, checked before anything is returned.

Decoding cost: a scheme holds one rule per bank seed -- the protocol's
rule, built once for that seed's draws, or the same blind rule m times.
Each label a scheme meets is cut into its m per-seed messages and each
message is unpacked once, so a scheme over n vertices costs at most n*m
unpacks, and every pair after that costs m ``decide`` calls.  The tables
live on the scheme object.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import Bits, concat_all
from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .graphs import Graph, VertexMap, find_faithful_map, reduced_size
from .protocols.base import Rule, SmpProtocol, Verdict, as_fraction
from .protocols.registry import PROTOCOLS
from .rng import HashRandomness, SharedRandomness

BRUTE_MESSAGE_CAP = 16  # widest message space decision_graph will enumerate
ENUM_CAP = 5  # largest candidate size min_universal_graph enumerates
FAMILY_CAP = 8
MEMBER_CAP = 5
WIDTH_CAP = 1 << 20  # widest message or label, in bits, built from outside input


def positive_verdict(v: Verdict) -> bool:
    """Collapse a verdict to the boolean the decision graph records."""
    return v.kind in ("accept", "distance")


def _input_list(inputs) -> list[int]:
    if isinstance(inputs, int):
        return list(range(inputs))
    return list(inputs)


def _as_randomness(rnd) -> SharedRandomness:
    if isinstance(rnd, SharedRandomness):
        return rnd
    if isinstance(rnd, int):
        return HashRandomness(rnd)
    raise InputError("need an integer seed or a SharedRandomness instance")


# -- decision graphs -------------------------------------------------------


@dataclass(frozen=True)
class DecisionGraph:
    """A referee's accept set, materialized over a message space.

    Vertex i stands for the message value ``messages[i]``; in all-messages
    mode that is just i itself.
    """

    graph: Graph
    message_bits: int
    messages: tuple[int, ...]
    mode: str

    def message(self, vertex: int) -> Bits:
        return Bits(self.messages[vertex], self.message_bits)

    def vertex_of(self, message) -> int:
        value = message.value if isinstance(message, Bits) else message
        if self.mode == "all":
            if not 0 <= value < len(self.messages):
                raise InputError(f"message value {value} out of range")
            return value
        try:
            return self.messages.index(value)
        except ValueError:
            raise InputError(f"message value {value} never occurs") from None


def decision_graph(protocol: SmpProtocol, mode: str = "all",
                   cap: int = BRUTE_MESSAGE_CAP, inputs=None,
                   rnd=None) -> DecisionGraph:
    """Materialize the referee as a graph over messages.

    ``mode="all"`` enumerates every c-bit message (c capped at ``cap``);
    ``mode="occurring"`` restricts to the messages the given inputs produce
    under the given randomness, which has no width cap.  The referee must
    be blind (fix a seed first for the seed-reading kind) and role-free.
    """
    if protocol.referee_reads_randomness:
        raise InputError(
            "the referee reads the shared randomness; pin a seed with "
            "fix_seed (or build the per-seed family) first"
        )
    if not protocol.symmetric:
        raise InputError("protocol has distinct sender roles; symmetrize it first")
    c = protocol.cost_bits
    if mode == "all":
        if c > cap:
            raise CapacityError(f"{c}-bit message space exceeds the {cap}-bit cap")
        messages = tuple(range(1 << c))
    elif mode == "occurring":
        if inputs is None:
            raise InputError("occurring-messages mode needs the input list")
        source = _as_randomness(rnd)
        messages = tuple(sorted({
            protocol.encode(v, source).value for v in _input_list(inputs)
        }))
    else:
        raise InputError(f"unknown decision-graph mode {mode!r}")
    rule = protocol.rule()
    fields = [rule.unpack(a) for a in messages]
    edges = []
    loops = []
    for i, fa in enumerate(fields):
        if positive_verdict(rule.decide(fa, fa)):
            loops.append(i)
        for j in range(i + 1, len(fields)):
            forward = positive_verdict(rule.decide(fa, fields[j]))
            if forward != positive_verdict(rule.decide(fields[j], fa)):
                raise VerificationError(
                    f"referee disagrees with itself on messages {messages[i]}, {messages[j]}"
                )
            if forward:
                edges.append((i, j))
    return DecisionGraph(Graph(len(messages), edges, loops=loops), c, messages, mode)


class FixedSeedProtocol(SmpProtocol):
    """A seed-reading protocol with the shared randomness pinned.

    Encoding and refereeing both use the stored seed, so the referee
    becomes a fixed function of the messages and the protocol as a whole
    is deterministic (its draw support is empty).
    """

    def __init__(self, inner: SmpProtocol, seed: int):
        self.inner = inner
        self.seed = seed
        self._rnd = HashRandomness(seed)
        self.name = f"{inner.name}-seed{seed}"
        self.one_sided = inner.one_sided

    def params(self):
        return {"inner": self.inner.params(), "seed": self.seed}

    @property
    def cost_bits(self):
        return self.inner.cost_bits

    def encode(self, v, rnd=None):
        return self.inner.encode(v, self._rnd)

    def rule(self, rnd=None):
        return self.inner.rule(self._rnd)

    def expected(self, x, y):
        return self.inner.expected(x, y)


def fix_seed(protocol: SmpProtocol, seed: int) -> FixedSeedProtocol:
    return FixedSeedProtocol(protocol, seed)


def weak_to_universal_family(protocol: SmpProtocol, bank: "SeedBank",
                             cap: int = BRUTE_MESSAGE_CAP) -> list[DecisionGraph]:
    """One decision graph per bank seed: the referee with that seed pinned.

    Feeding the result to ``min_universal_graph`` (at toy scale) turns a
    seed-reading protocol into a family of fixed graphs whose size bounds
    what a blind-referee protocol needs.
    """
    if not protocol.referee_reads_randomness:
        raise InputError("referee is already blind; call decision_graph directly")
    return [decision_graph(fix_seed(protocol, s), mode="all", cap=cap)
            for s in bank.seeds]


# -- probabilistic embeddings ----------------------------------------------


@dataclass(frozen=True)
class EmbeddingCheck:
    passed: bool
    worst_rate: Fraction
    worst_pair: tuple[int, int]
    threshold: Fraction
    trials: int


def check_prob_embedding(G: Graph, U: Graph, sampler, eps, trials: int,
                         exact: bool = False) -> EmbeddingCheck:
    """Estimate, per vertex pair, how often sampled maps break adjacency.

    ``sampler(seed)`` must return a VertexMap from G into U; seeds 0..trials-1
    are used.  The check passes iff the worst per-pair failure rate stays
    within eps plus a three-sigma sampling margin.  With ``exact=True`` the
    trials are taken to enumerate the whole seed space, so the margin is
    dropped and the rates are exact probabilities.
    """
    eps = as_fraction(eps)
    if trials < 1:
        raise InputError("need at least one trial")
    if isinstance(G, DecisionGraph):
        G = G.graph
    if isinstance(U, DecisionGraph):
        U = U.graph
    gm = G.matrix()
    um = U.matrix()
    fails = np.zeros((G.n, G.n), dtype=np.int64)
    for seed in range(trials):
        phi = sampler(seed)
        if len(phi.image) != G.n or phi.codomain != U.n:
            raise InputError("sampler emitted a map of the wrong shape")
        img = np.asarray(phi.image, dtype=np.intp)
        fails += gm != um[np.ix_(img, img)]
    worst = np.unravel_index(np.argmax(fails), fails.shape)
    worst_rate = Fraction(int(fails[worst]), trials)
    if exact:
        threshold = eps
    else:
        sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
        threshold = eps + Fraction(3 * sigma)
    return EmbeddingCheck(
        passed=worst_rate <= threshold,
        worst_rate=worst_rate,
        worst_pair=(int(worst[0]), int(worst[1])),
        threshold=threshold,
        trials=trials,
    )


def protocol_map_sampler(protocol: SmpProtocol, inputs, target: DecisionGraph):
    """Seed -> VertexMap sending each input to its message's vertex in target."""
    xs = _input_list(inputs)

    def sample(seed: int) -> VertexMap:
        rnd = HashRandomness(seed)
        image = tuple(
            target.vertex_of(protocol.encode(v, rnd).value) for v in xs
        )
        return VertexMap(image, target.graph.n)

    return sample


# -- minimal universal graphs ----------------------------------------------


@dataclass(frozen=True)
class MinUniversalResult:
    graph: Graph
    bits: int  # ceil(log2 of the target's size)


def _twin_free_graphs(k: int):
    """All twin-free graphs on k vertices, in ascending bitmask order.

    Bit b of the mask switches pair ``pairs[b]`` on, diagonal included, so
    the enumeration is deterministic and revisits nothing: graphs whose
    reduction is smaller than k already appeared at a smaller size.
    """
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    for mask in range(1 << len(pairs)):
        rows = [0] * k
        edges = []
        loops = []
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                if i == j:
                    loops.append(i)
                else:
                    edges.append((i, j))
        if len(set(rows)) != k:
            continue
        yield Graph(k, edges, loops=loops)


def min_universal_graph(family, enum_cap: int = ENUM_CAP) -> MinUniversalResult:
    """Smallest twin-free graph every family member maps into faithfully.

    Exhaustive: candidate targets are enumerated by increasing size and,
    within a size, by bitmask; the first hit is returned, so the result is
    deterministic.  Faithful maps may collapse vertices, which is why each
    candidate only needs to be as large as the largest twin-reduced member.
    """
    members = [g for g in family]
    if not members:
        raise InputError("empty graph family")
    if len(members) > FAMILY_CAP:
        raise CapacityError(f"family size capped at {FAMILY_CAP} graphs")
    if any(g.n > MEMBER_CAP for g in members):
        raise CapacityError(f"family members capped at {MEMBER_CAP} vertices")
    uniq = []
    for g in members:
        if g not in uniq:
            uniq.append(g)
    start = max(reduced_size(g) for g in uniq)
    for k in range(start, enum_cap + 1):
        for cand in _twin_free_graphs(k):
            if all(find_faithful_map(g, cand, cap=max(8, enum_cap)) is not None
                   for g in uniq):
                return MinUniversalResult(cand, (k - 1).bit_length())
    raise CapacityError(
        f"no universal graph within {enum_cap} vertices; raise enum_cap"
    )


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
    """

    seeds: tuple[int, ...]
    eps: Fraction
    delta: Fraction
    worst_bad: Fraction | None = field(default=None, compare=False)

    @property
    def m(self) -> int:
        return len(self.seeds)


def bank_bad_fraction(protocol: SmpProtocol, inputs, bank: SeedBank):
    """Worst per-pair fraction of seeds with a wrong verdict: (fraction, pair).

    Pairs run over unordered input pairs, diagonal included, for role-free
    protocols, and over all ordered pairs otherwise.
    """
    xs = _input_list(inputs)
    n = len(xs)
    if protocol.symmetric:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    expected = [protocol.expected(xs[i], xs[j]) for i, j in pairs]
    bad = [0] * len(pairs)
    for seed in bank.seeds:
        rnd = HashRandomness(seed)
        rule = protocol.rule(rnd)
        fa = [rule.unpack(protocol.encode_a(v, rnd).value) for v in xs]
        fb = fa if protocol.symmetric else [
            rule.unpack(protocol.encode_b(v, rnd).value) for v in xs]
        for idx, (i, j) in enumerate(pairs):
            if rule.decide(fa[i], fb[j]) != expected[idx]:
                bad[idx] += 1
    worst_idx = max(range(len(pairs)), key=lambda i: (bad[i], -i))
    i, j = pairs[worst_idx]
    return Fraction(bad[worst_idx], bank.m), (xs[i], xs[j])


def newman_seed_bank(protocol: SmpProtocol, inputs, eps, delta, rng,
                     retries: int = 16) -> SeedBank:
    """Sample and verify a seed bank; resample on failure, up to a limit.

    The returned bank satisfies, for every input pair, that at most an
    eps+delta fraction of its seeds make the referee err -- checked
    exhaustively, not assumed.
    """
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    xs = _input_list(inputs)
    m = newman_bank_size(len(xs), eps, delta)
    if isinstance(rng, int):
        rng = random.Random(rng)
    bound = eps + delta
    worst, pair = None, None
    for _ in range(retries):
        seeds = tuple(rng.getrandbits(63) for _ in range(m))
        bank = SeedBank(seeds, eps, delta)
        worst, pair = bank_bad_fraction(protocol, xs, bank)
        if worst <= bound:
            return SeedBank(seeds, eps, delta, worst)
    raise VerificationError(
        f"seed bank failed verification {retries} times; worst pair "
        f"{pair} errs on {worst} of the seeds (budget {bound})"
    )


# -- derandomized labelings --------------------------------------------------


@dataclass(frozen=True)
class LabelingScheme:
    """Per-vertex labels plus the named rule that decodes a pair of them.

    Treat a scheme as read-only: ``decode_labels`` keeps the decoder it
    builds on first use, with its per-label tables, in ``_vote``, a private
    field that lives and dies with this object and takes no part in
    equality.
    """

    decoder: str
    params: dict
    label_bits: int
    labels: tuple[Bits, ...]
    _vote: object = field(default=None, init=False, compare=False, repr=False)


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
    cls = PROTOCOLS.get(name) if isinstance(name, str) else None
    return None if cls is None or cls.rule_from_params is None else cls


def _table_vote(rules: list[Rule], c: int):
    """Majority vote over per-label field tables, one rule per bank seed.

    A label value met for the first time is cut into its m per-seed
    messages, each unpacked once by its seed's rule and kept; every pair
    after that costs m ``decide`` calls.
    """
    m = len(rules)
    decides = [rule.decide for rule in rules]
    mask = (1 << c) - 1
    shifts = range((m - 1) * c, -1, -c)
    table = {}

    def fields(value):
        row = table.get(value)
        if row is None:
            row = table[value] = [rule.unpack(value >> shift & mask)
                                  for rule, shift in zip(rules, shifts)]
        return row

    def vote(lx: Bits, ly: Bits) -> bool:
        verdicts = map(operator.call, decides, fields(lx.value), fields(ly.value))
        return 2 * sum(map(positive_verdict, verdicts)) > m

    return vote


def _scheme_vote(scheme: LabelingScheme):
    """The scheme's pair decoder, built from its params on first use."""
    if scheme._vote is not None:
        return scheme._vote
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
    vote = _table_vote(rules, c)
    object.__setattr__(scheme, "_vote", vote)
    return vote


def decode_labels(scheme: LabelingScheme, lx: Bits, ly: Bits) -> bool:
    """Majority vote of the per-seed referee verdicts on two labels.

    Pure and symmetric; a strict majority of positive verdicts decodes to
    True, everything else (ties included) to False.
    """
    if lx.length != scheme.label_bits or ly.length != scheme.label_bits:
        raise InputError(
            f"labels must be {scheme.label_bits} bits, "
            f"got {lx.length} and {ly.length}"
        )
    return _scheme_vote(scheme)(lx, ly)


def scheme_mismatches(scheme: LabelingScheme, want):
    """Every label pair (i, j), i <= j, that decodes other than ``want(i, j)``."""
    for i, lx in enumerate(scheme.labels):
        for j, ly in enumerate(scheme.labels[i:], i):
            if decode_labels(scheme, lx, ly) != want(i, j):
                yield i, j


def derandomized_labeling(protocol: SmpProtocol, inputs, bank: SeedBank,
                          margin: Fraction = Fraction(1, 32)) -> LabelingScheme:
    """Concatenate per-seed messages into labels and verify exactness.

    Requires a bank whose guarantee leaves a real majority margin: with at
    most an eps+delta < 1/2 fraction of bad seeds per pair, the correct
    verdict always holds a strict majority, so the decoded predicate has
    zero errors -- which is checked on every pair before returning.
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
    per_seed = []
    for seed in bank.seeds:
        rnd = HashRandomness(seed)
        per_seed.append([protocol.encode(v, rnd) for v in xs])
    labels = tuple(
        concat_all([per_seed[s][i] for s in range(bank.m)])
        for i in range(len(xs))
    )
    params = {
        "protocol": protocol.params(),
        "bank_m": bank.m,
        "message_bits": c,
    }
    if protocol.referee_reads_randomness:
        params["seeds"] = list(bank.seeds)
    scheme = LabelingScheme("seed-majority", params, bank.m * c, labels)
    for i, j in scheme_mismatches(
            scheme, lambda a, b: positive_verdict(protocol.expected(xs[a], xs[b]))):
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
