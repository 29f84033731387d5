"""Seed banks, labelings, and the pinned-seed oracle."""

import collections
import copy
import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import test_golden
from oracles import EqualitySketch, fix_seed, parity_blocks_slices
from smplab.bits import Bits, concat_all
from smplab.errors import (
    InputError,
    PreconditionError,
    VerificationError,
)
from smplab.generators import cycle_graph, random_tree
from smplab.graphs import bfs_distance
from smplab.lab import _protocol_for, generate, label_pipeline
from smplab.lattices import boolean_lattice, lattice_distance
from smplab.protocols import (
    ACCEPT,
    REJECT,
    HashedAdjacency,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
    beyond_verdict,
    distance_verdict,
)
from smplab.protocols.arboricity import color_slots_rule
from smplab.protocols.base import Rule, SmpProtocol, field_table
from smplab.protocols.lattice import parity_blocks_rule
from smplab.protocols.planar import two_hop_rule
from smplab.protocols.tree import window_rule
from smplab.rng import HashRandomness, derive_seed
from smplab import lab, universal
from smplab.universal import (
    _vote,
    LabelingScheme,
    SeedBank,
    bank_bad_fraction,
    decode_labels,
    derandomized_labeling,
    labeling_from_json,
    labeling_to_json,
    newman_bank_size,
    newman_seed_bank,
    positive_verdict,
    scheme_mismatches,
)


def want_matrix(n, want):
    """The N×N bool matrix of ``want(i, j)`` that ``scheme_mismatches`` reads."""
    return np.array([[want(i, j) for j in range(n)] for i in range(n)], dtype=bool).reshape(n, n)


class OneBitEquality(SmpProtocol):
    """Send the low bit, accept iff the bits agree."""

    name = "one-bit-equality"

    @property
    def cost_bits(self):
        return 1

    def encode(self, v, rnd):
        return Bits(v & 1, 1)

    def rule(self, rnd=None):
        return Rule(1, int, lambda a, b: ACCEPT if a == b else REJECT)

    def expected(self, x, y):
        return ACCEPT if (x & 1) == (y & 1) else REJECT

    def params(self):
        return {"name": self.name}


def unsent(cls):
    """A subclass of cls whose ``encode`` fails the test: a protocol that
    must be refused before anything is encoded."""
    class Unsent(cls):
        def encode(self, v, rnd):
            raise AssertionError("encoded before the protocol was checked")

    return Unsent


def accept_graph(proto):
    """The referee's accepted pairs over every message of ``cost_bits`` bits,
    as a 0/1 matrix indexed by message value."""
    messages = [Bits(v, proto.cost_bits) for v in range(2**proto.cost_bits)]
    return np.array([[proto.referee(a, b) == ACCEPT for b in messages] for a in messages])


class TestDecisionGraph:
    def test_parity_sketch_is_cube_closure(self):
        # All 16 messages of the 4-bucket single-round sketch at k=1; the
        # accept set must be exactly the pairs at XOR weight <= 1.
        proto = UniversalLatticeDistance(boolean_lattice(3), 1, Fraction(1, 3), m=4)
        assert proto.cost_bits == 4
        graph = accept_graph(proto)
        assert graph.shape == (16, 16)
        assert graph.tolist() == [[(a ^ b).bit_count() <= 1 for b in range(16)]
                                  for a in range(16)]

    def test_toy_graph_is_symmetric(self):
        graph = accept_graph(EqualitySketch(4, 2))
        assert (graph == graph.T).all()
        assert graph.tolist() == np.eye(4, dtype=bool).tolist()


class TestFixSeed:
    def test_pinned_protocol_is_deterministic(self):
        weak = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 8))
        pinned = fix_seed(weak, 42)
        assert pinned.support(3) == []
        assert not pinned.referee_reads_randomness
        # empty draw support means exact_error enumerates a single world
        err = pinned.exact_error(0, 3)
        assert err in (Fraction(0), Fraction(1))

    def test_pinned_encoding_matches_inner(self):
        weak = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 8))
        pinned = fix_seed(weak, 42)
        rnd = HashRandomness(42)
        for v in range(4):
            assert pinned.encode(v, None) == weak.encode(v, rnd)


class TestNewmanBank:
    def test_bank_size_examples(self):
        assert newman_bank_size(16, Fraction(1, 3), Fraction(1, 24)) == 3195
        assert newman_bank_size(64, Fraction(1, 10), Fraction(1, 10)) == 250
        assert newman_bank_size(32, Fraction(1, 3), Fraction(1, 8)) == 444

    def test_bank_size_clears_the_strict_bound(self):
        for n, eps, delta in [(16, Fraction(1, 3), Fraction(1, 24)),
                              (7, Fraction(1, 4), Fraction(1, 5)),
                              (100, Fraction(1, 8), Fraction(1, 16))]:
            m = newman_bank_size(n, eps, delta)
            assert m > float(3 * eps / delta**2) * math.log(n * n)

    def test_one_sided_protocol_positive_pairs_have_no_bad_seeds(self):
        # every pair of the 4-element lattice is within distance 2, so a
        # one-sided sketch at k=2 never errs, whatever the bank
        proto = UniversalLatticeDistance(boolean_lattice(2), 2, Fraction(1, 3))
        bank = SeedBank(tuple(range(20)), Fraction(1, 3), Fraction(1, 8))
        worst, _ = bank_bad_fraction(proto, 4, bank)
        assert worst == 0

    def test_tree_bank_verifies_and_reverifies(self):
        tree = random_tree(random.Random(5), 16)
        proto = TreeKDistance(tree, 2, Fraction(1, 10))
        bank = newman_seed_bank(proto, 16, Fraction(1, 10), Fraction(1, 10), 77)
        assert bank.m == newman_bank_size(16, Fraction(1, 10), Fraction(1, 10))
        worst, _ = bank_bad_fraction(proto, 16, bank)
        assert worst == bank.worst_bad
        assert worst <= Fraction(1, 10) + Fraction(1, 10)

    def test_bank_determinism(self):
        proto = UniversalLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3))
        a = newman_seed_bank(proto, 4, Fraction(1, 3), Fraction(1, 4), 123)
        b = newman_seed_bank(proto, 4, Fraction(1, 3), Fraction(1, 4), 123)
        assert a.seeds == b.seeds

    def test_empty_inputs_raise_input_error(self):
        bank = SeedBank((1, 2, 3), Fraction(1, 8), Fraction(1, 8))
        with pytest.raises(InputError, match="at least one input"):
            bank_bad_fraction(OneBitEquality(), [], bank)

    def test_seed_reading_referees_are_refused_before_encoding(self):
        # a referee that reads the draws cannot decode labels without the
        # seeds, so the bank check refuses it before any message is made
        bank = SeedBank((1, 2, 3), Fraction(1, 8), Fraction(1, 8))
        for proto in (unsent(WeakLatticeDistance)(boolean_lattice(2), 1, Fraction(1, 8)),
                      unsent(HashedAdjacency)(cycle_graph(4), 2)):
            with pytest.raises(PreconditionError, match="reads the shared randomness"):
                bank_bad_fraction(proto, 4, bank)
            with pytest.raises(PreconditionError, match="reads the shared randomness"):
                newman_seed_bank(proto, 4, Fraction(1, 8), Fraction(1, 8), 1)

    def test_empty_bank_raises_input_error(self):
        with pytest.raises(InputError, match="at least one seed"):
            SeedBank((), Fraction(1, 8), Fraction(1, 8))

    def test_hopeless_protocol_exhausts_retries(self):
        class AlwaysWrong(OneBitEquality):
            def expected(self, x, y):
                return REJECT if (x & 1) == (y & 1) else ACCEPT

        with pytest.raises(VerificationError, match="worst pair"):
            newman_seed_bank(AlwaysWrong(), 2, Fraction(1, 4), Fraction(1, 4),
                             0, retries=2)


class TestDerandomizedLabeling:
    def tree_scheme(self):
        tree = random_tree(random.Random(5), 16)
        proto = TreeKDistance(tree, 2, Fraction(1, 10))
        bank = newman_seed_bank(proto, 16, Fraction(1, 10), Fraction(1, 10), 77)
        return tree, proto, bank, derandomized_labeling(proto, 16, bank)

    def test_zero_errors_against_bfs(self):
        tree, proto, bank, scheme = self.tree_scheme()
        assert scheme.label_bits == bank.m * proto.cost_bits
        for x in range(16):
            for y in range(x, 16):
                want = bfs_distance(tree, x, y) <= 2
                got = decode_labels(scheme, scheme.labels[x], scheme.labels[y])
                assert got == want

    def test_mismatches_are_the_pairs_decoded_against_want(self):
        tree, _, _, scheme = self.tree_scheme()
        near = {(x, y) for x in range(16) for y in range(x, 16) if bfs_distance(tree, x, y) <= 2}
        assert list(scheme_mismatches(scheme, want_matrix(16, lambda x, y: (x, y) in near))) == []
        flipped = {(0, 5), (3, 14), (7, 7), (15, 15)}
        wrong = scheme_mismatches(scheme, want_matrix(
            16, lambda x, y: ((x, y) in near) != ((x, y) in flipped)))
        assert list(wrong) == sorted(flipped)
        # only the upper triangle is read: flipping pairs below it finds nothing
        below = want_matrix(16, lambda x, y: ((x, y) in near) != (y < x))
        assert list(scheme_mismatches(scheme, below)) == []
        with pytest.raises(InputError, match="want must be"):
            scheme_mismatches(scheme, np.zeros((15, 16), dtype=bool))

    def test_decoding_is_symmetric(self):
        _, _, _, scheme = self.tree_scheme()
        for x, y in [(0, 5), (3, 14), (7, 7)]:
            assert decode_labels(scheme, scheme.labels[x], scheme.labels[y]) == (
                decode_labels(scheme, scheme.labels[y], scheme.labels[x])
            )

    def test_single_seed_labels_are_raw_messages(self):
        proto = UniversalLatticeDistance(boolean_lattice(2), 2, Fraction(1, 3))
        bank = SeedBank((99,), Fraction(1, 3), Fraction(1, 16))
        scheme = derandomized_labeling(proto, 4, bank)
        rnd = HashRandomness(99)
        assert scheme.labels == tuple(proto.encode(v, rnd) for v in range(4))

    def test_margin_precondition(self):
        proto = UniversalLatticeDistance(boolean_lattice(2), 2, Fraction(1, 3))
        fat = SeedBank((1, 2, 3), Fraction(1, 3), Fraction(1, 6))  # 1/2 exactly
        with pytest.raises(PreconditionError):
            derandomized_labeling(proto, 4, fat)

    def test_unlabelable_protocol_rejected(self):
        # a labeling is refused before anything is encoded unless its file
        # can rebuild the rule: the protocol must be registered and its rule
        # must rebuild from its params
        bank = SeedBank((1, 2, 3), Fraction(1, 8), Fraction(1, 8))
        for proto in (unsent(EqualitySketch)(4, 2), unsent(HashedAdjacency)(cycle_graph(4), 2),
                      unsent(WeakLatticeDistance)(boolean_lattice(2), 1, Fraction(1, 8))):
            with pytest.raises(PreconditionError, match="cannot be labeled"):
                derandomized_labeling(proto, 4, bank)

    def test_insufficient_bank_is_caught(self):
        tree = random_tree(random.Random(3), 8)
        proto = TreeKDistance(tree, 1, Fraction(1, 2))
        # seed 0 misleads the referee on the pair (0, 4); a one-seed bank
        # built from it decodes that pair wrongly
        assert not proto.run(0, 4, HashRandomness(0)).correct
        bad_bank = SeedBank((0,), Fraction(1, 10), Fraction(1, 10))
        with pytest.raises(VerificationError, match="decodes wrongly"):
            derandomized_labeling(proto, 8, bad_bank)

    def test_label_length_checked(self):
        _, _, _, scheme = self.tree_scheme()
        with pytest.raises(InputError):
            decode_labels(scheme, scheme.labels[0], Bits(0, 3))

    def test_json_round_trip_is_byte_identical(self):
        _, _, _, scheme = self.tree_scheme()
        doc = labeling_to_json(scheme)
        text = json.dumps(doc, sort_keys=True)
        again = labeling_from_json(json.loads(text))
        assert again == scheme
        assert json.dumps(labeling_to_json(again), sort_keys=True) == text

    def test_rebuilt_scheme_decodes_identically(self):
        tree, _, _, scheme = self.tree_scheme()
        again = labeling_from_json(labeling_to_json(scheme))
        for x in range(8):
            for y in range(x, 8):
                assert decode_labels(again, again.labels[x], again.labels[y]) == (
                    bfs_distance(tree, x, y) <= 2
                )

    def test_labeling_json_validation(self):
        with pytest.raises(InputError):
            labeling_from_json({"decoder": "seed-majority"})
        with pytest.raises(InputError):
            labeling_from_json(
                {"decoder": "x", "params": {}, "label_bits": 0, "labels": []}
            )
        with pytest.raises(InputError):
            labeling_from_json([1, 2, 3])

    def test_unknown_decoder_rejected(self):
        _, _, _, scheme = self.tree_scheme()
        doc = labeling_to_json(scheme)
        doc["decoder"] = "mystery"
        broken = labeling_from_json(doc)
        with pytest.raises(InputError):
            decode_labels(broken, broken.labels[0], broken.labels[1])

    def test_schemes_sharing_labels_decode_by_their_own_params(self):
        # one set of label values under three parameter sets: the threshold
        # k (which changes decide) and the block shape (which changes
        # unpack); decoding all three interleaved must match a vote of the
        # Bits-slicing reference referee under each scheme's own params
        L = boolean_lattice(3)
        proto = UniversalLatticeDistance(L, 1, Fraction(1, 8))
        bank = newman_seed_bank(proto, 8, Fraction(1, 8), Fraction(1, 8), 4)
        tight = derandomized_labeling(proto, 8, bank)

        def sibling(**changes):
            params = json.loads(json.dumps(tight.params))
            params["protocol"].update(changes)
            return LabelingScheme(tight.decoder, params, tight.label_bits, tight.labels)

        def reference_vote(scheme, lx, ly):
            m, c = scheme.params["bank_m"], scheme.params["message_bits"]
            block, k = scheme.params["protocol"]["m"], scheme.params["protocol"]["k"]
            votes = sum(positive_verdict(parity_blocks_slices(
                lx.take(j * c, c), ly.take(j * c, c), block, k)) for j in range(m))
            return 2 * votes > m

        schemes = [tight, sibling(k=3), sibling(m=2, rounds=proto.m * proto.rounds // 2)]
        got = {id(s): [] for s in schemes}
        for x in range(8):
            for y in range(8):
                lx, ly = tight.labels[x], tight.labels[y]
                for scheme in schemes:
                    verdict = decode_labels(scheme, lx, ly)
                    assert verdict == reference_vote(scheme, lx, ly)
                    got[id(scheme)].append(verdict)
        truth = [lattice_distance(L, x, y) <= 1 for x in range(8) for y in range(8)]
        assert got[id(tight)] == truth
        assert all(got[id(schemes[1])])
        assert got[id(schemes[2])] != truth

    def test_warm_and_reread_schemes_agree_on_every_pair(self):
        _, _, _, warm = self.tree_scheme()  # warmed by its own verification
        fresh = labeling_from_json(json.loads(json.dumps(labeling_to_json(warm))))
        rng = random.Random(8)
        strangers = [Bits(rng.getrandbits(warm.label_bits), warm.label_bits)
                     for _ in range(4)]
        labels = list(warm.labels) + strangers
        for lx in labels:
            for ly in labels:
                assert decode_labels(fresh, lx, ly) == decode_labels(warm, lx, ly)

def bit_rule(calls=None):
    """A one-bit rule whose verdict is positive iff the a-side bit is set:
    accept/reject against a zero b-side bit, distance/beyond against a set
    one.  Each decide is appended to ``calls`` when given."""
    def decide(a, b):
        if calls is not None:
            calls.append((a, b))
        if b:
            return distance_verdict(1) if a else beyond_verdict(1)
        return ACCEPT if a else REJECT

    return Rule(1, int, decide)


class TestSettledVote:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_every_verdict_pattern_is_a_strict_majority(self, m):
        # label x's bit s is seed s's verdict, so every pattern of m
        # verdicts is met, ties at even m included
        rule = bit_rule()
        for pattern in range(1 << m):
            want = 2 * bin(pattern).count("1") > m
            assert _vote(rule, m, 1, pattern, 0) is want
            assert _vote(rule, m, 1, pattern, pattern) is want

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 63])
    def test_settled_pairs_decide_half_the_seeds(self, m):
        # the vote stops at the (m // 2 + 1)-th positive verdict or the
        # ceil(m / 2)-th negative one, reading the seeds in order
        calls = []
        rule = bit_rule(calls)
        counts = {(1 << m) - 1: m // 2 + 1, 0: (m + 1) // 2}
        if m > 1:
            # seed 0 positive, the others negative: one call, then ceil(m / 2)
            # negatives; seed 0 negative, the others positive: when one
            # negative is already half (m <= 2) the vote is lost at once,
            # else m // 2 + 1 positives follow it
            counts[1 << (m - 1)] = 1 + (m + 1) // 2
            counts[(1 << (m - 1)) - 1] = 1 if m <= 2 else 1 + m // 2 + 1
        for pattern, count in counts.items():
            calls.clear()
            assert _vote(rule, m, 1, pattern, 0) == (2 * bin(pattern).count("1") > m)
            assert len(calls) == count <= m

    def test_tree_label_file_decodes_as_the_per_seed_vote(self, tmp_path):
        master, eps = 20191108, Fraction(1, 5)
        report = label_pipeline("tree", 8, 2, eps, tmp_path, master_seed=master)
        scheme = labeling_from_json(json.loads(open(report["path"]).read()))
        tree = generate("tree", 8, derive_seed(master, "gen", "tree", 8)).payload
        proto = TreeKDistance(tree, 2, eps)
        assert proto.params() == scheme.params["protocol"]
        m, c = scheme.params["bank_m"], proto.cost_bits

        def referee(ma, mb, rnd):
            return oracles.window_scan_slices(ma, mb, proto.k, proto.res_width,
                                              proto.color_width)

        for lx in scheme.labels:
            for ly in scheme.labels:
                # the tree rule is blind, so the seeds handed to it do not matter
                want = oracles.seed_vote_slices(referee, m, c, range(m), lx, ly)
                assert decode_labels(scheme, lx, ly) == want

    def test_mismatches_check_every_label_width(self):
        _, _, _, scheme = TestDerandomizedLabeling().tree_scheme()
        short = LabelingScheme(scheme.decoder, scheme.params, scheme.label_bits,
                               scheme.labels[:-1] + (Bits(0, 3),))
        with pytest.raises(InputError, match="label 15 is 3 bits"):
            next(scheme_mismatches(short, np.ones((16, 16), dtype=bool)))


class CountingTree(TreeKDistance):
    """A tree sketch that counts the inputs it encodes: one per ``encode``
    call, and one per input and seed of an ``encode_table`` call."""

    encodes = 0

    def encode(self, v, rnd):
        self.encodes += 1
        return super().encode(v, rnd)

    def encode_table(self, vs, rnds):
        vs, rnds = list(vs), list(rnds)
        self.encodes += len(vs) * len(rnds)
        return super().encode_table(vs, rnds)


def fresh_labels(protocol, xs, seeds):
    """Labels by encoding every input under every seed, nothing reused."""
    return tuple(concat_all([protocol.encode(v, HashRandomness(s)) for s in seeds])
                 for v in xs)


class TestSharedEncodes:
    """The bank check's per-seed messages are the labels' messages."""

    EPS = Fraction(1, 10)

    def test_label_run_encodes_each_seed_and_input_once(self, monkeypatch):
        attempts = []
        checked = universal.bank_bad_fraction

        def counting_check(protocol, inputs, bank):
            attempts.append(bank.seeds)
            return checked(protocol, inputs, bank)

        monkeypatch.setattr(universal, "bank_bad_fraction", counting_check)
        proto = CountingTree(random_tree(random.Random(5), 16), 2, self.EPS)
        bank = newman_seed_bank(proto, 16, self.EPS, self.EPS, 77)
        scheme = derandomized_labeling(proto, 16, bank)
        assert len(attempts) >= 1 and attempts[-1] == bank.seeds
        assert proto.encodes == len(attempts) * bank.m * 16
        assert scheme.labels == fresh_labels(proto, range(16), bank.seeds)

    def test_label_run_asks_expected_once_per_pair(self, monkeypatch):
        # the first attempt is refused whatever it finds, so a second one
        # runs; both attempts and the verify pass share one set of verdicts
        attempts = []
        checked = universal.bank_bad_fraction

        def first_refused(protocol, inputs, bank):
            attempts.append(bank.seeds)
            worst, pair = checked(protocol, inputs, bank)
            return (Fraction(1), pair) if len(attempts) == 1 else (worst, pair)

        monkeypatch.setattr(universal, "bank_bad_fraction", first_refused)
        calls = collections.Counter()

        class CountingExpected(TreeKDistance):
            def expected(self, x, y):
                calls[x, y] += 1
                return super().expected(x, y)

        proto = CountingExpected(random_tree(random.Random(5), 16), 2, self.EPS)
        bank = newman_seed_bank(proto, 16, self.EPS, self.EPS, 77)
        scheme = derandomized_labeling(proto, 16, bank)
        assert len(attempts) == 2 and attempts[0] != attempts[1] == bank.seeds
        assert calls == {(x, y): 1 for x in range(16) for y in range(x, 16)}
        assert scheme == derandomized_labeling(TreeKDistance(proto.tree, 2, self.EPS), 16,
                                               SeedBank(bank.seeds, self.EPS, self.EPS))

    def test_verified_and_hand_built_banks_give_equal_schemes(self):
        proto = TreeKDistance(random_tree(random.Random(5), 16), 2, self.EPS)
        bank = newman_seed_bank(proto, 16, self.EPS, self.EPS, 77)
        hand = SeedBank(bank.seeds, self.EPS, self.EPS)
        kept = derandomized_labeling(proto, 16, bank)
        fresh = derandomized_labeling(proto, 16, hand)
        assert kept == fresh
        assert labeling_to_json(kept) == labeling_to_json(fresh)

    def test_other_protocol_or_inputs_get_their_own_labels(self):
        # every pair of the 4-element lattice is within distance 2, so at
        # k = 2 and k = 3 any bank is exact and labels always build
        eps, delta = Fraction(1, 3), Fraction(1, 8)
        checked = UniversalLatticeDistance(boolean_lattice(2), 2, eps)
        bank = newman_seed_bank(checked, 4, eps, delta, 5)
        for proto, xs in [(UniversalLatticeDistance(boolean_lattice(2), 3, eps), range(4)),
                          (UniversalLatticeDistance(boolean_lattice(2), 2, eps), range(4)),
                          (checked, [3, 2, 1, 0]),
                          (checked, range(3)),
                          (checked, range(4))]:
            scheme = derandomized_labeling(proto, xs, bank)
            assert scheme.labels == fresh_labels(proto, xs, bank.seeds)
            assert scheme == derandomized_labeling(proto, xs, SeedBank(bank.seeds, eps, delta))

    def test_another_object_of_equal_params_encodes_again(self):
        tree = random_tree(random.Random(5), 16)
        checked = CountingTree(tree, 2, self.EPS)
        bank = newman_seed_bank(checked, 16, self.EPS, self.EPS, 77)
        twin = CountingTree(tree, 2, self.EPS)
        assert derandomized_labeling(twin, 16, bank) == derandomized_labeling(checked, 16, bank)
        assert twin.encodes == bank.m * 16

    def test_kept_messages_leave_equality_and_repr_alone(self):
        proto = UniversalLatticeDistance(boolean_lattice(2), 2, Fraction(1, 3))
        bank = newman_seed_bank(proto, 4, Fraction(1, 3), Fraction(1, 8), 5)
        hand = SeedBank(bank.seeds, bank.eps, bank.delta, bank.worst_bad)
        assert bank._messages is not None and hand._messages is None
        assert bank == hand and hash(bank) == hash(hand)
        assert repr(bank) == repr(hand)
        assert "_messages" not in repr(bank)


class TestLabelTables:
    """A label run packs its labels from the bank's seed-major message table
    in numpy, and every verify pass cuts labels back into one such table."""

    CASES = ["planar2", "sparse", "tree", "universal", "universal-wide"]

    @staticmethod
    def case(kind):
        if kind == "universal-wide":  # k = 5 sizes 74-bit blocks, cut into words
            return UniversalLatticeDistance(boolean_lattice(3), 5, Fraction(1, 5)), list(range(8))
        return kernel_case(kind)

    @pytest.mark.parametrize("kind", CASES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_packed_labels_are_the_encode_loop(self, kind, m):
        proto, xs = self.case(kind)
        bank = SeedBank(tuple(range(40, 40 + m)), Fraction(1, 5), Fraction(1, 5))
        table = universal._seed_table(proto, xs, bank)
        widths = proto.table_widths
        values = universal._label_values(table, widths, m)
        assert values == [label.value for label in fresh_labels(proto, xs, bank.seeds)]
        # the label cut gives the table back, and is the big-int cut
        cut = universal._label_table(values, widths, m)
        assert cut.dtype == table.dtype and np.array_equal(cut, table)
        messages = oracles.seed_values(values, m, proto.cost_bits)
        assert np.array_equal(cut, field_table([v for sent in messages for v in sent], widths))

    @pytest.mark.parametrize("family,n,k", [("tree", 16, 2), ("planar2", 8, 2),
                                            ("arboricity", 12, 1), ("hypercube", 4, 1)])
    def test_label_run_builds_no_message_bits(self, family, n, k, tmp_path, monkeypatch):
        built = []
        check = Bits.__post_init__

        def counted(bits):
            built.append(bits.length)
            check(bits)

        written = []
        write = lab.labeling_to_json

        def counted_write(scheme):
            written.append((len(built), len(scheme.labels), scheme.label_bits))
            return write(scheme)

        monkeypatch.setattr(Bits, "__post_init__", counted)
        monkeypatch.setattr(lab, "labeling_to_json", counted_write)
        report = label_pipeline(family, n, k, Fraction(1, 5), tmp_path, master_seed=3)
        (count, labels, width), = written
        # before the file is written, the only Bits are the labels themselves
        assert count == labels == report["universe"] and built[:count] == [width] * count


def exhaustive_bad_fraction(protocol, xs, bank):
    """Bad seeds per pair by ``run`` on every pair and seed; the worst pair is
    the first, in pair order, of those with the most."""
    n = len(xs)
    pairs = [(xs[i], xs[j]) for i in range(n) for j in range(i, n)]
    bad = [sum(not protocol.run(x, y, HashRandomness(seed)).correct for seed in bank.seeds)
           for x, y in pairs]
    worst = max(bad)
    return bad, Fraction(worst, bank.m), pairs[bad.index(worst)]


KERNEL_CASES = {"tree": ("tree", 12, 2), "universal": ("hypercube", 3, 1),
                "sparse": ("arboricity", 10, 1), "planar2": ("planar2", 8, 2)}


@functools.cache
def kernel_case(kind):
    """(protocol, inputs) of a small label-run instance of one blind sketch
    with an all-pairs form, built as ``label_pipeline`` builds it."""
    family, n, k = KERNEL_CASES[kind]
    payload = generate(family, n, derive_seed(3, "gen", family, n)).payload
    proto, graph, _, _ = _protocol_for(family, payload, k, Fraction(1, 5), "universal", 8)
    return proto, list(range(graph.n))


class TestBankBadFractionEdges:
    BANK = SeedBank(tuple(range(500, 509)), Fraction(1, 8), Fraction(1, 8))

    def test_one_input_universe(self):
        # the four blind sketches run their all-pairs forms, the others loop
        kernels = [(proto, xs[3:4]) for proto, xs in map(kernel_case, sorted(KERNEL_CASES))]
        for proto, xs in [(OneBitEquality(), [5]), (EqualitySketch(4, 3), [2]),
                          (TreeKDistance(random_tree(random.Random(1), 1), 1,
                                         Fraction(1, 4)), [0])] + kernels:
            _, fraction, pair = exhaustive_bad_fraction(proto, xs, self.BANK)
            assert bank_bad_fraction(proto, xs, self.BANK) == (fraction, pair)
            assert pair == (xs[0], xs[0])
            if (proto, xs) in kernels:
                scheme = derandomized_labeling(proto, xs, self.BANK)
                assert decode_labels(scheme, scheme.labels[0], scheme.labels[0])

    def test_tie_break(self):
        # two rounds false-accept about a quarter of the seeds, and so do
        # two sketches with all-pairs forms sized to err often; several
        # pairs tie for the worst, and the first of them must win
        xs = [5, 0, 6, 4, 1, 7, 2, 3]
        for proto in [EqualitySketch(8, 2),
                      UniversalLatticeDistance(boolean_lattice(3), 1, Fraction(1, 4), m=3,
                                               rounds=1),
                      TreeKDistance(random_tree(random.Random(3), 8), 2, Fraction(1, 2))]:
            bad, fraction, pair = exhaustive_bad_fraction(proto, xs, self.BANK)
            assert bad.count(max(bad)) > 1 and max(bad) > 0
            assert bank_bad_fraction(proto, xs, self.BANK) == (fraction, pair)


class CountingHash(HashRandomness):
    """Hash draws that count each label they draw: one per ``integer`` call,
    and ``count`` per ``integers`` call, one for each label of the family."""

    def __init__(self, seed):
        super().__init__(seed)
        self.seed = seed
        self.drawn = collections.Counter()

    def integer(self, label, n):
        self.drawn[label] += 1
        return super().integer(label, n)

    def integers(self, tag, count, n):
        prefix = tag if isinstance(tag, tuple) else (tag,)
        self.drawn.update((*prefix, i) for i in range(count))
        return super().integers(tag, count, n)


def _golden_label_runs(tmp_path, monkeypatch):
    """(protocol, universe, bank seeds) of each golden label file's encode."""
    runs = []
    real = universal._seed_table

    def capture(protocol, xs, bank):
        if not runs or runs[-1][0] is not protocol:
            runs.append((protocol, xs, bank.seeds))
        return real(protocol, xs, bank)

    with monkeypatch.context() as patch:
        patch.setattr(universal, "_seed_table", capture)
        for family, n, k in test_golden.LABEL_CASES:
            label_pipeline(family, n, k, test_golden.EPS, tmp_path,
                           master_seed=test_golden.MASTER)
    return runs


class TestDrawCounts:
    def test_label_encodes_draw_each_seed_and_label_once(self, tmp_path, monkeypatch):
        """On the golden label cases, ``_seed_table`` draws every label the
        universe reads exactly once per bank seed, and no other label, and
        each seed's columns are the table of its ``encode`` loop."""
        runs = _golden_label_runs(tmp_path, monkeypatch)
        assert len(runs) == len(test_golden.LABEL_CASES)
        made = []

        def counting(seed):
            made.append(CountingHash(seed))
            return made[-1]

        monkeypatch.setattr(universal, "HashRandomness", counting)
        eps = test_golden.EPS
        for protocol, xs, seeds in runs:
            made.clear()
            table = universal._seed_table(protocol, xs, SeedBank(seeds, eps, eps))
            assert [rnd.seed for rnd in made] == list(seeds)
            needed = {label for v in xs for label, _ in protocol.support(v)}
            n = len(xs)
            for s, rnd in enumerate(made):
                assert set(rnd.drawn.values()) == {1}
                assert set(rnd.drawn) == needed
                sent = [protocol.encode(v, HashRandomness(rnd.seed)).value for v in xs]
                assert np.array_equal(table[:, s * n:s * n + n],
                                      field_table(sent, protocol.table_widths))


def _one_bit_wider(proto, method):
    """A copy of proto whose encoder ``method`` sends one bit more: on every
    message of an ``encode`` call, and as one more 1-bit field of zeros on
    every message of an ``encode_table`` call."""
    wide = copy.copy(proto)
    encode = getattr(proto, method)
    if method == "encode_table":
        setattr(wide, method, lambda vs, rnds: np.vstack(
            [table := encode(vs, rnds), np.zeros((1, table.shape[1]), dtype=table.dtype)]))
    else:
        setattr(wide, method, lambda v, rnd: encode(v, rnd).concat(Bits(0, 1)))
    return wide


def _overflowing(proto):
    """A copy of proto whose ``encode_table`` sets, in its first field, the
    bit just past that field's width."""
    wide = copy.copy(proto)
    width = proto.table_widths[0]

    def encode_table(vs, rnds):
        table = proto.encode_table(vs, rnds).astype(np.uint64)
        table[0] |= np.uint64(1 << width)
        return table

    wide.encode_table = encode_table
    return wide


class TestMessageWidthsChecked:
    """The bank checks every message's width: the base ``encode_table`` loop
    through ``Rule.value``, and every table against ``table_widths``, so an
    encoder that drifts from its rule is refused at once, not after the
    bank's retries.  A drifted ``encode`` reaches it through the base loop
    (the equality toy keeps it); the other sketches derive ``encode_table``
    from their draws, so their drift is put in the table they send and,
    for the planned ones, apart, in the plan itself."""

    TREE = TreeKDistance(random_tree(random.Random(5), 8), 2, Fraction(1, 3))
    TOY = EqualitySketch(8, 2)

    def _first_attempt_refuses(self, proto, monkeypatch):
        attempts = []
        check = universal.bank_bad_fraction

        def counted(*args):
            attempts.append(1)
            return check(*args)

        monkeypatch.setattr(universal, "bank_bad_fraction", counted)
        with pytest.raises(InputError, match="messages must be"):
            newman_seed_bank(proto, 8, Fraction(1, 3), Fraction(1, 3), 1)
        assert len(attempts) == 1

    def test_role_free_bank(self, monkeypatch):
        assert type(self.TOY).encode_table is SmpProtocol.encode_table
        self._first_attempt_refuses(_one_bit_wider(self.TOY, "encode"), monkeypatch)

    def test_role_free_bank_drifted_encode_all(self, monkeypatch):
        newman_seed_bank(self.TREE, 8, Fraction(1, 3), Fraction(1, 3), 1)  # undrifted passes
        self._first_attempt_refuses(_one_bit_wider(self.TREE, "encode_table"), monkeypatch)
        self._first_attempt_refuses(_overflowing(self.TREE), monkeypatch)

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    def test_all_pairs_bank_drifted_encode_all(self, kind, monkeypatch):
        proto, _ = kernel_case(kind)
        self._first_attempt_refuses(_one_bit_wider(proto, "encode_table"), monkeypatch)
        self._first_attempt_refuses(_overflowing(proto), monkeypatch)

    @pytest.mark.parametrize("kind", ["planar2", "sparse", "tree"])
    def test_all_pairs_bank_drifted_plan(self, kind, monkeypatch):
        proto, _ = kernel_case(kind)
        # the bank encodes inputs 0 to 7; the last one drifts
        self._first_attempt_refuses(oracles.drifted_plan(proto, 7), monkeypatch)

    def test_role_free_bank_drifted_plan(self):
        for drift, match in (("extra", "messages must be"), ("fixed", "does not fit")):
            with pytest.raises(InputError, match=match):
                newman_seed_bank(oracles.drifted_plan(self.TREE, 7, drift), 8,
                                 Fraction(1, 3), Fraction(1, 3), 1)


def count_rule_calls(cls, monkeypatch) -> collections.Counter:
    """Make ``cls.rule_from_params`` build rules that count, in the returned
    counter, their ``decide`` and ``decide_all`` calls."""
    build = cls.rule_from_params
    calls = collections.Counter()

    def counting(params, rnd=None):
        rule = build(params, rnd)

        def decide(a, b):
            calls["decide"] += 1
            return rule.decide(a, b)

        def decide_all(*args):
            calls["decide_all"] += 1
            return rule.all_pairs.decide_all(*args)

        return rule._replace(decide=decide,
                             all_pairs=rule.all_pairs._replace(decide_all=decide_all))

    monkeypatch.setattr(cls, "rule_from_params",
                        classmethod(lambda _, params, rnd=None: counting(params, rnd)))
    return calls


def mixed_scheme(proto, m, labels):
    """A scheme of the protocol's params over ``labels``, each m messages."""
    params = {"protocol": proto.params(), "bank_m": m, "message_bits": proto.cost_bits}
    return LabelingScheme("seed-majority", params, m * proto.cost_bits, tuple(labels))


class TestAllPairsPath:
    """The bank check and both verify passes run the rules' all-pairs forms."""

    EPS = Fraction(1, 5)

    def test_blind_rules_state_the_all_pairs_form(self):
        for rule in [window_rule(3, 2, 5), two_hop_rule(9, 9), color_slots_rule(4, 5),
                     parity_blocks_rule(64, 2, 1)]:
            assert rule.all_pairs is not None
        assert parity_blocks_rule(65, 2, 1).all_pairs is None

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    def test_label_run_makes_no_per_pair_decide(self, kind, monkeypatch):
        proto, xs = kernel_case(kind)
        calls = count_rule_calls(type(proto), monkeypatch)
        bank = newman_seed_bank(proto, xs, self.EPS, self.EPS, 7)
        scheme = derandomized_labeling(proto, xs, bank)
        assert calls["decide"] == 0 and calls["decide_all"] >= 2
        calls.clear()
        reread = labeling_from_json(labeling_to_json(scheme))
        assert list(scheme_mismatches(reread, want_matrix(len(xs), lambda x, y: positive_verdict(
            proto.expected(xs[x], xs[y]))))) == []
        assert calls["decide"] == 0 and calls["decide_all"] >= 1

    def test_rules_without_the_form_loop_over_decide(self):
        calls = []
        rule = bit_rule(calls)
        assert rule.all_pairs is None
        values = [1, 0, 1]
        blocks = list(rule.pair_codes(field_table(values + values[::-1], rule.table_widths), 3))
        assert len(blocks) == 2 and len(calls) == 2 * 6
        verdicts, codes = blocks[0]
        assert [verdicts[c] for c in codes[0].tolist()] == [
            rule.decide(values[i], values[j]) for i in range(3) for j in range(i, 3)]

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_verify_pass_is_the_scalar_vote(self, kind, data):
        # labels mix real messages of three seeds, so per-seed verdicts
        # split and, at even m, tie; both decoders must agree on every pair
        proto, xs = kernel_case(kind)
        pool = [proto.encode(v, HashRandomness(seed)) for seed in range(3) for v in xs[:6]]
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        labels = tuple(concat_all(data.draw(st.lists(st.sampled_from(pool), min_size=m,
                                                     max_size=m)))
                       for _ in range(n))
        scheme = mixed_scheme(proto, m, labels)
        vote = {(i, j): decode_labels(scheme, labels[i], labels[j])
                for i in range(n) for j in range(i, n)}
        decoded = want_matrix(n, lambda i, j: vote.get((i, j), False))
        assert list(scheme_mismatches(scheme, decoded)) == []
        assert list(scheme_mismatches(scheme, ~decoded)) == list(vote)

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    def test_expected_verdict_the_rule_never_returns_is_always_bad(self, kind):
        proto, xs = kernel_case(kind)
        odd = copy.copy(proto)
        # no rule returns distance 99: the pair (2, 5) errs under every seed
        odd.expected = lambda x, y: (distance_verdict(99) if (x, y) == (xs[2], xs[5])
                                     else proto.expected(x, y))
        bank = SeedBank(tuple(range(500, 509)), self.EPS, self.EPS)
        bad, fraction, pair = exhaustive_bad_fraction(odd, xs, bank)
        assert (fraction, pair) == (1, (xs[2], xs[5]))
        assert bank_bad_fraction(odd, xs, bank) == (fraction, pair)


class TestRowDecode:
    """A blind rule with an all-pairs form decodes pairs of scheme labels
    from the kept verdict matrix, and every pair as the scalar vote does."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_scalar_vote(self, kind, data):
        # labels mix real messages of three seeds, so per-seed verdicts
        # split and, at even m, tie; some label values repeat, and
        # strangers meet the scheme's labels on either side
        proto, xs = kernel_case(kind)
        pool = [proto.encode(v, HashRandomness(seed)) for seed in range(3) for v in xs[:6]]
        m = data.draw(st.integers(1, 6), label="m")
        label = st.lists(st.sampled_from(pool), min_size=m, max_size=m).map(concat_all)
        own = data.draw(st.lists(label, max_size=6), label="own")
        if own:
            own += data.draw(st.lists(st.sampled_from(own), max_size=3), label="repeats")
        strangers = [lx for lx in data.draw(st.lists(label, max_size=2), label="strangers")
                     if lx not in own]
        scheme = mixed_scheme(proto, m, own)
        rule, _, c = universal._scheme_rule(scheme)
        everyone = own + strangers
        for lx in everyone:
            for ly in everyone:
                assert decode_labels(scheme, lx, ly) == _vote(rule, m, c, lx.value, ly.value)
        if everyone:  # a pair of scheme labels after the first builds the matrix
            assert (scheme._decoding.matrix is not None) == (len(own) > 1)

    def test_empty_scheme_decodes_strangers_by_the_vote(self):
        proto, xs = kernel_case("tree")
        scheme = mixed_scheme(proto, 3, [])
        rule, m, c = universal._scheme_rule(scheme)
        strangers = fresh_labels(proto, xs[:4], range(3))
        for lx in strangers:
            for ly in strangers:
                assert decode_labels(scheme, lx, ly) == _vote(rule, m, c, lx.value, ly.value)
        assert scheme._decoding.matrix is None

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    def test_scheme_pairs_make_no_per_pair_decide(self, kind, monkeypatch):
        # the scheme's first pair takes the vote; the second builds the
        # verdict matrix in one kernel call, and every later pair reads it
        proto, xs = kernel_case(kind)
        eps = Fraction(1, 5)
        scheme = labeling_from_json(labeling_to_json(derandomized_labeling(
            proto, xs, newman_seed_bank(proto, xs, eps, eps, 7))))
        calls = count_rule_calls(type(proto), monkeypatch)
        labels = scheme.labels
        assert decode_labels(scheme, labels[0], labels[0])
        assert calls["decide"] > 0 and calls["decide_all"] == 0
        calls.clear()
        got = [decode_labels(scheme, lx, ly) for lx in labels for ly in labels]
        assert calls["decide"] == 0 and calls["decide_all"] == 1
        assert got == [positive_verdict(proto.expected(x, y)) for x in xs for y in xs]

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    def test_labeling_decodes_its_pairs_from_its_check(self, kind, monkeypatch):
        # derandomized_labeling's check builds the matrix, so no pair of the
        # returned scheme's own labels calls a rule at all
        proto, xs = kernel_case(kind)
        eps = Fraction(1, 5)
        calls = count_rule_calls(type(proto), monkeypatch)
        scheme = derandomized_labeling(proto, xs, newman_seed_bank(proto, xs, eps, eps, 7))
        assert calls["decide_all"] >= 1
        calls.clear()
        got = [decode_labels(scheme, lx, ly) for lx in scheme.labels for ly in scheme.labels]
        assert calls["decide"] == 0 and calls["decide_all"] == 0
        assert got == [positive_verdict(proto.expected(x, y)) for x in xs for y in xs]

    def test_wrong_width_raises_before_anything_is_built(self):
        proto, xs = kernel_case("tree")
        scheme = mixed_scheme(proto, 3, fresh_labels(proto, xs, range(3)))
        label, bits = scheme.labels[0], scheme.label_bits
        for lx, ly in [(Bits(0, bits - 1), label), (label, Bits(0, bits + 1))]:
            with pytest.raises(InputError, match="labels must be"):
                decode_labels(scheme, lx, ly)
        assert scheme._decoding is None
