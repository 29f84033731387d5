"""Known-answer vectors for the draw stream, the label-bytes memo's edges, and
``integers`` pinned to the ``integer`` loop it batches, and ``derive_seeds``
to the ``derive_seed`` loop.

The expected values pin the stream that label files and reports depend on:
weak-lattice label files store bank seeds and are decoded by re-drawing
through ``HashRandomness``, so any change to label encoding or hashing must
show up here first.
"""

import collections
import enum
import hashlib

import pytest

from smplab import rng
from smplab.errors import InputError
from smplab.rng import (
    DrawPlan,
    HashRandomness,
    RecordingRandomness,
    SharedRandomness,
    TableRandomness,
    derive_seed,
    derive_seeds,
    indexed_draws,
    plan_reads,
)

SEEDS = [0, -1, 2**62]
NS = [1, 2, 3, 2**24, 2**63 + 1]
LABELS = [
    ("s", 0),
    ("idx", 3, 17),
    ("idx", -5, -1),
    ("t", (1, ("u", -2)), "v"),
    ("a,b", "it's", "(x"),
    7,
    "plain",
]

# INTEGER[seed][label index] = [integer(label, n) for n in NS]
INTEGER = {
    0: [
        [0, 1, 2, 2027737, 6161992207536813686],
        [0, 0, 0, 8856704, 8243568373546344264],
        [0, 0, 2, 4821252, 9027234818265089783],
        [0, 1, 1, 12551395, 4991360982499746247],
        [0, 1, 0, 12658787, 1871323571829887535],
        [0, 0, 0, 5987398, 8470058704821955938],
        [0, 1, 1, 13144279, 5443588083371253076],
    ],
    -1: [
        [0, 0, 1, 13250776, 4449253787770275499],
        [0, 0, 2, 4018368, 916561856670790946],
        [0, 0, 0, 14219936, 3221544424454021733],
        [0, 1, 1, 11078467, 5133019782712146751],
        [0, 0, 2, 1992992, 5173566886893338495],
        [0, 1, 1, 5233641, 3505574144632507855],
        [0, 0, 2, 1062916, 8234043112414399934],
    ],
    2**62: [
        [0, 1, 0, 7669079, 8861874704957544900],
        [0, 0, 1, 7992848, 474429146786026471],
        [0, 1, 2, 6259909, 2791156499728137461],
        [0, 0, 0, 5055618, 4106959686363186999],
        [0, 1, 0, 2508713, 2301568776078830037],
        [0, 0, 1, 12056088, 7062588909097279345],
        [0, 0, 2, 13173680, 178381132834017044],
    ],
}

# DERIVED[seed][label index] = derive_seed(seed, *label), a bare label as one part
DERIVED = {
    0: [3535740310881710833, 1883930328787628817, 3352275398836859984,
        4368261089789449755, 9032233757590600729, 250003838345429132,
        3358913926592546272],
    -1: [1796120441785082488, 664923356193545540, 3470651891677725843,
         5249340588761138774, 2573788585226788696, 2090160197572507085,
         4456990779113863295],
    2**62: [9002021206999902204, 2390701068246748992, 6959537211559792307,
            7587491809520732034, 6871836302363508333, 4840972958925058267,
            435963209715249721],
}

# (seed) -> draws of ("s", True) and ("s", 1) for n = 3, 2**24, 2**63 + 1
BOOL_NS = [3, 2**24, 2**63 + 1]
BOOL_DRAWS = {
    0: ([1, 4760746, 4716284856448340941], [2, 4780435, 3669658888857117398]),
    -1: ([2, 7149029, 4981139725353729905], [1, 16092645, 7907573050103927761]),
    2**62: ([0, 11757474, 3546440074834275252], [1, 886428, 9034420860476114326]),
}


# reads of mixed tags and cardinalities, ("c", True) beside ("c", 1), a draw
# of cardinality 1, and a repeated read last
PLAN_READS = [(("c", 3), 7), (("c1", 0), 2**24), ("plain", 5), (("c", True), 3), (("c", 1), 3),
              (("idx", 2, 9), 2**63 + 1), (("one",), 1), (7, 1000), (("c", 3), 7)]
# DRAW_PLAN[seed] = draw_plan of PLAN_READS' plan: its first eight reads in order
DRAW_PLAN = {
    0: [1, 5589543, 2, 0, 2, 947532913281849672, 0, 462],
    -1: [2, 16770101, 3, 2, 0, 3764307190718905474, 0, 41],
    2**62: [2, 15028216, 4, 1, 1, 4502619876003506969, 0, 664],
}


def scratch_draw(seed, label, n):
    """A draw rebuilt from the label's canonical bytes and a fresh keyed hash."""
    key = int(seed).to_bytes(16, "big", signed=True)
    digest = hashlib.blake2b(rng._canon(label), key=key, digest_size=16).digest()
    return int.from_bytes(digest, "big") % n


def parts(label):
    return label if isinstance(label, tuple) else (label,)


class TestKnownAnswers:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer(self, seed):
        r = HashRandomness(seed)
        got = [[r.integer(label, n) for n in NS] for label in LABELS]
        assert got == INTEGER[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer_twice_in_any_order(self, seed):
        r = HashRandomness(seed)
        got = [[r.integer(label, n) for n in NS] for label in reversed(LABELS)]
        assert got[::-1] == INTEGER[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derive_seed(self, seed):
        assert [derive_seed(seed, *parts(label)) for label in LABELS] == DERIVED[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer_is_the_keyed_hash_of_the_label_bytes(self, seed):
        r = HashRandomness(seed)
        for label in LABELS:
            assert r.integer(label, 2**63 + 1) == scratch_draw(seed, label, 2**63 + 1)

    def test_cardinality_checks(self):
        r = HashRandomness(0)
        with pytest.raises(InputError):
            r.integer(("s", 0), 0)
        assert r.integer(("s", 1), 1) == 0  # one value: nothing is drawn
        for n in (1, 2, 2**63 + 1):  # but the label is checked for every n
            for bad in (("s", 1.0), [1]):
                with pytest.raises(InputError):
                    r.integer(bad, n)


class TestLabelMemoEdges:
    """Each case runs after ("s", 1) has been drawn, and so may be memoized."""

    @pytest.fixture
    def r(self):
        r = HashRandomness(0)
        r.integer(("s", 1), 3)
        return r

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bool_part_is_not_the_int(self, seed):
        r = HashRandomness(seed)
        as_int = [r.integer(("s", 1), n) for n in BOOL_NS]
        as_bool = [r.integer(("s", True), n) for n in BOOL_NS]
        assert (as_bool, as_int) == BOOL_DRAWS[seed]
        # and again, now that both may be memoized
        assert [r.integer(("s", True), n) for n in BOOL_NS] == BOOL_DRAWS[seed][0]
        assert [r.integer(("s", 1), n) for n in BOOL_NS] == BOOL_DRAWS[seed][1]

    @pytest.mark.parametrize("label", [("s", 1.0), ("s", [1]), ("s", None)])
    def test_bad_parts_still_raise(self, r, label):
        for _ in range(2):
            with pytest.raises(InputError):
                r.integer(label, 3)

    def test_unhashable_and_bare_bad_labels_raise(self, r):
        for label in ([1], {"s": 1}, 1.5, None):
            with pytest.raises(InputError):
                r.integer(label, 3)

    def test_nested_label_gives_canonical_bytes(self, r):
        for label in [("t", ("s", 1)), (("s", 1),), ("s", (1,)), ("s", 1, ("s", True))]:
            for _ in range(2):
                assert r.integer(label, 2**63 + 1) == scratch_draw(0, label, 2**63 + 1)

    def test_tuple_subclass_and_int_subclass(self, r):
        Pair = collections.namedtuple("Pair", "tag value")

        class Small(enum.IntEnum):
            ONE = 1

        for label in [Pair("s", 1), ("s", Small.ONE)]:
            for _ in range(2):
                assert r.integer(label, 2**63 + 1) == scratch_draw(0, label, 2**63 + 1)

    def test_memo_stays_bounded(self, r):
        for i in range(rng._LABEL_BYTES_CAP + 10):
            r.integer(("bound", i), 3)
            assert len(rng._LABEL_BYTES) <= rng._LABEL_BYTES_CAP
        assert r.integer(("s", 0), 2**63 + 1) == INTEGER[0][0][-1]


TAGS = ["s", "bucket", 0, True]
COUNTS = [0, 1, 200]
BAD_TAGS = [1.0, None, ("s", 1.0), [1]]


class TestDrawPlan:
    """``draw_plan`` pinned by known answers and to the ``integer`` loop it
    batches; ``plan_reads`` plans each label once."""

    def test_plan_reads_plans_each_label_once_in_first_read_order(self):
        plan, index = plan_reads(PLAN_READS)
        assert list(zip(plan.labels, plan.cards)) == PLAN_READS[:-1]
        assert plan.data == tuple(rng._canon(label) for label in plan.labels)
        assert index == [0, 1, 2, 3, 4, 5, 6, 7, 0]
        assert plan_reads([]) == (DrawPlan((), (), ()), [])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_known_answers(self, seed):
        plan, _ = plan_reads(PLAN_READS)
        r = HashRandomness(seed)
        assert r.draw_plan(plan) == DRAW_PLAN[seed]
        assert SharedRandomness.draw_plan(r, plan) == DRAW_PLAN[seed]
        assert [r.integer(label, n) for label, n in PLAN_READS[:-1]] == DRAW_PLAN[seed]

    def test_table_and_recording_draw_through_the_integer_loop(self):
        plan, _ = plan_reads(PLAN_READS)
        assert TableRandomness.draw_plan is SharedRandomness.draw_plan
        assert RecordingRandomness.draw_plan is SharedRandomness.draw_plan
        table = TableRandomness({label: n - 1 for label, n in PLAN_READS})
        # ("c", True) == ("c", 1) as keys, so the table assigns both alike
        assert table.draw_plan(plan) == [6, 2**24 - 1, 4, 2, 2, 2**63, 0, 999]
        recorder = RecordingRandomness()
        assert recorder.draw_plan(plan) == [0] * 8
        assert list(recorder.reads) == [label for label, _ in PLAN_READS[:3]] + [
            ("c", True), ("idx", 2, 9), ("one",), 7]

    @pytest.mark.parametrize("reads", [[(("c", 1), 5), (("c", True), 5)],
                                       [(("c", True), 5), (("c", 1), 5)]])
    def test_a_warm_memo_keeps_equal_labels_of_other_types_apart(self, reads):
        plan_reads(reads)  # the memo is warm from here on
        assert ("c", 1) in rng._LABEL_BYTES
        plan, index = plan_reads(reads)
        assert plan.labels == tuple(label for label, _ in reads)
        assert plan.data == tuple(rng._canon(label) for label, _ in reads)
        assert len(set(plan.data)) == 2 and index == [0, 1]
        r = HashRandomness(3)
        assert r.draw_plan(plan) == [scratch_draw(3, label, n) for label, n in reads]
        with pytest.raises(InputError, match="label parts"):
            plan_reads(reads + [(("c", 1.0), 5)])

    def test_plan_reads_refuse_what_integer_refuses(self):
        with pytest.raises(InputError, match="label parts"):
            plan_reads([(("c", 1.5), 3)])
        with pytest.raises(InputError, match="positive"):
            plan_reads([(("c", 1), 0)])
        with pytest.raises(InputError, match="two cardinalities"):
            plan_reads([(("c", 1), 3), (("c", 1), 4)])

    @pytest.mark.parametrize("n", [0, -2])
    def test_bad_cardinalities_raise(self, n):
        plan = DrawPlan((("c", 1),), (n,), (rng._canon(("c", 1)),))
        for draw in (HashRandomness(0).draw_plan,
                     lambda p: SharedRandomness.draw_plan(HashRandomness(0), p)):
            with pytest.raises(InputError, match="positive"):
                draw(plan)

    @pytest.mark.parametrize("n", [1, 3])
    def test_the_base_refuses_a_malformed_label(self, n):
        plan = DrawPlan((("c", 1.5),), (n,), (b"",))
        with pytest.raises(InputError, match="label parts"):
            SharedRandomness.draw_plan(HashRandomness(0), plan)


def integer_loop(r, tag, count, n):
    return [r.integer((tag, i), n) for i in range(count)]


class TestIntegers:
    """``HashRandomness.integers`` is the ``integer`` loop, drawn faster."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", TAGS)
    def test_matches_the_integer_loop(self, seed, tag):
        r = HashRandomness(seed)
        for n in NS:
            for count in COUNTS:
                want = integer_loop(r, tag, count, n)
                assert r.integers(tag, count, n) == want
                assert SharedRandomness.integers(r, tag, count, n) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_known_answer_and_scratch_digests(self, seed):
        r = HashRandomness(seed)
        assert r.integers("s", 1, 2**63 + 1) == [INTEGER[seed][0][-1]]  # ("s", 0)
        got = r.integers("bucket", 50, 2**63 + 1)
        assert got == [scratch_draw(seed, ("bucket", i), 2**63 + 1) for i in range(50)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bool_tag_is_not_the_int(self, seed):
        r = HashRandomness(seed)
        as_bool = integer_loop(r, True, 200, 2**63 + 1)
        as_int = integer_loop(r, 1, 200, 2**63 + 1)
        assert as_bool != as_int
        # either may be memoized first
        for tags, want in [((1, True), [as_int, as_bool]), ((True, 1), [as_bool, as_int])]:
            rng._INDEXED_BYTES.clear()
            assert [r.integers(tag, 200, 2**63 + 1) for tag in tags] == want

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tag", BAD_TAGS, ids=repr)
    def test_bad_tags_raise(self, tag, n):
        r = HashRandomness(0)
        for draw in (r.integers, lambda *a: SharedRandomness.integers(r, *a)):
            for count in (0, 3):
                with pytest.raises(InputError):
                    draw(tag, count, n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_cardinality_raises(self, n):
        r = HashRandomness(0)
        for draw in (r.integers, lambda *a: SharedRandomness.integers(r, *a)):
            for count in (0, 3):
                with pytest.raises(InputError):
                    draw("s", count, n)

    def test_byte_cache_stays_bounded(self):
        r = HashRandomness(0)
        for i in range(rng._INDEXED_BYTES_CAP + 10):
            assert r.integers(f"t{i}", 3, 5) == integer_loop(r, f"t{i}", 3, 5)
            assert len(rng._INDEXED_BYTES) <= rng._INDEXED_BYTES_CAP
        big = rng._LABEL_BYTES_CAP + 1  # a family this large is never stored
        assert r.integers("big", big, 7) == integer_loop(r, "big", big, 7)
        assert all(count <= rng._LABEL_BYTES_CAP for _, _, count in rng._INDEXED_BYTES)
        assert r.integers("s", 1, 2**63 + 1) == [INTEGER[0][0][-1]]

    def test_table_randomness_raises_on_a_missing_label(self):
        t = TableRandomness({("s", 0): 2, ("s", 1): 0})
        assert t.integers("s", 2, 3) == [2, 0]
        with pytest.raises(InputError):
            t.integers("s", 3, 3)
        with pytest.raises(InputError):
            t.integer(("s", 2), 3)


PREFIXES = [("idx", 3), ("idx", -5, "x"), ("s",), (), ("a,b", 0, "(x")]
BAD_PREFIXES = [("s", 1.0), ("s", None), ("s", ("t", 1)), ("s", [1]), (1.5,)]


def prefix_loop(r, prefix, count, n):
    return [r.integer((*prefix, i), n) for i in range(count)]


class TestPrefixFamilies:
    """A flat tuple tag draws the labels ``(*tag, i)``, with the same bytes
    ``integer`` hashes for each of them."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
    def test_matches_the_integer_loop_and_scratch(self, seed, prefix):
        r = HashRandomness(seed)
        for n in NS:
            for count in COUNTS:
                want = prefix_loop(r, prefix, count, n)
                assert r.integers(prefix, count, n) == want
                assert SharedRandomness.integers(r, prefix, count, n) == want
        got = r.integers(prefix, 50, 2**63 + 1)
        assert got == [scratch_draw(seed, (*prefix, i), 2**63 + 1) for i in range(50)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_known_answer_and_one_part_prefix(self, seed):
        r = HashRandomness(seed)
        # LABELS[1] is ("idx", 3, 17), the last label of this family
        assert [r.integers(("idx", 3), 18, n)[17] for n in NS] == INTEGER[seed][1]
        assert r.integers(("s",), 1, 2**63 + 1) == [INTEGER[seed][0][-1]]  # ("s", 0)
        assert r.integers(("s",), 20, 2**24) == r.integers("s", 20, 2**24)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bool_prefix_part_is_not_the_int(self, seed):
        r = HashRandomness(seed)
        as_bool = prefix_loop(r, ("c", True), 200, 2**63 + 1)
        as_int = prefix_loop(r, ("c", 1), 200, 2**63 + 1)
        assert as_bool != as_int
        # either may be memoized first
        for tags, want in [((("c", 1), ("c", True)), [as_int, as_bool]),
                           ((("c", True), ("c", 1)), [as_bool, as_int])]:
            rng._INDEXED_BYTES.clear()
            assert [r.integers(tag, 200, 2**63 + 1) for tag in tags] == want

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("prefix", BAD_PREFIXES, ids=repr)
    def test_bad_prefix_parts_raise(self, prefix, n):
        r = HashRandomness(0)
        draws = (r.integers, lambda *a: SharedRandomness.integers(r, *a),
                 lambda tag, count, n: indexed_draws(r, tag, range(count), n),
                 lambda tag, count, n: indexed_draws(r, tag, range(1, count + 1), n))
        for draw in draws:
            for count in (0, 3):
                with pytest.raises(InputError):
                    draw(prefix, count, n)

    def test_byte_cache_stays_bounded(self):
        r = HashRandomness(0)
        for i in range(rng._INDEXED_BYTES_CAP + 10):
            assert r.integers(("t", i), 3, 5) == prefix_loop(r, ("t", i), 3, 5)
            assert len(rng._INDEXED_BYTES) <= rng._INDEXED_BYTES_CAP
        assert r.integers(("idx", 3), 18, 2**63 + 1)[17] == INTEGER[0][1][-1]

    def test_table_randomness_draws_a_prefix_family(self):
        t = TableRandomness({("i", 0, 0): 2, ("i", 0, 1): 0})
        assert t.integers(("i", 0), 2, 3) == [2, 0]
        with pytest.raises(InputError):
            t.integers(("i", 0), 3, 3)


class CountingDraws(HashRandomness):
    """Hash draws that count ``integer`` and ``integers`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = collections.Counter()

    def integer(self, label, n):
        self.calls["integer"] += 1
        return super().integer(label, n)

    def integers(self, tag, count, n):
        self.calls["integers"] += 1
        return super().integers(tag, count, n)


class TestIndexedDraws:
    """``indexed_draws`` reads exactly the labels of its ids, once each."""

    @pytest.mark.parametrize("tag", ["c", ("idx", 2)], ids=repr)
    @pytest.mark.parametrize("ids", [[], [0], [2, 0, 1, 1], [1], [0, 2], [5, 3]], ids=repr)
    def test_matches_the_integer_loop_and_reads_only_its_ids(self, tag, ids):
        prefix = tag if isinstance(tag, tuple) else (tag,)
        r = CountingDraws(7)
        got = indexed_draws(r, tag, ids, 2**24)
        assert got == {i: HashRandomness(7).integer((*prefix, i), 2**24) for i in ids}
        full = sorted(set(ids)) == list(range(len(set(ids))))
        assert r.calls == ({"integers": 1} if full else {"integer": len(set(ids))})
        recorder = RecordingRandomness()
        indexed_draws(recorder, tag, ids, 5)
        assert sorted(recorder.reads) == sorted((*prefix, i) for i in set(ids))

    def test_table_randomness_needs_only_the_ids(self):
        t = TableRandomness({("c", 1): 3, ("c", 4): 0})
        assert indexed_draws(t, "c", [4, 1, 4], 5) == {1: 3, 4: 0}
        with pytest.raises(InputError):
            indexed_draws(t, "c", [0, 1], 5)


class TestRecordingRandomness:
    def test_draws_zero_and_records_first_reads_in_order(self):
        r = RecordingRandomness()
        assert r.integer(("c", 3), 5) == 0
        assert r.integers("s", 3, 4) == [0, 0, 0]
        assert r.integer(("c", 3), 5) == 0
        assert list(r.reads.items()) == [(("c", 3), 5), (("s", 0), 4), (("s", 1), 4),
                                         (("s", 2), 4)]

    def test_a_second_cardinality_or_an_empty_range_raises(self):
        r = RecordingRandomness()
        r.integer(("c", 3), 5)
        with pytest.raises(InputError, match="two cardinalities"):
            r.integer(("c", 3), 6)
        with pytest.raises(InputError):
            r.integer(("c", 4), 0)


def derive_seed_loop(master, prefix, count):
    return [derive_seed(master, *prefix, t) for t in range(count)]


class TestDeriveSeeds:
    """``derive_seeds`` is the ``derive_seed`` loop over a last part t."""

    @pytest.mark.parametrize("master", [0, -1, -(2**70), 2**62, 2**100])
    @pytest.mark.parametrize("prefix", [("trial", "tree", 400, "beyond"), (), (7,),
                                        ("a,b", "it's", "(x", ("nest", 1)), (",", "'", "(")])
    def test_equals_the_loop(self, master, prefix):
        assert list(derive_seeds(master, prefix, 40)) == derive_seed_loop(master, prefix, 40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_known_answer(self, seed):
        assert LABELS[0] == ("s", 0)
        assert list(derive_seeds(seed, ("s",), 1)) == DERIVED[seed][:1]

    def test_true_is_not_one(self):
        assert list(derive_seeds(5, ("s", True), 3)) == derive_seed_loop(5, ("s", True), 3)
        assert list(derive_seeds(5, ("s", True), 3)) != list(derive_seeds(5, ("s", 1), 3))

    def test_count_zero_and_lazy(self):
        assert list(derive_seeds(3, ("t",), 0)) == []
        seeds = derive_seeds(3, ("t",), 10**18)  # lazy: nothing is drawn up front
        assert [next(seeds), next(seeds)] == derive_seed_loop(3, ("t",), 2)

    def test_bad_part_raises_up_front(self):
        with pytest.raises(InputError):
            derive_seeds(0, ("s", 1.0), 3)
