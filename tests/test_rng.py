"""Known-answer vectors for the draw stream, the label-bytes memo's edges, and
``integers`` pinned to the ``integer`` loop it batches.

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
    HashRandomness,
    RecordingRandomness,
    SharedRandomness,
    TableRandomness,
    derive_seed,
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
BAD_TAGS = [1.0, None, ("s",), [1]]


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
