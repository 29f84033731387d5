"""Protocol-level tests: exact errors, one-sidedness, referee duals."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import EqualitySketch, fix_seed
from smplab.bits import Bits
from smplab.errors import CapacityError, InputError
from smplab.generators import (
    cycle_graph,
    path_graph,
    random_tree,
    stacked_triangulation,
    union_of_two_trees,
)
from smplab.graphs import Graph
from smplab.lattices import boolean_lattice
from smplab.protocols import (
    ACCEPT,
    PROTOCOLS,
    REJECT,
    ArboricityAdjacency,
    HashedAdjacency,
    PlanarTwoDistance,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
    beyond_verdict,
    distance_verdict,
    universal_sketch_params,
)
from smplab.protocols import base as protocols_base
from smplab.protocols.arboricity import color_slots_rule
from smplab.protocols.base import (
    WIDTH_CAP,
    PlannedProtocol,
    SmpProtocol,
    field_table,
    field_values,
    field_width,
    fields_of,
    merge_support,
    triu_pairs,
    word_widths,
)
from smplab.protocols.lattice import (
    PLAN_CACHE_SIZE,
    XOR_SIDE_CAP,
    _subset_plan,
    _xor_subsets,
    parity_blocks_rule,
    weak_bucket_count,
    weak_sketch_width,
    weak_xor_rule,
    xor_side_size,
)
from smplab.protocols.planar import two_hop_rule
from smplab.protocols.tree import window_rule, window_widths
from smplab.rng import HashRandomness, RecordingRandomness, SharedRandomness, TableRandomness


class TestVerdicts:
    def test_merge_support_rejects_clashing_cardinalities(self):
        merged = merge_support([(("a",), 4)], [(("a",), 4), (("b",), 2)])
        assert merged == [(("a",), 4), (("b",), 2)]
        with pytest.raises(InputError):
            merge_support([(("a",), 4)], [(("a",), 8)])


class TestEqualityToy:
    def test_exact_error_closed_form(self):
        eq = EqualitySketch(8, rounds=1)
        assert eq.exact_error(0, 1) == Fraction(1, 2)
        assert eq.exact_error(3, 3) == 0
        wide = EqualitySketch(8, rounds=4)
        assert wide.exact_error(0, 1) == Fraction(1, 16)

    def test_one_sided(self):
        eq = EqualitySketch(4, 2)
        for seed in range(40):
            assert eq.run(1, 1, HashRandomness(seed)).verdict == ACCEPT

    def test_monte_carlo_tracks_exact(self):
        eq = EqualitySketch(8, 1)
        err = eq.monte_carlo_error(0, 1, 4000, seed=11)
        assert abs(err - Fraction(1, 2)) < Fraction(1, 20)

    def test_out_of_range_input(self):
        eq = EqualitySketch(4)
        with pytest.raises(InputError):
            eq.run(4, 0, HashRandomness(0))


class TestWeakLatticeDistance:
    def test_parameter_table(self):
        assert weak_bucket_count(1, Fraction(1, 3)) == 27
        assert weak_sketch_width(27, 1, Fraction(1, 3)) == 7
        m = weak_bucket_count(3, Fraction(1, 4))
        q = weak_sketch_width(m, 3, Fraction(1, 4))
        assert m == 100
        total = sum(math.comb(100, i) for i in range(4))
        assert 2 ** (q - 1) < 4 * total <= 2**q

    def test_width_capacity_guard(self):
        # k = 7 passes the 63-bit width test (m = 243, q = 45), but its
        # sorted XOR side would hold C(243, 4) ~ 1.4e8 entries
        for k, eps in [(5, Fraction(1, 10**12)), (7, Fraction(1, 3))]:
            with pytest.raises(CapacityError):
                WeakLatticeDistance(boolean_lattice(2), k, eps)

    def test_xor_side_size(self):
        assert xor_side_size(200, 3) == 1 + 200 + math.comb(200, 2)
        assert xor_side_size(80, 9) > XOR_SIDE_CAP  # C(80, 5) ~ 2.4e7
        assert xor_side_size(10**30, 10**30) > XOR_SIDE_CAP  # stops at the cap
        assert xor_side_size(3, 10**30) == 8
        for k in (1, 2, 3):  # every sketch the formulas size at eps >= 1/8
            m = weak_bucket_count(k, Fraction(1, 8))
            assert xor_side_size(m, k) <= XOR_SIDE_CAP

    @pytest.mark.parametrize("m,q,k", [(24, 70, 2), (24, 64, 2), (243, 45, 7), (80, 11, 9),
                                       (XOR_SIDE_CAP + 1, 8, 0)])
    def test_rule_refuses_before_drawing(self, m, q, k):
        with pytest.raises(CapacityError):
            weak_xor_rule(m, q, k, _NoDraws())
        with pytest.raises(CapacityError):
            WeakLatticeDistance.rule_from_params({"m": m, "q": q, "k": k}, _NoDraws())

    def test_one_sided_on_near_pairs(self):
        L = boolean_lattice(4)
        proto = WeakLatticeDistance(L, 2, Fraction(1, 3))
        near = [
            (x, y)
            for x in range(L.n)
            for y in range(L.n)
            if (proto.rep.downsets[x] ^ proto.rep.downsets[y]).bit_count() <= 2
        ]
        for seed in range(12):
            rnd = HashRandomness(seed)
            for x, y in near:
                assert proto.run(x, y, rnd).verdict == ACCEPT

    def test_far_pairs_error_within_budget(self):
        L = boolean_lattice(5)
        proto = WeakLatticeDistance(L, 1, Fraction(1, 3))
        err = proto.monte_carlo_error(0, L.n - 1, 600, seed=3)
        assert err <= Fraction(1, 3) + Fraction(6, 100)

    def test_exact_error_blows_capacity(self):
        L = boolean_lattice(3)
        proto = WeakLatticeDistance(L, 1, Fraction(1, 2))
        with pytest.raises(CapacityError):
            proto.exact_error(0, L.n - 1)


class TestSmallXorHit:
    @given(st.integers(0, 2**32), st.integers(0, 6), st.integers(0, 12), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, seed, k, m, few_values):
        # zero and duplicate vectors, none at all, and fewer vectors than k
        rng = random.Random(seed)
        top = 4 if few_values else 64
        vecs = np.array([rng.randrange(top) for _ in range(m)], dtype=np.uint64)
        if m and rng.random() < 0.5:
            size = rng.randrange(0, min(k + 1, m) + 1)
            target = 0
            for i in rng.sample(range(m), size):
                target ^= int(vecs[i])
        else:
            target = rng.randrange(64)
        brute = any(
            functools.reduce(lambda a, b: a ^ b, (int(vecs[i]) for i in c), 0) == target
            for size in range(k + 1)
            for c in itertools.combinations(range(m), size)
        )
        # the weak rule over exactly these vectors, drawn from a table
        table = TableRandomness({("s", i): int(vec) for i, vec in enumerate(vecs)})
        assert weak_xor_rule(m, 6, k, table).decide(target, 0) == (ACCEPT if brute else REJECT)

    @pytest.mark.parametrize("m,q,k", [(12, 8, 3), (20, 10, 2), (10, 10, 4), (5, 4, 0), (30, 12, 1),
                                       # both word widths, at their edge and at the top
                                       (12, 32, 3), (12, 33, 3), (9, 63, 4), (7, 63, 0)])
    def test_one_rule_decides_many_pairs(self, m, q, k):
        # the rule's search sides are built once; 300 calls in a row must
        # each agree with an exhaustive search under the same draws
        for s in range(3):
            rnd = HashRandomness(s)
            rule = weak_xor_rule(m, q, k, rnd)
            vecs = [rnd.integer(("s", i), 2**q) for i in range(m)]
            rng = random.Random(s)
            verdicts = set()
            for _ in range(300):
                a = rng.getrandbits(q)
                b = rng.getrandbits(q)
                if rng.random() < 0.5:
                    b = a
                    for vec in rng.sample(vecs, rng.randrange(0, min(k + 1, m) + 1)):
                        b ^= vec
                ma, mb = Bits(a, q), Bits(b, q)
                want = oracles.weak_xor_subsets(ma, mb, rnd, m, q, k)
                assert rule(ma, mb) == want
                verdicts.add(want)
            assert verdicts == {ACCEPT, REJECT}


class TestSubsetPlan:
    @given(st.integers(0, 12), st.integers(0, 3), st.lists(st.integers(0, 2**32 - 1), max_size=12),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_side_is_the_combinations_multiset(self, m, size, values, few_values):
        # zero and duplicate vectors, none at all, and fewer vectors than size
        values = (values + [0] * m)[:m]
        if few_values:
            values = [v % 4 for v in values]
        for dtype in (np.uint32, np.uint64):
            side = _xor_subsets(np.array(values, dtype=dtype), size)
            rows = 1 + (m if size else 0) + sum(len(r) for r, _ in _subset_plan(m, size))
            assert len(side) == rows == xor_side_size(m, 2 * size)
            brute = [functools.reduce(lambda a, b: a ^ b, c, 0)
                     for i in range(size + 1) for c in itertools.combinations(values, i)]
            assert side.dtype == dtype
            assert sorted(side.tolist()) == sorted(brute)

    def test_plan_is_read_only(self):
        for rows, counts in _subset_plan(9, 3):
            assert not rows.flags.writeable and not counts.flags.writeable

    def test_cache_stays_bounded(self):
        # k = 3 rules for more distinct m than the cache keeps
        for m in range(4, 4 + 2 * PLAN_CACHE_SIZE):
            table = TableRandomness({("s", i): i % 7 for i in range(m)})
            weak_xor_rule(m, 8, 3, table)
            assert _subset_plan.cache_info().currsize <= PLAN_CACHE_SIZE
        assert _subset_plan.cache_info().maxsize == PLAN_CACHE_SIZE


class TestUniversalLatticeDistance:
    def test_parameter_table(self):
        assert universal_sketch_params(1, Fraction(1, 3)) == (14, 1)
        assert universal_sketch_params(1, Fraction(1, 9)) == (14, 2)
        assert universal_sketch_params(1, Fraction(1, 10)) == (14, 3)
        assert universal_sketch_params(2, Fraction(1, 3)) == (24, 1)

    def test_referee_is_blind(self):
        L = boolean_lattice(3)
        proto = UniversalLatticeDistance(L, 1, Fraction(1, 3))
        assert not proto.referee_reads_randomness
        rnd = HashRandomness(5)
        ma, mb = proto.encode(0, rnd), proto.encode(1, rnd)
        assert proto.referee(ma, mb) == proto.referee(ma, mb, rnd)

    def test_one_sided_on_near_pairs(self):
        L = boolean_lattice(4)
        proto = UniversalLatticeDistance(L, 2, Fraction(1, 3))
        near = [
            (x, y)
            for x in range(L.n)
            for y in range(L.n)
            if (proto.rep.downsets[x] ^ proto.rep.downsets[y]).bit_count() <= 2
        ]
        for seed in range(12):
            rnd = HashRandomness(100 + seed)
            for x, y in near:
                assert proto.run(x, y, rnd).verdict == ACCEPT

    def test_run_verdicts_are_the_slicing_oracle(self):
        # run decides through the cached rule; 200 seeds over random pairs
        L = boolean_lattice(4)
        proto = UniversalLatticeDistance(L, 2, Fraction(1, 3))
        pick = random.Random(8)
        verdicts = set()
        for seed in range(200):
            res = proto.run(pick.randrange(L.n), pick.randrange(L.n), HashRandomness(seed))
            want = oracles.parity_blocks_slices(res.message_a, res.message_b, proto.m, proto.k)
            assert res.verdict == want
            verdicts.add(want)
        assert verdicts == {ACCEPT, REJECT}

    def test_far_error_shrinks_with_rounds(self):
        L = boolean_lattice(5)
        loose = UniversalLatticeDistance(L, 1, Fraction(1, 3))
        tight = UniversalLatticeDistance(L, 1, Fraction(1, 27))
        far = loose.monte_carlo_error(0, L.n - 1, 800, seed=21)
        farer = tight.monte_carlo_error(0, L.n - 1, 800, seed=22)
        assert far <= Fraction(1, 3) + Fraction(5, 100)
        assert farer <= Fraction(1, 27) + Fraction(3, 100)
        assert tight.cost_bits == 3 * loose.cost_bits


class TestTreeDistance:
    def test_rejects_non_trees(self):
        with pytest.raises(InputError):
            TreeKDistance(cycle_graph(5), 2, Fraction(1, 3))
        with pytest.raises(InputError):
            TreeKDistance(Graph(4, [(0, 1), (2, 3)]), 1, Fraction(1, 3))

    def test_identical_inputs_give_distance_zero(self):
        tree = random_tree(random.Random(1), 25)
        proto = TreeKDistance(tree, 2, Fraction(1, 3))
        for seed in range(30):
            res = proto.run(17, 17, HashRandomness(seed))
            assert res.verdict == distance_verdict(0)

    def test_never_overestimates(self):
        tree = random_tree(random.Random(2), 30)
        proto = TreeKDistance(tree, 3, Fraction(1, 4))
        for seed in range(6):
            rnd = HashRandomness(1000 + seed)
            for x in range(0, 30, 2):
                for y in range(0, 30, 3):
                    d = proto.true_distance(x, y)
                    v = proto.run(x, y, rnd).verdict
                    if d <= 3:
                        assert v.kind == "distance" and v.value <= d
                    elif v.kind == "distance":
                        assert v.value <= 3

    def test_exact_error_small_path(self):
        proto = TreeKDistance(path_graph(4), 1, Fraction(1, 2))
        assert proto.exact_error(0, 0) == 0
        err_adj = proto.exact_error(0, 1)
        assert 0 <= err_adj <= Fraction(1, 2)
        err_far = proto.exact_error(0, 3)
        assert err_far <= Fraction(1, 2)

    def test_observed_error_within_budget(self):
        tree = random_tree(random.Random(8), 60)
        proto = TreeKDistance(tree, 2, Fraction(1, 6))
        pairs = [(x, y) for x in range(0, 60, 5) for y in range(0, 60, 7)]
        bad = total = 0
        for seed in range(4):
            rnd = HashRandomness(5000 + seed)
            for x, y in pairs:
                total += 1
                bad += not proto.run(x, y, rnd).correct
        assert bad / total <= 1 / 6 + 0.05

    def test_true_distance_matches_bfs(self):
        from smplab.graphs import bfs_distance

        tree = random_tree(random.Random(4), 45)
        proto = TreeKDistance(tree, 2, Fraction(1, 3))
        for x in range(0, 45, 6):
            for y in range(0, 45, 7):
                assert proto.true_distance(x, y) == bfs_distance(tree, x, y)


class TestArboricityAdjacency:
    def test_reflexive_diagonal_accepts(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)], loops="all")
        proto = ArboricityAdjacency(g, Fraction(1, 4))
        for seed in range(20):
            for v in range(6):
                assert proto.run(v, v, HashRandomness(seed)).verdict == ACCEPT

    def test_edges_always_accept(self):
        g = union_of_two_trees(random.Random(3), 24)
        proto = ArboricityAdjacency(g, Fraction(1, 4))
        for seed in range(10):
            rnd = HashRandomness(300 + seed)
            for u, v in g.edges():
                assert proto.run(u, v, rnd).verdict == ACCEPT
                assert proto.run(v, u, rnd).verdict == ACCEPT

    def test_exact_error_on_path(self):
        proto = ArboricityAdjacency(path_graph(3), Fraction(1, 2))
        assert proto.exact_error(0, 1) == 0
        assert proto.exact_error(0, 2) <= Fraction(1, 2)

    def test_nonedge_error_within_budget(self):
        g = union_of_two_trees(random.Random(12), 40)
        proto = ArboricityAdjacency(g, Fraction(1, 4))
        non_edges = [
            (x, y)
            for x in range(40)
            for y in range(x + 1, 40)
            if not g.adjacent(x, y)
        ][:200]
        bad = total = 0
        for seed in range(3):
            rnd = HashRandomness(888 + seed)
            for x, y in non_edges:
                total += 1
                bad += proto.run(x, y, rnd).verdict == ACCEPT
        assert bad / total <= 2 * proto.outdeg / proto.m + 0.04

    def test_cost_scales_with_outdegree(self):
        tree = random_tree(random.Random(1), 30)
        proto = ArboricityAdjacency(tree, Fraction(1, 4))
        assert proto.outdeg == 1
        assert proto.cost_bits == 2 * proto.color_width


class TestPlanarTwoDistance:
    def test_close_pairs_always_accept(self):
        emb = stacked_triangulation(random.Random(13), 30)
        proto = PlanarTwoDistance(emb, Fraction(1, 3))
        close = [
            (x, y)
            for x in range(30)
            for y in range(30)
            if proto.distance(x, y) <= 2
        ]
        for seed in range(8):
            rnd = HashRandomness(7000 + seed)
            for x, y in close:
                assert proto.run(x, y, rnd).verdict == ACCEPT

    def test_far_pairs_error_within_budget(self):
        emb = stacked_triangulation(random.Random(14), 60)
        proto = PlanarTwoDistance(emb, Fraction(1, 3))
        far = [
            (x, y)
            for x in range(60)
            for y in range(60)
            if proto.distance(x, y) > 2
        ][:300]
        bad = total = 0
        for seed in range(3):
            rnd = HashRandomness(9000 + seed)
            for x, y in far:
                total += 1
                bad += proto.run(x, y, rnd).verdict == ACCEPT
        assert bad / total <= 1 / 3

    def test_cost_composition(self):
        emb = stacked_triangulation(random.Random(15), 20)
        proto = PlanarTwoDistance(emb, Fraction(1, 2))
        assert proto.cost_bits == 13 * proto.w1 + 18 * proto.w2

    def test_works_on_non_triangulated_input(self):
        from smplab.generators import cycle_embedding

        proto = PlanarTwoDistance(cycle_embedding(9), Fraction(1, 3))
        # base graph is just the cycle: distances along the ring
        assert proto.distance(0, 4) == 4
        for seed in range(6):
            rnd = HashRandomness(400 + seed)
            assert proto.run(0, 2, rnd).verdict == ACCEPT
            assert proto.run(0, 1, rnd).verdict == ACCEPT


# -- cached encoder plans -----------------------------------------------------


class _NoDraws(SharedRandomness):
    """Randomness that fails on any draw, for checks that must refuse first."""

    def integer(self, label, n):
        raise AssertionError(f"drew {label!r}")


class _RecordedDraws(SharedRandomness):
    """HashRandomness that also records every (label, n) it is asked for."""

    def __init__(self, seed):
        self.inner = HashRandomness(seed)
        self.draws = []

    def integer(self, label, n):
        self.draws.append((label, n))
        return self.inner.integer(label, n)


def _first_reads(draws):
    """The (label, cardinality) reads, each label once, at its first read."""
    return list(dict.fromkeys(draws))


class TestCachedEncoderPlans:
    """Tree, planar2 and arboricity encoders read cached per-vertex plans;
    their messages equal the encoders first written, and they read the same
    (label, cardinality) pairs in first-read order, each label once."""

    @staticmethod
    def _check_every_vertex(proto, n, reference, seeds) -> int:
        """Check every vertex under every seed; return how many repeated
        reads the reference made that the plans did not."""
        repeats = 0
        for seed in seeds:  # the first seed builds each plan, later ones reuse it
            for v in range(n):
                new, old = _RecordedDraws(seed), _RecordedDraws(seed)
                assert proto.encode(v, new) == reference(proto, v, old)
                assert new.draws == _first_reads(old.draws)
                repeats += len(old.draws) - len(new.draws)
        return repeats

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4),
           st.sampled_from([Fraction(1, 2), Fraction(1, 8), Fraction(1, 60)]),
           st.integers(0, 2**32))
    def test_tree_encoder(self, n, k, eps, seed):
        proto = TreeKDistance(random_tree(random.Random(seed), n), k, eps, root=seed % n)
        self._check_every_vertex(proto, n, oracles.tree_encode_fields, (seed, seed + 1, -seed))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 40), st.sampled_from([Fraction(1, 3), Fraction(1, 50)]),
           st.integers(0, 2**32))
    def test_planar2_encoder(self, n, eps, seed):
        proto = PlanarTwoDistance(stacked_triangulation(random.Random(seed), n), eps)
        self._check_every_vertex(proto, n, oracles.planar2_encode_fields,
                                 (seed, seed + 1, -seed))

    def test_planar2_plan_reads_a_repeated_grandparent_once(self):
        proto = PlanarTwoDistance(stacked_triangulation(random.Random(2), 30), Fraction(1, 3))
        assert self._check_every_vertex(proto, 30, oracles.planar2_encode_fields, (5,)) > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 40), st.sampled_from([Fraction(1, 3), Fraction(1, 50)]),
           st.integers(0, 2**32))
    def test_arboricity_encoder(self, n, eps, seed):
        proto = ArboricityAdjacency(union_of_two_trees(random.Random(seed), n), eps)
        self._check_every_vertex(proto, n, oracles.arboricity_encode, (seed, -seed))


class TestPlanChecks:
    """A plan is checked against the field widths when it is built: its
    field count, every fixed value and every draw's cardinality must fit."""

    @staticmethod
    def _with_fields(proto, restate):
        return oracles.restated(proto, lambda v: restate(proto.message_fields(v)))

    def test_plans_that_do_not_fit_are_refused(self):
        proto = TreeKDistance(path_graph(4), 1, Fraction(1, 2))
        # band 2, residue 0, the root's color, the sentinel color of height 1
        assert proto.message_fields(0) == [2, 0, (("c", 0), 12), 1]
        top = 1 << proto.color_width
        for restate, match in [
            (lambda f: f + [0], "messages must be 4 fields, input 0 states 5"),
            (lambda f: f[:-1], "messages must be 4 fields, input 0 states 3"),
            (lambda f: [4] + f[1:], "fixed value 4 does not fit its 2-bit field"),
            (lambda f: f[:3] + [-1], "fixed value -1 does not fit"),
            (lambda f: f[:3] + [(("c", 9), top + 1)], "overflows its 4-bit field"),
            (lambda f: f[:3] + [(("c", 0), 13)], "two cardinalities"),
            (lambda f: f[:3] + [(("c", 9), 0)], "positive"),
            (lambda f: f[:3] + [(("c", 0.5), 3)], "label parts"),
        ]:
            with pytest.raises(InputError, match=match):
                self._with_fields(proto, restate).encode(0, HashRandomness(1))
        fits = self._with_fields(proto, lambda f: f[:3] + [top - 1])
        assert fits.encode(0, HashRandomness(1)).length == proto.cost_bits
        widest = self._with_fields(proto, lambda f: f[:3] + [(("c", 9), top)])
        assert widest.plan(0).draws.cards == (12, top)


# planned sketch -> the encoder it was first written with
PLAN_ORACLES = {"tree": oracles.tree_encode_fields, "planar2": oracles.planar2_encode_fields,
                "sparse": oracles.arboricity_encode}


def _planned_case(family, rng, n, eps):
    """(a random instance of a planned sketch, its input count)."""
    if family == "tree":
        return TreeKDistance(random_tree(rng, n), rng.randint(1, 4), eps, root=rng.randrange(n)), n
    if family == "planar2":
        return PlanarTwoDistance(stacked_triangulation(rng, max(3, n)), eps), max(3, n)
    return ArboricityAdjacency(union_of_two_trees(rng, max(2, n)), eps), max(2, n)


class TestPlannedSketches:
    """What a planned sketch derives from its plans, under hashed and tabled
    draws: ``encode`` is the encoder first written, and the batched trial
    table and ``encode_table`` are ``field_table`` of that encoder's
    messages."""

    @pytest.mark.parametrize("family", sorted(PLAN_ORACLES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_plans_derive_the_reference_encoder(self, family, data):
        seed = data.draw(st.integers(0, 2**32))
        eps = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 8), Fraction(1, 60)]))
        proto, n = _planned_case(family, random.Random(seed), data.draw(st.integers(1, 30)), eps)
        reference = PLAN_ORACLES[family]
        union = merge_support(*map(proto.support, range(n)))
        values = random.Random(seed)
        table = TableRandomness({label: values.randrange(card) for label, card in union})
        rule = proto.rule()
        form = rule.all_pairs
        inputs = st.integers(0, n - 1)
        trials = data.draw(st.lists(st.tuples(inputs, inputs), min_size=1, max_size=12))
        trials += [(x, x) for x, _ in trials[:2]]  # equal inputs send one message twice
        vs = data.draw(st.lists(inputs, max_size=2 * n))  # repeats, or none
        chunk = data.draw(st.integers(1, 5))
        for rnd in (HashRandomness(seed), table):
            want = [reference(proto, v, rnd) for v in range(n)]
            assert [proto.encode(v, rnd) for v in range(n)] == want
            rnds = itertools.repeat(rnd)
            got = np.concatenate(list(proto._trial_tables(zip(trials, rnds), rule, chunk)), axis=1)
            expect = field_table([want[v].value for pair in trials for v in pair], form.widths)
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)
            _assert_same_table(proto.encode_table(iter(vs), iter([rnd])),
                               field_table([want[v].value for v in vs], form.widths))
            assert proto.encode_table((), [rnd]).shape == (len(form.widths), 0)

    def test_the_sketches_state_no_encoder_of_their_own(self):
        for cls in (TreeKDistance, PlanarTwoDistance, ArboricityAdjacency):
            assert issubclass(cls, PlannedProtocol)
            assert not {"encode", "encode_table", "run_trials"} & set(vars(cls))

    def test_encode_all_lays_out_each_run_of_inputs_anew(self):
        proto, n = _planned_case("planar2", random.Random(1), 12, Fraction(1, 3))
        widths = proto.field_widths
        for seed in range(3):
            rnd = HashRandomness(seed)
            want = [proto.encode(v, rnd).value for v in range(n)]
            for vs in (range(n), range(n), [3, 1, 3], [], range(n - 1, -1, -1)):
                _assert_same_table(proto.encode_table(vs, [rnd]),
                                   field_table([want[v] for v in vs], widths))
        # a copy keeps the layout but builds its own plans, so it lays them out anew
        swapped = oracles.restated(proto, lambda v: proto.message_fields(4 if v == 3 else v))
        assert swapped._layout is proto._layout is not None
        got = swapped.encode_table(range(n), [rnd])
        _assert_same_table(got, field_table([want[4 if v == 3 else v] for v in range(n)], widths))


# -- blind rules over ints ----------------------------------------------------


@functools.cache
def _rule_case(kind):
    """(protocol, Bits-slicing reference referee, message strategy)."""
    if kind == "tree":
        # k = 3 gives a 2-bit residue field, so residue 3 > k - 1 occurs
        proto = TreeKDistance(random_tree(random.Random(1), 12), 3, Fraction(1, 4))
        k, rw, cw, pad = proto.k, proto.res_width, proto.color_width, proto.pad
        colors = st.one_of(
            st.just([pad] * (2 * k)),
            st.lists(st.sampled_from([0, 1, 2, pad]), min_size=2 * k, max_size=2 * k),
        )
        msg = st.builds(
            lambda band, res, cs: Bits(band, 2).concat(Bits(res, rw)).concat(Bits.pack(cs, cw)),
            st.integers(0, 3), st.integers(0, (1 << rw) - 1), colors,
        )
        return proto, lambda a, b: oracles.window_scan_slices(a, b, k, rw, cw), msg
    if kind == "planar2":
        proto = PlanarTwoDistance(stacked_triangulation(random.Random(2), 12), Fraction(1, 2))
        w1, w2 = proto.w1, proto.w2
        msg = st.builds(
            lambda tree, closure: Bits.pack(tree, w1).concat(Bits.pack(closure, w2)),
            st.lists(st.integers(0, 150), min_size=13, max_size=13),
            st.lists(st.integers(0, 150), min_size=18, max_size=18),
        )
        return proto, lambda a, b: oracles.two_hop_slices(a, b, w1, w2), msg
    if kind == "sparse":
        proto = ArboricityAdjacency(union_of_two_trees(random.Random(3), 10), Fraction(1, 3))
        cw, slots = proto.color_width, 1 + proto.outdeg
        msg = st.lists(st.integers(0, 4), min_size=slots, max_size=slots).map(
            lambda cs: Bits.pack(cs, cw))
        return proto, lambda a, b: oracles.color_slots_slices(a, b, cw), msg
    proto = UniversalLatticeDistance(boolean_lattice(3), 1, Fraction(1, 4))
    m, k = proto.m, proto.k
    block = st.sampled_from([0, 1, 3, 7, 1 << (m - 1), (1 << m) - 1])
    msg = st.lists(block, min_size=proto.rounds, max_size=proto.rounds).map(
        lambda bs: Bits.pack(bs, m))
    return proto, lambda a, b: oracles.parity_blocks_slices(a, b, m, k), msg


class TestBlindRules:
    @pytest.mark.parametrize("kind", ["tree", "planar2", "sparse", "universal"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_referee_is_its_rule_and_symmetric(self, kind, data):
        proto, reference, msg = _rule_case(kind)
        ma = data.draw(msg)
        mb = ma if data.draw(st.booleans()) else data.draw(msg)
        verdict = proto.referee(ma, mb)
        assert type(proto).rule_from_params(proto.params())(ma, mb) == verdict
        assert proto.referee(mb, ma) == verdict
        assert reference(ma, mb) == verdict

    @pytest.mark.parametrize("kind", ["tree", "planar2", "sparse", "universal"])
    def test_rule_width_is_the_message_width(self, kind):
        proto, _, _ = _rule_case(kind)
        rule = proto.rule()
        assert rule.width == proto.cost_bits
        with pytest.raises(InputError):
            rule(Bits(0, rule.width), Bits(0, rule.width + 1))

    @pytest.mark.parametrize("build,args", [(parity_blocks_rule, (14, 1, 1)),
                                            (window_rule, (2, 1, 3)),
                                            (two_hop_rule, (3, 4)),
                                            (color_slots_rule, (3, 2))])
    def test_builders_return_one_rule_per_arguments(self, build, args):
        assert build(*args) is build(*args)
        assert build.cache_info().maxsize is not None


def _pack(fields, widths):
    """Fields packed big-endian into one value, first field highest."""
    value = 0
    for field, width in zip(fields, widths):
        value = value << width | field
    return value


def _loop_verdicts(rule, values, reverse=False):
    """``decide`` on every ``triu_pairs`` pair (i, j) of the values, or on
    (j, i) when ``reverse``: the reference."""
    fields = [rule.unpack(v) for v in values]
    rows, cols = triu_pairs(len(values))
    if reverse:
        rows, cols = cols, rows
    return [rule.decide(fields[i], fields[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def _assert_kernel_is_loop(rule, seed_values):
    """The all-pairs form, through ``pair_codes`` over every seed at once,
    gives each seed the verdicts of the ``decide`` loop; through
    ``seed_codes`` on the reversed pairs (j, i), whose left column comes
    after the right one, it gives the loop's verdicts on those."""
    form = rule.all_pairs
    assert form is not None
    got = []
    for verdicts, codes in _pair_codes(rule, seed_values):
        assert len(set(verdicts)) == len(verdicts)
        got += [[verdicts[c] for c in row] for row in codes.tolist()]
    assert got == [_loop_verdicts(rule, values) for values in seed_values]
    n = len(seed_values[0])
    rows, cols = triu_pairs(n)
    table = field_table([v for values in seed_values for v in values], form.widths)
    codes = form.seed_codes(table, n, cols, rows)
    assert [[form.verdicts[c] for c in row] for row in codes.tolist()] == [
        _loop_verdicts(rule, values, reverse=True) for values in seed_values]


def _assert_same_table(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _pair_codes(rule, seed_values):
    """``rule.pair_codes`` of per-seed message value lists, all as long."""
    flat = [v for values in seed_values for v in values]
    return rule.pair_codes(field_table(flat, rule.table_widths), len(seed_values[0]))


def _seed_values(data, message):
    """One to three seeds' lists of 1 to 20 message values, all as long."""
    n = data.draw(st.integers(1, 20), label="n")
    seeds = data.draw(st.integers(1, 3), label="seeds")
    return [data.draw(st.lists(message, min_size=n, max_size=n)) for _ in range(seeds)]


class TestAllPairsKernels:
    """Each blind rule's all-pairs form against its own ``decide`` loop."""

    @given(data=st.data(), m=st.sampled_from([1, 5, 14, 32, 33, 50, 64]),
           rounds=st.integers(1, 3), k=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_parity_blocks(self, data, m, rounds, k):
        rule = parity_blocks_rule(m, rounds, k)
        # blocks of weight up to k + 2, so pairs fall on both sides of k
        block = st.sets(st.integers(0, m - 1), max_size=k + 2).map(
            lambda bits: sum(1 << b for b in bits))
        message = st.lists(block, min_size=rounds, max_size=rounds).map(
            lambda blocks: _pack(blocks, [m] * rounds))
        _assert_kernel_is_loop(rule, _seed_values(data, message))

    @given(data=st.data(), m=st.sampled_from([65, 80]), k=st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_parity_blocks_past_64_bits_loop(self, data, m, k):
        rule = parity_blocks_rule(m, 1, k)
        assert rule.all_pairs is None
        block = st.sets(st.integers(0, m - 1), max_size=k + 2).map(
            lambda bits: sum(1 << b for b in bits))
        seed_values = _seed_values(data, block)
        assert rule.table_widths == word_widths(m) == (m - 64, 64)
        got = [[verdicts[c] for c in row] for verdicts, codes in _pair_codes(rule, seed_values)
               for row in codes.tolist()]
        assert got == [_loop_verdicts(rule, values) for values in seed_values]

    @given(data=st.data(), k=st.integers(1, 4), m=st.sampled_from([2, 5, 30]))
    @settings(max_examples=150, deadline=None)
    def test_window(self, data, k, m):
        res_width, color_width = window_widths(k, m)
        rule = window_rule(k, res_width, color_width)
        # few colors, so aligned suffixes agree often; residues run past
        # k - 1, which the rule clamps
        message = st.builds(
            lambda band, res, colors: _pack([band, res, *colors],
                                            [2, res_width] + [color_width] * (2 * k)),
            st.integers(0, 3), st.integers(0, (1 << res_width) - 1),
            st.lists(st.sampled_from([0, 1, m]), min_size=2 * k, max_size=2 * k))
        _assert_kernel_is_loop(rule, _seed_values(data, message))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_window_meets_every_code_on_a_path(self, k):
        proto = TreeKDistance(path_graph(4 * k + 4), k, Fraction(1, 4))
        rule = proto.rule()
        values = [[proto.encode(v, HashRandomness(seed)).value for v in range(4 * k + 4)]
                  for seed in range(3)]
        _assert_kernel_is_loop(rule, values)
        (verdicts, codes), = _pair_codes(rule, values)
        assert verdicts == (*map(distance_verdict, range(k + 1)), beyond_verdict(k))
        assert set(codes.ravel().tolist()) == set(range(k + 2))

    @pytest.mark.parametrize("cells", [1, 7, 40, 1 << 20])
    def test_any_kernel_call_size_gives_the_loop(self, cells, monkeypatch):
        # one pair per call, slices of one seed's pairs, seeds batched
        monkeypatch.setattr(protocols_base, "PAIR_CELLS", cells)
        proto = TreeKDistance(path_graph(9), 2, Fraction(1, 4))
        values = [[proto.encode(v, HashRandomness(seed)).value for v in range(9)]
                  for seed in range(5)]
        _assert_kernel_is_loop(proto.rule(), values)

    @given(data=st.data(), slots=st.integers(1, 5), color_width=st.sampled_from([1, 3, 17, 64]))
    @settings(max_examples=150, deadline=None)
    def test_color_slots(self, data, slots, color_width):
        rule = color_slots_rule(slots, color_width)
        top = (1 << color_width) - 1
        color = st.sampled_from(sorted({min(c, top) for c in (0, 1, 2, top)}))
        message = st.lists(color, min_size=slots, max_size=slots).map(
            lambda colors: _pack(colors, [color_width] * slots))
        _assert_kernel_is_loop(rule, _seed_values(data, message))

    @given(data=st.data(), w1=st.sampled_from([6, 9, 64]), w2=st.sampled_from([6, 9, 64]))
    @settings(max_examples=150, deadline=None)
    def test_two_hop(self, data, w1, w2):
        rule = two_hop_rule(w1, w2)
        widths = [w1] * 13 + [w2] * 18
        # 31 colors from pools of about 48, so about a quarter of the pairs
        # meet no pattern; one drawn seed per message keeps the draws cheap
        pools = [sorted({*range(48), (1 << w) - 1}) for w in widths]
        message = st.randoms(use_true_random=False).map(
            lambda rng: _pack([rng.choice(pool) for pool in pools], widths))
        _assert_kernel_is_loop(rule, _seed_values(data, message))

    @pytest.mark.parametrize("rule", [color_slots_rule(2, 65), two_hop_rule(65, 3)])
    def test_fields_past_64_bits_loop(self, rule):
        assert rule.all_pairs is None

    @given(widths=st.lists(st.integers(1, 64), min_size=1, max_size=12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_table_cuts_like_the_field_cutter(self, widths, data):
        # fields that straddle 64-bit words included
        values = data.draw(st.lists(st.integers(0, (1 << sum(widths)) - 1), min_size=1,
                                    max_size=6))
        table = field_table(values, tuple(widths))
        shift = sum(widths)
        for width, row in zip(widths, table.tolist()):
            shift -= width
            assert row == [v >> shift & ((1 << width) - 1) for v in values]
        assert field_values(table, tuple(widths)) == values  # and joins back


@functools.cache
def _seed_case(kind):
    """(protocol, reference referee over the draws, input count)."""
    if kind == "weak":
        proto = WeakLatticeDistance(boolean_lattice(3), 2, Fraction(1, 4), m=24)
        m, q, k = proto.m, proto.q, proto.k
        return proto, lambda a, b, rnd: oracles.weak_xor_subsets(a, b, rnd, m, q, k), 8
    graph = oracles.random_graph(random.Random(4), 9, p=0.3)
    proto = HashedAdjacency(graph, 2)
    return proto, lambda a, b, rnd: oracles.hashed_pairs(graph, 4, a, b, rnd), 9


class TestSeedReadingRules:
    @pytest.mark.parametrize("kind", ["weak", "hashed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 2**62 + 5])
    def test_rule_under_a_seed_is_the_referee_under_it(self, kind, seed):
        proto, reference, n = _seed_case(kind)
        rnd = HashRandomness(seed)
        rule = proto.rule(rnd)
        assert rule.width == proto.cost_bits
        # every message the inputs send under this seed, plus random values
        rng = random.Random(seed)
        msgs = [proto.encode(v, rnd) for v in range(n)]
        msgs += [Bits(rng.getrandbits(rule.width), rule.width) for _ in range(4)]
        for ma, mb in itertools.product(msgs, repeat=2):
            verdict = proto.referee(ma, mb, rnd)
            assert rule(ma, mb) == verdict == reference(ma, mb, rnd)
            if kind == "weak":
                assert type(proto).rule_from_params(proto.params(), rnd)(ma, mb) == verdict

    @pytest.mark.parametrize("kind", ["weak", "hashed"])
    @pytest.mark.parametrize("seed", [0, 1, 2**62 + 5])
    def test_rule_over_the_base_integers_loop(self, kind, seed):
        """A double with only ``integer`` draws through the base ``integers``
        loop: the labels come in index order, and the rule decides as the
        one over ``HashRandomness.integers`` does."""
        proto, _, n = _seed_case(kind)
        recorded = _RecordedDraws(seed)
        slow, fast = proto.rule(recorded), proto.rule(HashRandomness(seed))
        if kind == "weak":
            assert recorded.draws == [(("s", i), 2**proto.q) for i in range(proto.m)]
        else:
            assert recorded.draws == [(("bucket", v), proto.buckets) for v in range(n)]
        rng = random.Random(seed)
        verdicts = []
        for _ in range(300):
            a, b = (fast.unpack(rng.getrandbits(fast.width)) for _ in range(2))
            verdicts.append(fast.decide(a, b))
            assert slow.decide(a, b) == verdicts[-1]
        assert set(verdicts) == {ACCEPT, REJECT}

    def test_rules_without_randomness_are_refused(self):
        weak, _, _ = _seed_case("weak")
        hashed, _, _ = _seed_case("hashed")
        with pytest.raises(InputError):
            weak.rule()
        with pytest.raises(InputError):
            WeakLatticeDistance.rule_from_params(weak.params())
        with pytest.raises(InputError):
            hashed.rule()
        # the hashed rule needs the whole graph, so no rule rebuilds from params
        assert HashedAdjacency.rule_from_params is None
        # and the label decoder's registry lists only classes whose blind
        # rule does: a label file holds no seeds for a rule to read
        assert HashedAdjacency.name not in PROTOCOLS
        assert WeakLatticeDistance.name not in PROTOCOLS
        assert all(cls.rule_from_params is not None for cls in PROTOCOLS.values())
        assert not any(cls.referee_reads_randomness for cls in PROTOCOLS.values())


# -- supports recorded from the encoder, referees decided by the rule ---------


SUPPORT_CASES = ["tree", "planar2", "sparse", "hashed", "universal", "weak", "equality",
                 "fixed-seed-weak", "fixed-seed-hashed"]


@functools.cache
def _support_cases():
    """name -> (protocol, input count), for every protocol that once
    declared its draw support by hand."""
    L = boolean_lattice(3)
    weak = WeakLatticeDistance(L, 2, Fraction(1, 4), m=12)
    hashed = HashedAdjacency(oracles.random_graph(random.Random(4), 9, p=0.3), 3)
    return {
        "tree": (TreeKDistance(random_tree(random.Random(1), 30), 3, Fraction(1, 4), root=5), 30),
        "planar2": (PlanarTwoDistance(stacked_triangulation(random.Random(2), 30),
                                      Fraction(1, 3)), 30),
        "sparse": (ArboricityAdjacency(union_of_two_trees(random.Random(3), 20),
                                       Fraction(1, 3)), 20),
        "hashed": (hashed, 9),
        "universal": (UniversalLatticeDistance(L, 1, Fraction(1, 10)), L.n),
        # k = 5 sizes 74-bit blocks, past the 64 of the all-pairs form
        "universal-wide": (UniversalLatticeDistance(L, 5, Fraction(1, 10)), L.n),
        "weak": (weak, L.n),
        "equality": (EqualitySketch(6, 3), 6),
        "fixed-seed-weak": (fix_seed(weak, 3), L.n),
        "fixed-seed-hashed": (fix_seed(hashed, 3), 9),
    }


class TestRecordedSupports:
    @pytest.mark.parametrize("name", SUPPORT_CASES)
    def test_recorded_support_is_the_declared_one(self, name):
        proto, n = _support_cases()[name]
        for v in range(n):
            got = proto.support(v)
            assert len({label for label, _ in got}) == len(got)
            assert set(got) == set(oracles.declared_supports(proto, v))

    def test_undeclared_dependent_draws_raise_rather_than_undercount(self):
        # without its support override the weak sketch records only the
        # bucket-0 vector; enumeration must then refuse, not miscount
        class RecordedWeak(WeakLatticeDistance):
            support = SmpProtocol.support

        proto = RecordedWeak(boolean_lattice(2), 1, Fraction(1, 2), m=3, q=2)
        assert (("s", 1), 4) not in proto.support(3)
        with pytest.raises(InputError, match="missing from assignment"):
            proto.exact_error(0, 3)


ENCODE_TABLE_CASES = ["tree", "planar2", "sparse", "universal", "universal-wide"]


def _table_rnds(seeds, support):
    """Per seed, a table of draws over the support, from ``random.Random(seed)``."""
    tables = []
    for seed in seeds:
        values = random.Random(seed)
        tables.append(TableRandomness({label: values.randrange(card) for label, card in support}))
    return tables


class TestEncodeAll:
    """``encode_table`` of every labelable sketch is the base's table, the
    width-checked ``encode`` loop, and reads only labels that the supports
    of its inputs list, at their cardinalities."""

    @pytest.mark.parametrize("name", ENCODE_TABLE_CASES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_the_encode_loop_on_any_inputs(self, name, data):
        proto, n = _support_cases()[name]
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # repeats, or none
        seeds = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=3))
        union = merge_support(*map(proto.support, vs))
        for rnds in ([HashRandomness(seed) for seed in seeds], _table_rnds(seeds, union)):
            want = SmpProtocol.encode_table(proto, vs, rnds)
            assert want.shape == (len(proto.table_widths), len(rnds) * len(vs))
            _assert_same_table(proto.encode_table(iter(vs), iter(rnds)), want)
        recorder = RecordingRandomness()
        proto.encode_table(vs, [recorder])
        assert set(recorder.reads.items()) <= set(union)

    @pytest.mark.parametrize("name", ENCODE_TABLE_CASES)
    def test_whole_universe_from_any_iterable(self, name):
        proto, n = _support_cases()[name]
        rnds = [HashRandomness(11), HashRandomness(12)]
        messages = [proto.encode(v, rnd) for rnd in rnds for v in range(n)]
        want = field_table([message.value for message in messages], proto.table_widths)
        _assert_same_table(proto.encode_table(range(n), rnds), want)
        _assert_same_table(proto.encode_table(iter(range(n)), iter(rnds)), want)
        assert proto.encode_table((), rnds).shape == (len(proto.table_widths), 0)
        assert proto.encode_table(range(n), []).shape == (len(proto.table_widths), 0)
        # the rule decides every pair of the universe's messages alike either way round
        rule = proto.rule(rnds[0])
        fields = list(map(rule.fields, messages[:n]))
        assert all(rule.decide(a, b) == rule.decide(b, a) for a in fields for b in fields)


class TestEqualityRule:
    """The equality rule on ints against the referee that cuts messages with
    ``Bits.take``, and the width check of both messages."""

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equality_rule_is_its_slicing_oracle(self, rounds, data):
        proto = EqualitySketch(4, rounds)
        message = st.integers(0, (1 << rounds) - 1).map(lambda v: Bits(v, rounds))
        ma = data.draw(message)
        mb = ma if data.draw(st.booleans()) else data.draw(message)
        assert proto.referee(ma, mb) == oracles.equality_take(ma, mb)

    def test_referee_checks_both_widths(self):
        proto = EqualitySketch(4, 3)
        assert proto.referee(Bits(5, 3), Bits(5, 3)) == ACCEPT
        for ma, mb in [(Bits(5, 3), Bits(1, 1)), (Bits(1, 1), Bits(5, 3))]:
            with pytest.raises(InputError, match="must be 3 bits, got 1"):
                proto.referee(ma, mb)

    def test_a_protocol_without_a_rule_says_so(self):
        class Ruleless(EqualitySketch):
            rule = SmpProtocol.rule

        with pytest.raises(NotImplementedError, match="states no rule"):
            Ruleless(4).referee(Bits(0, 2), Bits(0, 2))


class TestFieldCutter:
    @given(st.integers(0, 12), st.integers(1, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cutter_is_the_per_call_formula(self, count, width, data):
        # values wider than the fields too: the top field is masked like the rest
        value = data.draw(st.integers(0, (1 << (count * width + 3)) - 1))
        cut = fields_of(count, width)
        assert cut(value) == oracles.fields_formula(value, count, width)
        assert cut(value) == cut(value)  # the cutter keeps no state between calls

    def test_huge_count_builds_and_wide_field_is_refused(self):
        assert fields_of(10**30, 14) is not None  # the shifts stay a range
        assert fields_of(1, WIDTH_CAP)((1 << WIDTH_CAP) - 1) == ((1 << WIDTH_CAP) - 1,)
        for width in (WIDTH_CAP + 1, 10**30):
            with pytest.raises(InputError, match="fields exceed"):
                fields_of(1, width)


class TestSizingFormulas:
    def test_each_formula_is_shared(self):
        for k, eps in [(1, Fraction(1, 3)), (2, Fraction(1, 7)), (3, Fraction(1, 4))]:
            proto = WeakLatticeDistance(boolean_lattice(2), k, eps)
            assert proto.m == weak_bucket_count(k, eps)
            assert proto.q == weak_sketch_width(proto.m, k, eps)
        proto = ArboricityAdjacency(union_of_two_trees(random.Random(7), 12), Fraction(1, 5))
        assert proto.color_width == field_width(proto.m)
        assert ArboricityAdjacency.rule_from_params(proto.params()).width == proto.cost_bits
