"""Protocol-level tests: exact errors, one-sidedness, referee duals."""

import copy
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
    EqualitySketch,
    HashedAdjacency,
    PlanarTwoDistance,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
    beyond_verdict,
    distance_verdict,
    protocol_from_document,
    protocol_to_document,
    symmetrize,
    universal_sketch_params,
    verdict_max,
    weak_sketch_params,
)
from smplab.protocols.base import SmpProtocol, field_width, merge_support
from smplab.protocols.lattice import (
    XOR_SIDE_CAP,
    weak_bucket_count,
    weak_xor_rule,
    xor_side_size,
)
from smplab.rng import HashRandomness, SharedRandomness, TableRandomness
from smplab.universal import fix_seed


class TestVerdicts:
    def test_max_prefers_reject(self):
        assert verdict_max(ACCEPT, REJECT) == REJECT
        assert verdict_max(ACCEPT, ACCEPT) == ACCEPT

    def test_max_prefers_larger_distance(self):
        assert verdict_max(distance_verdict(1), distance_verdict(3)) == distance_verdict(3)
        assert verdict_max(distance_verdict(5), beyond_verdict(3)) == beyond_verdict(3)

    def test_merge_support_rejects_clashing_cardinalities(self):
        merged = merge_support([(("a",), 4)], [(("a",), 4), (("b",), 2)])
        assert merged == [(("a",), 4), (("b",), 2)]
        with pytest.raises(InputError):
            merge_support([(("a",), 4)], [(("a",), 8)])


class TestEqualityToy:
    def test_exact_error_closed_form(self):
        eq = EqualitySketch(8, rounds_a=3, rounds_b=1)
        assert eq.exact_error(0, 1) == Fraction(1, 2)
        assert eq.exact_error(3, 3) == 0
        wide = EqualitySketch(8, rounds_a=4, rounds_b=4)
        assert wide.exact_error(0, 1) == Fraction(1, 16)

    def test_one_sided(self):
        eq = EqualitySketch(4, 2, 2)
        for seed in range(40):
            assert eq.run(1, 1, HashRandomness(seed)).verdict == ACCEPT

    def test_monte_carlo_tracks_exact(self):
        eq = EqualitySketch(8, 1, 1)
        err = eq.monte_carlo_error(0, 1, 4000, seed=11)
        assert abs(err - Fraction(1, 2)) < Fraction(1, 20)

    def test_symmetrized_costs_and_errors(self):
        eq = EqualitySketch(8, rounds_a=3, rounds_b=1)
        sym = symmetrize(eq)
        assert sym.cost_bits == 4
        assert sym.cost_bits_a == sym.cost_bits_b == 4
        assert sym.symmetric
        assert not eq.symmetric
        assert sym.one_sided
        assert sym.exact_error(0, 1) == Fraction(1, 2)
        assert sym.exact_error(5, 5) == 0

    def test_symmetrized_message_is_both_encodings(self):
        eq = EqualitySketch(8, rounds_a=3, rounds_b=2)
        sym = symmetrize(eq)
        rnd = HashRandomness(123)
        msg = sym.encode(6, rnd)
        assert msg.length == 5
        assert msg.take(0, 3) == eq.encode_a(6, rnd)
        assert msg.take(3, 2) == eq.encode_b(6, rnd)

    def test_out_of_range_input(self):
        eq = EqualitySketch(4)
        with pytest.raises(InputError):
            eq.run(4, 0, HashRandomness(0))


class TestWeakLatticeDistance:
    def test_parameter_table(self):
        assert weak_sketch_params(1, Fraction(1, 3)) == (27, 7)
        m, q = weak_sketch_params(3, Fraction(1, 4))
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
            m, _ = weak_sketch_params(k, Fraction(1, 8))
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

    def test_rebuild_from_document(self):
        L = boolean_lattice(3)
        proto = WeakLatticeDistance(L, 1, Fraction(1, 3))
        doc = protocol_to_document(proto)
        again = protocol_from_document(doc)
        assert again.params() == proto.params()
        rnd = HashRandomness(9)
        assert again.encode(2, rnd) == proto.encode(2, rnd)


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

    @pytest.mark.parametrize("m,q,k", [(12, 8, 3), (20, 10, 2), (10, 10, 4), (5, 4, 0), (30, 12, 1)])
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

    def test_rebuild_from_document(self):
        tree = random_tree(random.Random(6), 20)
        proto = TreeKDistance(tree, 2, Fraction(1, 5))
        again = protocol_from_document(protocol_to_document(proto))
        rnd = HashRandomness(77)
        for v in (0, 7, 19):
            assert again.encode(v, rnd) == proto.encode(v, rnd)
        assert again.params() == proto.params()


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

    def test_rebuild_from_document(self):
        g = union_of_two_trees(random.Random(5), 15)
        proto = ArboricityAdjacency(g, Fraction(1, 3))
        again = protocol_from_document(protocol_to_document(proto))
        rnd = HashRandomness(31)
        for v in range(15):
            assert again.encode(v, rnd) == proto.encode(v, rnd)


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

    def test_rebuild_from_document(self):
        emb = stacked_triangulation(random.Random(16), 25)
        proto = PlanarTwoDistance(emb, Fraction(1, 3))
        again = protocol_from_document(protocol_to_document(proto))
        rnd = HashRandomness(551)
        for v in (0, 5, 24):
            assert again.encode(v, rnd) == proto.encode(v, rnd)
        ma, mb = proto.encode(3, rnd), proto.encode(21, rnd)
        assert again.referee(ma, mb) == proto.referee(ma, mb)

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


class TestCachedEncoderPlans:
    """Tree and planar2 encoders shift cached per-vertex plans into one int;
    messages and the draws behind them equal the encoders first written."""

    @staticmethod
    def _check_every_vertex(proto, n, reference, seeds):
        for seed in seeds:  # the first seed builds each plan, later ones reuse it
            for v in range(n):
                new, old = _RecordedDraws(seed), _RecordedDraws(seed)
                assert proto.encode(v, new) == reference(proto, v, old)
                assert new.draws == old.draws

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

    def test_symmetrized_rule_is_its_slicing_oracle(self):
        # the rule built from the inner one, on every pair of 5-bit messages
        proto = symmetrize(EqualitySketch(4, 2, 3))
        rule = proto.rule()
        assert rule.width == proto.cost_bits == 5
        for a, b in itertools.product(range(32), repeat=2):
            ma, mb = Bits(a, 5), Bits(b, 5)
            want = oracles.symmetrized_take(oracles.equality_take, 2, ma, mb)
            assert rule(ma, mb) == proto.referee(ma, mb) == want


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


# -- supports recorded from the encoder, referees decided by the rule ---------


SUPPORT_CASES = ["tree", "planar2", "sparse", "hashed", "universal", "weak", "equality",
                 "symmetrized-equality", "symmetrized-weak", "fixed-seed-weak",
                 "fixed-seed-hashed"]


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
        "weak": (weak, L.n),
        "equality": (EqualitySketch(6, 3, 1), 6),
        "symmetrized-equality": (symmetrize(EqualitySketch(6, 1, 4)), 6),
        "symmetrized-weak": (symmetrize(weak), L.n),
        "fixed-seed-weak": (fix_seed(weak, 3), L.n),
        "fixed-seed-hashed": (fix_seed(hashed, 3), 9),
    }


class TestRecordedSupports:
    @pytest.mark.parametrize("name", SUPPORT_CASES)
    def test_recorded_support_is_the_declared_one(self, name):
        proto, n = _support_cases()[name]
        for v in range(n):
            want_a, want_b = oracles.declared_supports(proto, v)
            for got, want in ((proto.support_a(v), want_a), (proto.support_b(v), want_b)):
                assert len({label for label, _ in got}) == len(got)
                assert set(got) == set(want)

    def test_undeclared_dependent_draws_raise_rather_than_undercount(self):
        # without its support override the weak sketch records only the
        # bucket-0 vector; enumeration must then refuse, not miscount
        class RecordedWeak(WeakLatticeDistance):
            support = SmpProtocol.support

        proto = RecordedWeak(boolean_lattice(2), 1, Fraction(1, 2), m=3, q=2)
        assert (("s", 1), 4) not in proto.support(3)
        with pytest.raises(InputError, match="missing from assignment"):
            proto.exact_error(0, 3)


def _messages(widths):
    return st.tuples(*(st.integers(0, (1 << w) - 1).map(lambda v, w=w: Bits(v, w))
                       for w in widths))


class TestRoleSplitRules:
    """The equality and symmetrized rules on ints against the referees that
    cut messages with ``Bits.take``."""

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equality_rule_is_its_slicing_oracle(self, ra, rb, data):
        proto = EqualitySketch(4, ra, rb)
        ma, mb = data.draw(_messages((ra, rb)))
        if data.draw(st.booleans()):  # agree on the overlap
            overlap = min(ra, rb)
            mb = Bits(ma.value >> (ra - overlap) << (rb - overlap)
                      | mb.value & ((1 << (rb - overlap)) - 1), rb)
        assert proto.referee(ma, mb) == oracles.equality_take(ma, mb)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_symmetrized_equality_rule_is_its_slicing_oracle(self, ra, rb, data):
        proto = symmetrize(EqualitySketch(4, ra, rb))
        ma, mb = data.draw(_messages((ra + rb, ra + rb)))
        want = oracles.symmetrized_take(oracles.equality_take, ra, ma, mb)
        assert proto.referee(ma, mb) == proto.rule()(ma, mb) == want

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetrized_tree_rule_is_its_slicing_oracle(self, seed, data):
        inner, _, _ = _rule_case("tree")
        proto = symmetrize(inner)
        rnd = HashRandomness(seed)
        x, y = data.draw(st.integers(0, 11)), data.draw(st.integers(0, 11))
        ma, mb = proto.encode(x, rnd), proto.encode(y, rnd)

        def referee(a, b, rnd):
            return oracles.window_scan_slices(a, b, inner.k, inner.res_width, inner.color_width)

        want = oracles.symmetrized_take(referee, inner.cost_bits, ma, mb)
        assert proto.referee(ma, mb) == want

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetrized_weak_rule_is_its_slicing_oracle(self, seed, data):
        inner, _, n = _seed_case("weak")
        proto = symmetrize(inner)
        rnd = HashRandomness(seed)
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        ma, mb = proto.encode(x, rnd), proto.encode(y, rnd)

        def referee(a, b, rnd):
            return oracles.weak_xor_subsets(a, b, rnd, inner.m, inner.q, inner.k)

        want = oracles.symmetrized_take(referee, inner.q, ma, mb, rnd)
        assert proto.referee(ma, mb, rnd) == proto.rule(rnd)(ma, mb) == want

    def test_referee_checks_both_widths(self):
        proto = EqualitySketch(4, 3, 1)
        assert proto.referee(Bits(5, 3), Bits(1, 1)) == ACCEPT
        for ma, mb in [(Bits(5, 3), Bits(1, 3)), (Bits(1, 1), Bits(5, 3))]:
            with pytest.raises(InputError):
                proto.referee(ma, mb)

    def test_a_protocol_without_a_rule_says_so(self):
        class Ruleless(EqualitySketch):
            rule = SmpProtocol.rule

        with pytest.raises(NotImplementedError, match="states no rule"):
            Ruleless(4).referee(Bits(0, 2), Bits(0, 2))


class TestSizingFormulas:
    def test_each_formula_is_shared(self):
        for k, eps in [(1, Fraction(1, 3)), (2, Fraction(1, 7)), (3, Fraction(1, 4))]:
            proto = WeakLatticeDistance(boolean_lattice(2), k, eps)
            assert (proto.m, proto.q) == weak_sketch_params(k, eps)
            assert proto.m == weak_bucket_count(k, eps)
        proto = ArboricityAdjacency(union_of_two_trees(random.Random(7), 12), Fraction(1, 5))
        assert proto.color_width == field_width(proto.m)
        assert ArboricityAdjacency.rule_from_params(proto.params()).width == proto.cost_bits


# -- documents: damaged ones end in InputError or CapacityError ---------------


@functools.cache
def _documents():
    """A valid document of each registered protocol."""
    L = boolean_lattice(2)
    protos = [
        WeakLatticeDistance(L, 1, Fraction(1, 3)),
        UniversalLatticeDistance(L, 1, Fraction(1, 3)),
        TreeKDistance(random_tree(random.Random(1), 6), 2, Fraction(1, 3)),
        ArboricityAdjacency(union_of_two_trees(random.Random(2), 6), Fraction(1, 3)),
        PlanarTwoDistance(stacked_triangulation(random.Random(3), 6), Fraction(1, 3)),
        HashedAdjacency(cycle_graph(5), 3),
    ]
    assert sorted(p.name for p in protos) == sorted(PROTOCOLS)
    return [protocol_to_document(p) for p in protos]


def _key_paths(node, path=()):
    """Every path of dict keys in a document, outermost first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


_RETYPED = st.sampled_from([None, "x", [], {}, 1.5, True, -1, 0, 2, [1], [1, 0]])


class TestProtocolDocuments:
    @given(st.integers(0, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_document_is_refused_cleanly(self, which, data):
        doc = copy.deepcopy(_documents()[which])
        path = data.draw(st.sampled_from(list(_key_paths(doc))))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_RETYPED)
        try:
            proto = protocol_from_document(doc)
        except (InputError, CapacityError):
            return
        assert proto.name in PROTOCOLS

    @pytest.mark.parametrize("doc", [
        {"params": [], "payload": {}},
        {"params": {"name": ["tree-distance"]}, "payload": {}},
        {"params": {"name": "tree-distance", "k": 1, "eps": [1, 3]}, "payload": []},
    ])
    def test_misshapen_document_is_an_input_error(self, doc):
        with pytest.raises(InputError):
            protocol_from_document(doc)

    def test_lattice_document_whose_poset_is_no_lattice(self):
        doc = copy.deepcopy(_documents()[0])
        doc["payload"]["poset"]["covers"] = []  # an antichain: no bottom
        with pytest.raises(InputError, match="lattice-distance-weak document"):
            protocol_from_document(doc)

    def test_tree_document_without_its_graph(self):
        doc = _documents()[2]
        for part, key in [("payload", "graph"), ("params", "k"), ("params", "eps")]:
            damaged = copy.deepcopy(doc)
            del damaged[part][key]
            with pytest.raises(InputError):
                protocol_from_document(damaged)
