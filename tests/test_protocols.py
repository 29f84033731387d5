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
from smplab.protocols.base import merge_support
from smplab.protocols.lattice import _small_xor_hit, weak_xor_rule
from smplab.rng import HashRandomness, SharedRandomness


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
        with pytest.raises(CapacityError):
            WeakLatticeDistance(boolean_lattice(2), 5, Fraction(1, 10**12))

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
        assert _small_xor_hit(target, vecs, k) == brute

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

    def test_wrapped_protocol_rule_calls_its_referee(self):
        # a protocol with no rule of its own keeps messages whole
        proto = symmetrize(EqualitySketch(4, 2, 3))
        rule = proto.rule()
        assert rule.width == proto.cost_bits == 5
        for a, b in itertools.product(range(32), repeat=2):
            ma, mb = Bits(a, 5), Bits(b, 5)
            assert rule(ma, mb) == proto.referee(ma, mb)


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
