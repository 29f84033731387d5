"""Decision graphs, universal-graph search, seed banks, labelings."""

import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from oracles import faithful_maps_brute, parity_blocks_slices
from smplab.bits import Bits
from smplab.errors import (
    CapacityError,
    InputError,
    PreconditionError,
    VerificationError,
)
from smplab.generators import cycle_graph, random_tree
from smplab.graphs import (
    Graph,
    VertexMap,
    bfs_distance,
    find_faithful_map,
    find_isomorphism,
    k_closure,
    reduced_size,
    twin_reduction,
)
from smplab.lattices import boolean_lattice, cover_graph, lattice_distance
from smplab.protocols import (
    ACCEPT,
    REJECT,
    EqualitySketch,
    HashedAdjacency,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
    symmetrize,
)
from smplab.protocols.base import Rule, SmpProtocol
from smplab.rng import HashRandomness
from smplab.universal import (
    DecisionGraph,
    LabelingScheme,
    SeedBank,
    bank_bad_fraction,
    check_prob_embedding,
    decision_graph,
    decode_labels,
    derandomized_labeling,
    fix_seed,
    labeling_from_json,
    labeling_to_json,
    min_universal_graph,
    newman_bank_size,
    newman_seed_bank,
    positive_verdict,
    protocol_map_sampler,
    scheme_mismatches,
    weak_to_universal_family,
)


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


class LessThanReferee(OneBitEquality):
    """Deliberately order-dependent rule, for the symmetry guard."""

    def rule(self, rnd=None):
        return Rule(1, int, lambda a, b: ACCEPT if a < b else REJECT)


class TestDecisionGraph:
    def test_one_bit_equality(self):
        dg = decision_graph(OneBitEquality())
        assert dg.graph.n == 2
        assert dg.graph.edges() == []
        assert sorted(dg.graph.loops) == [0, 1]
        assert dg.message_bits == 1
        assert dg.mode == "all"

    def test_parity_sketch_is_cube_closure(self):
        # All 16 messages of the 4-bucket single-round sketch at k=1; the
        # accept set must be exactly the pairs at XOR weight <= 1.
        proto = UniversalLatticeDistance(boolean_lattice(3), 1, Fraction(1, 3), m=4)
        assert proto.cost_bits == 4
        dg = decision_graph(proto)
        assert dg.graph.n == 16
        want = sorted(
            (a, b)
            for a in range(16)
            for b in range(a + 1, 16)
            if (a ^ b).bit_count() <= 1
        )
        assert dg.graph.edges() == want
        assert sorted(dg.graph.loops) == list(range(16))

    def test_symmetrized_toy_graph_is_symmetric(self):
        dg = decision_graph(symmetrize(EqualitySketch(4, 2, 2)))
        m = dg.graph.matrix()
        assert (m == m.T).all()

    def test_asymmetric_referee_is_caught(self):
        with pytest.raises(VerificationError):
            decision_graph(LessThanReferee())

    def test_all_messages_cap(self):
        proto = UniversalLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3))
        assert proto.cost_bits == 14
        with pytest.raises(CapacityError):
            decision_graph(proto, cap=8)

    def test_weak_referee_needs_a_seed(self):
        weak = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3), m=3, q=2)
        with pytest.raises(InputError):
            decision_graph(weak)
        dg = decision_graph(fix_seed(weak, 7))
        assert dg.graph.n == 4

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_fixed_seed_graph_is_the_referee_under_that_seed(self, seed):
        weak = WeakLatticeDistance(boolean_lattice(3), 2, Fraction(1, 3), m=6, q=4)
        hashed = HashedAdjacency(cycle_graph(7), 3)
        for proto in (weak, hashed):
            dg = decision_graph(fix_seed(proto, seed))
            rnd = HashRandomness(seed)
            c = proto.cost_bits
            edges, loops = [], []
            for a in range(1 << c):
                for b in range(a, 1 << c):
                    if not positive_verdict(proto.referee(Bits(a, c), Bits(b, c), rnd)):
                        continue
                    if a == b:
                        loops.append(a)
                    else:
                        edges.append((a, b))
            assert dg.graph == Graph(1 << c, edges, loops=loops)

    def test_role_split_protocol_rejected(self):
        with pytest.raises(InputError):
            decision_graph(EqualitySketch(4, 2, 3))

    def test_occurring_messages_mode(self):
        tree = random_tree(random.Random(1), 9)
        proto = TreeKDistance(tree, 1, Fraction(1, 2))
        dg = decision_graph(proto, mode="occurring", inputs=9, rnd=5)
        rnd = HashRandomness(5)
        seen = sorted({proto.encode(v, rnd).value for v in range(9)})
        assert list(dg.messages) == seen
        assert dg.graph.n == len(seen)
        # adjacency agrees with the referee on the stored messages
        c = proto.cost_bits
        for i in range(dg.graph.n):
            for j in range(i, dg.graph.n):
                verdict = proto.referee(dg.message(i), dg.message(j))
                assert dg.graph.adjacent(i, j) == positive_verdict(verdict)

    def test_occurring_mode_needs_inputs(self):
        proto = TreeKDistance(random_tree(random.Random(1), 5), 1, Fraction(1, 2))
        with pytest.raises(InputError):
            decision_graph(proto, mode="occurring", rnd=5)
        with pytest.raises(InputError):
            decision_graph(proto, mode="nonsense")

    def test_vertex_lookup(self):
        dg = decision_graph(OneBitEquality())
        assert dg.vertex_of(Bits(1, 1)) == 1
        assert dg.message(0) == Bits(0, 1)
        with pytest.raises(InputError):
            dg.vertex_of(5)


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


class IgnoreSeedWeak(OneBitEquality):
    """Flagged as seed-reading but never uses the seed."""

    referee_reads_randomness = True


class TestWeakToUniversalFamily:
    def test_one_graph_per_seed(self):
        weak = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3), m=3, q=2)
        bank = SeedBank((11, 22, 33), Fraction(1, 3), Fraction(1, 8))
        fam = weak_to_universal_family(weak, bank)
        assert len(fam) == 3
        assert all(dg.graph.n == 4 for dg in fam)

    def test_seed_ignoring_referee_gives_identical_graphs(self):
        bank = SeedBank((1, 2, 3, 4), Fraction(1, 3), Fraction(1, 8))
        fam = weak_to_universal_family(IgnoreSeedWeak(), bank)
        assert all(dg.graph == fam[0].graph for dg in fam)

    def test_blind_protocol_rejected(self):
        bank = SeedBank((1,), Fraction(1, 3), Fraction(1, 8))
        with pytest.raises(InputError):
            weak_to_universal_family(OneBitEquality(), bank)

    def test_composes_with_universal_search(self):
        # The per-seed graphs of the toy sketch fit in a single 4-vertex
        # target, so the blind-referee route costs no more bits than the
        # seed-reading message width.
        weak = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3), m=3, q=2)
        bank = SeedBank((101, 202), Fraction(1, 3), Fraction(1, 8))
        fam = weak_to_universal_family(weak, bank)
        res = min_universal_graph([dg.graph for dg in fam])
        assert all(
            find_faithful_map(dg.graph, res.graph, cap=8) is not None for dg in fam
        )
        assert res.bits == 2
        assert res.bits <= weak.cost_bits


class TestCheckProbEmbedding:
    def test_exact_identity_embedding(self):
        G = Graph(3, [(0, 1), (1, 2)], loops="none")
        sampler = lambda seed: VertexMap((0, 1, 2), 3)
        chk = check_prob_embedding(G, G, sampler, Fraction(1, 3), 4, exact=True)
        assert chk.passed
        assert chk.worst_rate == 0

    def test_constant_map_onto_loop_fails(self):
        G = Graph(2, [], loops="none")
        H = Graph(1, [], loops="all")
        chk = check_prob_embedding(G, H, lambda s: VertexMap((0, 0), 1), Fraction(1, 3), 10)
        assert not chk.passed
        assert chk.worst_rate == 1

    def test_cube_into_parity_decision_graph(self):
        # 64-element Boolean lattice, distance-1 predicate, mapped through
        # the sketch encoder into the sketch's own decision graph.  The
        # bucket count is held at 9 to keep the message space enumerable;
        # the worst per-pair rate must still clear eps = 1/3 at 3 sigma.
        L = boolean_lattice(6)
        proto = UniversalLatticeDistance(L, 1, Fraction(1, 3), m=9)
        U = decision_graph(proto)
        G = k_closure(cover_graph(L.poset), 1)
        sampler = protocol_map_sampler(proto, 64, U)
        chk = check_prob_embedding(G, U, sampler, Fraction(1, 3), 1500)
        assert chk.passed
        assert chk.worst_rate > 0  # negatives do sometimes collide

    def test_sampler_shape_checked(self):
        G = Graph(2, [], loops="none")
        with pytest.raises(InputError):
            check_prob_embedding(G, G, lambda s: VertexMap((0,), 2), Fraction(1, 2), 2)


class TestMinUniversalGraph:
    def test_singleton_family_gives_twin_reduction(self):
        G = Graph(3, [(0, 1), (1, 2)], loops="none")  # leaves are twins
        res = min_universal_graph([G])
        reduced, _ = twin_reduction(G)
        assert find_isomorphism(res.graph, reduced) is not None
        assert res.bits == 1

    def test_two_vertex_family(self):
        empty2 = Graph(2, [], loops="none")
        k2 = Graph(2, [(0, 1)], loops="none")
        res = min_universal_graph([empty2, k2])
        assert res.graph.n == 2
        assert res.graph.edges() == [(0, 1)]
        assert res.graph.loops == frozenset()
        assert res.bits == 1

    def test_nested_family_matches_largest_member(self):
        # every member maps into K2, so the family costs exactly what its
        # largest member costs alone
        family = [
            Graph(1, [], loops="none"),
            Graph(2, [], loops="none"),
            Graph(2, [(0, 1)], loops="none"),
        ]
        res = min_universal_graph(family)
        solo = [min_universal_graph([g]).bits for g in family]
        assert res.bits == max(solo) == 1

    def test_found_target_verified_by_brute_force(self):
        rng = random.Random(4)
        for _ in range(6):
            family = []
            for _ in range(rng.randrange(1, 4)):
                n = rng.randrange(1, 5)
                edges = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ]
                loops = [v for v in range(n) if rng.random() < 0.5]
                family.append(Graph(n, edges, loops=loops))
            res = min_universal_graph(family)
            for g in family:
                assert faithful_maps_brute(g, res.graph)

    def test_result_size_is_minimal(self):
        # independent minimality check on a fixed small family
        family = [
            Graph(3, [(0, 1), (1, 2), (0, 2)], loops="none"),
            Graph(2, [], loops="all"),
        ]
        res = min_universal_graph(family)
        for k in range(1, res.graph.n):
            pairs = [(i, j) for i in range(k) for j in range(i, k)]
            for mask in range(1 << len(pairs)):
                edges = []
                loops = []
                for b, (i, j) in enumerate(pairs):
                    if mask >> b & 1:
                        if i == j:
                            loops.append(i)
                        else:
                            edges.append((i, j))
                cand = Graph(k, edges, loops=loops)
                assert not all(faithful_maps_brute(g, cand) for g in family)

    def test_determinism(self):
        family = [Graph(2, [], loops="none"), Graph(2, [(0, 1)], loops="none")]
        assert min_universal_graph(family).graph == min_universal_graph(family).graph

    def test_caps(self):
        with pytest.raises(InputError):
            min_universal_graph([])
        with pytest.raises(CapacityError):
            min_universal_graph([Graph(1, [], loops="none")] * 9)
        with pytest.raises(CapacityError):
            min_universal_graph([Graph(6, [], loops="none")])
        with pytest.raises(CapacityError):
            min_universal_graph([Graph(2, [(0, 1)], loops="none")], enum_cap=1)


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
        assert list(scheme_mismatches(scheme, lambda x, y: (x, y) in near)) == []
        flipped = {(0, 5), (3, 14), (7, 7), (15, 15)}
        wrong = scheme_mismatches(scheme, lambda x, y: ((x, y) in near) != ((x, y) in flipped))
        assert list(wrong) == sorted(flipped)

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

    def test_role_split_protocol_rejected(self):
        # a labeling is refused before anything is encoded unless its file
        # can rebuild the rule: the protocol must be registered and its rule
        # must rebuild from its params
        class Unsent(EqualitySketch):
            def encode_a(self, v, rnd):
                raise AssertionError("encoded before the protocol was checked")

            encode_b = encode_a

        class UnsentHashed(HashedAdjacency):
            def encode(self, v, rnd):
                raise AssertionError("encoded before the protocol was checked")

        bank = SeedBank((1, 2, 3), Fraction(1, 8), Fraction(1, 8))
        for proto in (Unsent(4, 2, 3), symmetrize(Unsent(4, 2, 2)),
                      symmetrize(EqualitySketch(4, 2, 2)), UnsentHashed(cycle_graph(4), 2)):
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

    def test_weak_labels_decode_as_the_per_seed_vote(self):
        # one rule per bank seed against the vote as first written: slice
        # each label per seed and run an exhaustive referee under its draws
        L = boolean_lattice(3)
        proto = WeakLatticeDistance(L, 2, Fraction(1, 5), m=20)
        bank = newman_seed_bank(proto, 8, Fraction(1, 5), Fraction(1, 5), 3)
        scheme = labeling_from_json(labeling_to_json(derandomized_labeling(proto, 8, bank)))
        m, c, q, k = bank.m, proto.cost_bits, proto.q, proto.k

        def referee(ma, mb, rnd):
            return oracles.weak_xor_subsets(ma, mb, rnd, proto.m, q, k)

        rng = random.Random(2)
        strangers = [Bits(rng.getrandbits(scheme.label_bits), scheme.label_bits)
                     for _ in range(3)]
        labels = list(scheme.labels) + strangers
        for lx in labels:
            for ly in labels:
                want = oracles.seed_vote_slices(referee, m, c, bank.seeds, lx, ly)
                assert decode_labels(scheme, lx, ly) == want

    def test_weak_protocol_labels_carry_their_seeds(self):
        # the seed-reading sketch can still be derandomized: the bank seeds
        # become part of the decoder parameters
        L = boolean_lattice(2)
        proto = WeakLatticeDistance(L, 1, Fraction(1, 8))
        bank = newman_seed_bank(proto, 4, Fraction(1, 8), Fraction(1, 4), 9)
        scheme = derandomized_labeling(proto, 4, bank)
        assert scheme.params["seeds"] == list(bank.seeds)
        again = labeling_from_json(json.loads(json.dumps(labeling_to_json(scheme))))
        for x in range(4):
            for y in range(x, 4):
                want = lattice_distance(L, x, y) <= 1
                assert decode_labels(again, again.labels[x], again.labels[y]) == want

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

    def test_symmetrized_bank_check_matches_its_slicing_oracle(self):
        # the symmetrized rule, built from the inner one, against the
        # Bits.take referee over the inner Bits-slicing referee, per seed
        _, proto, bank, _ = self.tree_scheme()
        sym = symmetrize(proto)
        c = proto.cost_bits

        def inner(ma, mb, rnd):
            return oracles.window_scan_slices(ma, mb, proto.k, proto.res_width, proto.color_width)

        pairs = [(x, y) for x in range(16) for y in range(x, 16)]
        bad = {pair: 0 for pair in pairs}
        for seed in bank.seeds:
            msgs = [sym.encode(v, HashRandomness(seed)) for v in range(16)]
            for x, y in pairs:
                verdict = oracles.symmetrized_take(inner, c, msgs[x], msgs[y])
                bad[x, y] += verdict != proto.expected(x, y)
        worst = max(pairs, key=lambda pair: bad[pair])  # first of the worst
        assert bad[worst] > 0
        assert bank_bad_fraction(sym, 16, bank) == (Fraction(bad[worst], bank.m), worst)
        assert bank_bad_fraction(sym, 16, bank) == bank_bad_fraction(proto, 16, bank)

    def test_seed_reading_bank_check_matches_the_referee(self):
        # one rule per seed draws the buckets once; the worst pair and its
        # fraction must be what an exhaustive referee gives per pair and seed
        graph = oracles.random_graph(random.Random(6), 10, p=0.25)
        proto = HashedAdjacency(graph, 3)
        bank = SeedBank(tuple(range(100, 112)), Fraction(1, 8), Fraction(1, 8))
        pairs = [(x, y) for x in range(10) for y in range(x, 10)]
        bad = {pair: 0 for pair in pairs}
        for seed in bank.seeds:
            rnd = HashRandomness(seed)
            for x, y in pairs:
                verdict = oracles.hashed_pairs(graph, 8, proto.encode(x, rnd),
                                               proto.encode(y, rnd), rnd)
                bad[x, y] += verdict != proto.expected(x, y)
        worst = max(pairs, key=lambda pair: bad[pair])  # first of the worst
        assert bad[worst] > 0
        assert bank_bad_fraction(proto, 10, bank) == (Fraction(bad[worst], bank.m), worst)


class TestHierarchyLengths:
    def test_decision_graph_never_needs_more_bits_than_messages(self):
        inner = EqualitySketch(8, 2, 2)
        sym = symmetrize(inner)
        dg = decision_graph(sym)
        blind_bits = (reduced_size(dg.graph) - 1).bit_length()
        assert blind_bits <= dg.message_bits
        assert dg.message_bits == inner.cost_bits_a + inner.cost_bits_b
