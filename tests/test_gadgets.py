import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import (
    CapacityError,
    InputError,
    NotALatticeError,
    PreconditionError,
    VerificationError,
)
from smplab.gadgets import (
    MODULAR_SOURCE_CAP,
    GadgetInstance,
    all_graphs_instance,
    arboricity2_gadget,
    gadget_from_json,
    gadget_to_json,
    interval_gt_instance,
    modular_gadget,
    verify_gadget,
)
from smplab.graphs import Graph, VertexMap, bfs_distance, degeneracy
from smplab.lattices import MODULAR, Poset, build_lattice, classify, cover_graph, lattice_distance

import oracles
from oracles import subspace_ambient


def reflexive(n, edges):
    return Graph(n, edges, loops="all")


def graph_from_mask(n, mask, loops="all"):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
    return Graph(n, edges, loops=loops)


def book_graph():
    # two adjacent vertices dominating three pairwise non-adjacent ones
    return reflexive(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


class TestSubspaceAmbient:
    def test_size_and_level_counts(self):
        L = subspace_ambient()
        assert L.n == 374
        # Gaussian binomials for F_2^5: 1, 31, 155, 155, 31, 1
        levels = {}
        for x in range(L.n):
            levels[L.rank[x]] = levels.get(L.rank[x], 0) + 1
        assert levels == {0: 1, 1: 31, 2: 155, 3: 155, 4: 31, 5: 1}

    def test_classified_modular_not_distributive(self):
        L = subspace_ambient()
        assert classify(L, cap=L.n) == MODULAR

    def test_cached(self):
        assert subspace_ambient() is subspace_ambient()


class TestModularGadget:
    def test_triangle(self):
        inst = modular_gadget(reflexive(3, [(0, 1), (0, 2), (1, 2)]))
        assert inst.family_tag == "modular"
        assert len(set(inst.injection.image)) == 3
        cov = cover_graph(inst.product.poset)
        for u, v in itertools.combinations(range(3), 2):
            assert bfs_distance(cov, inst.injection(u), inst.injection(v)) <= 2

    def test_book_graph_realized(self):
        # the class that same-dimension subspace images can never realize
        G = book_graph()
        inst = modular_gadget(G)
        cov = cover_graph(inst.product.poset)
        for u, v in itertools.combinations(range(5), 2):
            d = bfs_distance(cov, inst.injection(u), inst.injection(v))
            assert (d <= 2) == G.adjacent(u, v)

    def test_book_graph_needs_mixed_dimensions(self):
        inst = modular_gadget(book_graph())
        ranks = {inst.product.rank[x] for x in inst.injection.image}
        assert len(ranks) > 1

    def test_empty_and_complete_sources(self):
        empty = modular_gadget(Graph(5, [], loops="all"))
        cov = cover_graph(empty.product.poset)
        for u, v in itertools.combinations(range(5), 2):
            assert bfs_distance(cov, empty.injection(u), empty.injection(v)) >= 3
        comp = modular_gadget(reflexive(5, list(itertools.combinations(range(5), 2))))
        cov = cover_graph(comp.product.poset)
        for u, v in itertools.combinations(range(5), 2):
            assert bfs_distance(cov, comp.injection(u), comp.injection(v)) <= 2

    def test_every_source_up_to_four_vertices(self):
        for n in (1, 2, 3, 4):
            for mask in range(1 << (n * (n - 1) // 2)):
                inst = modular_gadget(graph_from_mask(n, mask))
                verify_gadget(inst)

    def test_uniform_product_size(self):
        rng = random.Random(11)
        sizes = set()
        for _ in range(12):
            G = oracles.random_graph(rng, 5, p=rng.uniform(0.1, 0.9), loop_p=1.0)
            sizes.add(modular_gadget(G).product.n)
        assert sizes == {374}

    def test_deterministic(self):
        G = book_graph()
        assert modular_gadget(G).injection == modular_gadget(G).injection

    def test_lattice_distance_agrees_with_bfs_on_images(self):
        G = book_graph()
        inst = modular_gadget(G)
        cov = cover_graph(inst.product.poset)
        for u, v in itertools.combinations(range(5), 2):
            iu, iv = inst.injection(u), inst.injection(v)
            assert lattice_distance(inst.product, iu, iv) == bfs_distance(cov, iu, iv)

    def test_rejects_loopless_source(self):
        with pytest.raises(PreconditionError):
            modular_gadget(Graph(3, [(0, 1)]))
        with pytest.raises(PreconditionError):
            modular_gadget(Graph(3, [(0, 1)], loops=[0]))

    def test_rejects_oversized_source(self):
        big = Graph(MODULAR_SOURCE_CAP + 1, [], loops="all")
        with pytest.raises(CapacityError):
            modular_gadget(big)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_random_five_vertex_sources(self, mask):
        inst = modular_gadget(graph_from_mask(5, mask))
        verify_gadget(inst)

    def test_naive_edge_bound_poset_is_not_a_lattice(self):
        # Guard against the tempting direct construction: incomparable
        # vertex elements, one lower and one upper bound per edge, global
        # bottom and top.  For a triangle the vertex-join of v0 with the
        # bound pair of the opposite edge has two minimal upper bounds, so
        # the poset is not a lattice at all.
        #   elements: 0 bottom, 1..3 vertices v0,v1,v2, 4..6 lower bounds
        #   a01,a02,a12, 7..9 upper bounds b01,b02,b12, 10 top
        covers = [(0, 4), (0, 5), (0, 6)]
        covers += [(4, 1), (5, 1), (4, 2), (6, 2), (5, 3), (6, 3)]
        covers += [(1, 7), (2, 7), (1, 8), (3, 8), (2, 9), (3, 9)]
        covers += [(7, 10), (8, 10), (9, 10)]
        with pytest.raises(NotALatticeError):
            build_lattice(Poset(11, covers), validate=True)


class TestArboricity2Gadget:
    def test_four_vertex_matching(self):
        G = Graph(4, [(0, 1), (2, 3)])
        inst = arboricity2_gadget(G)
        assert inst.product.n == 10
        assert inst.family_tag == "arboricity2"
        # middle vertices for the two real edges have degree 2, rest 0
        degs = sorted(inst.product.degree(v) for v in range(4, 10))
        assert degs == [0, 0, 0, 0, 2, 2]

    def test_adjacency_iff_two_hops(self):
        rng = random.Random(3)
        for _ in range(5):
            G = oracles.random_graph(rng, 6, p=0.5, loop_p=0.0)
            inst = arboricity2_gadget(G)
            dmat = oracles.floyd_warshall(inst.product)
            for u, v in itertools.combinations(range(6), 2):
                assert (dmat[u][v] == 2) == G.adjacent(u, v)
                if not G.adjacent(u, v):
                    assert dmat[u][v] >= 4

    def test_degeneracy_bound(self):
        rng = random.Random(5)
        for n in (4, 7, 12):
            G = oracles.random_graph(rng, n, p=0.6, loop_p=0.0)
            assert degeneracy(arboricity2_gadget(G).product) <= 2

    def test_rejects_loops(self):
        with pytest.raises(PreconditionError):
            arboricity2_gadget(Graph(3, [(0, 1)], loops=[2]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            arboricity2_gadget(Graph(65, []))

    def test_verify_gadget_accepts(self):
        verify_gadget(arboricity2_gadget(Graph(5, [(0, 1), (1, 2), (3, 4)])))


class TestIntervalGt:
    def test_pinned_small_example(self):
        inst = interval_gt_instance(5)
        assert inst.queries(2, 4) == ((1, 3), (1, 8))
        assert inst.graph.adjacent(1, 3)  # [1,2] meets [1,4]
        assert not inst.graph.adjacent(1, 8)  # [1,2] misses [4,5]
        assert inst.less_than(2, 4)

    def test_equal_values(self):
        inst = interval_gt_instance(6)
        for x in range(1, 7):
            (a1, b1), (a2, b2) = inst.queries(x, x)
            assert inst.graph.adjacent(a1, b1) and inst.graph.adjacent(a2, b2)
            assert not inst.less_than(x, x)

    def test_exhaustive_truth_table(self):
        inst = interval_gt_instance(8)
        for x in range(1, 9):
            for y in range(1, 9):
                assert inst.less_than(x, y) == (x < y)

    def test_first_query_always_accepts(self):
        inst = interval_gt_instance(7)
        for x in range(1, 8):
            for y in range(1, 8):
                (a1, b1), _ = inst.queries(x, y)
                assert inst.graph.adjacent(a1, b1)

    def test_shape(self):
        inst = interval_gt_instance(4)
        assert inst.graph.n == 8
        assert inst.intervals == (
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 4), (2, 4), (3, 4), (4, 4),
        )
        assert inst.graph.loops == frozenset(range(8))

    def test_rejects_tiny(self):
        with pytest.raises(PreconditionError):
            interval_gt_instance(1)

    def test_out_of_range_query(self):
        inst = interval_gt_instance(5)
        with pytest.raises(InputError):
            inst.queries(0, 3)
        with pytest.raises(InputError):
            inst.queries(2, 6)


class TestAllGraphsInstance:
    def test_deterministic_and_reflexive(self):
        a = all_graphs_instance(16, seed=42)
        b = all_graphs_instance(16, seed=42)
        assert a.source == b.source
        assert a.source.loops == frozenset(range(16))
        assert a.product is a.source
        assert a.injection.image == tuple(range(16))

    def test_seeds_differ(self):
        assert all_graphs_instance(16, 1).source != all_graphs_instance(16, 2).source

    def test_verifies(self):
        verify_gadget(all_graphs_instance(8, 7))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            all_graphs_instance(5000, 1)


class TestGadgetJson:
    def test_modular_round_trip(self):
        inst = modular_gadget(reflexive(4, [(0, 1), (1, 2), (2, 3)]))
        doc = gadget_to_json(inst)
        loaded = gadget_from_json(doc)
        assert loaded.source == inst.source
        assert loaded.injection.image == inst.injection.image
        assert loaded.product.poset.covers == inst.product.poset.covers
        verify_gadget(loaded)

    def test_arboricity_round_trip(self):
        inst = arboricity2_gadget(Graph(4, [(0, 2), (1, 3)]))
        loaded = gadget_from_json(gadget_to_json(inst))
        assert loaded.product == inst.product
        verify_gadget(loaded)

    def test_tampered_injection_caught(self):
        inst = modular_gadget(reflexive(3, [(0, 1)]))
        doc = gadget_to_json(inst)
        doc["injection"] = [0, 1, 2]  # bottom and two points: all within dist 2
        with pytest.raises(VerificationError):
            verify_gadget(gadget_from_json(doc))

    def test_malformed_documents(self):
        with pytest.raises(InputError):
            gadget_from_json({"family": "modular"})
        inst = arboricity2_gadget(Graph(3, [(0, 1)]))
        doc = gadget_to_json(inst)
        doc["product"] = {"kind": "mystery"}
        with pytest.raises(InputError):
            gadget_from_json(doc)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            GadgetInstance(Graph(2, []), Graph(2, []), VertexMap((0, 1), 2), "exotic")


class TestArboricity2ClaimIsExact:
    def test_originals_at_distance_one_are_refused(self):
        # "at most 2" would accept this product; the family claims exactly 2
        doc = gadget_to_json(arboricity2_gadget(Graph(3, [(0, 1)])))
        doc["product"]["graph"]["edges"].append([0, 1])
        inst = gadget_from_json(doc)
        assert bfs_distance(inst.product, 0, 1) == 1
        assert degeneracy(inst.product) == 2
        with pytest.raises(
            VerificationError, match=r"distance-2 claim fails on source pair \(0, 1\)"
        ):
            verify_gadget(inst)
