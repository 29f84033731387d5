import json
import random
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from smplab.errors import InputError
from smplab.graphs import (
    Graph,
    all_pairs_distances,
    bfs_distance,
    bfs_from,
    degeneracy,
    degeneracy_orientation,
    graph_from_json,
    graph_to_json,
    k_closure,
    orientation_covers,
    twin_reduction,
)
from smplab.lab import generate
from smplab.planar import head_to_head_closure, schnyder_wood, triangulate
from smplab.rng import derive_seed

import oracles


def path(n, loops="none"):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], loops=loops)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n, loops="none"):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], loops=loops)


class TestConstruction:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_loop_as_edge_rejected(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_loop_policies(self):
        g_all = Graph(2, [(0, 1)], loops="all")
        assert g_all.adjacent(0, 0) and g_all.adjacent(1, 1)
        g_none = Graph(2, [(0, 1)])
        assert not g_none.adjacent(0, 0)
        g_exp = Graph(3, [], loops=[1])
        assert g_exp.adjacent(1, 1) and not g_exp.adjacent(0, 0)

    def test_zero_vertices_rejected(self):
        with pytest.raises(InputError):
            Graph(0, [])


class TestDistance:
    def test_path_distance(self):
        g = path(5)
        assert bfs_distance(g, 0, 4) == 4
        assert bfs_distance(g, 2, 2) == 0

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert bfs_distance(g, 0, 3) == inf

    def test_against_floyd_warshall(self):
        rng = random.Random(7)
        for _ in range(40):
            g = oracles.random_graph(rng, rng.randint(1, 8), p=0.3)
            want = oracles.floyd_warshall(g)
            for u in range(g.n):
                got = bfs_from(g, u)
                assert got == want[u]
                assert bfs_distance(g, u, (u * 2 + 1) % g.n) == want[u][(u * 2 + 1) % g.n]

    def test_all_pairs_matches_bfs(self):
        rng = random.Random(3)
        g = oracles.random_graph(rng, 12, p=0.2)
        d = all_pairs_distances(g)
        for u in range(g.n):
            row = bfs_from(g, u)
            for v in range(g.n):
                assert (d[u, v] == row[v]) or (d[u, v] == float("inf") and row[v] is inf)


class TestKClosure:
    def test_path4_square(self):
        # distances on the 4-path: 0-1 1, 0-2 2, 0-3 3
        g2 = k_closure(path(4), 2)
        assert set(g2.edges()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
        assert g2.self_loops == "all"

    def test_cycle4_square_is_complete(self):
        g2 = k_closure(cycle(4), 2)
        assert set(g2.edges()) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_composition(self):
        # closing twice multiplies radii: ((G^a)^b) has an edge iff dist_G <= a*b
        rng = random.Random(11)
        for _ in range(20):
            g = oracles.random_graph(rng, rng.randint(2, 9), p=0.25, loop_p=0)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert k_closure(k_closure(g, a), b).edges() == k_closure(g, a * b).edges()

    def test_invalid_radius(self):
        with pytest.raises(InputError):
            k_closure(path(2), 0)


class TestTwinReduction:
    def test_path3_collapses_endpoints(self):
        q, phi = twin_reduction(path(3))
        assert q.n == 2 and q.edge_count() == 1 and not q.loops
        assert phi.image[0] == phi.image[2] != phi.image[1]

    def test_complete_with_loops_collapses_to_point(self):
        q, _ = twin_reduction(complete(4, loops="all"))
        assert q.n == 1 and q.adjacent(0, 0)

    def test_complete_without_loops_has_no_twins(self):
        # the diagonal participates: each vertex misses exactly its own slot
        q, _ = twin_reduction(complete(4))
        assert q.n == 4

    def test_empty_graph_collapses_to_point(self):
        q, _ = twin_reduction(Graph(4, []))
        assert q.n == 1 and not q.adjacent(0, 0)

    def test_classes_match_brute_force(self):
        rng = random.Random(23)
        for _ in range(40):
            g = oracles.random_graph(rng, rng.randint(1, 8))
            q, phi = twin_reduction(g)
            classes = oracles.twin_classes_brute(g)
            assert q.n == len(classes)
            for cls in classes:
                assert len({phi(v) for v in cls}) == 1

    def test_projection_is_faithful(self):
        rng = random.Random(5)
        for _ in range(30):
            g = oracles.random_graph(rng, rng.randint(1, 8))
            q, phi = twin_reduction(g)
            assert oracles.is_faithful(g, q, phi.image)

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(30):
            g = oracles.random_graph(rng, rng.randint(1, 8))
            q, _ = twin_reduction(g)
            q2, _ = twin_reduction(q)
            assert q2.n == q.n and oracles.find_embedding(q, q2, injective=True) is not None


class TestOrientation:
    def test_tree_is_1_degenerate(self):
        g = Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        o = degeneracy_orientation(g)
        assert o.max_outdegree == 1 and orientation_covers(g, o)

    def test_complete_graph(self):
        g = complete(4)
        o = degeneracy_orientation(g)
        assert o.max_outdegree == 3 and orientation_covers(g, o)

    def test_cycle(self):
        assert degeneracy(cycle(5)) == 2

    def test_deterministic(self):
        rng = random.Random(41)
        g = oracles.random_graph(rng, 9, p=0.4, loop_p=0)
        assert degeneracy_orientation(g) == degeneracy_orientation(g)

    def test_heap_peel_matches_the_linear_scan(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(1, 40)
            g = oracles.random_graph(rng, n, p=rng.choice([0.05, 0.15, 0.4, 0.8]))
            o = degeneracy_orientation(g)
            assert (o.parents, o.max_outdegree) == oracles.degeneracy_orientation_scan(g)

    @pytest.mark.parametrize("family, n", [("arboricity", 400), ("planar2", 250)])
    def test_heap_peel_matches_on_the_sweep_instances(self, family, n):
        # the graphs the sparse and planar2 sketches orient on the bench's
        # experiment_sweep configs at seed 1
        graph = generate(family, n, derive_seed(1, "gen", family, n)).payload
        if family == "planar2":
            wood = schnyder_wood(triangulate(graph))
            graph = head_to_head_closure(graph.base_graph(), wood).union
        o = degeneracy_orientation(graph)
        assert (o.parents, o.max_outdegree) == oracles.degeneracy_orientation_scan(graph)

    @given(st.integers(2, 7), st.integers(0, 2**21 - 1))
    @settings(max_examples=60, deadline=None)
    def test_covers_all_edges(self, n, mask):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = Graph(n, edges)
        o = degeneracy_orientation(g)
        assert orientation_covers(g, o)
        # out-degree bound is tight against a brute-force degeneracy check:
        # some subgraph has min degree == reported degeneracy
        assert o.max_outdegree <= max((g.degree(v) for v in range(n)), default=0)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(43)
        for _ in range(20):
            g = oracles.random_graph(rng, rng.randint(1, 7))
            doc = json.loads(json.dumps(graph_to_json(g)))
            assert graph_from_json(doc) == g

    def test_policy_round_trip(self):
        for loops in ("all", "none"):
            g = Graph(3, [(0, 1)], loops=loops)
            assert graph_from_json(graph_to_json(g)) == g

    def test_rejects_bad_documents(self):
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [[0, 1], [1, 0]], "self_loops": "none"})
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [], "self_loops": "some"})
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [], "self_loops": "explicit"})
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [], "self_loops": "none", "loops": [0]})
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": []})
