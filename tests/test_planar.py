"""Embedding, triangulation, and 3-tree decomposition tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import InputError, PreconditionError
from smplab.generators import cycle_embedding, stacked_triangulation
from smplab import planar
from smplab.graphs import Graph, degeneracy
from smplab.planar import (
    PlanarEmbedding,
    embedding_from_json,
    embedding_to_json,
    head_to_head_closure,
    require_valid,
    schnyder_wood,
    split_graph,
    trace_faces,
    triangulate,
    validate_embedding,
    validate_schnyder,
)
from smplab.protocols import PlanarTwoDistance

K4 = PlanarEmbedding(((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1)), (0, 2, 1))


def triangle():
    return PlanarEmbedding(((1, 2), (2, 0), (0, 1)), (0, 2, 1))


class TestTraceAndValidate:
    def test_triangle_has_two_faces(self):
        faces = trace_faces(triangle())
        assert len(faces) == 2
        assert sorted(len(f) for f in faces) == [3, 3]

    def test_k4_is_valid_with_four_faces(self):
        report = validate_embedding(K4)
        assert report.valid and report.faces == 4

    def test_star_traces_single_face(self):
        emb = PlanarEmbedding(((1, 2, 3), (0,), (0,), (0,)), (0, 1, 0, 2, 0, 3))
        faces = trace_faces(emb)
        assert len(faces) == 1 and len(faces[0]) == 6
        assert validate_embedding(emb).valid

    def test_one_sided_edge_rejected(self):
        emb = PlanarEmbedding(((1, 2), (2, 0), (0,)), (0, 2, 1))
        report = validate_embedding(emb)
        assert not report.valid
        assert any("one-sided" in p for p in report.problems)

    def test_disconnected_rejected(self):
        emb = PlanarEmbedding(((1,), (0,), (3,), (2,)), (0, 1))
        report = validate_embedding(emb)
        assert not report.valid
        assert "embedding is not connected" in report.problems

    def test_nonplanar_rotation_fails_euler(self):
        # K5 has no rotation system satisfying Euler's formula
        rot = tuple(tuple(u for u in range(5) if u != v) for v in range(5))
        report = validate_embedding(PlanarEmbedding(rot, (0, 1, 2)))
        assert not report.valid
        assert any("Euler" in p for p in report.problems)

    def test_outer_face_must_be_traced(self):
        emb = PlanarEmbedding(((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1)), (0, 1, 2, 3))
        report = validate_embedding(emb)
        assert not report.valid

    def test_outer_face_matches_up_to_rotation_and_flip(self):
        for outer in [(2, 1, 0), (1, 0, 2), (0, 2, 1)]:
            emb = PlanarEmbedding(K4.rotation, outer)
            assert validate_embedding(emb).valid

    def test_json_round_trip(self):
        doc = embedding_to_json(K4)
        again = embedding_from_json(doc)
        assert again.rotation == K4.rotation
        assert again.outer_face == K4.outer_face
        with pytest.raises(InputError):
            embedding_from_json({"n": 3, "rotation": [[1], [0]]})


class TestTriangulate:
    def test_path_becomes_triangle(self):
        emb = PlanarEmbedding(((1,), (0, 2), (1,)), (0, 1, 2, 1))
        out = triangulate(emb)
        assert out.graph().edge_count() == 3
        assert out.aux_edges == frozenset({(0, 2)})
        assert len(out.outer_face) == 3

    def test_cycle_becomes_maximal_planar(self):
        out = triangulate(cycle_embedding(8))
        assert out.graph().edge_count() == 3 * 8 - 6
        assert all(len(f) == 3 for f in trace_faces(out))
        # base edges recoverable: aux edges are exactly the added chords
        assert out.base_graph() == Graph(8, [(i, (i + 1) % 8) for i in range(8)])

    def test_star_becomes_k4(self):
        emb = PlanarEmbedding(((1, 2, 3), (0,), (0,), (0,)), (0, 1, 0, 2, 0, 3))
        out = triangulate(emb)
        assert out.graph().edge_count() == 6
        assert out.graph().degree(0) == 3

    def test_already_triangulated_is_noop(self):
        out = triangulate(K4)
        assert out.aux_edges == frozenset()
        assert out.rotation == K4.rotation

    def test_single_edge_rejected(self):
        emb = PlanarEmbedding(((1,), (0,)), (0, 1))
        with pytest.raises(PreconditionError):
            triangulate(emb)

    @given(st.integers(0, 10_000), st.integers(4, 40))
    @settings(max_examples=25, deadline=None)
    def test_random_cycles_triangulate_cleanly(self, seed, n):
        out = triangulate(cycle_embedding(n))
        assert out.graph().edge_count() == 3 * n - 6
        assert all(len(f) == 3 for f in trace_faces(out))


class TestSchnyderWood:
    def test_k4_decomposition_frozen(self):
        wood = schnyder_wood(K4)
        assert wood.roots == (0, 2, 1)
        # internal vertex 3 points at each root with that root's color
        assert wood.tri_parent[3] == (0, 2, 1)
        # outer cycle: (r3, r1) color 1, (r1, r2) color 2, (r2, r3) color 3
        assert wood.tri_parent[1][0] == 0
        assert wood.tri_parent[0][1] == 2
        assert wood.tri_parent[2][2] == 1

    def test_one_vertex_has_no_outer_face(self):
        emb = PlanarEmbedding(((),), (0,))
        assert validate_embedding(emb).valid
        with pytest.raises(InputError, match="outer face does not match"):
            schnyder_wood(emb)

    def test_triangle_only_root_edges(self):
        wood = schnyder_wood(triangle())
        assert sum(p is not None for ps in wood.tri_parent for p in ps) == 3

    def test_non_triangulated_rejected(self):
        with pytest.raises(PreconditionError):
            schnyder_wood(cycle_embedding(4))

    @given(st.integers(0, 10_000), st.integers(4, 80))
    @settings(max_examples=30, deadline=None)
    def test_stacked_triangulations_validate(self, seed, n):
        emb = stacked_triangulation(random.Random(seed), n)
        wood = schnyder_wood(emb)
        assert validate_schnyder(emb, wood) == []
        internal = set(range(n)) - set(wood.roots)
        for v in internal:
            parents = wood.tri_parent[v]
            assert None not in parents and len(set(parents)) == 3
        for r in wood.roots:
            assert sum(p is not None for p in wood.tri_parent[r]) == 1

    def test_validator_catches_recolored_edge(self):
        wood = schnyder_wood(K4)
        bad = wood.tri_parent[3][0], wood.tri_parent[3][1], wood.tri_parent[3][0]
        tampered = type(wood)(
            wood.roots,
            wood.tri_parent[:3] + (bad,),
            wood.parent[:3] + (bad,),
        )
        assert validate_schnyder(K4, tampered) != []

    def test_restriction_drops_aux_edges(self):
        out = triangulate(cycle_embedding(6))
        wood = schnyder_wood(out)
        base = out.base_graph()
        for v in range(6):
            for i in range(3):
                p = wood.parent[v][i]
                if p is not None:
                    assert base.adjacent(v, p)
        dropped = sum(
            1
            for v in range(6)
            for i in range(3)
            if wood.tri_parent[v][i] is not None and wood.parent[v][i] is None
        )
        assert dropped == len(out.aux_edges)


class TestSplitAndClosure:
    def test_split_k4(self):
        wood = schnyder_wood(K4)
        res = split_graph(K4.base_graph(), wood)
        assert res.missing_root_edges == ()
        # one satellite per color-i edge head: vertex 3 feeds none, roots feed
        assert all((s, i) in res.satellite_of or True for s in range(4) for i in range(3))
        assert res.graph.n == 4 + len(res.satellite_of)

    @given(st.integers(0, 10_000), st.integers(5, 60))
    @settings(max_examples=20, deadline=None)
    def test_split_of_triangulation_stays_sparse(self, seed, n):
        emb = stacked_triangulation(random.Random(seed), n)
        wood = schnyder_wood(emb)
        res = split_graph(emb.base_graph(), wood)
        assert res.missing_root_edges == ()
        g = res.graph
        assert g.edge_count() <= 3 * g.n - 6
        assert degeneracy(g) <= 5

    def test_split_flags_missing_root_edges(self):
        out = triangulate(cycle_embedding(8))
        wood = schnyder_wood(out)
        base = out.base_graph()
        res = split_graph(base, wood)
        r = wood.roots
        for i in range(3):
            u, v = r[(i - 1) % 3], r[i]
            if base.adjacent(u, v):
                assert i not in res.missing_root_edges
            else:
                assert i in res.missing_root_edges

    @given(st.integers(0, 10_000), st.integers(5, 60))
    @settings(max_examples=20, deadline=None)
    def test_closure_matches_brute_and_is_degenerate(self, seed, n):
        emb = stacked_triangulation(random.Random(seed), n)
        wood = schnyder_wood(emb)
        G = emb.base_graph()
        res = head_to_head_closure(G, wood)
        for i in range(3):
            expect = set()
            for w in range(n):
                a = wood.parent[w][(i + 1) % 3]
                b = wood.parent[w][(i + 2) % 3]
                if a is not None and b is not None and a != b:
                    expect.add((min(a, b), max(a, b)))
            assert set(res.per_color[i].edges()) == expect
            assert degeneracy(res.per_color[i]) <= 5
        assert set(res.union.edges()) == (
            set(res.per_color[0].edges())
            | set(res.per_color[1].edges())
            | set(res.per_color[2].edges())
        )

    def test_closure_covers_two_out_paths(self):
        emb = stacked_triangulation(random.Random(7), 40)
        wood = schnyder_wood(emb)
        G = emb.base_graph()
        union = set(head_to_head_closure(G, wood).union.edges())
        for w in range(40):
            outs = [p for p in wood.parent[w] if p is not None]
            for i in range(len(outs)):
                for j in range(i + 1, len(outs)):
                    a, b = outs[i], outs[j]
                    assert (min(a, b), max(a, b)) in union


class TestEmbeddingGraphs:
    """``graph``, ``base_graph``, the face walks and the validation report
    are built once per embedding and kept outside its fields: equality,
    hashing and repr do not see them."""

    def test_built_once_per_embedding(self, monkeypatch):
        builds = []
        edges = PlanarEmbedding._edges

        def counted(emb):
            builds.append(id(emb))
            return edges(emb)

        monkeypatch.setattr(PlanarEmbedding, "_edges", counted)
        emb = stacked_triangulation(random.Random(3), 30)
        PlanarTwoDistance(emb, Fraction(1, 3))
        emb.graph(), emb.base_graph()
        assert max(builds.count(e) for e in builds) <= 2  # one graph() and one base_graph()
        assert emb.graph() is emb.graph() and emb.base_graph() is emb.base_graph()

    def test_equality_and_hash_ignore_the_kept_graphs(self):
        built = stacked_triangulation(random.Random(4), 12)
        fresh = stacked_triangulation(random.Random(4), 12)
        built.graph(), built.base_graph()
        assert built == fresh and hash(built) == hash(fresh)
        assert built.graph().edges() == fresh.graph().edges()
        assert built.base_graph().edges() == fresh.base_graph().edges()
        aux = triangulate(cycle_embedding(6))
        assert aux.graph().edge_count() > aux.base_graph().edge_count() == 6

    def test_a_planar2_build_traces_and_validates_each_embedding_once(self, monkeypatch):
        calls = {"trace": [], "validate": []}
        for name, key in (("_walk_faces", "trace"), ("_check_embedding", "validate")):
            def counted(emb, body=getattr(planar, name), key=key):
                calls[key].append(emb)
                return body(emb)

            monkeypatch.setattr(planar, name, counted)
        emb = stacked_triangulation(random.Random(5), 40)
        proto = PlanarTwoDistance(emb, Fraction(1, 3))
        # the input embedding and its triangulation, each once
        assert len(calls["trace"]) == len(calls["validate"]) == 2
        assert calls["trace"][0] is calls["validate"][0] is emb
        assert calls["trace"][1] is calls["validate"][1] is not emb
        assert len({id(e) for e in calls["trace"]}) == 2
        assert proto.wood == schnyder_wood(triangulate(emb))  # every check still runs

    def test_equality_hash_and_repr_ignore_the_kept_faces_and_report(self):
        built = stacked_triangulation(random.Random(6), 12)
        fresh = stacked_triangulation(random.Random(6), 12)
        trace_faces(built), validate_embedding(built)
        assert {"_faces", "_report"} <= set(vars(built))
        assert not {"_faces", "_report"} & set(vars(fresh))
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        assert trace_faces(built) == trace_faces(fresh)
        assert validate_embedding(built) == validate_embedding(fresh)

    def test_an_invalid_embedding_is_refused_on_every_call(self):
        emb = PlanarEmbedding(((1, 2), (2, 0), (0,)), (0, 2, 1))  # edge 0-1 is one-sided
        for _ in range(3):
            for check in (require_valid, triangulate, schnyder_wood):
                with pytest.raises(InputError, match="one-sided"):
                    check(emb)
        assert validate_embedding(emb) is validate_embedding(emb)

    def test_a_mutated_face_list_leaves_later_traces_alone(self):
        emb = stacked_triangulation(random.Random(7), 10)
        faces = trace_faces(emb)
        want = list(faces)
        faces.clear()
        assert trace_faces(emb) == want and trace_faces(emb) is not trace_faces(emb)
        assert validate_embedding(emb).faces == len(want)
