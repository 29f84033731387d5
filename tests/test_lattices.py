import json
import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import CapacityError, InputError, NotALatticeError, PreconditionError
from smplab.graphs import bfs_distance, bfs_from
from smplab.lattices import (
    DISTRIBUTIVE,
    MODULAR,
    NEITHER,
    BirkhoffRep,
    Lattice,
    Poset,
    antichain_poset,
    birkhoff,
    boolean_lattice,
    build_lattice,
    chain_poset,
    classify,
    cover_graph,
    cover_reduction,
    downset_lattice,
    enumerate_ideals,
    lattice_distance,
    poset_from_json,
    poset_to_json,
)

import oracles


def m3():
    # bottom 0; atoms 1,2,3; top 4
    return build_lattice(Poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))


def n5():
    # 0 < 1 < 3 < 4 and 0 < 2 < 4
    return build_lattice(Poset(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]))


def random_poset(rng, n, p=0.35):
    """Random DAG on a shuffled order, reduced to its covers."""
    leq = [1 << i for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for ai in range(n):
        for bi in range(ai + 1, n):
            if rng.random() < p:
                a, b = order[ai], order[bi]
                for x in range(n):
                    if leq[x] >> a & 1:
                        leq[x] |= leq[b] | 1 << b
    # closure -> covers
    covers = []
    for a in range(n):
        for b in range(n):
            if a != b and leq[a] >> b & 1:
                if not any(
                    c != a and c != b and leq[a] >> c & 1 and leq[c] >> b & 1
                    for c in range(n)
                ):
                    covers.append((a, b))
    return Poset(n, covers)


# covers from the helper above, whose own closure and reduction share no
# code with the library
posets = st.builds(
    lambda seed, n, p: random_poset(random.Random(seed), n, p),
    st.integers(0, 2**32), st.integers(0, 9), st.floats(0, 1),
)


def bounded(P):
    """P with a new bottom below and a new top above every element."""
    n = P.n
    down, up = P.down_masks(), P.up_masks()
    covers = [*P.covers,
              *((n, x) for x in range(n) if down[x] == 1 << x),
              *((x, n + 1) for x in range(n) if up[x] == 1 << x)]
    return Poset(n + 2, covers or [(0, 1)])


def birkhoff_outcome(check, P):
    """What ``check`` gives on a fresh unvalidated lattice over P: the
    representation, or the error it raises."""
    try:
        rep = check(build_lattice(P, validate=False))
    except (NotALatticeError, PreconditionError) as exc:
        return type(exc).__name__
    return rep.irreducibles, rep.downsets, rep.irreducible_poset


def brute_meet(L, x, y):
    lowers = [z for z in range(L.n) if L.leq(z, x) and L.leq(z, y)]
    best = [z for z in lowers if all(L.leq(w, z) for w in lowers)]
    return best[0] if best else None


class TestPoset:
    def test_cycle_rejected(self):
        for covers in ([(0, 1), (1, 0)], [(0, 1), (1, 2), (2, 0)]):
            with pytest.raises(InputError, match="contains a cycle"):
                Poset(3, covers)

    def test_redundant_cover_rejected(self):
        with pytest.raises(InputError):
            Poset(3, [(0, 1), (1, 2), (0, 2)])

    def test_masks(self):
        p = chain_poset(3)
        assert p.down_masks() == [0b001, 0b011, 0b111]
        assert p.up_masks() == [0b111, 0b110, 0b100]

    @given(posets)
    @settings(max_examples=150, deadline=None)
    def test_closures_are_the_brute_closure(self, P):
        assert P.down_masks() == oracles.closure_brute(P.n, P.covers)
        assert P.up_masks() == oracles.closure_brute(P.n, [(b, a) for a, b in P.covers])

    @given(posets)
    @settings(max_examples=150, deadline=None)
    def test_reducing_the_closure_gives_back_the_covers(self, P):
        assert tuple(sorted(cover_reduction(P.down_masks()))) == P.covers

    def test_cover_graph(self):
        g = cover_graph(Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        assert g.edge_count() == 4 and bfs_distance(g, 0, 3) == 2

    def test_json_round_trip(self):
        p = random_poset(random.Random(1), 6)
        assert poset_from_json(json.loads(json.dumps(poset_to_json(p)))) == p
        with pytest.raises(InputError):
            poset_from_json({"n": 2})


class TestBuildLattice:
    def test_m3_and_n5_are_lattices(self):
        assert m3().n == 5 and n5().n == 5

    def test_missing_join_witnessed(self):
        with pytest.raises(NotALatticeError) as ei:
            build_lattice(Poset(3, [(0, 1), (0, 2)]))
        assert ei.value.witness in ((1, 2), None)

    def test_two_bottoms_rejected(self):
        with pytest.raises(NotALatticeError):
            build_lattice(Poset(4, [(0, 2), (1, 2), (0, 3), (1, 3)]))

    def test_meet_join_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(15):
            L = downset_lattice(random_poset(rng, rng.randint(0, 5)))
            for x in range(L.n):
                for y in range(L.n):
                    assert L.meet(x, y) == brute_meet(L, x, y)
                    assert L.leq(L.meet(x, y), x)
                    assert L.leq(x, L.join(x, y))

    def test_rank(self):
        L = boolean_lattice(3)
        assert L.rank is not None and sorted(L.rank) == [0, 1, 1, 1, 2, 2, 2, 3]
        assert n5().rank is None
        assert m3().rank == (0, 1, 1, 1, 2)


class TestClassify:
    def test_boolean_distributive(self):
        assert classify(boolean_lattice(3)) == DISTRIBUTIVE

    def test_m3_modular(self):
        assert classify(m3()) == MODULAR

    def test_n5_neither(self):
        L = n5()
        assert classify(L) == NEITHER
        assert not L.lower_semimodular

    def test_matches_modular_law(self):
        # modular law: x <= b implies join(x, meet(a,b)) == meet(join(x,a), b)
        rng = random.Random(29)
        cases = [m3(), n5(), boolean_lattice(2)]
        cases += [downset_lattice(random_poset(rng, 4)) for _ in range(5)]
        for L in cases:
            kind = classify(L)
            law = all(
                L.join(x, L.meet(a, b)) == L.meet(L.join(x, a), b)
                for x in range(L.n)
                for a in range(L.n)
                for b in range(L.n)
                if L.leq(x, b)
            )
            assert law == (kind in (DISTRIBUTIVE, MODULAR))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            classify(boolean_lattice(4), cap=10)


class TestBirkhoff:
    def test_boolean_atoms(self):
        L = boolean_lattice(3)
        rep = birkhoff(L)
        assert rep.width == 3
        assert rep.irreducible_poset.covers == ()
        # bottom maps to the empty set, top to everything
        assert rep.downsets[L.bottom] == 0
        assert rep.downsets[L.top] == 0b111

    def test_chain(self):
        L = downset_lattice(chain_poset(4))
        rep = birkhoff(L)
        assert rep.width == 4 and len(set(rep.downsets)) == 5

    def test_irreducibles_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(12):
            L = downset_lattice(random_poset(rng, rng.randint(0, 4)))
            if L.n > 10:
                continue
            rep = birkhoff(L)
            want = oracles.join_irreducibles_brute(L.down, L.n)
            assert list(rep.irreducibles) == want

    @given(st.integers(0, 2**32), st.integers(0, 6), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_irreducible_poset_is_the_brute_loops(self, seed, n, p):
        L = downset_lattice(random_poset(random.Random(seed), n, p))
        rep = birkhoff(L)
        want = oracles.irreducible_covers_brute(L, rep.irreducibles)
        assert rep.irreducible_poset == Poset(rep.width, want)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_boolean_irreducible_poset_is_the_brute_loops(self, d):
        L = boolean_lattice(d)
        rep = birkhoff(L)
        want = oracles.irreducible_covers_brute(L, rep.irreducibles)
        assert rep.irreducible_poset == Poset(d, want) == antichain_poset(d)

    def test_rejects_modular(self):
        with pytest.raises(PreconditionError):
            birkhoff(m3())

    def test_rejects_n5(self):
        with pytest.raises(PreconditionError):
            birkhoff(n5())

    @given(st.integers(0, 2**32), st.integers(0, 6), st.floats(0, 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_meet_join_check_never_changes_the_outcome(self, seed, n, p, ideals):
        # ideal lattices are distributive; bounded random posets are often
        # not lattices, or lattices that are not distributive
        P = random_poset(random.Random(seed), n, p)
        P = downset_lattice(P).poset if ideals else bounded(P)
        assert birkhoff_outcome(birkhoff, P) == birkhoff_outcome(oracles.birkhoff_meet_checked, P)

    def test_round_trip_isomorphism(self):
        rng = random.Random(37)
        for _ in range(10):
            L = downset_lattice(random_poset(rng, rng.randint(0, 5)))
            rep = birkhoff(L)
            L2 = downset_lattice(rep.irreducible_poset, base_cap=64)
            assert L2.n == L.n
            # canonical iso: x -> position of its mask in L2's ideal order
            ideal_order = {m: i for i, m in enumerate(enumerate_ideals(rep.irreducible_poset))}
            phi = [ideal_order[m] for m in rep.downsets]
            assert sorted(phi) == list(range(L.n))
            for x in range(L.n):
                for y in range(L.n):
                    assert L.leq(x, y) == L2.leq(phi[x], phi[y])
                    assert phi[L.meet(x, y)] == L2.meet(phi[x], phi[y])
                    assert phi[L.join(x, y)] == L2.join(phi[x], phi[y])


class TestDistance:
    def test_distributive_matches_bfs(self):
        rng = random.Random(41)
        for _ in range(10):
            L = downset_lattice(random_poset(rng, rng.randint(0, 5)))
            g = cover_graph(L.poset)
            for x in range(L.n):
                row = bfs_from(g, x)
                for y in range(L.n):
                    assert lattice_distance(L, x, y) == row[y]

    def test_modular_matches_bfs(self):
        L = m3()
        g = cover_graph(L.poset)
        for x in range(L.n):
            for y in range(L.n):
                assert lattice_distance(L, x, y) == bfs_distance(g, x, y)

    def test_n5_refused(self):
        with pytest.raises(PreconditionError):
            lattice_distance(n5(), 1, 2)

    def test_comparable_pairs_differ_by_rank(self):
        L = boolean_lattice(4)
        for x in range(L.n):
            for y in range(L.n):
                if L.leq(x, y):
                    assert lattice_distance(L, x, y) == L.rank[y] - L.rank[x]


class TestDownsetLattice:
    def test_chain_base(self):
        L = downset_lattice(chain_poset(5))
        assert L.n == 6 and L.rank == tuple(range(6))

    def test_antichain_base(self):
        L = downset_lattice(antichain_poset(4))
        assert L.n == 16

    def test_empty_base(self):
        L = downset_lattice(Poset(0, []))
        assert L.n == 1 and L.bottom == L.top == 0
        assert birkhoff(L).width == 0

    def test_base_cap(self):
        with pytest.raises(CapacityError):
            downset_lattice(antichain_poset(15))

    def test_element_cap(self):
        with pytest.raises(CapacityError):
            downset_lattice(antichain_poset(10), element_cap=100)

    def test_deterministic_order(self):
        p = random_poset(random.Random(43), 6)
        assert enumerate_ideals(p) == enumerate_ideals(p)

    def test_always_a_lattice(self):
        # intersections and unions of downsets are downsets; spot-check
        rng = random.Random(47)
        for _ in range(8):
            L = downset_lattice(random_poset(rng, rng.randint(0, 6)))
            build_lattice(L.poset, validate=True)  # must not raise
            assert classify(L) == DISTRIBUTIVE
