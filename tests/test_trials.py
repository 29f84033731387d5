"""The trial engine: exact and Monte-Carlo error values pinned per protocol,
and ``run_trials`` against ``run`` on every experiment family, its batched
all-pairs path included.

The values were computed by the per-trial ``run`` loop, so any change to how
trials are encoded, decided or seeded shows up here as a changed fraction.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EqualitySketch, drifted_plan, fix_seed, random_graph
from smplab.errors import InputError
from smplab.generators import path_graph
from smplab.graphs import DENSE_CAP, Graph
from smplab.lab import FAMILIES, _protocol_for, generate
from smplab.lattices import boolean_lattice
from smplab.protocols import (
    HashedAdjacency,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
)
from smplab.protocols import base, hashing
from smplab.rng import HashRandomness, TableRandomness

F = Fraction


def _protocol(kind):
    if kind == "equality":
        return EqualitySketch(4, 2)
    if kind == "weak":
        return WeakLatticeDistance(boolean_lattice(2), 1, F(1, 2), m=3, q=2)
    if kind == "universal":
        return UniversalLatticeDistance(boolean_lattice(2), 1, F(1, 2), m=3, rounds=2)
    if kind == "tree":
        return TreeKDistance(path_graph(4), 1, F(1, 2))
    if kind == "hashed":
        return HashedAdjacency(path_graph(6), 2)
    # a seed-reading sketch with its seed pinned is blind and deterministic
    return fix_seed(WeakLatticeDistance(boolean_lattice(3), 1, F(1, 2), m=3, q=2), 9)


# kind -> [(x, y, exact error)]
EXACT = {
    "equality": [(0, 1, F(1, 4)), (1, 0, F(1, 4)), (2, 2, 0)],
    "weak": [(0, 3, F(13, 16)), (0, 1, 0), (1, 2, F(13, 16)), (2, 2, 0)],
    "universal": [(0, 3, F(1, 9)), (0, 1, 0), (1, 2, F(1, 9))],
    "tree": [(0, 0, 0), (0, 1, 0), (0, 2, F(1, 12)), (0, 3, F(1, 144))],
}

# kind -> (trials, [(x, y, error over seed 5's trial stream)])
MONTE_CARLO = {
    "equality": (200, [(0, 1, F(13, 50)), (1, 0, F(13, 50)), (2, 2, 0)]),
    "weak": (200, [(0, 3, F(18, 25)), (0, 1, 0), (1, 2, F(18, 25)), (2, 2, 0)]),
    "universal": (200, [(0, 3, F(3, 25)), (0, 1, 0), (1, 2, F(3, 25))]),
    "tree": (200, [(0, 0, 0), (0, 1, 0), (0, 2, F(21, 200)), (0, 3, F(1, 200))]),
    "hashed": (200, [(0, 2, F(123, 200)), (0, 5, F(31, 50)), (1, 2, 0)]),
    "fixed-weak": (50, [(0, 7, 1), (0, 1, 0), (1, 6, 1), (3, 5, 0)]),
}


@pytest.mark.parametrize("kind", sorted(EXACT))
def test_exact_error_values(kind):
    proto = _protocol(kind)
    assert [proto.exact_error(x, y) for x, y, _ in EXACT[kind]] == \
           [want for _, _, want in EXACT[kind]]


@pytest.mark.parametrize("kind", sorted(MONTE_CARLO))
def test_monte_carlo_error_values(kind):
    proto = _protocol(kind)
    trials, cases = MONTE_CARLO[kind]
    assert [proto.monte_carlo_error(x, y, trials, seed=5) for x, y, _ in cases] == \
           [want for _, _, want in cases]


# (family, n, k): one small instance per experiment family
FAMILY_CASES = [
    ("distributive", 5, 1),
    ("hypercube", 3, 1),
    ("tree", 12, 2),
    ("arboricity", 12, 1),
    ("planar2", 10, 2),
    ("gadget:modular", 3, 1),
    ("gadget:arboricity2", 5, 1),
    ("gadget:interval", 4, 1),
    ("gadget:allgraphs", 6, 1),
]


def test_family_cases_cover_every_family():
    assert sorted(f for f, _, _ in FAMILY_CASES) == sorted(FAMILIES)


@pytest.mark.parametrize("model", ["universal", "weak"])
@pytest.mark.parametrize("family,n,k", FAMILY_CASES)
def test_run_trials_are_run_verdicts(family, n, k, model):
    # a loose error budget keeps the sketches small
    proto, graph, _, _ = _protocol_for(family, generate(family, n, 3).payload, k,
                                       F(3, 4), model, budget_bits=8)
    ys = range(0, graph.n, 1 + graph.n // 24)  # spread over the universe
    pairs = [(x, y) for x in range(min(graph.n, 8)) for y in ys]
    rnds = [HashRandomness(1000 + i) for i in range(len(pairs))]
    verdicts = list(proto.run_trials(pairs, rnds))
    assert verdicts == [proto.run(x, y, rnd).verdict for (x, y), rnd in zip(pairs, rnds)]
    assert len(set(verdicts)) > 1


def test_run_trials_is_lazy():
    proto = _protocol("weak")
    rnds = map(HashRandomness, itertools.count())
    trials = proto.run_trials(itertools.repeat((0, 3)), rnds)
    assert list(itertools.islice(trials, 3)) == [proto.run(0, 3, HashRandomness(s)).verdict
                                                 for s in range(3)]


# families whose rule is blind and states an all-pairs form under "universal"
BLIND_FAMILIES = ("distributive", "hypercube", "tree", "arboricity", "planar2",
                  "gadget:arboricity2")


def _batched_pairs(n):
    """Pairs spread over an n-vertex universe, every third trial on equal
    inputs, and a short last chunk for chunks 2 and 3."""
    ys = range(0, n, 1 + n // 24)
    pairs = [(x, x) if i % 3 == 0 else (x, y)
             for i, (x, y) in enumerate(itertools.product(range(min(n, 8)), ys))]
    return pairs[:6 * (len(pairs) // 6) - 1]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("family,n,k", [c for c in FAMILY_CASES if c[0] in BLIND_FAMILIES])
def test_batched_run_trials_are_run_verdicts(family, n, k, chunk, monkeypatch):
    monkeypatch.setattr(base, "TRIAL_CHUNK", chunk)
    proto, graph, _, _ = _protocol_for(family, generate(family, n, 3).payload, k,
                                       F(3, 4), "universal", budget_bits=8)
    assert not proto.referee_reads_randomness and proto.rule().all_pairs is not None
    pairs = _batched_pairs(graph.n)
    rnds = [HashRandomness(3000 + i) for i in range(len(pairs))]
    verdicts = list(proto.run_trials(pairs, rnds))
    assert verdicts == [proto.run(x, y, rnd).verdict for (x, y), rnd in zip(pairs, rnds)]
    assert len(set(verdicts)) > 1


@pytest.mark.parametrize("pair", [(0, 2), (2, 0), (2, 2)])
def test_batched_run_trials_refuse_a_drifting_encoder(pair):
    # the batched trials read the tree sketch's plans, so the drift is put there
    proto = _protocol("tree")
    assert proto.rule().all_pairs is not None
    pairs = [(0, 1), pair, (1, 3)]
    for drift in ("extra", "fixed"):
        with pytest.raises(InputError):
            list(drifted_plan(proto, 2, drift).run_trials(pairs, map(HashRandomness, range(3))))


def test_batched_run_trials_refuse_field_widths_that_drift_from_the_rule():
    # a plan one field longer that fits its own widths still meets the rule's
    proto = _protocol("tree")
    drifted = drifted_plan(proto, 2)
    drifted.field_widths = proto.field_widths + (1,)
    drifted.run_trials([(2, 2)], [HashRandomness(0)])  # lazy: nothing checked yet
    with pytest.raises(InputError, match="differ from the rule's"):
        list(drifted.run_trials([(0, 1)], [HashRandomness(0)]))
    with pytest.raises(InputError, match="messages must be"):
        drifted.run(2, 0, HashRandomness(0))


def test_batched_run_trials_are_lazy():
    proto = _protocol("tree")
    assert proto.rule().all_pairs is not None
    cycle = [(0, 2), (1, 1)]
    trials = proto.run_trials(itertools.cycle(cycle), map(HashRandomness, itertools.count()))
    assert list(itertools.islice(trials, 3)) == [
        proto.run(x, y, HashRandomness(s)).verdict for s, (x, y) in enumerate(cycle + cycle[:1])]


# families sketched by the budgeted hashed adjacency sketch, whose referee
# reads the draws and whose batched trials decide a chunk in one numpy pass
HASHED_FAMILIES = ("gadget:modular", "gadget:interval", "gadget:allgraphs")


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("family,n,k", [c for c in FAMILY_CASES if c[0] in HASHED_FAMILIES])
def test_batched_hashed_trials_are_run_verdicts(family, n, k, chunk, monkeypatch):
    monkeypatch.setattr(base, "TRIAL_CHUNK", chunk)
    proto, graph, _, _ = _protocol_for(family, generate(family, n, 3).payload, k,
                                       F(3, 4), "universal", budget_bits=8)
    assert isinstance(proto, HashedAdjacency) and proto.referee_reads_randomness
    pairs = _batched_pairs(graph.n)
    rnds = [HashRandomness(3000 + i) for i in range(len(pairs))]
    verdicts = list(proto.run_trials(pairs, rnds))
    assert verdicts == [proto.run(x, y, rnd).verdict for (x, y), rnd in zip(pairs, rnds)]
    assert verdicts == list(base.SmpProtocol.run_trials(proto, pairs, rnds))  # the reference loop
    assert len(set(verdicts)) > 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_hashed_trials_match_run_on_random_graphs(data):
    n = data.draw(st.integers(1, 9), label="n")
    pairs_of = list(itertools.combinations(range(n), 2))
    edges = list(itertools.compress(pairs_of, data.draw(
        st.lists(st.booleans(), min_size=len(pairs_of), max_size=len(pairs_of)))))
    loops = data.draw(st.sets(st.integers(0, n - 1)), label="loops")
    bits = data.draw(st.integers(1, 3), label="bits")
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=14), label="pairs")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    chunk = data.draw(st.integers(1, 5), label="chunk")
    proto = HashedAdjacency(Graph(n, edges, loops=sorted(loops)), bits)
    rnds = [HashRandomness(seed + i) for i in range(len(pairs))]
    with mock.patch.object(base, "TRIAL_CHUNK", chunk):
        verdicts = list(proto.run_trials(pairs, rnds))
    assert verdicts == [proto.run(x, y, rnd).verdict for (x, y), rnd in zip(pairs, rnds)]


def test_hashed_exact_error_is_refused():
    # the referee reads every bucket, which the senders' table does not hold
    proto = HashedAdjacency(path_graph(4), 1)
    with pytest.raises(InputError, match="missing from assignment"):
        proto.exact_error(0, 2)


def test_batched_hashed_blocks_stay_under_pair_cells(monkeypatch):
    n = 20
    assert all(base.trial_chunk(m) * m <= base.PAIR_CELLS for m in range(1, DENSE_CAP + 1))
    cells = 64  # three trials of 20 buckets, or three adjacency rows, a block
    monkeypatch.setattr(base, "PAIR_CELLS", cells)
    monkeypatch.setattr(hashing, "PAIR_CELLS", cells)
    proto = HashedAdjacency(random_graph(random.Random(1), n, p=0.2), 1)
    crowded = TableRandomness({("bucket", v): 0 for v in range(n)})  # one bucket holds all
    rnds = [crowded] * 7 + [HashRandomness(s) for s in range(7)]
    pairs = [(v % n, 3 * v % n) for v in range(len(rnds))]
    want = [proto.run(x, y, rnd).verdict for (x, y), rnd in zip(pairs, rnds)]

    gathers, buckets = [], []

    class Watched(np.ndarray):
        def __getitem__(self, key):
            block = np.asarray(super().__getitem__(key))
            gathers.append(block.size)
            return block

    accepts = proto._accepts

    def watched(bucket, a, b):
        buckets.append(bucket.size)
        return accepts(bucket, a, b)

    proto._adj = proto._adj.view(Watched)
    proto._accepts = watched
    assert list(proto.run_trials(pairs, rnds)) == want
    assert buckets and max(buckets) <= cells and len(buckets) == 5  # 14 trials, 3 a chunk
    assert gathers and max(gathers) <= cells
