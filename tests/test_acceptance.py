"""Release acceptance gate: twelve numbered end-to-end checks.

Each test function covers one acceptance criterion and prints a single
``[criterion NN] PASS/FAIL`` line with the measured numbers (visible under
``pytest -rP`` / ``-s``; the ``-v`` listing gives the same one-line-per-
criterion verdict).  Every tolerance is pinned here, in one place, and each
check recomputes its ground truth through an independent route (BFS
matrices, exhaustive seed enumeration, brute-force map search) rather than
trusting the code under test.

Conventions shared by the checks:

* ``MASTER`` seeds everything through ``derive_seed``, so any failing run
  can be replayed bit-for-bit (criterion 12 re-verifies that property).
* adjacency-sketch instances carry all self-loops; the sketches treat
  equal messages as adjacent, so the reflexive closure is part of the
  instance, not the protocol.
* Monte-Carlo rates are compared against the pinned caps as exact
  fractions; no floating-point slop on the pass/fail edge.
"""

import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from oracles import find_embedding, is_faithful, subspace_ambient
from smplab.gadgets import (
    arboricity2_gadget,
    interval_gt_instance,
    modular_gadget,
)
from smplab.generators import random_downset_lattice, union_of_two_trees
from smplab.graphs import (
    Graph,
    all_pairs_distances,
    degeneracy,
    k_closure,
    twin_reduction,
)
from smplab.lab import ExperimentConfig, generate, label_pipeline, run_experiment
from smplab.lattices import (
    MODULAR,
    Poset,
    birkhoff,
    boolean_lattice,
    build_lattice,
    classify,
    cover_graph,
    downset_lattice,
    enumerate_ideals,
    lattice_distance,
)
from smplab.planar import head_to_head_closure, schnyder_wood, split_graph
from smplab.protocols.arboricity import ArboricityAdjacency
from smplab.protocols.base import support_size
from smplab.protocols.lattice import UniversalLatticeDistance, WeakLatticeDistance
from smplab.rng import HashRandomness, derive_seed
from smplab.universal import labeling_from_json, labeling_to_json

MASTER = 20260814


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def positive_pairs(proto, k):
    """Ordered pairs (diagonal included) at irreducible-set distance <= k."""
    rep, n = proto.rep, proto.lattice.n
    return [
        (x, y)
        for x in range(n)
        for y in range(n)
        if (rep.downsets[x] ^ rep.downsets[y]).bit_count() <= k
    ]


def beyond_pairs(L, k):
    d = all_pairs_distances(cover_graph(L.poset))
    xs, ys = np.nonzero(d > k)
    return list(zip(xs.tolist(), ys.tolist()))


# ---------------------------------------------------------------------------
# criterion 1: the one-sided protocols never reject a positive instance.
# ---------------------------------------------------------------------------


def test_criterion_01_one_sided_exactness():
    t0 = time.monotonic()

    def exhaust(proto, pairs):
        bits = max(
            math.log2(support_size(proto.draw_support(x, y))) for x, y in pairs
        )
        assert bits <= 24, f"toy seed space too large: {bits} bits"
        worst = max(proto.exact_error(x, y) for x, y in pairs)
        return worst, bits, len(pairs)

    # toy parameters: every seed assignment enumerated, error must be 0.
    weak_toy = WeakLatticeDistance(boolean_lattice(2), 1, Fraction(1, 3), m=4, q=2)
    uni_toy = UniversalLatticeDistance(
        boolean_lattice(3), 1, Fraction(1, 3), m=8, rounds=1
    )
    path = Graph(4, [(0, 1), (1, 2), (2, 3)], loops="all")
    arb_toy = ArboricityAdjacency(path, Fraction(1, 2))
    exhausted = [
        exhaust(weak_toy, positive_pairs(weak_toy, 1)),
        exhaust(uni_toy, positive_pairs(uni_toy, 1)),
        exhaust(
            arb_toy,
            [(u, v) for u in range(4) for v in range(4) if path.adjacent(u, v)],
        ),
    ]
    exact_worst = max(w for w, _, _ in exhausted)

    # guarantee-carrying parameters: 10^4 sampled seeds per protocol.
    L6 = boolean_lattice(6)
    forest = Graph(50, union_of_two_trees(random.Random(5), 50).edges(), loops="all")
    sampled = {}
    for tag, proto, pool in (
        ("weak", WeakLatticeDistance(L6, 2, Fraction(1, 3)), None),
        ("universal", UniversalLatticeDistance(L6, 2, Fraction(1, 3)), None),
        (
            "sparse",
            ArboricityAdjacency(forest, Fraction(1, 3)),
            [(u, v) for u in range(50) for v in range(50) if forest.adjacent(u, v)],
        ),
    ):
        if pool is None:
            pool = positive_pairs(proto, 2)
        bad = 0
        for t in range(10_000):
            x, y = pool[t % len(pool)]
            rnd = HashRandomness(derive_seed(MASTER, "c1", tag, t))
            bad += not proto.run(x, y, rnd).correct
        sampled[tag] = bad
    elapsed = time.monotonic() - t0
    ok = exact_worst == 0 and not any(sampled.values()) and elapsed < 120
    report(
        1,
        "one-sided protocols never reject positives",
        ok,
        f"exhaustive worst={exact_worst} over "
        f"{sum(c for _, _, c in exhausted)} pairs "
        f"(max {max(b for _, b, _ in exhausted):.0f} seed bits); "
        f"false rejects per 10^4 seeds {sampled}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: distance-sketch false-accept rates on far pairs.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _small_downset_pool():
    """50 random downset lattices over posets of 4..10 points."""
    return tuple(
        random_downset_lattice(
            random.Random(derive_seed(MASTER, "c2-lattice", i)), 4 + i % 7
        )
        for i in range(50)
    )


def test_criterion_02_distance_sketch_false_accepts():
    t0 = time.monotonic()
    hyper = boolean_lattice(8)
    downs = _small_downset_pool()
    caps = {"universal": Fraction(35, 100), "weak": Fraction(13, 100)}
    eps = {"universal": Fraction(1, 3), "weak": Fraction(1, 8)}
    build = {"universal": UniversalLatticeDistance, "weak": WeakLatticeDistance}
    rates = {}
    for model in ("universal", "weak"):
        for k in (1, 2, 3):
            pools = {
                "hypercube": [
                    (proto, x, y)
                    for proto in (build[model](hyper, k, eps[model]),)
                    for x, y in beyond_pairs(hyper, k)
                ],
                "downsets": [
                    (proto, x, y)
                    for L in downs
                    for proto in (build[model](L, k, eps[model]),)
                    for x, y in beyond_pairs(L, k)
                ],
            }
            for pool_name, pool in pools.items():
                assert pool, f"no far pairs in {pool_name} at k={k}"
                bad = 0
                for t in range(10_000):
                    proto, x, y = pool[t % len(pool)]
                    rnd = HashRandomness(
                        derive_seed(MASTER, "c2", model, k, pool_name, t)
                    )
                    bad += not proto.run(x, y, rnd).correct
                rates[(model, k, pool_name)] = Fraction(bad, 10_000)
    worst = {
        model: max(r for (m, _, _), r in rates.items() if m == model)
        for model in ("universal", "weak")
    }
    elapsed = time.monotonic() - t0
    ok = (
        all(
            rate <= caps[model]
            for (model, _, _), rate in rates.items()
        )
        and elapsed < 300
    )
    report(
        2,
        "far-pair false accepts within budget (12 strata x 10^4 trials)",
        ok,
        f"worst universal {float(worst['universal']):.4f} (cap 0.35), "
        f"worst weak {float(worst['weak']):.4f} (cap 0.13); {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: structural distance formula == BFS distance, all pairs.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _distributive_pool():
    """100 random distributive lattices, up to 3000 elements each."""
    return tuple(
        random_downset_lattice(
            random.Random(derive_seed(MASTER, "c3-lattice", i)),
            4 + i % 10,
            element_cap=3000,
        )
        for i in range(100)
    )


def _diamond(atoms):
    """Rank-2 modular lattice with the given number of atoms (M_n)."""
    covers = [(0, i) for i in range(1, atoms + 1)] + [
        (i, atoms + 1) for i in range(1, atoms + 1)
    ]
    return build_lattice(Poset(atoms + 2, covers))


def _chain(k):
    return build_lattice(Poset(k, [(i, i + 1) for i in range(k - 1)]))


def _poset_product(A, B):
    """Direct product of two lattices via covers of the product poset."""
    nb = B.n
    covers = [
        (a * nb + b, c * nb + b) for a, c in A.poset.covers for b in range(nb)
    ] + [(a * nb + b, a * nb + d) for b, d in B.poset.covers for a in range(A.n)]
    return build_lattice(Poset(A.n * nb, covers))


def _modular_pool():
    m3, m4, m5 = _diamond(3), _diamond(4), _diamond(5)
    source = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)], loops="all")
    return [_diamond(a) for a in range(3, 12)] + [
        _poset_product(m3, m3),
        _poset_product(m3, m4),
        _poset_product(m4, m4),
        _poset_product(m3, _chain(2)),
        _poset_product(m3, _chain(3)),
        _poset_product(m3, _chain(4)),
        _poset_product(m4, _chain(3)),
        _poset_product(m5, _chain(2)),
        subspace_ambient(3),
        subspace_ambient(4),
        modular_gadget(source).product,
    ]


def test_criterion_03_distance_formula_matches_bfs():
    t0 = time.monotonic()
    pop = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
    mismatches = 0
    sizes = []
    for i, L in enumerate(_distributive_pool()):
        sizes.append(L.n)
        rep = birkhoff(L)
        masks = np.asarray(rep.downsets, dtype=np.uint32)
        xor = masks[:, None] ^ masks[None, :]
        # same symmetric-difference formula the distance function uses,
        # evaluated densely; spot pairs below tie it to the public call.
        formula = (pop[xor & 0xFFFF].astype(np.int32) + pop[xor >> 16]).astype(float)
        bfs = all_pairs_distances(cover_graph(L.poset))
        mismatches += int(np.count_nonzero(formula != bfs))
        spot = random.Random(derive_seed(MASTER, "c3-spot", i))
        for _ in range(20):
            x, y = spot.randrange(L.n), spot.randrange(L.n)
            mismatches += lattice_distance(L, x, y) != int(bfs[x, y])

    modular = _modular_pool()
    for L in modular:
        assert classify(L) == MODULAR
        bfs = all_pairs_distances(cover_graph(L.poset))
        for x in range(L.n):
            for y in range(x, L.n):
                mismatches += lattice_distance(L, x, y) != int(bfs[x, y])
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and len(modular) == 20
    report(
        3,
        "lattice distance equals BFS on every pair",
        ok,
        f"100 distributive (sizes {min(sizes)}..{max(sizes)}) + "
        f"{len(modular)} modular, {mismatches} mismatches; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: irreducible-set representation is a lattice isomorphism.
# ---------------------------------------------------------------------------


def test_criterion_04_downset_representation_round_trip():
    t0 = time.monotonic()
    checked = violations = 0
    for li, L in enumerate(_distributive_pool()):
        rep = birkhoff(L)
        base = rep.irreducible_poset
        index = {m: i for i, m in enumerate(enumerate_ideals(base))}
        D = downset_lattice(base)
        iso = [index[rep.downsets[x]] for x in range(L.n)]
        violations += D.n != L.n
        violations += sorted(iso) != list(range(L.n))
        if L.n <= 200:
            pairs = itertools.combinations_with_replacement(range(L.n), 2)
        else:
            spot = random.Random(derive_seed(MASTER, "c4-spot", li))
            pairs = (
                (spot.randrange(L.n), spot.randrange(L.n)) for _ in range(4000)
            )
        for x, y in pairs:
            m, j = L.meet(x, y), L.join(x, y)
            good = (
                rep.downsets[m] == rep.downsets[x] & rep.downsets[y]
                and rep.downsets[j] == rep.downsets[x] | rep.downsets[y]
                and D.meet(iso[x], iso[y]) == iso[m]
                and D.join(iso[x], iso[y]) == iso[j]
            )
            violations += not good
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        "downset lattice of the irreducible poset reproduces the original",
        violations == 0,
        f"meet->intersection and join->union on {checked} pairs across "
        f"100 lattices, {violations} violations; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: tree distance sketches emit the right distance.
# ---------------------------------------------------------------------------


def test_criterion_05_tree_distance_error_rates():
    t0 = time.monotonic()
    cap = Fraction(12, 100)
    worst = Fraction(0)
    rows = 0
    for k in (1, 2, 3, 4):
        cfg = ExperimentConfig(
            family="tree",
            n_range=(50, 200),
            k=k,
            eps=Fraction(1, 10),
            trials=10_000,
            master_seed=MASTER,
        )
        for row in run_experiment(cfg).rows:
            assert row["status"] == "ok", row
            worst = max(worst, Fraction(row["error_rate"]))
            rows += 1
    elapsed = time.monotonic() - t0
    ok = worst <= cap and elapsed < 300
    report(
        5,
        "tree sketches: per-stratum error within 0.12",
        ok,
        f"{rows} strata (n in 50,200; k in 1..4; 10^4 trials each), "
        f"worst {float(worst):.4f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: planar distance-2 sketch rates + path taxonomy completeness.
# ---------------------------------------------------------------------------


def _uncovered_distance2_pairs(emb):
    """Distance-2 pairs hit by none of the three sketch case families.

    The three families are: shared tree parent, grandparent chain, and
    head-to-head closure adjacency.  An empty return means the taxonomy
    covers every distance-2 pair of the instance.
    """
    base = emb.base_graph()
    wood = schnyder_wood(emb)
    union = head_to_head_closure(base, wood).union
    dist = all_pairs_distances(base)
    parents = [
        {p for p in wood.parent[v] if p is not None} for v in range(base.n)
    ]
    uncovered = []
    for x in range(base.n):
        for y in range(x + 1, base.n):
            if dist[x, y] != 2:
                continue
            if parents[x] & parents[y]:
                continue
            if y in {g for p in parents[x] for g in parents[p]}:
                continue
            if x in {g for p in parents[y] for g in parents[p]}:
                continue
            if union.adjacent(x, y):
                continue
            uncovered.append((x, y))
    return uncovered


def test_criterion_06_planar_two_distance_rates_and_taxonomy():
    t0 = time.monotonic()
    sizes = (50, 200, 500)
    cfg = ExperimentConfig(
        family="planar2",
        n_range=sizes,
        trials=10_000,
        eps=Fraction(1, 6),
        master_seed=MASTER,
    )
    accept_floor = reject_floor = Fraction(1)
    for row in run_experiment(cfg).rows:
        assert row["status"] == "ok", row
        rate = Fraction(row["error_rate"])
        if row["stratum"] == "beyond":
            reject_floor = min(reject_floor, 1 - rate)
        else:
            assert rate == 0, f"one-sided sketch rejected a close pair: {row}"
            accept_floor = min(accept_floor, 1 - rate)

    uncovered = 0
    instances = 0
    for n in sizes:
        emb = generate("planar2", n, derive_seed(MASTER, "gen", "planar2", n)).payload
        uncovered += len(_uncovered_distance2_pairs(emb))
        instances += 1
    for i in range(10):
        n = 10 + 13 * i
        emb = generate("planar2", n, derive_seed(MASTER, "c6-extra", i)).payload
        uncovered += len(_uncovered_distance2_pairs(emb))
        instances += 1
    elapsed = time.monotonic() - t0
    floor = Fraction(83, 100)
    ok = (
        accept_floor >= floor
        and reject_floor >= floor
        and uncovered == 0
        and elapsed < 600
    )
    report(
        6,
        "planar distance-2: accept/reject rates and exact taxonomy cover",
        ok,
        f"accept >= {float(accept_floor):.4f}, reject >= "
        f"{float(reject_floor):.4f} (floors 0.83); {uncovered} uncovered "
        f"distance-2 pairs over {instances} instances; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: realizer structure on 100 triangulations.
# ---------------------------------------------------------------------------


def _color_chains_acyclic(wood, color):
    state = [0] * len(wood.parent)  # 0 fresh, 1 on current chain, 2 settled
    for start in range(len(wood.parent)):
        v, chain = start, []
        while v is not None and state[v] == 0:
            state[v] = 1
            chain.append(v)
            v = wood.parent[v][color]
        if v is not None and state[v] == 1:
            return False
        for u in chain:
            state[u] = 2
    return True


def test_criterion_07_realizer_structure():
    t0 = time.monotonic()
    violations = 0
    for i in range(100):
        n = 4 + (i * 7) % 100
        emb = generate("planar2", n, derive_seed(MASTER, "c7", i)).payload
        base = emb.base_graph()
        wood = schnyder_wood(emb)
        for v in range(n):
            want = 1 if v in wood.roots else 3
            violations += sum(p is not None for p in wood.tri_parent[v]) != want
        violations += sum(
            not _color_chains_acyclic(wood, c) for c in range(3)
        )
        sat = split_graph(base, wood).graph
        violations += len(sat.edges()) > 3 * sat.n - 6
        closure = head_to_head_closure(base, wood)
        violations += sum(degeneracy(g) > 5 for g in closure.per_color)
    elapsed = time.monotonic() - t0
    report(
        7,
        "realizers: 3 parents, acyclic colors, sparse split, degenerate closures",
        violations == 0,
        f"100 triangulations (n up to 103), {violations} violations; "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: faithful-map embedding properties on random graph pairs.
# ---------------------------------------------------------------------------


def test_criterion_08_embedding_properties():
    t0 = time.monotonic()
    # glue: the backtracking search agrees with brute-force enumeration.
    rng = random.Random(derive_seed(MASTER, "c8-glue"))
    for _ in range(200):
        G = oracles.random_graph(rng, rng.randint(1, 4))
        H = oracles.random_graph(rng, rng.randint(1, 4))
        brute = oracles.faithful_maps_brute(G, H)
        mine = find_embedding(G, H)
        assert (mine is not None) == bool(brute)
        assert mine is None or is_faithful(G, H, mine)

    rng = random.Random(derive_seed(MASTER, "c8"))
    violations = compositions = embeddings = 0
    for _ in range(500):
        G = oracles.random_graph(rng, rng.randint(1, 7))
        H = oracles.random_graph(rng, rng.randint(1, 7))
        QG, proj_g = twin_reduction(G)
        QH, _ = twin_reduction(H)

        # reducing twice changes nothing (idempotence up to isomorphism).
        Q2, proj2 = twin_reduction(QG)
        violations += Q2.n != QG.n
        violations += sorted(proj2.image) != list(range(Q2.n))
        violations += not is_faithful(QG, Q2, proj2.image)

        # a graph and its reduction embed into each other.
        violations += not is_faithful(G, QG, proj_g.image)
        reps = [proj_g.image.index(c) for c in range(QG.n)]
        violations += not is_faithful(QG, G, reps)

        # embedding is invariant under reduction, and between reduced
        # graphs it coincides with induced-subgraph containment.
        emb = find_embedding(G, H)
        emb_q = find_embedding(QG, QH)
        violations += (emb is None) != (emb_q is None)
        induced = find_embedding(QG, QH, injective=True)
        violations += (emb_q is None) != (induced is None)

        # composing two faithful maps stays faithful (transitivity).
        if emb is not None:
            embeddings += 1
            K = oracles.random_graph(rng, rng.randint(1, 7))
            second = find_embedding(H, K)
            if second is not None:
                compositions += 1
                violations += not is_faithful(
                    G, K, tuple(second[v] for v in emb)
                )
    elapsed = time.monotonic() - t0
    ok = violations == 0 and compositions >= 20 and elapsed < 120
    report(
        8,
        "embedding properties: transitivity, idempotence, reduction invariance",
        ok,
        f"500 pairs (n<=7), {embeddings} embeddings, {compositions} "
        f"compositions, {violations} violations; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: shared-randomness elimination end to end.
# ---------------------------------------------------------------------------


def test_criterion_09_labeling_pipeline(tmp_path):
    t0 = time.monotonic()
    reports = [
        label_pipeline(
            "tree", 64, 2, Fraction(1, 10), tmp_path / "tree", master_seed=MASTER
        ),
        label_pipeline(
            "hypercube", 5, 1, Fraction(1, 8), tmp_path / "cube", master_seed=MASTER
        ),
    ]
    decode_errors = sum(r["decode_errors"] for r in reports)
    round_trips = 0
    for rep in reports:
        text = Path(rep["path"]).read_text()
        rebuilt = labeling_from_json(json.loads(text))
        again = json.dumps(labeling_to_json(rebuilt), sort_keys=True, indent=2) + "\n"
        round_trips += again == text
    elapsed = time.monotonic() - t0
    ok = decode_errors == 0 and round_trips == len(reports)
    report(
        9,
        "seed banks verify and labelings decode every pair",
        ok,
        f"tree n=64 k=2 ({reports[0]['bank_seeds']} seeds, "
        f"{reports[0]['label_bits']}-bit labels) + hypercube n=32 k=1 "
        f"({reports[1]['bank_seeds']} seeds); {decode_errors} decode errors, "
        f"{round_trips}/2 byte-identical round trips; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: gadget constructions carry the structure they claim.
# ---------------------------------------------------------------------------


def test_criterion_10_gadget_constructions():
    t0 = time.monotonic()
    violations = 0

    # modular family: the injected image induces exactly the source
    # adjacency inside the distance-<=2 relation of the cover graph.
    closure_cache = {}
    for i in range(50):
        rng = random.Random(derive_seed(MASTER, "c10-mod", i))
        n = 1 + i % 5
        src = Graph(n, oracles.random_graph(rng, n).edges(), loops="all")
        inst = modular_gadget(src)
        violations += classify(inst.product) != MODULAR
        key = id(inst.product)
        if key not in closure_cache:
            closure_cache[key] = k_closure(cover_graph(inst.product.poset), 2)
        near = closure_cache[key]
        img = inst.injection
        for u in range(n):
            for v in range(u, n):
                violations += src.adjacent(u, v) != near.adjacent(img(u), img(v))

    # bounded-degeneracy family: sparse product, adjacency = distance 2.
    for i in range(12):
        rng = random.Random(derive_seed(MASTER, "c10-arb", i))
        n = 2 + i % 9
        src = Graph(
            n, [e for e in oracles.random_graph(rng, n, p=0.4, loop_p=0).edges()]
        )
        inst = arboricity2_gadget(src)
        violations += degeneracy(inst.product) > 2
        dist = all_pairs_distances(inst.product)
        img = inst.injection
        for u in range(n):
            for v in range(u + 1, n):
                d = dist[img(u), img(v)]
                if src.adjacent(u, v):
                    violations += d != 2
                else:
                    violations += d < 3
    # interval family: adjacency queries decide strict order exactly.
    for n in range(2, 9):
        inst = interval_gt_instance(n)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                violations += inst.less_than(x, y) != (x < y)
    elapsed = time.monotonic() - t0
    report(
        10,
        "gadgets: modular image faithful, sparse product distance-2, order exact",
        violations == 0,
        f"50 modular sources (n<=5) + 12 sparse sources (n<=10) + "
        f"orders n=2..8, {violations} violations; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 11: fixed-budget hashing degrades as instances grow.
# ---------------------------------------------------------------------------


def _trend_config():
    return ExperimentConfig(
        family="gadget:allgraphs",
        n_range=(8, 16, 32),
        trials=8000,
        budget_bits=8,
        master_seed=MASTER,
    )


def test_criterion_11_budgeted_hash_error_trend():
    """Trend check, not a bound: with the message budget pinned at 8 bits,
    the empirical far-pair error of the bucket-hash protocol must not
    decrease as the instance grows."""
    t0 = time.monotonic()
    trend = {}
    for row in run_experiment(_trend_config()).rows:
        assert row["status"] == "ok", row
        if row["stratum"] == "beyond":
            trend[row["n"]] = Fraction(row["error_rate"])
        else:
            assert row["violations"] == 0, row
            assert row["errors"] == 0, row
    rates = [trend[n] for n in (8, 16, 32)]
    elapsed = time.monotonic() - t0
    ok = rates[0] <= rates[1] <= rates[2]
    report(
        11,
        "8-bit hashing: far-pair error non-decreasing in n",
        ok,
        "error " + " <= ".join(f"{r} (n={n})" for n, r in zip((8, 16, 32), rates))
        + f"; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 12: identical master seed, identical reports.
# ---------------------------------------------------------------------------


def test_criterion_12_reports_reproduce(tmp_path):
    t0 = time.monotonic()
    trend_a = run_experiment(_trend_config()).to_json()
    trend_b = run_experiment(_trend_config()).to_json()
    tree_cfg = ExperimentConfig(
        family="tree", n_range=(30,), k=2, trials=400, master_seed=MASTER
    )
    tree_a = run_experiment(tree_cfg).to_csv()
    tree_b = run_experiment(tree_cfg).to_csv()
    lab_a = label_pipeline(
        "hypercube", 4, 1, Fraction(1, 6), tmp_path / "a", master_seed=MASTER
    )
    lab_b = label_pipeline(
        "hypercube", 4, 1, Fraction(1, 6), tmp_path / "b", master_seed=MASTER
    )
    same_labels = (
        Path(lab_a["path"]).read_bytes() == Path(lab_b["path"]).read_bytes()
    )
    same_report = {k: v for k, v in lab_a.items() if k != "path"} == {
        k: v for k, v in lab_b.items() if k != "path"
    }
    elapsed = time.monotonic() - t0
    ok = trend_a == trend_b and tree_a == tree_b and same_labels and same_report
    report(
        12,
        "same master seed reproduces byte-identical reports",
        ok,
        f"experiment JSON {'==' if trend_a == trend_b else '!='}, "
        f"experiment CSV {'==' if tree_a == tree_b else '!='}, "
        f"label files {'==' if same_labels else '!='}; {elapsed:.0f}s",
    )
