"""Experiment plumbing: generators, stratified reports, labeling pipeline."""

import copy
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import EqualitySketch, fix_seed
from smplab.bits import Bits
from smplab.errors import CapacityError, InputError, PreconditionError
from smplab.gadgets import GadgetInstance, IntervalGtInstance
from smplab.generators import random_tree
from smplab.graphs import Graph, all_pairs_distances, bfs_distance
from smplab.lab import (
    _protocol_for,
    _strata_pools,
    ALL_PAIRS_CAP,
    FAMILIES,
    LABEL_FAMILIES,
    PAIR_SAMPLE_CAP,
    REPORT_COLUMNS,
    ExperimentConfig,
    config_from_json,
    config_to_json,
    generate,
    instance_from_json,
    instance_to_json,
    label_pipeline,
    run_experiment,
)
from smplab.lattices import Lattice, boolean_lattice, cover_graph
from smplab.planar import PlanarEmbedding
from smplab.protocols import (
    ACCEPT,
    REJECT,
    WeakLatticeDistance,
    beyond_verdict,
    distance_verdict,
)
from smplab.protocols.base import PlannedProtocol
from smplab.rng import HashRandomness, derive_seed
from smplab.universal import positive_verdict


class TestGenerate:
    def test_every_family_produces_its_payload_kind(self):
        kinds = {
            "distributive": Lattice,
            "hypercube": Lattice,
            "tree": Graph,
            "arboricity": Graph,
            "planar2": PlanarEmbedding,
            "gadget:modular": GadgetInstance,
            "gadget:arboricity2": GadgetInstance,
            "gadget:interval": IntervalGtInstance,
            "gadget:allgraphs": GadgetInstance,
        }
        assert set(kinds) == set(FAMILIES)
        for family, kind in kinds.items():
            n = 4 if family.startswith("gadget") or family in ("distributive", "hypercube") else 8
            inst = generate(family, n, seed=5)
            assert isinstance(inst.payload, kind)
            assert inst.family == family and inst.n == n and inst.seed == 5

    def test_same_seed_same_instance(self):
        a = generate("tree", 40, 123)
        b = generate("tree", 40, 123)
        assert a.payload.edges() == b.payload.edges()

    def test_different_seeds_usually_differ(self):
        edge_sets = {tuple(generate("tree", 40, s).payload.edges()) for s in range(6)}
        assert len(edge_sets) > 1

    def test_adjacency_families_are_reflexive(self):
        g = generate("arboricity", 12, 3).payload
        assert g.loops == frozenset(range(12))

    def test_caps_raise_capacity_error(self):
        for family, n in [
            ("distributive", 15),
            ("hypercube", 13),
            ("tree", 10_001),
            ("gadget:modular", 6),
            ("gadget:arboricity2", 65),
        ]:
            with pytest.raises(CapacityError):
                generate(family, n, 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            generate("mystery", 4, 0)


class TestInstanceJson:
    def test_round_trips_every_kind(self):
        for family, n in [
            ("distributive", 5),
            ("tree", 9),
            ("planar2", 8),
            ("gadget:modular", 3),
            ("gadget:interval", 6),
            ("gadget:allgraphs", 7),
        ]:
            inst = generate(family, n, 17)
            doc = json.loads(json.dumps(instance_to_json(inst)))
            back = instance_from_json(doc)
            assert back.family == family and back.n == n and back.seed == inst.seed

    def test_interval_payload_survives(self):
        inst = generate("gadget:interval", 6, 0)
        back = instance_from_json(instance_to_json(inst))
        assert back.payload.intervals == inst.payload.intervals
        assert back.payload.graph.edges() == inst.payload.graph.edges()

    def test_malformed_documents_rejected(self):
        with pytest.raises(InputError):
            instance_from_json({"family": "tree"})
        with pytest.raises(InputError):
            instance_from_json({"family": "tree", "n": 3, "seed": 0, "kind": "wat"})
        with pytest.raises(InputError):
            instance_from_json([1, 2])


class TestConfig:
    def test_defaults_and_coercion(self):
        cfg = ExperimentConfig(family="tree", n_range=[8, 16])
        assert cfg.n_range == (8, 16)
        assert cfg.eps == Fraction(1, 3)
        assert cfg.pair_policy == "all"

    def test_validation(self):
        good = dict(family="tree", n_range=(8,))
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "family": "nope"})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "n_range": ()})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "eps": 1})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "trials": 0})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "pair_policy": "sampled:-3"})
        assert ExperimentConfig(**{**good, "pair_policy": f"sampled:{PAIR_SAMPLE_CAP}"})
        with pytest.raises(CapacityError):
            ExperimentConfig(**{**good, "pair_policy": f"sampled:{PAIR_SAMPLE_CAP + 1}"})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "model": "psychic"})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "budget_bits": 0})
        with pytest.raises(InputError):
            ExperimentConfig(**{**good, "k": -1})

    def test_json_round_trip(self):
        cfg = ExperimentConfig(family="hypercube", n_range=(4,), k=2,
                               eps=Fraction(1, 8), trials=10, model="weak",
                               master_seed=9, output="r.csv")
        assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg

    def test_unknown_config_fields_rejected(self):
        with pytest.raises(InputError):
            config_from_json({"family": "tree", "n_range": [4], "frobnicate": 1})
        with pytest.raises(InputError):
            config_from_json({"n_range": [4]})


def tree_report(trials=50, **kw):
    cfg = ExperimentConfig(family="tree", n_range=(18,), k=2,
                           eps=Fraction(1, 6), trials=trials, master_seed=77, **kw)
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_row_shape_and_strata(self):
        cfg, rep = tree_report()
        assert [r["stratum"] for r in rep.rows] == ["0", "1", "2", "beyond"]
        for row in rep.rows:
            assert tuple(row) == REPORT_COLUMNS
            assert row["status"] == "ok"
            assert row["trials"] == cfg.trials

    def test_strata_sizes_match_oracle(self):
        cfg, rep = tree_report()
        tree = generate("tree", 18, derive_seed(cfg.master_seed, "gen", "tree", 18)).payload
        d = oracles.floyd_warshall(tree)
        counts = {"0": 0, "1": 0, "2": 0, "beyond": 0}
        for x in range(18):
            for y in range(x, 18):
                label = str(d[x][y]) if d[x][y] <= 2 else "beyond"
                counts[label] += 1
        assert {r["stratum"]: r["pairs"] for r in rep.rows} == counts

    def test_reports_are_byte_deterministic(self):
        _, rep1 = tree_report()
        _, rep2 = tree_report()
        assert rep1.to_csv() == rep2.to_csv()
        assert rep1.to_json() == rep2.to_json()

    def test_different_master_seed_changes_trials(self):
        cfg1 = ExperimentConfig(family="gadget:allgraphs", n_range=(16,), trials=300,
                                master_seed=1)
        cfg2 = ExperimentConfig(family="gadget:allgraphs", n_range=(16,), trials=300,
                                master_seed=2)
        r1 = run_experiment(cfg1).rows
        r2 = run_experiment(cfg2).rows
        assert [r["error_rate"] for r in r1] != [r["error_rate"] for r in r2]

    def test_one_sided_strata_have_zero_violations(self):
        cfg = ExperimentConfig(family="arboricity", n_range=(24,), trials=200,
                               master_seed=5)
        for row in run_experiment(cfg).rows:
            assert row["violations"] == 0
            if row["stratum"] != "beyond":
                assert row["errors"] == 0

    def test_error_rates_within_stated_bound(self):
        cfg = ExperimentConfig(family="distributive", n_range=(6, 7), k=1,
                               trials=400, master_seed=11)
        for row in run_experiment(cfg).rows:
            if not row["trials"]:
                continue
            err = Fraction(row["error_rate"])
            bound = Fraction(row["bound"])
            slack = 3 * math.sqrt(float(bound) * (1 - float(bound)) / row["trials"])
            assert float(err) <= float(bound) + slack

    def test_measured_width_equals_formula(self):
        for family, kw in [("tree", {}), ("hypercube", {"model": "weak"}),
                           ("hypercube", {"model": "universal"})]:
            cfg = ExperimentConfig(family=family, n_range=(4,), trials=20,
                                   master_seed=3, **kw)
            for row in run_experiment(cfg).rows:
                if row["trials"]:
                    assert row["mean_bits"] == row["formula_bits"]

    def test_capacity_failure_becomes_status_row(self):
        cfg = ExperimentConfig(family="gadget:modular", n_range=(3, 9), trials=20,
                               master_seed=1)
        rows = run_experiment(cfg).rows
        ok_rows = [r for r in rows if r["n"] == 3]
        bad = [r for r in rows if r["n"] == 9]
        assert all(r["status"] == "ok" for r in ok_rows)
        assert len(bad) == 1 and bad[0]["status"].startswith("CapacityError")

    def test_all_pairs_needs_small_universe(self):
        cfg = ExperimentConfig(family="tree", n_range=(ALL_PAIRS_CAP + 1,), trials=10)
        rows = run_experiment(cfg).rows
        assert rows[0]["status"].startswith("CapacityError")

    def test_sampled_policy_handles_large_trees(self):
        cfg = ExperimentConfig(family="tree", n_range=(800,), k=1, trials=40,
                               pair_policy="sampled:120", master_seed=8)
        rows = run_experiment(cfg).rows
        assert sum(r["pairs"] for r in rows) <= 120
        assert all(r["status"] == "ok" for r in rows)

    def test_csv_parses_back(self):
        import csv
        import io

        _, rep = tree_report(trials=20)
        parsed = list(csv.DictReader(io.StringIO(rep.to_csv())))
        assert len(parsed) == len(rep.rows)
        assert parsed[0]["family"] == "tree"

    def test_json_document_shape(self):
        cfg, rep = tree_report(trials=20)
        doc = json.loads(rep.to_json())
        assert config_from_json(doc["config"]) == cfg
        assert len(doc["rows"]) == len(rep.rows)

    def test_write_picks_format_by_suffix(self, tmp_path):
        _, rep = tree_report(trials=20)
        rep.write(tmp_path / "r.json")
        rep.write(tmp_path / "r.csv")
        assert json.loads((tmp_path / "r.json").read_text())
        assert (tmp_path / "r.csv").read_text().startswith("family,")


def _pool_pairs(pools):
    """Index-array pools as (x, y) lists."""
    return {label: list(zip(*(a.tolist() for a in arrays))) for label, arrays in pools.items()}


def _assert_pools_match(got, want):
    """Each stratum's (x, y) list, order included, is the tuple reference's;
    the reference's d column of a near stratum is the stratum's label, which
    is all a pool row needs of it."""
    assert _pool_pairs(got) == {label: [(x, y) for x, y, _ in pool]
                                for label, pool in want.items()}
    assert all(d == int(label) for label, pool in want.items() if label != "beyond"
               for _, _, d in pool)
    assert all(type(v) is int for pool in _pool_pairs(got).values() for pair in pool
               for v in pair)


class TestStrataPools:
    """Index-array pools equal the per-pair tuple lists first written."""

    @pytest.mark.parametrize("policy", [None, 1, 40, 400])
    def test_pools_match_the_tuple_reference(self, policy):
        rng = random.Random(policy or 0)
        for case in range(25):
            n = rng.randint(1, 16)
            # sparse graphs are often disconnected, dense ones rarely
            graph = oracles.random_graph(rng, n, p=rng.choice([0.05, 0.15, 0.5]))
            threshold = rng.randint(1, 3)
            got = _strata_pools(graph, threshold, "accept", policy, random.Random(case))
            want = oracles.strata_pools_tuples(graph, threshold, "accept", threshold,
                                               policy, random.Random(case))
            _assert_pools_match(got, want)

    @pytest.mark.parametrize("policy", [None, 30])
    def test_tree_mode_pools_match_the_tuple_reference(self, policy):
        for seed in range(10):
            tree = random_tree(random.Random(seed), 3 + 2 * seed)
            got = _strata_pools(tree, 2, "tree", policy, random.Random(seed))
            want = oracles.strata_pools_tuples(tree, 2, "tree", 2, policy,
                                               random.Random(seed))
            _assert_pools_match(got, want)

    def test_cut_off_search_equals_the_full_one(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 30)
            graph = oracles.random_graph(rng, n, p=rng.choice([0.03, 0.1, 0.3]))
            threshold = rng.randint(0, 4)
            full = all_pairs_distances(graph)
            assert np.array_equal(all_pairs_distances(graph, within=threshold),
                                  np.where(full <= threshold, full, np.inf))
            sources = rng.sample(range(n), rng.randint(1, n))
            assert np.array_equal(all_pairs_distances(graph, within=threshold, sources=sources),
                                  np.where(full <= threshold, full, np.inf)[sources])
            xs, ys = np.triu_indices(n)
            d = full[xs, ys]
            masks = {str(t): d == t for t in range(threshold + 1)}
            masks["beyond"] = d > threshold
            want = {label: (xs[mask], ys[mask]) for label, mask in masks.items()}
            assert _pool_pairs(_strata_pools(graph, threshold, "accept", None, None)) == \
                _pool_pairs(want)

    @pytest.mark.parametrize("policy", [None, 50])
    def test_tree_mode_refuses_a_disconnected_graph(self, policy):
        graph = Graph(6, [(0, 1), (2, 3)], loops="all")
        with pytest.raises(PreconditionError):
            _strata_pools(graph, 1, "tree", policy, random.Random(3))
        with pytest.raises(PreconditionError):
            oracles.strata_pools_tuples(graph, 1, "tree", 1, policy, random.Random(3))


# (family, n, k) for each family, small enough to replay every stratum
REPLAY_CASES = [
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


def _reference_verdict(mode, d, k):
    if mode == "tree":
        return distance_verdict(d) if d <= k else beyond_verdict(k)
    return ACCEPT if d is not None and d <= k else REJECT


class TestStratumReplay:
    """Each report row equals its trials replayed through ``proto.run``."""

    def test_cases_cover_every_family(self):
        assert sorted(f for f, _, _ in REPLAY_CASES) == sorted(FAMILIES)

    @pytest.mark.parametrize("model", ["universal", "weak"])
    @pytest.mark.parametrize("family,n,k", REPLAY_CASES)
    def test_rows_match_protocol_run(self, family, n, k, model):
        master = 7
        # a loose budget and a small hash table, so that errors occur
        cfg = ExperimentConfig(family=family, n_range=(n,), k=k, eps=Fraction(3, 4),
                               trials=25, master_seed=master, model=model, budget_bits=3)
        rows = run_experiment(cfg).rows
        inst = generate(family, n, derive_seed(master, "gen", family, n))
        proto, graph, threshold, mode = _protocol_for(
            family, inst.payload, k, cfg.eps, model, cfg.budget_bits)
        pools = oracles.strata_pools_tuples(graph, threshold, mode, k, None, None)
        assert [row["stratum"] for row in rows] == list(pools)
        for row in rows:
            pool = pools[row["stratum"]]
            assert row["pairs"] == len(pool)
            errors = violations = 0
            for t in range(cfg.trials if pool else 0):
                x, y, d = pool[t % len(pool)]
                rnd = HashRandomness(derive_seed(master, "trial", family, n, row["stratum"], t))
                want = _reference_verdict(mode, d, threshold)
                if proto.run(x, y, rnd).verdict != want:
                    errors += 1
                    violations += positive_verdict(want)
            assert (row["errors"], row["violations"]) == (errors, violations)
        if family == "tree":  # the tree sketch can underestimate a near distance
            assert any(row["violations"] for row in rows)


def _width_cases():
    """name -> protocol: every family under both models, the equality toy and
    the fixed-seed wrapper."""
    cases = {}
    for model in ("universal", "weak"):
        for family, n, k in REPLAY_CASES:
            inst = generate(family, n, 3)
            cases[f"{family}-{model}"] = _protocol_for(
                family, inst.payload, k, Fraction(1, 3), model, 3)[0]
    cases["equality"] = EqualitySketch(4, 3)
    cases["fixed-seed-weak"] = fix_seed(WeakLatticeDistance(boolean_lattice(3), 2,
                                                            Fraction(1, 4), m=12), 5)
    return cases


WIDTH_CASES = _width_cases()


def _drifted(proto, side):
    """A copy of proto whose encoder drifts on Alice's input 0 (side a) or on
    Bob's input 1 (side b): a planned sketch's plan of that input gets one
    extra field (side a) or a fixed value wider than its field (side b),
    since trials read the plan and not ``encode``; any other sketch's
    ``encode`` sends one bit more."""
    wide = {"a": 0, "b": 1}[side]
    if isinstance(proto, PlannedProtocol):
        return oracles.drifted_plan(proto, wide, {"a": "extra", "b": "fixed"}[side])

    def encode(v, rnd):
        message = proto.encode(v, rnd)
        return message.concat(Bits(0, 1)) if v == wide else message

    drifted = copy.copy(proto)
    drifted.encode = encode
    return drifted


class TestOneWidthCheck:
    """The ``Rule`` is the one width check: its widths are the sizing
    formula's, and every path that decides a trial goes through it."""

    @pytest.mark.parametrize("name", list(WIDTH_CASES))
    def test_rule_widths_are_the_sizing_formula(self, name):
        proto = WIDTH_CASES[name]
        rule = proto.rule(HashRandomness(0) if proto.referee_reads_randomness else None)
        assert rule.width == proto.cost_bits

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("name", list(WIDTH_CASES))
    def test_a_drifting_encoder_is_refused(self, name, side):
        proto = WIDTH_CASES[name]
        drifted = _drifted(proto, side)
        rnd = HashRandomness(1)
        proto.run(0, 1, rnd)  # the undrifted encoder passes
        wide = {"a": 0, "b": 1}[side]
        ma, mb = (proto.encode(v, rnd).concat(Bits(0, v == wide)) for v in (0, 1))
        for decide in (lambda: drifted.run(0, 1, rnd),
                       lambda: proto.referee(ma, mb, rnd),
                       lambda: list(drifted.run_trials([(1, 1), (0, 1)], [rnd, rnd])),
                       lambda: drifted.monte_carlo_error(0, 1, 3, 7)):
            with pytest.raises(InputError):
                decide()

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("name", ["equality", "fixed-seed-weak", "tree-universal"])
    def test_exact_error_refuses_a_drifting_encoder(self, name, side):
        proto = WIDTH_CASES[name]
        assert 0 <= proto.exact_error(0, 1) <= 1
        with pytest.raises(InputError):
            _drifted(proto, side).exact_error(0, 1)

    @pytest.mark.parametrize("name", ["hypercube-universal", "arboricity-universal"])
    def test_field_counts_come_from_the_protocol_not_the_message(self, name):
        # one more whole field on both sides is still the wrong width
        proto = WIDTH_CASES[name]
        field = proto.m if name.startswith("hypercube") else proto.color_width
        wide = Bits(0, proto.cost_bits + field)
        with pytest.raises(InputError):
            proto.referee(wide, wide)


class TestLabelPipeline:
    def test_hypercube_labels_decode_cleanly(self, tmp_path):
        report = label_pipeline("hypercube", 3, k=1, eps=Fraction(1, 6),
                                out_dir=tmp_path, master_seed=4)
        assert report["decode_errors"] == 0
        assert report["universe"] == 8
        assert report["label_bits"] == report["bank_seeds"] * report["message_bits"]
        assert (tmp_path / "labels-hypercube-n3-k1.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        r1 = label_pipeline("tree", 12, 1, Fraction(1, 8), a, master_seed=2)
        r2 = label_pipeline("tree", 12, 1, Fraction(1, 8), b, master_seed=2)
        assert (a / "labels-tree-n12-k1.json").read_bytes() == \
               (b / "labels-tree-n12-k1.json").read_bytes()
        assert r1["worst_bad"] == r2["worst_bad"]

    def test_delta_defaults_to_eps(self, tmp_path):
        report = label_pipeline("tree", 8, 1, Fraction(1, 8), tmp_path, master_seed=1)
        assert report["delta"] == report["eps"] == "1/8"

    def test_gadget_families_are_rejected(self, tmp_path):
        assert "gadget:modular" not in LABEL_FAMILIES
        with pytest.raises(InputError):
            label_pipeline("gadget:modular", 3, 1, Fraction(1, 4), tmp_path)

    def test_decode_matches_cover_distance(self, tmp_path):
        from smplab.universal import decode_labels, labeling_from_json

        label_pipeline("hypercube", 3, k=1, eps=Fraction(1, 6),
                       out_dir=tmp_path, master_seed=4)
        doc = json.loads((tmp_path / "labels-hypercube-n3-k1.json").read_text())
        scheme = labeling_from_json(doc)
        L = generate("hypercube", 3, 0).payload
        G = cover_graph(L.poset)
        bad = 0
        for x in range(L.n):
            for y in range(x, L.n):
                want = bfs_distance(G, x, y) <= 1
                if decode_labels(scheme, scheme.labels[x], scheme.labels[y]) != want:
                    bad += 1
        assert bad == 0
