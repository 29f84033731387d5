"""Seeded experiment plumbing: instance families, error tables, label files.

Three moving parts, all deterministic given a master seed:

* ``generate``  -- named instance families (random lattices, trees,
  triangulations, reduction gadgets), every instance reproducible from
  ``(family, n, seed)`` and serializable for the command line tools.
* ``run_experiment`` -- Monte-Carlo error tables.  Pairs are stratified by
  an *independent* BFS oracle on the instance (never by the protocol's own
  bookkeeping), each stratum gets the configured number of trials, and
  every trial's randomness is derived from the master seed by labeled
  hashing, so rows are independent jobs and reruns are byte-identical.
  Trials run through ``SmpProtocol.run_trials``; expected verdicts come
  from the BFS oracle alone.
* ``label_pipeline`` -- shared-randomness removal: draw and verify a seed
  bank, concatenate per-seed messages into vertex labels, write the scheme
  to disk, read it back, and re-check every pair through the public decoder
  against the BFS oracle.

Experiment rows carry both the measured message width and the width the
protocol's sizing formula promises, so a drifting encoder shows up as a
column mismatch rather than a silent change.

Conventions worth stating once:

* Adjacency families are reflexive -- a vertex is adjacent to itself -- so
  equal inputs sit in the distance-0 stratum and are expected to accept.
  Products that are defined loop-free (the arboricity-2 pair gadget) are
  closed reflexively before sketching.
* The modular gadget's product is exercised through its distance-at-most-2
  relation: the budgeted hash sketch runs on the graph whose edges are the
  product pairs at cover distance <= 2, which is exactly the relation the
  gadget uses to represent source adjacency.
* ``n`` in a row is the family's size parameter as configured (base poset
  size, tree size, hypercube dimension, ...), not the derived universe
  size; the universe is what ``pairs`` counts range over.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .gadgets import (
    IntervalGtInstance,
    all_graphs_instance,
    arboricity2_gadget,
    gadget_from_json,
    gadget_to_json,
    interval_gt_instance,
    modular_gadget,
)
from .generators import (
    random_downset_lattice,
    random_graph,
    random_tree,
    stacked_triangulation,
    union_of_two_trees,
)
from .graphs import Graph, all_pairs_distances, bfs_from, graph_from_json, graph_to_json, k_closure
from .lattices import (
    DOWNSET_BASE_CAP,
    Lattice,
    boolean_lattice,
    build_lattice,
    cover_graph,
    poset_from_json,
    poset_to_json,
)
from .planar import PlanarEmbedding, embedding_from_json, embedding_to_json
from .protocols import (
    ArboricityAdjacency,
    HashedAdjacency,
    PlanarTwoDistance,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
    universal_sketch_params,
    weak_sketch_params,
)
from .protocols.base import (
    as_fraction,
    beyond_verdict,
    distance_verdict,
    eps_from_json,
    eps_to_json,
    ACCEPT,
    REJECT,
)
from .protocols.hashing import BUDGET_CAP
from .rng import HashRandomness, derive_seed
from .universal import (
    WIDTH_CAP,
    derandomized_labeling,
    labeling_from_json,
    labeling_to_json,
    newman_seed_bank,
    positive_verdict,
    scheme_mismatches,
)

FAMILIES = (
    "distributive",
    "hypercube",
    "tree",
    "arboricity",
    "planar2",
    "gadget:modular",
    "gadget:arboricity2",
    "gadget:interval",
    "gadget:allgraphs",
)

HYPERCUBE_DIM_CAP = 12
GRAPH_FAMILY_CAP = 10_000
ALL_PAIRS_CAP = 600  # largest universe enumerated exhaustively per stratum
PAIR_SAMPLE_CAP = 1 << 20  # most pairs a 'sampled:N' policy may draw

_ERRORS = (InputError, PreconditionError, CapacityError, VerificationError)

REPORT_COLUMNS = (
    "family",
    "protocol",
    "n",
    "stratum",
    "pairs",
    "trials",
    "errors",
    "error_rate",
    "violations",
    "mean_bits",
    "formula_bits",
    "bound",
    "status",
)


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a family swept over sizes with a fixed error budget.

    ``model`` picks the lattice sketch flavor ("universal" keeps the
    referee blind, "weak" lets it read the shared randomness);
    ``budget_bits`` is the per-sender width for the budgeted hash sketch
    used by the unstructured-graph families.  Both fields default to the
    values every other family ignores.
    """

    family: str
    n_range: tuple
    k: int = 1
    eps: Fraction = Fraction(1, 3)
    trials: int = 400
    pair_policy: str = "all"
    master_seed: int = 0
    output: str | None = None
    model: str = "universal"
    budget_bits: int = 8

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        sizes = tuple(int(n) for n in self.n_range)
        if not sizes:
            raise InputError("n_range must list at least one size")
        object.__setattr__(self, "n_range", sizes)
        if self.k < 0:
            raise InputError("k must be nonnegative")
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if not 0 < self.eps < 1:
            raise InputError(f"eps must be in (0, 1), got {self.eps}")
        if self.trials < 1:
            raise InputError("trials must be positive")
        _parse_pair_policy(self.pair_policy)
        if self.model not in ("universal", "weak"):
            raise InputError(f"model must be 'universal' or 'weak', got {self.model!r}")
        if not 1 <= self.budget_bits <= BUDGET_CAP:
            raise InputError(f"budget_bits must be in 1..{BUDGET_CAP}")


def _parse_pair_policy(policy: str) -> int | None:
    """None for exhaustive pairs, else the sample count, at most PAIR_SAMPLE_CAP."""
    if policy == "all":
        return None
    head, sep, count = policy.partition(":")
    if head == "sampled" and sep and count.isdigit() and int(count) > 0:
        if int(count) > PAIR_SAMPLE_CAP:
            raise CapacityError(f"pair_policy samples {count} pairs (cap {PAIR_SAMPLE_CAP})")
        return int(count)
    raise InputError(f"pair_policy must be 'all' or 'sampled:N', got {policy!r}")


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "family": cfg.family,
        "n_range": list(cfg.n_range),
        "k": cfg.k,
        "eps": eps_to_json(cfg.eps),
        "trials": cfg.trials,
        "pair_policy": cfg.pair_policy,
        "master_seed": cfg.master_seed,
        "output": cfg.output,
        "model": cfg.model,
        "budget_bits": cfg.budget_bits,
    }


def config_from_json(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise InputError("experiment config must be an object")
    known = {
        "family", "n_range", "k", "eps", "trials", "pair_policy",
        "master_seed", "output", "model", "budget_bits",
    }
    extra = set(doc) - known
    if extra:
        raise InputError(f"unknown config fields: {sorted(extra)}")
    if "family" not in doc or "n_range" not in doc:
        raise InputError("config needs at least 'family' and 'n_range'")
    kwargs = dict(doc)
    sizes = kwargs["n_range"]
    if not isinstance(sizes, list) or any(type(n) is not int for n in sizes):
        raise InputError("n_range must be a list of integers")
    kwargs["n_range"] = tuple(sizes)
    for key in ("k", "trials", "master_seed", "budget_bits"):
        if key in kwargs and type(kwargs[key]) is not int:
            raise InputError(f"{key} must be an integer, got {kwargs[key]!r}")
    for key in ("family", "pair_policy", "model"):
        if key in kwargs and not isinstance(kwargs[key], str):
            raise InputError(f"{key} must be a string, got {kwargs[key]!r}")
    if kwargs.get("output") is not None and not isinstance(kwargs["output"], str):
        raise InputError("output must be a path string or null")
    if "eps" in kwargs:
        kwargs["eps"] = eps_from_json(kwargs["eps"])
    return ExperimentConfig(**kwargs)


# -- instance families -------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A generated input: the family payload plus the triple that made it."""

    family: str
    n: int
    seed: int
    payload: object


def generate(family: str, n: int, seed: int) -> Instance:
    """Draw the family's instance of size parameter n from the given seed.

    Deterministic families (the hypercube, the interval order) ignore the
    seed but still record it.  Size caps raise CapacityError.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
    rng = random.Random(seed)
    if family == "distributive":
        if n > DOWNSET_BASE_CAP:
            raise CapacityError(f"distributive bases are capped at {DOWNSET_BASE_CAP}")
        payload = random_downset_lattice(rng, n)
    elif family == "hypercube":
        if n > HYPERCUBE_DIM_CAP:
            raise CapacityError(f"hypercube dimension is capped at {HYPERCUBE_DIM_CAP}")
        payload = boolean_lattice(n)
    elif family == "tree":
        if n > GRAPH_FAMILY_CAP:
            raise CapacityError(f"trees are capped at {GRAPH_FAMILY_CAP} vertices")
        payload = random_tree(rng, n)
    elif family == "arboricity":
        if n > GRAPH_FAMILY_CAP:
            raise CapacityError(f"graphs are capped at {GRAPH_FAMILY_CAP} vertices")
        base = union_of_two_trees(rng, n)
        payload = Graph(n, base.edges(), loops="all")
    elif family == "planar2":
        if n > GRAPH_FAMILY_CAP:
            raise CapacityError(f"triangulations are capped at {GRAPH_FAMILY_CAP} vertices")
        payload = stacked_triangulation(rng, n)
    elif family == "gadget:modular":
        payload = modular_gadget(random_graph(rng, n, 0.5, loops="all"))
    elif family == "gadget:arboricity2":
        payload = arboricity2_gadget(random_graph(rng, n, 0.35))
    elif family == "gadget:interval":
        payload = interval_gt_instance(n)
    else:  # gadget:allgraphs
        payload = all_graphs_instance(n, seed)
    return Instance(family, n, seed, payload)


def instance_to_json(inst: Instance) -> dict:
    doc = {"family": inst.family, "n": inst.n, "seed": inst.seed}
    payload = inst.payload
    if isinstance(payload, Lattice):
        doc["kind"] = "lattice"
        doc["poset"] = poset_to_json(payload.poset)
    elif isinstance(payload, PlanarEmbedding):
        doc["kind"] = "embedding"
        doc["embedding"] = embedding_to_json(payload)
    elif isinstance(payload, IntervalGtInstance):
        doc["kind"] = "interval"
        doc["order_n"] = payload.n
        doc["graph"] = graph_to_json(payload.graph)
        doc["intervals"] = [list(iv) for iv in payload.intervals]
    elif isinstance(payload, Graph):
        doc["kind"] = "graph"
        doc["graph"] = graph_to_json(payload)
    else:
        doc["kind"] = "gadget"
        doc["gadget"] = gadget_to_json(payload)
    return doc


def instance_from_json(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InputError("instance document must be an object")
    try:
        family, n, seed, kind = doc["family"], doc["n"], doc["seed"], doc["kind"]
    except KeyError as e:
        raise InputError(f"instance document missing field {e}") from None
    # a missing part reads as None, which its loader rejects
    if kind == "lattice":
        payload = build_lattice(poset_from_json(doc.get("poset")), validate=True)
    elif kind == "embedding":
        payload = embedding_from_json(doc.get("embedding"))
    elif kind == "interval":
        order_n, intervals = doc.get("order_n"), doc.get("intervals")
        if type(order_n) is not int or not (
                isinstance(intervals, list) and all(isinstance(iv, list) for iv in intervals)):
            raise InputError("interval documents need an integer order_n and interval lists")
        payload = IntervalGtInstance(order_n, graph_from_json(doc.get("graph")),
                                     tuple(map(tuple, intervals)))
    elif kind == "graph":
        payload = graph_from_json(doc.get("graph"))
    elif kind == "gadget":
        payload = gadget_from_json(doc.get("gadget"))
    else:
        raise InputError(f"unknown instance kind {kind!r}")
    return Instance(family, n, seed, payload)


# -- protocol wiring ---------------------------------------------------------


def _protocol_for(family, payload, k, eps, model, budget_bits):
    """Protocol, BFS-oracle graph, distance threshold, and verdict mode.

    The oracle graph is what stratification and expected verdicts are
    computed from -- always by BFS, never by the protocol under test.
    Messages wider than ``WIDTH_CAP`` bits are refused before any is built.
    """
    if family in ("distributive", "hypercube"):
        cls = UniversalLatticeDistance if model == "universal" else WeakLatticeDistance
        wired = cls(payload, k, eps), cover_graph(payload.poset), k, "accept"
    elif family == "tree":
        wired = TreeKDistance(payload, k, eps), payload, k, "tree"
    elif family == "arboricity":
        wired = ArboricityAdjacency(payload, eps), payload, 1, "accept"
    elif family == "planar2":
        wired = PlanarTwoDistance(payload, eps), payload.base_graph(), 2, "accept"
    elif family == "gadget:modular":
        near = k_closure(cover_graph(payload.product.poset), 2)
        wired = HashedAdjacency(near, budget_bits), near, 1, "accept"
    elif family == "gadget:arboricity2":
        closed = Graph(payload.product.n, payload.product.edges(), loops="all")
        wired = ArboricityAdjacency(closed, eps), closed, 1, "accept"
    elif family == "gadget:interval":
        wired = HashedAdjacency(payload.graph, budget_bits), payload.graph, 1, "accept"
    elif family == "gadget:allgraphs":
        wired = HashedAdjacency(payload.source, budget_bits), payload.source, 1, "accept"
    else:
        raise InputError(f"unknown family {family!r}")
    proto = wired[0]
    widest = max(proto.cost_bits_a, proto.cost_bits_b)
    if widest > WIDTH_CAP:
        raise CapacityError(f"{widest}-bit messages exceed the {WIDTH_CAP}-bit cap")
    return wired


def _expected_verdict(mode, d, k):
    if mode == "tree":
        return distance_verdict(d) if d <= k else beyond_verdict(k)
    return ACCEPT if d is not None and d <= k else REJECT


def _formula_bits(family, model, k, eps, proto) -> int:
    """The width the sizing formulas promise, recomputed from scratch."""
    if family in ("distributive", "hypercube"):
        if model == "universal":
            m, rounds = universal_sketch_params(k, eps)
            return m * rounds
        m, q = weak_sketch_params(k, eps)
        return q
    return proto.cost_bits


def _stratum_labels(threshold, mode, k):
    upto = k if mode == "tree" else threshold
    return [str(d) for d in range(upto + 1)] + ["beyond"]


def _strata_pools(oracle_graph, threshold, mode, k, policy_count, rng):
    """Pairs bucketed by BFS distance: label -> index arrays (xs, ys, ds).

    Each pool holds pairs x <= y in (x, y) order, with ds their distance,
    or -1 where y is unreachable from x (only ever in "beyond").
    """
    N = oracle_graph.n
    if policy_count is None:
        if N > ALL_PAIRS_CAP:
            raise CapacityError(
                f"universe of {N} is too large for pair_policy 'all' "
                f"(cap {ALL_PAIRS_CAP}); use 'sampled:N'"
            )
        xs, ys = np.triu_indices(N)
        dist = all_pairs_distances(oracle_graph)[xs, ys]
    else:
        seen = set()
        for _ in range(policy_count):
            x = rng.randrange(N)
            y = rng.randrange(N)
            if x > y:
                x, y = y, x
            seen.add((x, y))
        pairs = sorted(seen)
        rows = {}
        for x, _ in pairs:
            if x not in rows:
                rows[x] = bfs_from(oracle_graph, x)
        xs = np.array([x for x, _ in pairs], dtype=np.intp)
        ys = np.array([y for _, y in pairs], dtype=np.intp)
        dist = np.array([rows[x][y] for x, y in pairs], dtype=float)
    unreachable = np.isinf(dist)
    if mode == "tree" and unreachable.any():
        raise PreconditionError("tree-mode strata need a connected oracle graph")
    ds = np.where(unreachable, -1, dist).astype(np.int64)
    upto = k if mode == "tree" else threshold
    masks = {str(d): ds == d for d in range(upto + 1)}
    masks["beyond"] = unreachable | (ds > upto)
    return {label: (xs[mask], ys[mask], ds[mask]) for label, mask in masks.items()}


# -- experiment runs ---------------------------------------------------------


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return out.getvalue()

    def to_json(self) -> str:
        doc = {"config": config_to_json(self.config), "rows": self.rows}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write(self, path) -> None:
        path = Path(path)
        text = self.to_json() if path.suffix == ".json" else self.to_csv()
        path.write_text(text)


def _row(cfg, n, proto_name, stratum, **kw):
    row = {
        "family": cfg.family,
        "protocol": proto_name,
        "n": n,
        "stratum": stratum,
        "pairs": 0,
        "trials": 0,
        "errors": 0,
        "error_rate": "",
        "violations": 0,
        "mean_bits": "",
        "formula_bits": "",
        "bound": "",
        "status": "ok",
    }
    row.update(kw)
    return row


def _run_stratum(cfg, proto, pool, label, n, mode, threshold, formula):
    """One report row: ``cfg.trials`` trials through ``proto.run_trials``, trial
    t on pair ``t % size`` under the seed derived for t; expected verdicts come
    from the pool's BFS distance alone."""
    one_sided_clean = proto.one_sided and label != "beyond"
    if mode == "tree":
        one_sided_clean = False
    bound = Fraction(0) if one_sided_clean else (
        proto.error_bound if isinstance(proto, HashedAdjacency) else cfg.eps
    )
    size = len(pool[0])
    if not size:
        return _row(cfg, n, proto.name, label,
                    formula_bits=str(formula), bound=str(bound))
    reads = min(cfg.trials, size)
    xs, ys, ds = (a[:reads].tolist() for a in pool)
    wants = [_expected_verdict(mode, d if d >= 0 else None, threshold) for d in ds]
    rnds = (HashRandomness(derive_seed(cfg.master_seed, "trial", cfg.family, n, label, t))
            for t in range(cfg.trials))
    verdicts = proto.run_trials(itertools.cycle(zip(xs, ys)), rnds)
    errors = 0
    violations = 0
    for verdict, want in zip(verdicts, itertools.cycle(wants)):
        if verdict != want:
            errors += 1
            if positive_verdict(want):
                violations += 1
    return _row(
        cfg, n, proto.name, label,
        pairs=size,
        trials=cfg.trials,
        errors=errors,
        error_rate=str(Fraction(errors, cfg.trials)),
        violations=violations,
        mean_bits=str(Fraction(proto.cost_bits_a + proto.cost_bits_b, 2)),
        formula_bits=str(formula),
        bound=str(bound),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Stratified Monte-Carlo error table over the configured size sweep.

    Every (size, stratum) row is an independent job: its instance, its
    pair sample, and each trial's randomness are all derived from the
    master seed by labeled hashing.  A failing size contributes a row with
    the exception in ``status`` instead of aborting the sweep.
    """
    policy_count = _parse_pair_policy(cfg.pair_policy)
    rows = []
    for n in cfg.n_range:
        gen_seed = derive_seed(cfg.master_seed, "gen", cfg.family, n)
        try:
            inst = generate(cfg.family, n, gen_seed)
            proto, oracle_graph, threshold, mode = _protocol_for(
                cfg.family, inst.payload, cfg.k, cfg.eps, cfg.model, cfg.budget_bits
            )
            formula = _formula_bits(cfg.family, cfg.model, cfg.k, cfg.eps, proto)
            pair_rng = random.Random(derive_seed(cfg.master_seed, "pairs", cfg.family, n))
            pools = _strata_pools(oracle_graph, threshold, mode, cfg.k, policy_count, pair_rng)
        except _ERRORS as exc:
            rows.append(_row(cfg, n, "-", "-", status=f"{type(exc).__name__}: {exc}"))
            continue
        for label in _stratum_labels(threshold, mode, cfg.k):
            rows.append(_run_stratum(cfg, proto, pools[label], label, n, mode, threshold, formula))
    return ExperimentReport(cfg, rows)


# -- labeling pipeline -------------------------------------------------------

LABEL_FAMILIES = ("distributive", "hypercube", "tree", "arboricity", "planar2")


def label_pipeline(family, n, k, eps, out_dir, master_seed=0, delta=None) -> dict:
    """Derandomize a family instance into a label file and re-verify it.

    Draws the instance, runs the seed-bank construction against the
    family's sketch, writes the labeling as canonical JSON, reads the file
    back, and decodes **every** pair through the public decoder, comparing
    with one all-pairs BFS.  Universes above ``ALL_PAIRS_CAP`` are refused
    before a bank is drawn.  Returns a small report; any decoding mismatch
    counts in ``decode_errors`` (the bank construction itself would have
    raised long before, so nonzero means file corruption).
    """
    if family not in LABEL_FAMILIES:
        raise InputError(f"no labeling pipeline for {family!r}; choose from {LABEL_FAMILIES}")
    eps = as_fraction(eps)
    delta = eps if delta is None else as_fraction(delta)
    inst = generate(family, n, derive_seed(master_seed, "gen", family, n))
    proto, oracle_graph, threshold, _mode = _protocol_for(
        family, inst.payload, k, eps, "universal", budget_bits=8
    )
    if oracle_graph.n > ALL_PAIRS_CAP:
        raise CapacityError(f"universe of {oracle_graph.n} exceeds the label cap {ALL_PAIRS_CAP}")
    universe = range(oracle_graph.n)
    bank = newman_seed_bank(
        proto, universe, eps, delta, derive_seed(master_seed, "bank", family, n)
    )
    scheme = derandomized_labeling(proto, universe, bank)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"labels-{family}-n{n}-k{k}.json"
    path.write_text(json.dumps(labeling_to_json(scheme), sort_keys=True, indent=2) + "\n")

    reread = labeling_from_json(json.loads(path.read_text()))
    near = (all_pairs_distances(oracle_graph) <= threshold).tolist()
    decode_errors = sum(1 for _ in scheme_mismatches(reread, lambda x, y: near[x][y]))

    log2n = max(1, (oracle_graph.n - 1).bit_length())
    return {
        "family": family,
        "n": n,
        "k": k,
        "eps": str(eps),
        "delta": str(delta),
        "universe": oracle_graph.n,
        "bank_seeds": bank.m,
        "worst_bad": str(bank.worst_bad),
        "message_bits": proto.cost_bits,
        "label_bits": scheme.label_bits,
        "label_bits_per_log2_n": str(Fraction(scheme.label_bits, log2n)),
        "decode_errors": decode_errors,
        "path": str(path),
    }
