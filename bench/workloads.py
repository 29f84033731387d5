"""The three benchmark workloads.

A workload has four phases, which the harness in ``run.py`` drives:

* ``setup(sm)`` makes the program's inputs and objects from the seed; it
  calls only the program, and the harness times it together with the import;
* ``prepare()`` computes the benchmark's own references (BFS distances,
  pair samples, formula widths) without calling the program's algorithms;
* ``run_round(r)`` makes every program call of round r and returns their
  outputs and times; rounds repeat the same operations;
* ``check_round(r, work, ledger)`` checks those outputs against the
  references, and ``finish(ledger)`` makes the checks that need the whole
  run and returns the size metrics.

``sm`` is a namespace of freshly imported smplab modules.  Program calls go
through module and class attributes at call time, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


class Ledger:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, problems):
        """Record one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append("; ".join(problems))


def _cli(sm, argv):
    """Run one smplab command in process: (exit code, stdout, stderr, seconds).

    A traceback is a failed operation, not the end of the run: it becomes
    exit code None with the traceback as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pick(rng, pairs, count):
    """count pairs from the list, without repeats when there are enough."""
    if len(pairs) >= count:
        return rng.sample(pairs, count)
    return [rng.choice(pairs) for _ in range(count)]


# -- lattice_trials ------------------------------------------------------------

LATTICE_KS = (1, 2, 3)
LATTICE_EPS = {"universal": Fraction(1, 3), "weak": Fraction(1, 8)}
POOL_SIZE = 3  # random distributive lattices beside boolean_lattice(8)
POOL_ELEMENTS = (65, 128)  # pool lattices have ceil(log2 n) = 7, like 2^8 has 8
NEAR_PAIRS = 8  # per lattice and k: distance <= k
FAR_PAIRS = 8  # per lattice and k: half at distance k+1, half beyond
XOR_CHECK_EVERY = 16  # brute-force one weak trial in this many


class LatticeTrials:
    """SmpProtocol.run on both lattice sketches, k = 1..3, near and far pairs."""

    name = "lattice_trials"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self, sm):
        self.sm = sm
        lattices = [sm.lattices.boolean_lattice(8)]
        rng = random.Random(self.seed)
        while len(lattices) < 1 + POOL_SIZE:
            L = sm.generators.random_downset_lattice(rng, 8)
            if POOL_ELEMENTS[0] <= L.n <= POOL_ELEMENTS[1]:
                lattices.append(L)
        self.lattices = lattices
        proto = sm.protocols
        self.protocols = {}  # (lattice index, k, kind) -> protocol
        for li, L in enumerate(lattices):
            for k in LATTICE_KS:
                self.protocols[li, k, "universal"] = proto.UniversalLatticeDistance(
                    L, k, LATTICE_EPS["universal"])
                self.protocols[li, k, "weak"] = proto.WeakLatticeDistance(
                    L, k, LATTICE_EPS["weak"])

    def prepare(self):
        rng = random.Random(f"lattice-pairs:{self.seed}")
        self.plan = []  # (protocol key, x, y, distance)
        self.universe = {}
        for li, L in enumerate(self.lattices):
            dist = checks.hop_distances(L.n, L.poset.covers)
            self.universe[li] = L.n
            upper = np.triu(np.ones_like(dist, dtype=bool))
            for k in LATTICE_KS:
                def pairs(mask):
                    return [tuple(map(int, p)) for p in np.argwhere(mask & upper)]
                chosen = (_pick(rng, pairs(dist <= k), NEAR_PAIRS)
                          + _pick(rng, pairs(dist == k + 1), FAR_PAIRS // 2)
                          + _pick(rng, pairs(dist > k + 1), FAR_PAIRS - FAR_PAIRS // 2))
                for kind in ("universal", "weak"):
                    for x, y in chosen:
                        self.plan.append(((li, k, kind), x, y, int(dist[x, y])))
        self.width = {}
        for kind, eps in LATTICE_EPS.items():
            for k in LATTICE_KS:
                if kind == "weak":
                    self.width[kind, k] = checks.weak_lattice_params(k, eps)[1]
                else:
                    m, r = checks.universal_lattice_params(k, eps)
                    self.width[kind, k] = m * r
        self.far = {}  # (kind, k) -> [far trials, false accepts]
        self.bits = [0, 0]  # message bits, messages

    def run_round(self, r):
        rng_mod, protocols = self.sm.rng, self.protocols
        out = []
        t0 = perf_counter()
        for i, (key, x, y, _) in enumerate(self.plan):
            try:
                s = rng_mod.derive_seed(self.seed, "lattice-trial", r, i)
                out.append((s, protocols[key].run(x, y, rng_mod.HashRandomness(s))))
            except Exception as exc:  # a raising trial is a failed operation
                out.append((None, exc))
        dt = perf_counter() - t0
        return {"prog_s": dt, "verdicts": len(out), "verdict_s": dt, "results": out}

    def check_round(self, r, work, ledger):
        for i, ((key, x, y, d), (s, res)) in enumerate(zip(self.plan, work["results"])):
            li, k, kind = key
            if isinstance(res, Exception):
                ledger.op([f"{kind} k={k} ({x},{y}) raised {res!r}"])
                continue
            problems = []
            width = self.width[kind, k]
            if res.message_a.length != width or res.message_b.length != width:
                problems.append(f"{kind} k={k}: width {res.message_a.length}/"
                                f"{res.message_b.length}, formula {width}")
            near = d <= k
            if res.expected.kind != ("accept" if near else "reject"):
                problems.append(f"{kind} k={k} ({x},{y}) d={d}: expected {res.expected}")
            accepted = res.verdict.kind == "accept"
            if near and not accepted:
                problems.append(f"{kind} k={k} ({x},{y}) d={d}: one-sided sketch rejected")
            if kind == "universal":
                m, rounds = checks.universal_lattice_params(k, LATTICE_EPS[kind])
                rule = checks.blocks_within(res.message_a.value, res.message_b.value,
                                            m, rounds, k)
                if rule != accepted:
                    problems.append(f"universal k={k} ({x},{y}): parity rule says {rule}")
            elif (i + r) % XOR_CHECK_EVERY == 0:
                m, q = checks.weak_lattice_params(k, LATTICE_EPS[kind])
                vecs = [checks.draw(s, ("s", b), 1 << q) for b in range(m)]
                hit = checks.xor_of_at_most(res.message_a.value ^ res.message_b.value, vecs, k)
                if hit != accepted:
                    problems.append(f"weak k={k} ({x},{y}): brute-force XOR says {hit}")
            if not near:
                tally = self.far.setdefault((kind, k), [0, 0])
                tally[0] += 1
                tally[1] += accepted
            self.bits[0] += res.message_a.length + res.message_b.length
            self.bits[1] += 2
            ledger.op(problems)

    def finish(self, ledger, rounds):
        for (kind, k), (trials, accepts) in sorted(self.far.items()):
            if not checks.rate_within(accepts, trials, LATTICE_EPS[kind]):
                # every far trial of the group was judged by this check
                ledger.failed += trials
                ledger.notes.append(f"{kind} k={k}: {accepts}/{trials} far pairs "
                                    f"accepted, budget {LATTICE_EPS[kind]}")
        per_proto = [self.width[kind, k] / checks.log2_ceil(self.universe[li])
                     for li, k, kind in self.protocols]
        return {
            "message_bits_mean": self.bits[0] / self.bits[1] if self.bits[1] else 0.0,
            "label_bits_per_log2_n": sum(per_proto) / len(per_proto),
            "digests": {},
            "detail": {f"far accept rate {kind} k={k}": f"{a}/{t}"
                       for (kind, k), (t, a) in sorted(self.far.items())},
        }


# -- experiment_sweep ----------------------------------------------------------

SWEEP_EPS = Fraction(1, 8)
SWEEP_CONFIGS = {
    # name: (family, size, k, trials per stratum, budget bits)
    "tree": ("tree", 400, 3, 500, 8),
    "planar2": ("planar2", 250, 1, 300, 8),
    "arboricity": ("arboricity", 400, 1, 500, 8),
    "allgraphs": ("gadget:allgraphs", 80, 1, 300, 8),
}
SWEEP_THRESHOLD = {"planar2": 2, "arboricity": 1, "gadget:allgraphs": 1}  # non-tree


class ExperimentSweep:
    """`smplab run` on pinned configs of four families, every pair stratified."""

    name = "experiment_sweep"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.dir = out_dir

    def setup(self, sm):
        self.sm = sm
        self.instances = {}
        for name, (family, n, *_rest) in SWEEP_CONFIGS.items():
            gen_seed = sm.rng.derive_seed(self.seed, "gen", family, n)
            self.instances[name] = sm.lab.generate(family, n, gen_seed).payload

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.expect = {}
        for name, (family, n, k, trials, budget) in SWEEP_CONFIGS.items():
            payload = self.instances[name]
            if family == "planar2":
                graph = payload.base_graph()
            elif family == "gadget:allgraphs":
                graph = payload.source
            else:
                graph = payload
            edges = graph.edges()
            N = graph.n
            dist = checks.hop_distances(N, edges)
            upto = k if family == "tree" else SWEEP_THRESHOLD[family]
            labels = [str(d) for d in range(upto + 1)] + ["beyond"]
            iu = np.triu_indices(N)
            d = dist[iu]
            pairs = {str(j): int(np.sum(d == j)) for j in range(upto + 1)}
            pairs["beyond"] = int(np.sum((d > upto) | (d == checks.UNREACHABLE)))
            if family == "tree":
                width = checks.tree_width(k, SWEEP_EPS)
                bounds = {lab: SWEEP_EPS for lab in labels}
            else:
                if family == "planar2":
                    width, far = checks.planar2_width(SWEEP_EPS), SWEEP_EPS
                elif family == "arboricity":
                    width = checks.sparse_width(checks.degeneracy(N, edges), SWEEP_EPS)
                    far = SWEEP_EPS
                else:
                    width = budget
                    far = checks.hashed_union_bound(N, edges, range(N), budget)
                bounds = {lab: Fraction(0) for lab in labels}
                bounds["beyond"] = far
            output = self.dir / f"{name}.json"
            config = {
                "family": family, "n_range": [n], "k": k, "eps": [1, 8],
                "trials": trials, "pair_policy": "all", "master_seed": self.seed,
                "output": str(output), "budget_bits": budget,
            }
            config_path = self.dir / f"{name}.config.json"
            config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
            self.expect[name] = {
                "labels": labels, "pairs": pairs, "bounds": bounds, "width": width,
                "trials": trials, "universe": N, "config": str(config_path),
                "output": output,
            }
        self.digests = {}

    def run_round(self, r):
        runs = {}
        total = 0.0
        for name, exp in self.expect.items():
            runs[name] = _cli(self.sm, ["run", "--config", exp["config"]])
            total += runs[name][3]
        trials = sum(exp["trials"] * sum(1 for p in exp["pairs"].values() if p)
                     for exp in self.expect.values())
        written = sum(exp["output"].stat().st_size for exp in self.expect.values()
                      if exp["output"].exists())
        return {"prog_s": total, "verdicts": trials, "verdict_s": total,
                "cli_run_s": total, "bytes_written": written, "runs": runs}

    def check_round(self, r, work, ledger):
        for name, exp in self.expect.items():
            code, _out, err, _dt = work["runs"][name]
            problems = []
            if code != 0:
                problems.append(f"{name}: exit {code}: {err.strip()[-200:]}")
                ledger.op(problems)
                continue
            problems += self._check_report(name, exp, r)
            ledger.op(problems)

    def _check_report(self, name, exp, r):
        problems = []
        path = exp["output"]
        digest = _sha256(path)
        if self.digests.setdefault(str(path), digest) != digest:
            problems.append(f"{name}: report differs from round 0 with the same seed")
        try:
            rows = json.loads(path.read_text())["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"{name}: unreadable report: {exc!r}"]
        if [row.get("stratum") for row in rows] != exp["labels"]:
            return problems + [f"{name}: strata {[row['stratum'] for row in rows]}"]
        for row in rows:
            lab = row["stratum"]
            tag = f"{name} stratum {lab}"
            if row["status"] != "ok":
                problems.append(f"{tag}: status {row['status']}")
                continue
            if row["pairs"] != exp["pairs"][lab]:
                problems.append(f"{tag}: {row['pairs']} pairs, BFS counts {exp['pairs'][lab]}")
            if not row["pairs"]:
                continue
            if row["trials"] != exp["trials"]:
                problems.append(f"{tag}: {row['trials']} trials, configured {exp['trials']}")
            if Fraction(row["bound"]) != exp["bounds"][lab]:
                problems.append(f"{tag}: bound {row['bound']}, recomputed {exp['bounds'][lab]}")
            if not checks.rate_within(row["errors"], row["trials"], exp["bounds"][lab]):
                problems.append(f"{tag}: {row['errors']}/{row['trials']} errors over "
                                f"bound {exp['bounds'][lab]}")
            if Fraction(row["mean_bits"]) != exp["width"] or int(row["formula_bits"]) != exp["width"]:
                problems.append(f"{tag}: bits {row['mean_bits']}/{row['formula_bits']}, "
                                f"formula {exp['width']}")
        exp["rows"] = rows
        return problems

    def finish(self, ledger, rounds):
        per_config = [exp["width"] / checks.log2_ceil(exp["universe"])
                      for exp in self.expect.values()]
        rows = [row for exp in self.expect.values() for row in exp.get("rows", ())
                if row["status"] == "ok" and row["trials"]]
        bits = sum(Fraction(row["mean_bits"]) * row["trials"] for row in rows)
        trials = sum(row["trials"] for row in rows)
        return {
            "message_bits_mean": float(bits / trials) if trials else 0.0,
            "label_bits_per_log2_n": sum(per_config) / len(per_config),
            "digests": self.digests,
            "detail": {},
        }


# -- labeling ------------------------------------------------------------------

LABEL_EPS = "1/5"
LABEL_ITEMS = [
    # (family, size, k); tree twice so the width is seen against log2 n
    ("tree", 8, 2),
    ("tree", 16, 2),
    ("hypercube", 4, 1),
    ("arboricity", 12, 1),
    ("distributive", 6, 1),
    ("planar2", 8, 2),
]
CLI_DECODES = 4  # pairs per label file also decoded through `smplab decode`
# Two random families vary in a parameter that sets the work or the width:
# the distributive lattice's element count and the arboricity graph's
# degeneracy.  Their master seed is the first from seed*1000 upward whose
# instance has the value below, so a round's work does not swing with the seed.
PINNED_SHAPE = {
    "distributive": lambda lattice: lattice.n == 16,
    "arboricity": lambda graph: checks.degeneracy(graph.n, graph.edges()) == 3,
}


class Labeling:
    """`smplab label` per family, then every pair decoded from the re-read file."""

    name = "labeling"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.dir = out_dir

    def setup(self, sm):
        self.sm = sm
        self.instances = {}
        self.masters = {}
        for family, n, k in LABEL_ITEMS:
            pinned = PINNED_SHAPE.get(family)
            master = self.seed * 1000 if pinned else self.seed
            while True:
                gen_seed = sm.rng.derive_seed(master, "gen", family, n)
                payload = sm.lab.generate(family, n, gen_seed).payload
                if pinned is None or pinned(payload):
                    break
                master += 1
            self.instances[family, n] = payload
            self.masters[family, n] = master

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        eps = Fraction(LABEL_EPS)
        rng = random.Random(f"label-pairs:{self.seed}")
        self.expect = []
        for family, n, k in LABEL_ITEMS:
            payload = self.instances[family, n]
            if family in ("hypercube", "distributive"):
                N, edges = payload.n, payload.poset.covers
                m, rounds = checks.universal_lattice_params(k, eps)
                width, threshold = m * rounds, k
            elif family == "planar2":
                base = payload.base_graph()
                N, edges = base.n, base.edges()
                width, threshold = checks.planar2_width(eps), 2
            elif family == "arboricity":
                N, edges = payload.n, payload.edges()
                width, threshold = checks.sparse_width(checks.degeneracy(N, edges), eps), 1
            else:
                N, edges = payload.n, payload.edges()
                width, threshold = checks.tree_width(k, eps), k
            dist = checks.hop_distances(N, edges)
            truth = (dist <= threshold) & (dist != checks.UNREACHABLE)
            near = [(x, y) for x in range(N) for y in range(x, N) if truth[x, y]]
            far = [(x, y) for x in range(N) for y in range(x, N) if not truth[x, y]]
            half = CLI_DECODES // 2
            sample = _pick(rng, near, half) + _pick(rng, far or near, CLI_DECODES - half)
            bank = checks.bank_size(N, eps, eps)
            self.expect.append({
                "argv": ["label", "--family", family, "--n", str(n), "--k", str(k),
                         "--eps", LABEL_EPS, "--out", str(self.dir),
                         "--seed", str(self.masters[family, n])],
                "path": self.dir / f"labels-{family}-n{n}-k{k}.json",
                "tag": f"{family} n={n}", "universe": N, "truth": truth,
                "sample": sample, "width": width, "bank": bank,
            })
        self.digests = {}

    def run_round(self, r):
        universal = self.sm.universal
        builds, decodes = [], []
        build_s = decode_s = cli_decode_s = 0.0
        pairs = 0
        for exp in self.expect:
            built = _cli(self.sm, exp["argv"])
            build_s += built[3]
            builds.append(built)
            if built[0] != 0:
                decodes.append(None)
                continue
            t0 = perf_counter()
            try:
                doc = json.loads(exp["path"].read_text())
                scheme = universal.labeling_from_json(doc)
                labels = scheme.labels
                N = len(labels)
                got = [[universal.decode_labels(scheme, labels[x], labels[y])
                        for y in range(x, N)] for x in range(N)]
            except Exception as exc:  # a raising decode is a failed operation
                decodes.append(exc)
                continue
            decode_s += perf_counter() - t0
            pairs += N * (N + 1) // 2
            cli = []
            for x, y in exp["sample"]:
                res = _cli(self.sm, ["decode", "--scheme", str(exp["path"]),
                                     "--x", doc["labels"][x], "--y", doc["labels"][y]])
                cli_decode_s += res[3]
                cli.append(res)
            decodes.append((got, cli))
        written = sum(exp["path"].stat().st_size for exp in self.expect
                      if exp["path"].exists())
        return {"prog_s": build_s + decode_s + cli_decode_s, "verdicts": pairs,
                "verdict_s": decode_s, "cli_label_s": build_s,
                "cli_decode_s": cli_decode_s, "bytes_written": written,
                "builds": builds, "decodes": decodes}

    def check_round(self, r, work, ledger):
        for exp, built, decoded in zip(self.expect, work["builds"], work["decodes"]):
            tag = exp["tag"]
            code, out, err, _ = built
            if code != 0:
                ledger.op([f"{tag}: label exit {code}: {err.strip()[-200:]}"])
                continue
            ledger.op(self._check_build(exp, out))
            if isinstance(decoded, Exception):
                ledger.op([f"{tag}: reading or decoding the label file raised {decoded!r}"])
                continue
            got, cli = decoded
            truth = exp["truth"]
            N = exp["universe"]
            if len(got) != N:
                ledger.op([f"{tag}: {len(got)} labels for a universe of {N}"])
                continue
            for x in range(N):
                for j, verdict in enumerate(got[x]):
                    y = x + j
                    ledger.op([] if verdict == bool(truth[x, y]) else
                              [f"{tag}: pair ({x},{y}) decodes to {verdict}"])
            for (x, y), (code, out, err, _) in zip(exp["sample"], cli):
                want = "accept" if truth[x, y] else "reject"
                ledger.op([] if code == 0 and out.strip() == want else
                          [f"{tag}: smplab decode ({x},{y}) gave {code} {out.strip()!r}"])

    def _check_build(self, exp, out):
        tag = exp["tag"]
        try:
            report = json.loads(out)
        except ValueError:
            return [f"{tag}: smplab label printed no JSON report"]
        problems = []
        path = exp["path"]
        digest = _sha256(path)
        if self.digests.setdefault(str(path), digest) != digest:
            problems.append(f"{tag}: label file differs from round 0 with the same seed")
        want = {"universe": exp["universe"], "bank_seeds": exp["bank"],
                "message_bits": exp["width"], "label_bits": exp["bank"] * exp["width"],
                "decode_errors": 0}
        for field, value in want.items():
            if report.get(field) != value:
                problems.append(f"{tag}: {field} {report.get(field)}, expected {value}")
        exp["report"] = report
        return problems

    def finish(self, ledger, rounds):
        built = [exp for exp in self.expect if "report" in exp]
        ratios = {exp["tag"]: exp["report"]["label_bits"] / checks.log2_ceil(exp["universe"])
                  for exp in built}
        return {
            "message_bits_mean": (sum(e["report"]["message_bits"] for e in built) / len(built)
                                  if built else 0.0),
            "label_bits_per_log2_n": sum(ratios.values()) / len(ratios) if ratios else 0.0,
            "digests": self.digests,
            "detail": {f"label_bits_per_log2_n {tag}": f"{v:.4f}" for tag, v in ratios.items()},
        }


WORKLOADS = {cls.name: cls for cls in (LatticeTrials, ExperimentSweep, Labeling)}
