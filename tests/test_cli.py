"""Command line surface: document flow, output formats, exit codes."""

import copy
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from smplab.cli import main
from smplab.gadgets import ALLGRAPHS_SOURCE_CAP
from smplab.lattices import boolean_lattice
from smplab.protocols import WeakLatticeDistance
from smplab.universal import derandomized_labeling, labeling_to_json, newman_seed_bank

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # bytes a capped child process may map
# cli.main in a child process; unlike ``-m smplab`` it needs no __main__ module
CLI_MAIN = "import sys; from smplab.cli import main; sys.exit(main(sys.argv[1:]))"


def capped_python(*args):
    """Run ``python ARGS...`` on this checkout's package in a child process
    whose address space is capped, so a check that would allocate without
    limit ends in a MemoryError there instead of exhausting the machine."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE,) * 2))


def run(*argv):
    return main([str(a) for a in argv])


def gen(tmp_path, family, n, seed=0, name="inst.json"):
    path = tmp_path / name
    assert run("gen", "--family", family, "--n", n, "--seed", seed, "--out", path) == 0
    return path


class TestGen:
    def test_writes_loadable_document(self, tmp_path):
        path = gen(tmp_path, "tree", 10)
        doc = json.loads(path.read_text())
        assert doc["family"] == "tree" and doc["kind"] == "graph"

    def test_gadget_document_carries_product_and_injection(self, tmp_path):
        path = gen(tmp_path, "gadget:modular", 4, seed=2)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "gadget"
        assert {"family", "source", "product", "injection"} <= set(doc["gadget"])

    def test_capacity_exit_code(self, tmp_path):
        assert run("gen", "--family", "gadget:modular", "--n", 9,
                   "--out", tmp_path / "x.json") == 3

    def test_unknown_family_exit_code(self, tmp_path):
        assert run("gen", "--family", "nope", "--n", 3,
                   "--out", tmp_path / "x.json") == 2


class TestVerifyAndOracle:
    def test_verify_each_kind(self, tmp_path):
        for family, n in [("distributive", 5), ("planar2", 12),
                          ("gadget:arboricity2", 6), ("gadget:interval", 5)]:
            path = gen(tmp_path, family, n, name=f"{family.replace(':', '-')}.json")
            assert run("verify", "--instance", path) == 0

    def test_verify_all_props(self, tmp_path):
        path = gen(tmp_path, "planar2", 16, seed=3)
        assert run("verify", "--instance", path, "--all-props") == 0
        path = gen(tmp_path, "distributive", 6, seed=3, name="lat.json")
        assert run("verify", "--instance", path, "--all-props") == 0

    def test_verify_catches_tampering(self, tmp_path):
        path = gen(tmp_path, "gadget:allgraphs", 6, seed=1)
        doc = json.loads(path.read_text())
        doc["gadget"]["source"]["edges"].pop()  # desync source from product
        path.write_text(json.dumps(doc))
        assert run("verify", "--instance", path) == 2

    def test_oracle_distance_matches_direct_bfs(self, tmp_path, capsys):
        path = gen(tmp_path, "tree", 12, seed=4)
        assert run("oracle", "--instance", path, "--query", "dist", 0, 5) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        from smplab.graphs import bfs_distance, graph_from_json

        g = graph_from_json(json.loads(path.read_text())["graph"])
        assert printed == str(bfs_distance(g, 0, 5))

    def test_oracle_rejects_bad_queries(self, tmp_path):
        path = gen(tmp_path, "tree", 6)
        assert run("oracle", "--instance", path, "--query", "dist", 0, 99) == 2
        assert run("oracle", "--instance", path, "--query", "girth", 0, 1) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert run("verify", "--instance", tmp_path / "absent.json") == 2

    def test_garbage_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("verify", "--instance", path) == 2

    @pytest.mark.parametrize("family,damage", [
        ("distributive", lambda doc: doc.pop("poset")),
        ("distributive", lambda doc: doc["poset"].update(covers=7)),
        ("distributive", lambda doc: doc["poset"].update(covers=[["0", 1]])),
        ("gadget:interval", lambda doc: doc.pop("order_n")),
        ("gadget:interval", lambda doc: doc.update(intervals=3)),
        ("tree", lambda doc: doc["graph"].update(edges=5)),
        ("tree", lambda doc: doc["graph"]["edges"].append([0, "1"])),
        ("tree", lambda doc: doc["graph"].update(self_loops="explicit", loops=2)),
    ], ids=["no-poset", "covers-not-list", "cover-not-ints", "no-order_n",
            "intervals-not-list", "edges-not-list", "edge-not-ints", "loops-not-list"])
    def test_damaged_instance_exit_code(self, tmp_path, family, damage):
        path = gen(tmp_path, family, 4)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        assert run("verify", "--instance", path) == 2
        assert run("oracle", "--instance", path, "--query", "dist", 0, 1) == 2

    @pytest.mark.parametrize("command", [
        ["verify"], ["oracle", "--query", "dist", 0, 1],
    ], ids=["verify", "oracle"])
    @pytest.mark.parametrize("damage", [
        lambda emb: emb.update(rotation=3),
        lambda emb: emb["rotation"].__setitem__(0, 4),
        lambda emb: emb.update(outer_face=1),
        lambda emb: emb["rotation"][1].append("2"),
    ], ids=["rotation-not-list", "row-not-list", "outer-not-list", "row-holds-string"])
    def test_damaged_embedding_exit_code(self, tmp_path, damage, command):
        path = gen(tmp_path, "planar2", 6)
        doc = json.loads(path.read_text())
        damage(doc["embedding"])
        path.write_text(json.dumps(doc))
        assert run(command[0], "--instance", path, *command[1:]) == 2


class TestRun:
    def config(self, tmp_path, **overrides):
        doc = {"family": "tree", "n_range": [10], "k": 1, "eps": [1, 4],
               "trials": 25, "master_seed": 6}
        doc.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_stdout_csv(self, tmp_path, capsys):
        assert run("run", "--config", self.config(tmp_path)) == 0
        out = capsys.readouterr().out
        assert out.startswith("family,")
        assert out.count("\n") == 4  # header + strata 0,1,beyond

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = self.config(tmp_path, output=str(out))
        assert run("run", "--config", cfg) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["family"] == "tree"

    def test_bad_config_exit_code(self, tmp_path):
        assert run("run", "--config", self.config(tmp_path, family="wat")) == 2

    @pytest.mark.parametrize("field,value", [
        ("n_range", 5),
        ("n_range", ["10"]),
        ("eps", "1/3"),
        ("eps", [1, 0]),
        ("eps", [1, 2, 3]),
        ("k", "2"),
        ("trials", 2.5),
        ("master_seed", "6"),
        ("budget_bits", None),
        ("pair_policy", 7),
    ])
    def test_mistyped_config_field_exit_code(self, tmp_path, field, value):
        assert run("run", "--config", self.config(tmp_path, **{field: value})) == 2


@pytest.fixture(scope="module")
def scheme_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("labels")
    code = run("label", "--family", "hypercube", "--n", 3, "--k", 1,
               "--eps", "1/6", "--out", out, "--seed", 5)
    assert code == 0
    return out


class TestLabelDecode:
    def test_label_report_printed(self, scheme_dir, capsys):
        files = list(scheme_dir.glob("labels-*.json"))
        assert len(files) == 1

    def test_decode_known_pairs(self, scheme_dir, capsys):
        doc = json.loads(next(scheme_dir.glob("labels-*.json")).read_text())
        labels = doc["labels"]
        # elements 0 (bottom) and 7 (top) of the 3-cube are 3 covers apart
        assert run("decode", "--scheme", scheme_dir, "--x", labels[0], "--y", labels[0]) == 0
        assert capsys.readouterr().out.strip() == "accept"
        assert run("decode", "--scheme", scheme_dir, "--x", labels[0], "--y", labels[7]) == 0
        assert capsys.readouterr().out.strip() == "reject"

    def test_decode_validates_hex(self, scheme_dir):
        assert run("decode", "--scheme", scheme_dir, "--x", "zz", "--y", "00") == 2

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.update(params=[1, 2]),
        lambda doc: doc["params"].pop("bank_m"),
        lambda doc: doc["params"].update(bank_m=0),
        lambda doc: doc["params"].update(message_bits="14"),
        lambda doc: doc["params"].update(bank_m=doc["params"]["bank_m"] + 1),
        lambda doc: doc["params"].pop("protocol"),
        lambda doc: doc["labels"].__setitem__(1, "zz"),
        lambda doc: doc["labels"].__setitem__(1, "f" * (doc["label_bits"] // 4 + 2)),
        lambda doc: doc["params"]["protocol"].update(k="1"),
        lambda doc: doc["params"]["protocol"].update(rounds=10**30),
    ], ids=["params-not-object", "no-bank_m", "zero-bank_m", "string-message_bits",
            "width-mismatch", "no-protocol", "label-not-hex", "label-too-wide",
            "string-k", "huge-rounds"])
    def test_damaged_label_file_exit_code(self, scheme_dir, tmp_path, damage):
        doc = json.loads(next(scheme_dir.glob("labels-*.json")).read_text())
        x, y = doc["labels"][0], doc["labels"][2]
        damage(doc)
        path = tmp_path / "labels-damaged.json"
        path.write_text(json.dumps(doc))
        assert run("decode", "--scheme", path, "--x", x, "--y", y) == 2

    def test_ambiguous_scheme_dir(self, scheme_dir, tmp_path):
        extra = tmp_path / "two"
        extra.mkdir()
        (extra / "labels-a.json").write_text("{}")
        (extra / "labels-b.json").write_text("{}")
        assert run("decode", "--scheme", extra, "--x", "0", "--y", "0") == 2

    def test_label_rejects_gadget_families(self, tmp_path):
        assert run("label", "--family", "gadget:interval", "--n", 4, "--k", 1,
                   "--eps", "1/4", "--out", tmp_path) == 2


@pytest.fixture(scope="module")
def weak_scheme_doc():
    """The weak-lattice label file that tests/test_golden.py pins."""
    eps = Fraction(1, 5)
    proto = WeakLatticeDistance(boolean_lattice(3), 2, eps)
    bank = newman_seed_bank(proto, range(8), eps, eps, 20191108)
    return labeling_to_json(derandomized_labeling(proto, range(8), bank))


class TestWeakSearchCapacity:
    """Oversized weak XOR searches are refused before anything is built.
    They run in a child with a capped address space: code that does build
    them fails there with a MemoryError, not by exhausting the machine."""

    @pytest.mark.parametrize("change", [{"q": 70}, {"k": 9}, {"k": 0, "m": 10**12}],
                             ids=["q70", "k9", "k0-m1e12"])
    def test_oversized_label_file_exit_code(self, weak_scheme_doc, tmp_path, change):
        doc = copy.deepcopy(weak_scheme_doc)
        doc["params"]["protocol"].update(change)
        path = tmp_path / "labels-weak.json"
        path.write_text(json.dumps(doc))
        x, y = doc["labels"][0], doc["labels"][7]
        proc = capped_python("-c", CLI_MAIN, "decode", "--scheme", path, "--x", x, "--y", y)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")

    def test_oversized_run_row_reports_capacity(self, tmp_path):
        cfg = {"family": "hypercube", "n_range": [3], "k": 7, "eps": [1, 3],
               "model": "weak", "trials": 5, "master_seed": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = capped_python("-c", CLI_MAIN, "run", "--config", path)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        header, row = proc.stdout.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["status"].startswith("CapacityError")


class TestWidthCapacity:
    """Message and label widths from a config or a file stay under
    ``WIDTH_CAP``, and a labeled universe under ``ALL_PAIRS_CAP``; beyond
    them the command ends in exit 3 or a ``CapacityError`` row, in a child
    with a capped address space."""

    @staticmethod
    def _wide_messages(doc):
        doc["label_bits"] = 2**40
        doc["params"].update(message_bits=2**40, bank_m=1)
        doc["params"]["protocol"]["m"] = 2**40

    @staticmethod
    def _many_seeds(doc):
        doc["label_bits"] = 10**9
        doc["params"].update(message_bits=1, bank_m=10**9)
        doc["params"]["protocol"].update(m=1, rounds=1, k=0)

    @pytest.mark.parametrize("change", ["_wide_messages", "_many_seeds"])
    def test_oversized_label_file_exit_code(self, scheme_dir, tmp_path, change):
        doc = json.loads(next(scheme_dir.glob("labels-*.json")).read_text())
        x, y = doc["labels"][0], doc["labels"][7]
        getattr(self, change)(doc)
        path = tmp_path / "labels-wide.json"
        path.write_text(json.dumps(doc))
        proc = capped_python("-c", CLI_MAIN, "decode", "--scheme", path, "--x", x, "--y", y)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")

    def test_oversized_run_row_reports_capacity(self, tmp_path):
        cfg = {"family": "hypercube", "n_range": [3], "k": 100000, "model": "universal",
               "trials": 2, "output": str(tmp_path / "r.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = capped_python("-c", CLI_MAIN, "run", "--config", path)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        header, row = (tmp_path / "r.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["status"].startswith("CapacityError")

    def test_oversized_label_universe_exit_code(self, tmp_path):
        proc = capped_python("-c", CLI_MAIN, "label", "--family", "tree", "--n", 10000,
                             "--k", 1, "--eps", "1/5", "--out", tmp_path)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")


def test_python_dash_m_prints_usage():
    proc = capped_python("-m", "smplab", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: smplab")


class TestSizeCaps:
    """A pair sample or a random source beyond its cap ends in exit 3
    before anything is drawn or built, in a child with a capped address
    space where building it would end in a MemoryError."""

    def test_oversized_pair_sample_exit_code(self, tmp_path):
        cfg = {"family": "tree", "n_range": [10000], "k": 1, "trials": 2,
               "pair_policy": "sampled:1000000000"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = capped_python("-c", CLI_MAIN, "run", "--config", path)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")

    @pytest.mark.parametrize("n", [ALLGRAPHS_SOURCE_CAP + 1, 4096])
    def test_oversized_random_source_exit_code(self, tmp_path, n):
        proc = capped_python("-c", CLI_MAIN, "gen", "--family", "gadget:allgraphs",
                             "--n", n, "--out", tmp_path / "g.json")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")
        assert not (tmp_path / "g.json").exists()
