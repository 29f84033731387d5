"""Command line surface: document flow, output formats, exit codes."""

import contextlib
import copy
import functools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smplab.cli import main
from smplab.gadgets import ALLGRAPHS_SOURCE_CAP, INTERVAL_ORDER_CAP
from smplab.lab import FAMILIES, generate, instance_to_json
from smplab.bits import Bits
from smplab.universal import labeling_from_json

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
        # a directory, or bytes that are not UTF-8, where a document is read
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"caf\xe9": 1}')
        for path in (tmp_path, latin):
            assert run("run", "--config", path) == 2
            assert run("verify", "--instance", path) == 2
            assert run("oracle", "--instance", path, "--query", "dist", 0, 1) == 2
        assert run("decode", "--scheme", latin, "--x", "0", "--y", "0") == 2
        assert run("gen", "--family", "tree", "--n", 5, "--out", tmp_path) == 2

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
        ("gadget:modular", lambda doc: doc["gadget"].update(product=3)),
        ("gadget:modular", lambda doc: doc["gadget"]["product"].pop("poset")),
        ("gadget:arboricity2", lambda doc: doc["gadget"]["product"].pop("graph")),
        ("gadget:allgraphs", lambda doc: doc["gadget"]["injection"].__setitem__(0, "x")),
        ("gadget:allgraphs", lambda doc: doc["gadget"].update(
            injection=[v + 0.5 for v in doc["gadget"]["injection"]])),
    ], ids=["no-poset", "covers-not-list", "cover-not-ints", "no-order_n",
            "intervals-not-list", "edges-not-list", "edge-not-ints", "loops-not-list",
            "product-not-object", "no-product-poset", "no-product-graph",
            "injection-holds-string", "injection-holds-floats"])
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


@pytest.fixture(scope="module")
def lattice_scheme_doc(scheme_dir):
    """The hypercube label file, decoded by the universal lattice sketch's
    blind rule."""
    return json.loads(next(scheme_dir.glob("labels-*.json")).read_text())


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

    def test_decode_prints_the_scalar_vote(self, scheme_dir, capsys):
        # two scheme labels, and a scheme label against a stranger either way round
        doc = json.loads(next(scheme_dir.glob("labels-*.json")).read_text())
        scheme = labeling_from_json(doc)
        m, c = scheme.params["bank_m"], scheme.params["message_bits"]
        block, k = scheme.params["protocol"]["m"], scheme.params["protocol"]["k"]

        def vote(lx, ly):  # the hypercube scheme's rule, the universal lattice sketch's
            return oracles.seed_vote_slices(
                lambda ma, mb, rnd: oracles.parity_blocks_slices(ma, mb, block, k),
                m, c, range(m), lx, ly)

        bits = scheme.label_bits
        own = list(scheme.labels[:3])
        stranger = Bits((1 << bits) - 1 - own[0].value, bits)
        assert stranger not in scheme.labels
        for lx, ly in [(own[0], own[1]), (own[2], own[1]), (own[0], stranger),
                       (stranger, own[2])]:
            assert run("decode", "--scheme", scheme_dir, "--x", lx.to_hex(),
                       "--y", ly.to_hex()) == 0
            assert capsys.readouterr().out.strip() == ("accept" if vote(lx, ly) else "reject")
        wide = "f" * (bits // 4 + 2)
        assert run("decode", "--scheme", scheme_dir, "--x", wide, "--y", doc["labels"][0]) == 2

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
        lambda doc: doc["params"]["protocol"].update(m=10**30),
    ], ids=["params-not-object", "no-bank_m", "zero-bank_m", "string-message_bits",
            "width-mismatch", "no-protocol", "label-not-hex", "label-too-wide",
            "string-k", "huge-rounds", "huge-m"])
    def test_damaged_label_file_exit_code(self, scheme_dir, tmp_path, damage):
        doc = json.loads(next(scheme_dir.glob("labels-*.json")).read_text())
        x, y = doc["labels"][0], doc["labels"][2]
        damage(doc)
        path = tmp_path / "labels-damaged.json"
        path.write_text(json.dumps(doc))
        assert run("decode", "--scheme", path, "--x", x, "--y", y) == 2

    @pytest.mark.parametrize("seeds", [None, [1, 2, 3]], ids=["no-seeds", "seeds"])
    def test_seed_reading_label_file_exit_code(self, tmp_path, capsys, seeds):
        # the weak sketch's referee reads the shared draws, so no label file
        # decodes by it, whether or not it lists the bank's seeds
        params = {"protocol": {"name": "lattice-distance-weak", "k": 1, "eps": [1, 5],
                               "n": 8, "m": 9, "q": 4},
                  "bank_m": 3, "message_bits": 4}
        if seeds is not None:
            params["seeds"] = seeds
        doc = {"decoder": "seed-majority", "params": params, "label_bits": 12,
               "labels": ["000", "fff"]}
        path = tmp_path / "labels-weak.json"
        path.write_text(json.dumps(doc))
        assert run("decode", "--scheme", path, "--x", "000", "--y", "fff") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot be decoded" in err

    def test_ambiguous_scheme_dir(self, scheme_dir, tmp_path):
        extra = tmp_path / "two"
        extra.mkdir()
        (extra / "labels-a.json").write_text("{}")
        (extra / "labels-b.json").write_text("{}")
        assert run("decode", "--scheme", extra, "--x", "0", "--y", "0") == 2

    def test_label_rejects_gadget_families(self, tmp_path):
        assert run("label", "--family", "gadget:interval", "--n", 4, "--k", 1,
                   "--eps", "1/4", "--out", tmp_path) == 2


class TestParserReuse:
    @staticmethod
    def call(argv, capsys):
        """``main(argv)`` in this process: (exit code, stdout, stderr)."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_back_to_back_calls_match_separate_processes(self, tmp_path, capsys):
        # label, then a usage error, then decode, all on this process's one parser
        label = ["label", "--family", "tree", "--n", "6", "--k", "1", "--eps", "1/5",
                 "--out", str(tmp_path)]
        results = [self.call(label, capsys)]
        labels = json.loads(next(tmp_path.glob("labels-*.json")).read_text())["labels"]
        usage = ["decode", "--scheme", str(tmp_path), "--x", labels[0]]
        decode = usage + ["--y", labels[5]]
        results += [self.call(usage, capsys), self.call(decode, capsys)]
        assert [code for code, _, _ in results] == [0, 2, 0]
        assert results[2][1].strip() in ("accept", "reject")
        separate = [capped_python("-c", CLI_MAIN, *argv) for argv in (label, usage, decode)]
        assert [(r.returncode, r.stdout, r.stderr) for r in separate] == results

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_zero_denominator_is_a_usage_error(self, tmp_path, capsys, flag):
        argv = ["label", "--family", "tree", "--n", "6", "--k", "1", "--eps", "1/5",
                "--out", str(tmp_path), flag, "1/0"]
        code, out, err = self.call(argv, capsys)
        assert (code, out) == (2, "")
        assert f"argument {flag}: zero denominator" in err

    def test_import_builds_no_parser(self):
        probe = "import smplab.cli as cli; print(cli._build_parser.cache_info().currsize)"
        assert capped_python("-c", probe).stdout == "0\n"


class TestWeakSearchCapacity:
    """Oversized weak XOR searches are refused before anything is built.
    They run in a child with a capped address space: code that does build
    them fails there with a MemoryError, not by exhausting the machine."""

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
    with a capped address space.  A label file's protocol params that no
    message of the file fits end in exit 2 or 3 there, before the rule's
    fields are built."""

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

    @pytest.mark.parametrize("change", [{"m": 10**12}, {"rounds": 10**12},
                                        {"k": 10**12, "rounds": 10**12}],
                             ids=["m1e12", "rounds1e12", "k1e12-rounds1e12"])
    def test_oversized_protocol_params_exit_code(self, lattice_scheme_doc, tmp_path, change):
        doc = copy.deepcopy(lattice_scheme_doc)
        doc["params"]["protocol"].update(change)
        path = tmp_path / "labels-oversized.json"
        path.write_text(json.dumps(doc))
        x, y = doc["labels"][0], doc["labels"][7]
        proc = capped_python("-c", CLI_MAIN, "decode", "--scheme", path, "--x", x, "--y", y)
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (2, 3)
        assert proc.stderr.startswith("error:" if proc.returncode == 2 else "capacity:")

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
    """A pair sample, a random source, an interval order or a document's
    vertex or element count beyond its cap ends in exit 3 before anything
    is drawn or built, in a child with a capped address space where
    building it would end in a MemoryError."""

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

    @pytest.mark.parametrize("n", [INTERVAL_ORDER_CAP + 1, 10**6])
    def test_oversized_interval_order_exit_code(self, tmp_path, n):
        proc = capped_python("-c", CLI_MAIN, "gen", "--family", "gadget:interval",
                             "--n", n, "--out", tmp_path / "g.json")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 3 and proc.stderr.startswith("capacity:")
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("family,resize,commands", [
        ("tree", lambda doc: doc["graph"].update(n=10**8), ["verify", "oracle"]),
        ("hypercube", lambda doc: doc["poset"].update(n=10**6), ["verify", "oracle"]),
        ("gadget:interval", lambda doc: doc.update(order_n=10**6), ["verify"]),
    ], ids=["graph-n", "poset-n", "order_n"])
    def test_oversized_document_exit_code(self, tmp_path, family, resize, commands):
        path = gen(tmp_path, family, 3)
        doc = json.loads(path.read_text())
        resize(doc)
        path.write_text(json.dumps(doc))
        for command in commands:
            extra = ["--query", "dist", 0, 1] if command == "oracle" else []
            proc = capped_python("-c", CLI_MAIN, command, "--instance", path, *extra)
            assert "Traceback" not in proc.stderr
            assert proc.returncode == 3 and proc.stderr.startswith("capacity:")


# -- fuzzing: every document the command line reads fails cleanly -------------


@pytest.fixture(scope="module")
def tree_scheme_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("tree-labels")
    assert run("label", "--family", "tree", "--n", 8, "--k", 2, "--eps", "1/5",
               "--out", out) == 0
    return json.loads(next(out.glob("labels-*.json")).read_text())


@functools.cache
def _instance_documents():
    """A small valid instance document of every family."""
    sizes = {"distributive": 4, "hypercube": 2, "gadget:modular": 3, "gadget:interval": 3}
    return [instance_to_json(generate(family, sizes.get(family, 5), 1)) for family in FAMILIES]


_CONFIG = {"family": "tree", "n_range": [5], "k": 1, "eps": [1, 4], "trials": 4,
           "pair_policy": "all", "master_seed": 1, "output": None, "model": "universal",
           "budget_bits": 4}


def _paths(node, path=()):
    """Every path of keys and list indices in a document, outermost first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


_RETYPED = st.sampled_from([None, "x", [], {}, 1.5, True, -1, 0, 2, [1], [1, 0], [[0, 1]]])


class TestDocumentFuzz:
    """Each document the command line reads, with one key or list entry at any
    depth dropped or retyped to a small value, ends in exit 0, 2 or 3: instance
    documents through ``verify`` and ``oracle``, label files through ``decode``
    and experiment configs through ``run``."""

    @given(st.integers(0, len(FAMILIES) + 2), st.data())
    @settings(max_examples=400, deadline=None)
    def test_damaged_document_exits_cleanly(self, tree_scheme_doc, lattice_scheme_doc,
                                            tmp_path_factory, which, data):
        docs = [*_instance_documents(), tree_scheme_doc, lattice_scheme_doc, _CONFIG]
        doc = copy.deepcopy(docs[which])
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_RETYPED)
        work = tmp_path_factory.getbasetemp() / "fuzz"
        work.mkdir(exist_ok=True)
        file = work / "doc.json"
        file.write_text(json.dumps(doc))
        if which < len(FAMILIES):
            commands = [["verify"], ["oracle", "--query", "dist", 0, 1]]
            codes = [run(command[0], "--instance", file, *command[1:]) for command in commands]
        elif which < len(docs) - 1:
            labels = docs[which]["labels"]
            codes = [run("decode", "--scheme", file, "--x", labels[0], "--y", labels[1])]
        else:
            with contextlib.chdir(work):  # a retyped "output" names a file here
                codes = [run("run", "--config", file)]
        assert set(codes) <= {0, 2, 3}
