"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Each case feeds a checker a right answer, which it must pass, and a
deliberately wrong verdict, pair count or width, which it must flag.  The
workload checks are driven with hand-made outputs, so no program run is
needed; one case compares the rebuilt draw stream with smplab's own.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def helpers():
    path = checks.hop_distances(4, [(0, 1), (1, 2), (2, 3)])
    expect(path[0, 3] == 3 and path[3, 1] == 2, "BFS distances on a path")
    split = checks.hop_distances(3, [(0, 1)])
    expect(split[0, 2] == checks.UNREACHABLE, "BFS marks an unreachable vertex")

    vecs = [1, 2, 4, 8]
    expect(checks.xor_of_at_most(1 ^ 2 ^ 4, vecs, 3), "XOR search finds a 3-set")
    expect(not checks.xor_of_at_most(1 ^ 2 ^ 4, vecs, 2), "XOR search flags an accept of a 3-set at k=2")
    expect(checks.xor_of_at_most(0, vecs, 1), "XOR search accepts equal messages")
    expect(checks.blocks_within(0b0011_0000, 0b0000_0001, 4, 2, 2), "parity rule accepts weight 2")
    expect(not checks.blocks_within(0b0111_0000, 0, 4, 2, 2), "parity rule flags a block of weight 3")

    eighth = Fraction(1, 8)
    expect(checks.weak_lattice_params(1, eighth) == (72, 10), "weak lattice m, q at k=1")
    expect(checks.universal_lattice_params(3, Fraction(1, 3)) == (38, 1), "universal m, rounds at k=3")
    expect(checks.tree_width(3, eighth) == 40 and checks.tree_width(3, eighth) != 41,
           "tree width 40 at k=3, eps 1/8; 41 flagged")
    expect(checks.planar2_width(Fraction(1, 5)) == 279, "planar width at eps 1/5")
    expect(checks.sparse_width(3, eighth) == 24, "sparse width at outdegree 3")
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    expect(checks.degeneracy(4, k4) == 3 and checks.degeneracy(4, [(0, 1), (1, 2), (1, 3)]) == 1,
           "degeneracy of K4 and of a tree")
    expect(checks.bank_size(16, Fraction(1, 5), Fraction(1, 5)) == 84, "Newman bank size at n=16")
    expect(checks.hashed_union_bound(2, [(0, 1)], [0, 1], 1) == 1, "hashed bound caps at 1")

    expect(checks.rate_within(0, 100, Fraction(0)), "no error under a zero bound")
    expect(not checks.rate_within(1, 100, Fraction(0)), "one error under a zero bound is flagged")
    expect(checks.rate_within(12, 100, eighth), "12/100 fits 1/8")
    expect(not checks.rate_within(40, 100, eighth), "40/100 over 1/8 is flagged")


def draw_stream():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from smplab.rng import HashRandomness
    except ImportError:
        expect(False, "smplab importable from src/ for the draw-stream case")
        return
    rnd = HashRandomness(12345)
    labels = [(("s", 3), 1 << 10), (("idx", 0, 7), 38), (("c", 5), 49)]
    expect(all(checks.draw(12345, lab, n) == rnd.integer(lab, n) for lab, n in labels),
           "rebuilt draws equal HashRandomness draws")


def fake_trial(a, b, width, verdict, expected):
    return SimpleNamespace(
        message_a=SimpleNamespace(value=a, length=width),
        message_b=SimpleNamespace(value=b, length=width),
        verdict=SimpleNamespace(kind=verdict),
        expected=SimpleNamespace(kind=expected),
    )


def lattice_checks():
    wl = workloads.LatticeTrials(0, None)
    wl.plan = [(("L", 1, "universal"), 0, 1, 1)]
    wl.width = {("universal", 1): 14}
    wl.far, wl.bits = {}, [0, 0]

    def run(trial):
        ledger = workloads.Ledger()
        wl.check_round(1, {"results": [(7, trial)]}, ledger)
        return ledger.failed

    expect(run(fake_trial(0b1, 0, 14, "accept", "accept")) == 0, "lattice check passes a right trial")
    expect(run(fake_trial(0b1, 0, 14, "reject", "accept")) == 1, "lattice check flags a rejected near pair")
    expect(run(fake_trial(0b11, 0, 14, "accept", "accept")) == 1,
           "lattice check flags a verdict the parity rule contradicts")
    expect(run(fake_trial(0b1, 0, 15, "accept", "accept")) == 1, "lattice check flags a wrong width")
    expect(run(RuntimeError("raised in the program")) == 1, "lattice check fails a raising trial")


def sweep_checks(tmp):
    wl = workloads.ExperimentSweep(0, tmp)
    wl.digests = {}
    exp = {"labels": ["0", "1", "beyond"], "pairs": {"0": 3, "1": 2, "beyond": 1},
           "bounds": {"0": Fraction(0), "1": Fraction(0), "beyond": Fraction(1, 8)},
           "width": 24, "trials": 100, "output": tmp / "report.json"}

    def row(stratum, pairs, errors=0, bits="24"):
        return {"stratum": stratum, "status": "ok", "pairs": pairs, "trials": 100,
                "errors": errors, "bound": str(exp["bounds"][stratum]),
                "mean_bits": bits, "formula_bits": bits}

    def problems(rows):
        wl.digests = {}
        exp["output"].write_text(json.dumps({"rows": rows}))
        return wl._check_report("fake", exp, 0)

    good = [row("0", 3), row("1", 2), row("beyond", 1, errors=5)]
    expect(not problems(good), "sweep check passes a right report")
    expect(problems([row("0", 4), row("1", 2), row("beyond", 1)]) != [],
           "sweep check flags a wrong pair count")
    expect(problems([row("0", 3), row("1", 2, errors=1), row("beyond", 1)]) != [],
           "sweep check flags an error on a one-sided near stratum")
    expect(problems([row("0", 3), row("1", 2), row("beyond", 1, bits="25")]) != [],
           "sweep check flags a wrong width")
    expect(problems([row("0", 3), row("1", 2), row("beyond", 1, errors=60)]) != [],
           "sweep check flags a far rate over its bound")


def labeling_checks(tmp):
    wl = workloads.Labeling(0, tmp)
    wl.digests = {}
    path = tmp / "labels.json"
    path.write_text("{}")
    truth = checks.hop_distances(2, [(0, 1)]) <= 0  # threshold 0: only x == y
    exp = {"tag": "fake", "path": path, "universe": 2, "truth": truth,
           "sample": [(0, 0), (0, 1)], "width": 23, "bank": 63}
    wl.expect = [exp]
    report = {"universe": 2, "bank_seeds": 63, "message_bits": 23,
              "label_bits": 63 * 23, "decode_errors": 0}

    def failed(report, got, cli_out):
        ledger = workloads.Ledger()
        work = {"builds": [(0, json.dumps(report), "", 0.0)],
                "decodes": [(got, [(0, out, "", 0.0) for out in cli_out])]}
        wl.check_round(0, work, ledger)
        return ledger.failed

    right = ([[True, False], [True]], ["accept\n", "reject\n"])
    expect(failed(report, *right) == 0, "labeling check passes right decodes")
    expect(failed(report, [[True, True], [True]], right[1]) == 1,
           "labeling check flags a wrong decoded verdict")
    expect(failed(report, right[0], ["accept\n", "accept\n"]) == 1,
           "labeling check flags a wrong smplab decode answer")
    expect(failed(dict(report, bank_seeds=64), *right) == 1, "labeling check flags a wrong bank size")
    expect(failed(dict(report, message_bits=24), *right) == 1, "labeling check flags a wrong width")


def main() -> int:
    tmp = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    helpers()
    draw_stream()
    lattice_checks()
    sweep_checks(tmp)
    labeling_checks(tmp)
    print(f"{len(FAILURES)} of the cases failed" if FAILURES else "all checker cases behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
