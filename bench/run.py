"""Benchmark for smplab: one workload, one seed, a fixed measuring time.

Run from the root of the repository:

    python3 bench/run.py --workload lattice_trials --seed 1 --seconds 20 --trace 0

Workloads: lattice_trials, experiment_sweep, labeling (see bench/README.md).
The package is imported from ./src in this process, on one thread.  Set-up
(import, instance generation, protocol construction) runs three times, each
from a fresh import, and is reported as its median.  The measuring phase then
repeats whole rounds of the workload's fixed operations until --seconds have
passed.  Every output is checked by bench/checks.py; an operation that raises
or disagrees with a check counts as failed.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the first half of the measuring time runs untraced and the second half traced
(bench/tracer.py); the last line then holds the per-layer metrics, each the
cost of one set-up plus one round, and the tracer's overhead per round.
Reports, label files, configs, the result and the trace go to .bench_out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, set before numpy loads

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
SETUP_REPS = 3
MODULES = ("rng", "lab", "cli", "universal", "lattices", "generators", "protocols")
CLI_LAYERS = ("run", "label", "decode")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "message_bits_mean": "bits",
    "label_bits_per_log2_n": "bits",
    "peak_rss_mb": "MiB",
}


def fresh_import():
    """Import smplab anew, dropping any earlier import, and return its modules."""
    for name in [m for m in sys.modules if m == "smplab" or m.startswith("smplab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"smplab.{m}") for m in MODULES})


def set_up(workload, tracer):
    """SETUP_REPS timed set-ups; the last one traced when a tracer is given."""
    times = []
    for rep in range(SETUP_REPS):
        traced = tracer is not None and rep == SETUP_REPS - 1
        t0 = perf_counter()
        sm = fresh_import()
        if traced:
            tracer.install()
        try:
            workload.setup(sm)
        finally:
            if traced:
                tracer.uninstall()
        times.append(perf_counter() - t0)
    return times


def run_rounds(workload, ledger, first, until, tracer=None):
    """Whole rounds from number `first` until the clock passes `until`."""
    summaries = []
    r = first
    while True:
        if tracer is not None:
            tracer.install()
        try:
            work = workload.run_round(r)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check_round(r, work, ledger)
        summaries.append({k: v for k, v in work.items() if not isinstance(v, (list, dict))})
        r += 1
        if perf_counter() >= until:
            return summaries, r


def end_to_end(setup_times, rounds, sizes):
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(w["prog_s"] for w in rounds),
        "trials_per_s": statistics.median(w["verdicts"] / w["verdict_s"] for w in rounds),
        "message_bits_mean": sizes["message_bits_mean"],
        "label_bits_per_log2_n": sizes["label_bits_per_log2_n"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer_mod, setup_snap, round_snap, traced, plain):
    """One set-up plus one traced round, per layer; and the tracing overhead."""
    once = tracer_mod.layer_values(setup_snap)
    total = tracer_mod.layer_values(round_snap)
    n = len(traced)
    out = {name: once[name] + total[name] / n for name in once}
    accepted = out.pop("universal.bank_accepted")
    attempts = out["universal.bank_attempts"]
    out["universal.bank_accept_ratio"] = accepted / attempts if attempts else 0.0
    for cmd in CLI_LAYERS:
        out[f"cli.{cmd}_s"] = sum(w.get(f"cli_{cmd}_s", 0.0) for w in traced) / n
    out["cli.bytes_written"] = sum(w.get("bytes_written", 0) for w in traced) / n
    out["trace.overhead_s"] = (statistics.median(w["prog_s"] for w in traced)
                               - statistics.median(w["prog_s"] for w in plain))
    return out


def per_layer_units(names):
    units = {}
    for name in names:
        if name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("bytes_written"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice_trials", "experiment_sweep", "labeling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "smplab" / "__init__.py").is_file():
        print(f"error: no smplab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import tracer as tracer_mod
    from workloads import WORKLOADS, Ledger

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracer_mod.Tracer() if args.trace else None

    setup_times = set_up(workload, tracer)
    if tracer is not None:
        setup_snap = tracer.snapshot()
        setup_spans = tracer.spans
        tracer.reset()
    workload.prepare()

    ledger = Ledger()
    start = perf_counter()
    if tracer is None:
        rounds, count = run_rounds(workload, ledger, 0, start + args.seconds)
    else:
        plain, count = run_rounds(workload, ledger, 0, start + args.seconds / 2)
        traced, count = run_rounds(workload, ledger, count, start + args.seconds, tracer)
        rounds = plain + traced
    sizes = workload.finish(ledger, count)

    if tracer is None:
        metrics = end_to_end(setup_times, rounds, sizes)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(tracer_mod, setup_snap, tracer.snapshot(), traced, plain)
        units = per_layer_units(metrics)

    print(f"# workload {args.workload}, seed {args.seed}, {count} rounds in "
          f"{perf_counter() - start:.1f} s, trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in sizes["detail"].items():
        print(f"# {name}: {value}")
    for path, digest in sorted(sizes["digests"].items()):
        print(f"# sha256 {digest}  {path}")
    print(f"# attempted {ledger.attempted}, failed {ledger.failed}")
    for note in ledger.notes:
        print(f"# FAILED: {note}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        trace_doc = {"setup": {"aggregates": setup_snap, "spans": setup_spans},
                     "rounds": {"count": len(traced), "aggregates": tracer.snapshot(),
                                "spans": tracer.spans}}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_doc) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
