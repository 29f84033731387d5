"""Command line front end: generate, run, label, decode, verify, oracle.

Every command reads and writes the package's JSON documents, so pipelines
can be driven without touching Python.  Exit codes: 0 on success, 2 when a
verification or input check fails, 3 when a size cap is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bits import Bits
from .errors import CapacityError, InputError, PreconditionError, VerificationError
from .gadgets import GadgetInstance, IntervalGtInstance, interval_gt_instance, verify_gadget
from .graphs import Graph, bfs_distance
from .lab import (
    config_from_json,
    generate,
    instance_from_json,
    instance_to_json,
    label_pipeline,
    run_experiment,
)
from .lattices import Lattice, classify, cover_graph, lattice_distance
from .planar import PlanarEmbedding, require_valid, schnyder_wood, validate_schnyder
from .universal import decode_labels, labeling_from_json


def _parse_eps(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused."""
    parser = argparse.ArgumentParser(
        prog="smplab", description="sketch experiments over structured inputs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance and write it as JSON")
    gen.add_argument("--family", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run a configured experiment sweep")
    run.add_argument("--config", required=True, help="experiment config JSON file")

    label = sub.add_parser("label", help="build and verify a label file")
    label.add_argument("--family", required=True)
    label.add_argument("--n", type=int, required=True)
    label.add_argument("--k", type=int, required=True)
    label.add_argument("--eps", type=_parse_eps, required=True)
    label.add_argument("--out", required=True, help="output directory")
    label.add_argument("--seed", type=int, default=0, help="master seed")
    label.add_argument("--delta", type=_parse_eps, default=None)

    dec = sub.add_parser("decode", help="decode two labels from a scheme file")
    dec.add_argument("--scheme", required=True, help="label file (or its directory)")
    dec.add_argument("--x", required=True, help="first label, hex")
    dec.add_argument("--y", required=True, help="second label, hex")

    ver = sub.add_parser("verify", help="re-check an instance document")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--all-props", action="store_true")

    orc = sub.add_parser("oracle", help="ground-truth queries on an instance")
    orc.add_argument("--instance", required=True)
    orc.add_argument("--query", nargs="+", required=True, metavar="Q",
                     help="dist X Y: BFS distance on the instance's graph")
    return parser


# -- per-command bodies ------------------------------------------------------


def _cmd_gen(args) -> int:
    inst = generate(args.family, args.n, args.seed)
    doc = instance_to_json(inst)
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.family} n={args.n} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    cfg = config_from_json(doc)
    report = run_experiment(cfg)
    if cfg.output:
        report.write(cfg.output)
        print(f"wrote {len(report.rows)} rows to {cfg.output}")
    else:
        sys.stdout.write(report.to_csv())
    bad = [r for r in report.rows if r["status"] != "ok"]
    for r in bad:
        print(f"note: n={r['n']}: {r['status']}", file=sys.stderr)
    return 0


def _cmd_label(args) -> int:
    report = label_pipeline(
        args.family, args.n, args.k, args.eps, args.out,
        master_seed=args.seed, delta=args.delta,
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    if report["decode_errors"]:
        raise VerificationError(f"{report['decode_errors']} pairs decode wrongly")
    return 0


def _find_scheme(path: Path) -> Path:
    if path.is_dir():
        candidates = sorted(path.glob("labels-*.json"))
        if len(candidates) != 1:
            raise InputError(
                f"{path} holds {len(candidates)} label files; pass one explicitly"
            )
        return candidates[0]
    return path


def _cmd_decode(args) -> int:
    path = _find_scheme(Path(args.scheme))
    scheme = labeling_from_json(json.loads(path.read_text()))
    try:
        lx = Bits.from_hex(args.x, scheme.label_bits)
        ly = Bits.from_hex(args.y, scheme.label_bits)
    except ValueError:
        raise InputError("labels must be hex strings") from None
    print("accept" if decode_labels(scheme, lx, ly) else "reject")
    return 0


def _verify_lattice(L: Lattice, all_props: bool) -> None:
    kind = classify(L)
    print(f"lattice ok: {L.n} elements, {kind}")
    if all_props:
        G = cover_graph(L.poset)
        import random

        rng = random.Random(0)
        for _ in range(min(64, L.n * L.n)):
            x, y = rng.randrange(L.n), rng.randrange(L.n)
            if lattice_distance(L, x, y) != bfs_distance(G, x, y):
                raise VerificationError(f"distance mismatch at pair ({x}, {y})")
        print("distance formula agrees with BFS on sampled pairs")


def _verify_embedding(emb: PlanarEmbedding, all_props: bool) -> None:
    require_valid(emb)
    print(f"embedding ok: {emb.n} vertices")
    if all_props:
        wood = schnyder_wood(emb)
        problems = validate_schnyder(emb, wood)
        if problems:
            raise VerificationError("realizer check failed: " + "; ".join(problems))
        print("realizer colors and parents check out")


def _cmd_verify(args) -> int:
    doc = json.loads(Path(args.instance).read_text())
    inst = instance_from_json(doc)
    payload = inst.payload
    if isinstance(payload, GadgetInstance):
        verify_gadget(payload)
        print(f"gadget ok: {payload.family_tag}, source n={payload.source.n}")
        if args.all_props and hasattr(payload.product, "poset"):
            _verify_lattice(payload.product, all_props=True)
    elif isinstance(payload, Lattice):
        _verify_lattice(payload, args.all_props)
    elif isinstance(payload, PlanarEmbedding):
        _verify_embedding(payload, args.all_props)
    elif isinstance(payload, IntervalGtInstance):
        fresh = interval_gt_instance(payload.n)
        if fresh.intervals != payload.intervals or fresh.graph.edges() != payload.graph.edges():
            raise VerificationError("interval instance does not match its derivation")
        print(f"interval instance ok: n={payload.n}, {payload.graph.n} vertices")
    elif isinstance(payload, Graph):
        print(f"graph ok: {payload.n} vertices, {payload.edge_count()} edges")
    else:
        raise InputError(f"nothing to verify for payload {type(payload).__name__}")
    return 0


def _oracle_graph(payload) -> Graph:
    if isinstance(payload, Lattice):
        return cover_graph(payload.poset)
    if isinstance(payload, PlanarEmbedding):
        return payload.base_graph()
    if isinstance(payload, IntervalGtInstance):
        return payload.graph
    if isinstance(payload, GadgetInstance):
        prod = payload.product
        return cover_graph(prod.poset) if hasattr(prod, "poset") else prod
    if isinstance(payload, Graph):
        return payload
    raise InputError(f"no oracle graph for payload {type(payload).__name__}")


def _cmd_oracle(args) -> int:
    doc = json.loads(Path(args.instance).read_text())
    inst = instance_from_json(doc)
    query = args.query
    if len(query) == 3 and query[0] == "dist":
        G = _oracle_graph(inst.payload)
        try:
            x, y = int(query[1]), int(query[2])
        except ValueError:
            raise InputError("dist takes two vertex ids") from None
        if not (0 <= x < G.n and 0 <= y < G.n):
            raise InputError(f"vertices must be in 0..{G.n - 1}")
        d = bfs_distance(G, x, y)
        print("inf" if d == float("inf") else int(d))
        return 0
    raise InputError(f"unknown query {query!r}; supported: dist X Y")


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "label": _cmd_label,
    "decode": _cmd_decode,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
