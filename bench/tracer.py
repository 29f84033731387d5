"""Per-layer tracing of smplab from outside the package.

``Tracer.install`` replaces public functions and methods of the package's
modules with timing wrappers, and ``uninstall`` puts the originals back, so
untraced rounds run the program exactly as shipped.  A module-level function
is replaced under every name that binds it in any ``smplab`` module, because
``from .graphs import bfs_from`` copies the binding into the importer.

Each wrapped call adds to an aggregate keyed by layer name: calls, inclusive
time, self time (inclusive time minus the time of wrapped calls made inside
it) and calls that returned normally.  Hot leaves (draws, bit slices,
encoders, referees) are only aggregated.  Coarse calls (commands, pipelines,
seed banks, instance generation, realizers) are also kept as spans with
their parent, and written out when the benchmark ends.  A group records the
wall time spent inside any of its functions, counting nested calls into the
same group once.
"""

from __future__ import annotations

import sys
from time import perf_counter

# protocol short name -> (module, class, module-level decision rule or None)
PROTOCOL_LAYERS = {
    "weak": ("smplab.protocols.lattice", "WeakLatticeDistance", "weak_xor_referee"),
    "universal": ("smplab.protocols.lattice", "UniversalLatticeDistance", "parity_blocks_referee"),
    "tree": ("smplab.protocols.tree", "TreeKDistance", "window_scan_referee"),
    "planar2": ("smplab.protocols.planar", "PlanarTwoDistance", "two_hop_referee"),
    "sparse": ("smplab.protocols.arboricity", "ArboricityAdjacency", "color_slots_referee"),
    "hashed": ("smplab.protocols.hashing", "HashedAdjacency", None),
}

# (module, function, aggregate key, group or None, kept as span)
FUNCTIONS = [
    ("smplab.rng", "derive_seed", "rng.derive_seed", "rng", False),
    ("smplab.bits", "concat_all", "bits.concat_all", "bits", False),
    ("smplab.graphs", "bfs_from", "graphs.bfs", None, False),
    ("smplab.graphs", "bfs_distance", "graphs.bfs", None, False),
    ("smplab.graphs", "all_pairs_distances", "graphs.all_pairs", None, True),
    ("smplab.lattices", "boolean_lattice", "lattices.boolean_lattice", "lattices.build", True),
    ("smplab.lattices", "downset_lattice", "lattices.downset_lattice", "lattices.build", False),
    ("smplab.lattices", "build_lattice", "lattices.build_lattice", "lattices.build", False),
    ("smplab.lattices", "birkhoff", "lattices.birkhoff", None, False),
    ("smplab.planar", "triangulate", "planar.triangulate", "planar.realizer", True),
    ("smplab.planar", "schnyder_wood", "planar.schnyder_wood", "planar.realizer", True),
    ("smplab.planar", "head_to_head_closure", "planar.closure", "planar.realizer", True),
    ("smplab.lab", "generate", "lab.generate", None, True),
    ("smplab.lab", "run_experiment", "lab.run_experiment", None, True),
    ("smplab.lab", "label_pipeline", "lab.label_pipeline", None, True),
    ("smplab.universal", "newman_seed_bank", "universal.bank", None, True),
    ("smplab.universal", "bank_bad_fraction", "universal.bank_bad_fraction", None, True),
    ("smplab.universal", "derandomized_labeling", "universal.labeling", None, True),
    ("smplab.universal", "decode_labels", "universal.decode", None, False),
]

# Bits methods and their aggregate keys, all in the "bits" group
BITS_METHODS = [
    ("take", "bits.take"),
    ("concat", "bits.concat"),
    ("blocks", "bits.blocks"),
    ("unpack", "bits.unpack"),
    ("to_hex", "bits.to_hex"),
    ("from_hex", "bits.from_hex"),
    ("pack", "bits.pack"),
    ("__post_init__", "bits.construct"),
]


class Tracer:
    """Aggregates and spans for one traced stretch of the benchmark."""

    def __init__(self):
        self._undo = []
        self.stats = {}  # key -> [calls, inclusive s, self s, returned]
        self._children = []  # per open wrapped call: time of wrapped children
        self.reset()

    def reset(self):
        """Forget what was recorded; wrappers keep the same containers."""
        self.stats.clear()
        self._children.clear()
        self.groups = {}  # group -> inclusive s, nested calls counted once
        self.spans = []  # [name, start, end, parent index or -1]
        self.referee_draws = 0
        self._open_spans = []
        self._group_depth = {}
        self._group_start = {}
        self._in_referee = 0

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, key, group=None, span=False, referee=False, draw=False):
        """Time fn under key; a referee marks its extent, a draw counts in it."""
        stats = self.stats
        children = self._children
        tracer = self

        def wrapper(*args, **kwargs):
            if draw and tracer._in_referee:
                tracer.referee_draws += 1
            if group is not None:
                depth = tracer._group_depth.get(group, 0)
                tracer._group_depth[group] = depth + 1
                if depth == 0:
                    tracer._group_start[group] = perf_counter()
            if span:
                parent = tracer._open_spans[-1] if tracer._open_spans else -1
                tracer.spans.append([key, perf_counter(), None, parent])
                tracer._open_spans.append(len(tracer.spans) - 1)
            if referee:
                tracer._in_referee += 1
            children.append(0.0)
            ok = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner
                agg[3] += ok
                if referee:
                    tracer._in_referee -= 1
                if span:
                    tracer.spans[tracer._open_spans.pop()][2] = t1
                if group is not None:
                    depth = tracer._group_depth[group] - 1
                    tracer._group_depth[group] = depth
                    if depth == 0:
                        tracer.groups[group] = (
                            tracer.groups.get(group, 0.0) + t1 - tracer._group_start[group]
                        )

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "smplab" or name.startswith("smplab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original, True))

    def _set_class_attr(self, cls, attr, value):
        had_own = attr in cls.__dict__
        self._undo.append((cls, attr, cls.__dict__.get(attr), had_own))
        setattr(cls, attr, value)

    def install(self):
        """Wrap the package's public calls; the package must be imported."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = sys.modules
        rng_cls = mods["smplab.rng"].HashRandomness
        self._set_class_attr(rng_cls, "integer",
                             self._wrap(rng_cls.integer, "rng.integer", group="rng", draw=True))
        bits_cls = mods["smplab.bits"].Bits
        for method, key in BITS_METHODS:
            raw = bits_cls.__dict__[method]
            if isinstance(raw, classmethod):
                value = classmethod(self._wrap(raw.__func__, key, group="bits"))
            else:
                value = self._wrap(raw, key, group="bits")
            self._set_class_attr(bits_cls, method, value)
        for module, func, key, group, span in FUNCTIONS:
            original = getattr(mods[module], func)
            self._replace_everywhere(original, self._wrap(original, key, group, span))
        for short, (module, cls_name, rule) in PROTOCOL_LAYERS.items():
            cls = getattr(mods[module], cls_name)
            prefix = f"protocols.{short}."
            for method in ("encode", "expected"):
                self._set_class_attr(cls, method, self._wrap(getattr(cls, method), prefix + method))
            if rule is None:
                wrapped = self._wrap(cls.referee, prefix + "referee", referee=True)
                self._set_class_attr(cls, "referee", wrapped)
            else:
                original = getattr(mods[module], rule)
                wrapped = self._wrap(original, prefix + "referee", referee=True)
                self._replace_everywhere(original, wrapped)

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo = []

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "groups": dict(self.groups),
            "referee_draws": self.referee_draws,
        }


def _calls(snap, key):
    return snap["stats"].get(key, [0, 0.0, 0.0, 0])[0]


def _total(snap, key):
    return snap["stats"].get(key, [0, 0.0, 0.0, 0])[1]


def _group_self(snap, prefix):
    return sum(v[2] for k, v in snap["stats"].items() if k.startswith(prefix))


def layer_values(snap) -> dict:
    """Per-layer sums of one traced stretch, before any averaging."""
    out = {
        "rng.draws": _calls(snap, "rng.integer"),
        "rng.draw_us": _total(snap, "rng.integer") * 1e6,
        "rng.referee_draws": snap["referee_draws"],
        "rng.derive_seed_calls": _calls(snap, "rng.derive_seed"),
        "rng.self_s": _group_self(snap, "rng."),
        "bits.take_calls": _calls(snap, "bits.take"),
        "bits.take_us": _total(snap, "bits.take") * 1e6,
        "bits.pack_calls": _calls(snap, "bits.pack"),
        "bits.self_s": _group_self(snap, "bits."),
    }
    for short in PROTOCOL_LAYERS:
        prefix = f"protocols.{short}."
        out[prefix + "encode_us"] = _total(snap, prefix + "encode") * 1e6
        out[prefix + "referee_us"] = _total(snap, prefix + "referee") * 1e6
        out[prefix + "expected_us"] = _total(snap, prefix + "expected") * 1e6
        out[prefix + "referee_calls"] = _calls(snap, prefix + "referee")
    out.update({
        "graphs.bfs_calls": _calls(snap, "graphs.bfs"),
        "graphs.bfs_s": _total(snap, "graphs.bfs"),
        "graphs.all_pairs_s": _total(snap, "graphs.all_pairs"),
        "lattices.build_s": snap["groups"].get("lattices.build", 0.0),
        "lattices.birkhoff_s": _total(snap, "lattices.birkhoff"),
        "planar.realizer_s": snap["groups"].get("planar.realizer", 0.0),
        "lab.generate_s": _total(snap, "lab.generate"),
        "universal.bank_verify_s": _total(snap, "universal.bank"),
        "universal.bank_attempts": _calls(snap, "universal.bank_bad_fraction"),
        # banks returned; the harness divides it by bank_attempts
        "universal.bank_accepted": snap["stats"].get("universal.bank", [0, 0, 0, 0])[3],
        "universal.labeling_s": _total(snap, "universal.labeling"),
        "universal.decode_calls": _calls(snap, "universal.decode"),
        "universal.decode_us": _total(snap, "universal.decode") * 1e6,
        "lab.run_experiment_s": _total(snap, "lab.run_experiment"),
        "lab.label_pipeline_s": _total(snap, "lab.label_pipeline"),
    })
    return out
