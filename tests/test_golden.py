"""Golden outputs: label files and experiment reports pinned by SHA-256.

Two runs of the same code agreeing says nothing about a change to the
random stream, the encoders or the JSON layout; these digests were made
once and stored, so any such change shows here.  Re-make them only for a
deliberate format change, with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from smplab.bits import Bits
from smplab.lab import config_from_json, label_pipeline, run_experiment
from smplab.lattices import boolean_lattice
from smplab.protocols import WeakLatticeDistance
from smplab.universal import (
    decode_labels,
    derandomized_labeling,
    labeling_from_json,
    labeling_to_json,
    newman_seed_bank,
)

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
MASTER = 20191108
EPS = Fraction(1, 5)
LABEL_CASES = [
    # (family, n, k)
    ("tree", 8, 2),
    ("planar2", 8, 2),
    ("arboricity", 12, 1),
    ("hypercube", 4, 1),
]
EXPERIMENT = {"family": "tree", "n_range": [10, 14], "k": 2, "eps": [1, 4],
              "trials": 40, "master_seed": MASTER}
# the hashed-adjacency referee reads the shared draws; the report goes out as CSV
HASHED_EXPERIMENT = {"family": "gadget:allgraphs", "n_range": [6, 8], "k": 1,
                     "trials": 60, "budget_bits": 3, "master_seed": MASTER}
# experiment reports pinned as JSON, one per stratum path:
#   planar2 over every pair, arboricity over a sampled pair set, the weak
#   lattice sketch (its rule reads each trial's draws), and an arboricity-2
#   gadget whose oracle graph is disconnected (unreachable pairs in "beyond")
REPORT_CASES = {
    "experiment-planar2.json": {"family": "planar2", "n_range": [8, 16], "eps": [1, 4],
                                "trials": 40, "master_seed": MASTER},
    "experiment-arboricity-sampled.json": {"family": "arboricity", "n_range": [20, 40],
                                           "pair_policy": "sampled:60", "trials": 40,
                                           "master_seed": MASTER},
    "experiment-hypercube-weak.json": {"family": "hypercube", "n_range": [3], "k": 1,
                                       "eps": [1, 4], "model": "weak", "trials": 30,
                                       "master_seed": MASTER},
    "experiment-arboricity2-gadget.json": {"family": "gadget:arboricity2", "n_range": [5, 6],
                                           "trials": 40, "master_seed": MASTER},
    # the weak sketch at k = 3 on both word widths of its XOR search:
    # m = 200, q = 24 (32-bit) and m = 1000, q = 33 (64-bit); both beyond
    # strata hold false accepts
    "experiment-hypercube-weak-k3-q24.json": {"family": "hypercube", "n_range": [5], "k": 3,
                                              "eps": [1, 8], "model": "weak", "trials": 40,
                                              "master_seed": MASTER},
    "experiment-hypercube-weak-k3-q33.json": {"family": "hypercube", "n_range": [5], "k": 3,
                                              "eps": [1, 40], "model": "weak", "trials": 20,
                                              "master_seed": MASTER},
    # blind rules over every pair, each near stratum holding more pairs than
    # trials: the strata search, each stratum's decide and its equal-input
    # trials (the distance-0 stratum)
    "experiment-tree-n60-all.json": {"family": "tree", "n_range": [60], "k": 2, "eps": [1, 4],
                                     "trials": 36, "master_seed": MASTER},
    "experiment-planar2-n40-all.json": {"family": "planar2", "n_range": [40], "eps": [1, 4],
                                        "trials": 30, "master_seed": MASTER},
    "experiment-arboricity-n60-all.json": {"family": "arboricity", "n_range": [60],
                                           "eps": [1, 4], "trials": 48,
                                           "master_seed": MASTER},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def label_file(family, n, k, out_dir) -> Path:
    report = label_pipeline(family, n, k, EPS, out_dir, master_seed=MASTER)
    assert report["decode_errors"] == 0
    return Path(report["path"])


def label_digest(family, n, k, out_dir) -> str:
    return _sha256(label_file(family, n, k, out_dir).read_bytes())


def weak_labeling():
    """A weak-lattice labeling, whose file stores its bank seeds.

    ``label_pipeline`` labels lattices with the universal sketch only, so
    this one is made by ``derandomized_labeling`` directly.
    """
    proto = WeakLatticeDistance(boolean_lattice(3), 2, EPS)
    bank = newman_seed_bank(proto, range(8), EPS, EPS, MASTER)
    return derandomized_labeling(proto, range(8), bank)


def weak_label_digest() -> str:
    """The weak labeling serialized the way the pipeline writes its files."""
    return _sha256((json.dumps(labeling_to_json(weak_labeling()), sort_keys=True, indent=2)
                    + "\n").encode())


def decode_digest(scheme) -> str:
    """The '1'/'0' verdicts of every ordered pair over the scheme's labels
    and four stranger labels drawn from ``random.Random(MASTER)``.  The
    label run's own check decodes only pairs of scheme labels; this one
    pins the strangers too."""
    rng = random.Random(MASTER)
    bits = scheme.label_bits
    labels = list(scheme.labels) + [Bits(rng.getrandbits(bits), bits) for _ in range(4)]
    return _sha256("".join("1" if decode_labels(scheme, lx, ly) else "0"
                           for lx in labels for ly in labels).encode())


def file_decode_digest(family, n, k, out_dir) -> str:
    """``decode_digest`` of a label file as read back."""
    doc = json.loads(label_file(family, n, k, out_dir).read_text())
    return decode_digest(labeling_from_json(doc))


def experiment_digest() -> str:
    return _sha256(run_experiment(config_from_json(EXPERIMENT)).to_json().encode())


def hashed_csv_digest() -> str:
    return _sha256(run_experiment(config_from_json(HASHED_EXPERIMENT)).to_csv().encode())


def report_digest(doc) -> str:
    return _sha256(run_experiment(config_from_json(doc)).to_json().encode())


def _stored() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family,n,k", LABEL_CASES)
def test_label_file_digest(family, n, k, tmp_path):
    key = f"labels-{family}-n{n}-k{k}.json"
    assert label_digest(family, n, k, tmp_path) == _stored()[key]


def test_weak_label_file_digest():
    assert weak_label_digest() == _stored()["labels-weak-boolean3-k2.json"]


@pytest.mark.parametrize("family,n,k", LABEL_CASES)
def test_label_file_decode_digest(family, n, k, tmp_path):
    key = f"decode-{family}-n{n}-k{k}"
    assert file_decode_digest(family, n, k, tmp_path) == _stored()[key]


def test_weak_labeling_decode_digest():
    assert decode_digest(weak_labeling()) == _stored()["decode-weak-boolean3-k2"]


def test_experiment_report_digest():
    assert experiment_digest() == _stored()["experiment-tree.json"]


def test_hashed_experiment_csv_digest():
    assert hashed_csv_digest() == _stored()["experiment-allgraphs.csv"]


@pytest.mark.parametrize("key", sorted(REPORT_CASES))
def test_experiment_report_case_digest(key):
    assert report_digest(REPORT_CASES[key]) == _stored()[key]


def _write(out_dir: Path) -> None:
    digests = {f"labels-{f}-n{n}-k{k}.json": label_digest(f, n, k, out_dir)
               for f, n, k in LABEL_CASES}
    digests["labels-weak-boolean3-k2.json"] = weak_label_digest()
    digests.update((f"decode-{f}-n{n}-k{k}", file_decode_digest(f, n, k, out_dir))
                   for f, n, k in LABEL_CASES)
    digests["decode-weak-boolean3-k2"] = decode_digest(weak_labeling())
    digests["experiment-tree.json"] = experiment_digest()
    digests["experiment-allgraphs.csv"] = hashed_csv_digest()
    digests.update((key, report_digest(doc)) for key, doc in REPORT_CASES.items())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp))
    print(GOLDEN.read_text(), end="")
