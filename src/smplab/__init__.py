"""Constant-size simultaneous-message sketches over structured inputs.

The package splits into layers:

* combinatorial substrates: ``graphs``, ``lattices``, ``planar``,
  ``generators``;
* randomized sketches over them: ``protocols`` (lattice distance, tree
  distance, sparse adjacency, planar distance-2, budgeted hashing);
* model plumbing: ``universal`` (seed banks, derandomized labelings)
  and ``rng``;
* hardness reductions: ``gadgets``;
* experiment drivers: ``lab`` and the ``smplab`` command line.
"""

from .bits import Bits
from .errors import (
    CapacityError,
    InputError,
    NotALatticeError,
    PreconditionError,
    VerificationError,
)
from .gadgets import (
    arboricity2_gadget,
    all_graphs_instance,
    interval_gt_instance,
    modular_gadget,
    verify_gadget,
)
from .generators import (
    random_downset_lattice,
    random_tree,
    stacked_triangulation,
    union_of_two_trees,
)
from .graphs import (
    Graph,
    VertexMap,
    all_pairs_distances,
    bfs_distance,
    degeneracy,
    k_closure,
    twin_reduction,
)
from .lab import ExperimentConfig, generate, label_pipeline, run_experiment
from .lattices import (
    Lattice,
    Poset,
    birkhoff,
    boolean_lattice,
    build_lattice,
    classify,
    cover_graph,
    downset_lattice,
    lattice_distance,
)
from .planar import (
    PlanarEmbedding,
    head_to_head_closure,
    schnyder_wood,
    split_graph,
    validate_embedding,
)
from .protocols import (
    ArboricityAdjacency,
    HashedAdjacency,
    PlanarTwoDistance,
    TreeKDistance,
    UniversalLatticeDistance,
    WeakLatticeDistance,
)
from .rng import HashRandomness, derive_seed
from .universal import (
    decode_labels,
    derandomized_labeling,
    newman_seed_bank,
)

__version__ = "0.1.0"

__all__ = [
    "ArboricityAdjacency",
    "Bits",
    "CapacityError",
    "ExperimentConfig",
    "Graph",
    "HashRandomness",
    "HashedAdjacency",
    "InputError",
    "Lattice",
    "NotALatticeError",
    "PlanarEmbedding",
    "PlanarTwoDistance",
    "Poset",
    "PreconditionError",
    "TreeKDistance",
    "UniversalLatticeDistance",
    "VerificationError",
    "VertexMap",
    "WeakLatticeDistance",
    "all_graphs_instance",
    "all_pairs_distances",
    "arboricity2_gadget",
    "bfs_distance",
    "birkhoff",
    "boolean_lattice",
    "build_lattice",
    "classify",
    "cover_graph",
    "decode_labels",
    "degeneracy",
    "derandomized_labeling",
    "derive_seed",
    "downset_lattice",
    "generate",
    "head_to_head_closure",
    "interval_gt_instance",
    "k_closure",
    "label_pipeline",
    "lattice_distance",
    "modular_gadget",
    "newman_seed_bank",
    "random_downset_lattice",
    "random_tree",
    "run_experiment",
    "schnyder_wood",
    "split_graph",
    "stacked_triangulation",
    "twin_reduction",
    "union_of_two_trees",
    "validate_embedding",
    "verify_gadget",
]
