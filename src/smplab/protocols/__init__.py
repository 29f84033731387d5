"""Simultaneous-message sketches over structured inputs."""

from .arboricity import ArboricityAdjacency
from .hashing import HashedAdjacency
from .base import (
    ACCEPT,
    REJECT,
    SmpProtocol,
    TrialResult,
    Verdict,
    beyond_verdict,
    distance_verdict,
)
from .lattice import (
    UniversalLatticeDistance,
    WeakLatticeDistance,
    universal_sketch_params,
)
from .planar import PlanarTwoDistance
from .registry import PROTOCOLS
from .tree import TreeKDistance

__all__ = [
    "ACCEPT",
    "REJECT",
    "ArboricityAdjacency",
    "HashedAdjacency",
    "PROTOCOLS",
    "PlanarTwoDistance",
    "SmpProtocol",
    "TreeKDistance",
    "TrialResult",
    "UniversalLatticeDistance",
    "Verdict",
    "WeakLatticeDistance",
    "beyond_verdict",
    "distance_verdict",
    "universal_sketch_params",
]
