"""Name -> protocol class lookup, for rebuilding decision rules from label files.

A label file stores the protocol's ``params`` (small scalars) and nothing
else; the decoder rebuilds the one rule that decides every seed's
messages through the named class's ``rule_from_params``, so it never
needs the original input or the seeds.  Only classes whose blind rule
rebuilds from their params are listed.
"""

from __future__ import annotations

from .arboricity import ArboricityAdjacency
from .lattice import UniversalLatticeDistance
from .planar import PlanarTwoDistance
from .tree import TreeKDistance

PROTOCOLS = {
    cls.name: cls
    for cls in (
        UniversalLatticeDistance,
        TreeKDistance,
        ArboricityAdjacency,
        PlanarTwoDistance,
    )
}
