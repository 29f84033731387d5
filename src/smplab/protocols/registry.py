"""Name -> protocol class lookup, for rebuilding decision rules from label files.

A label file stores the protocol's ``params`` (small scalars) and nothing
else; the decoder rebuilds each seed's rule through the named class's
``rule_from_params``, so it never needs the original input.  Only classes
whose rule rebuilds from their params are listed.
"""

from __future__ import annotations

from .arboricity import ArboricityAdjacency
from .lattice import UniversalLatticeDistance, WeakLatticeDistance
from .planar import PlanarTwoDistance
from .tree import TreeKDistance

PROTOCOLS = {
    cls.name: cls
    for cls in (
        WeakLatticeDistance,
        UniversalLatticeDistance,
        TreeKDistance,
        ArboricityAdjacency,
        PlanarTwoDistance,
    )
}
