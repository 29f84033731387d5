"""Name -> protocol class lookup, for rebuilding referees from documents.

A serialized labeling or experiment stores ``params`` (small scalars) and a
``payload`` (the combinatorial structure).  Reconstruction goes through the
class's ``from_payload`` so a decoder never needs the original process.
"""

from __future__ import annotations

from ..errors import InputError, PreconditionError
from .arboricity import ArboricityAdjacency
from .hashing import HashedAdjacency
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
        HashedAdjacency,
    )
}


def protocol_from_document(doc: dict):
    try:
        params, payload = doc["params"], doc["payload"]
    except (TypeError, KeyError):
        raise InputError("protocol document needs 'params' and 'payload'") from None
    if not (isinstance(params, dict) and isinstance(payload, dict)):
        raise InputError("protocol 'params' and 'payload' must be objects")
    name = params.get("name")
    if not isinstance(name, str) or name not in PROTOCOLS:
        raise InputError(f"unknown protocol {name!r}")
    try:
        return PROTOCOLS[name].from_payload(params, payload)
    except PreconditionError as exc:  # say, a stored poset that is no lattice
        raise InputError(f"{name} document: {exc}") from None


def protocol_to_document(protocol) -> dict:
    return {"params": protocol.params(), "payload": protocol.to_payload()}
