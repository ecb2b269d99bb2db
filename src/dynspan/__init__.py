"""Dynamic graph spanner toolkit.

Maintains (2k-1)- and 3-spanners of a fixed-vertex-set graph under edge
insertions and deletions, drives them with scripted and adaptive update
streams, and verifies stretch/size/girth/recourse claims online.
"""

from dynspan.graph import (
    DELETE,
    INSERT,
    DuplicateEdge,
    DynamicGraph,
    EdgeExists,
    EdgeMissing,
    SelfLoop,
    UpdateEvent,
    VertexOutOfRange,
    edge_key,
)
from dynspan.instrumentation import OpCounter

__version__ = "0.1.0"

__all__ = [
    "DELETE",
    "INSERT",
    "DuplicateEdge",
    "DynamicGraph",
    "EdgeExists",
    "EdgeMissing",
    "OpCounter",
    "SelfLoop",
    "UpdateEvent",
    "VertexOutOfRange",
    "edge_key",
]
