"""repro.store — durable multi-graph catalog (see ``docs/STORE.md``).

The persistence layer of the reproduction: named property graphs live
in a :class:`GraphCatalog` directory, each backed by deterministic
snapshots plus a CRC-framed append-only edit log, with single-writer
epochs, immutable reader views, and an incrementally maintained node
ANN index (:class:`NodeVectorIndex`).

Quick start::

    from repro.store import GraphCatalog
    catalog = GraphCatalog("/tmp/graphs", snapshot_every=1000)
    handle = catalog.create("social")
    handle.add_edge("ada", "bob", weight=2.0)
    view = catalog.view("social")        # shared read-only, pinned epoch
    catalog.open("social").compact()     # roll epoch, prune history
"""

from .catalog import CompactTicket, GraphCatalog, GraphHandle, GraphView
from .index import NodeVectorIndex
from .log import EditLog
from .records import OPS, apply_record, make_record
from .snapshot import graph_bytes, graph_from_bytes, graph_to_document

__all__ = [
    "EditLog",
    "CompactTicket",
    "GraphCatalog",
    "GraphHandle",
    "GraphView",
    "NodeVectorIndex",
    "OPS",
    "apply_record",
    "graph_bytes",
    "graph_from_bytes",
    "graph_to_document",
    "make_record",
]
