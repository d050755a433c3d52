"""Deterministic graph snapshots.

A snapshot is :func:`~repro.graphs.io.to_document` plus ``"format":
1``, as canonical JSON, so it lists nodes and edges *in insertion
order*.  Replaying an edit sequence is deterministic too, so
``materialize(snapshot) + replay(tail)`` reproduces the *identical*
iteration order, and ``graph_bytes`` of the two paths is bit-identical
(the store's parity gate).
"""

from __future__ import annotations

import json

from ..errors import GraphIOError, StoreError
from ..graphs.graph import Graph
from ..graphs.io import from_document, to_document

SNAPSHOT_FORMAT = 1


def graph_bytes(graph: Graph) -> bytes:
    """Canonical snapshot bytes (the store's bit-identity currency)."""
    document = {**to_document(graph), "format": SNAPSHOT_FORMAT}
    return (json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def graph_from_bytes(payload: bytes) -> Graph:
    """Materialize :func:`graph_bytes` back into a graph."""
    try:
        document = json.loads(payload.decode("utf-8"))
        if document.get("format") != SNAPSHOT_FORMAT:
            raise StoreError(
                f"unsupported snapshot format {document.get('format')!r}")
        return from_document(document)
    except (ValueError, AttributeError, GraphIOError) as exc:
        raise StoreError(f"malformed snapshot: {exc}") from exc
