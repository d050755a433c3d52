"""Deterministic graph snapshots.

A snapshot is the canonical JSON serialization of a graph's full state
*in insertion order* — nodes and edges appear exactly in the order the
graph reports them.  Because replaying an edit sequence is itself
deterministic, ``materialize(snapshot) + replay(tail)`` reproduces not
just an equal graph but the *identical* iteration order, which is why
``graph_bytes`` of the two paths is bit-identical (the PR's parity
gate).
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import StoreError
from ..graphs.graph import DiGraph, Graph

SNAPSHOT_FORMAT = 1


def graph_to_document(graph: Graph) -> dict[str, Any]:
    """JSON document of ``graph`` preserving insertion order."""
    return {
        "format": SNAPSHOT_FORMAT,
        "directed": graph.directed,
        "name": graph.name,
        "nodes": [[node, dict(graph.node_attrs(node))]
                  for node in graph.nodes()],
        "edges": [[u, v, dict(graph.edge_attrs(u, v))]
                  for u, v in graph.edges()],
    }


def graph_bytes(graph: Graph) -> bytes:
    """Canonical snapshot bytes (the store's bit-identity currency)."""
    document = graph_to_document(graph)
    return (json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def graph_from_document(document: dict[str, Any]) -> Graph:
    """Materialize a snapshot document back into a graph."""
    if document.get("format") != SNAPSHOT_FORMAT:
        raise StoreError(
            f"unsupported snapshot format {document.get('format')!r}")
    directed = bool(document.get("directed", False))
    name = document.get("name", "")
    graph: Graph = DiGraph(name=name) if directed else Graph(name=name)
    try:
        for node, attrs in document["nodes"]:
            graph.add_node(_as_node(node), **attrs)
        for u, v, attrs in document["edges"]:
            graph.add_edge(_as_node(u), _as_node(v), **attrs)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed snapshot document: {exc}") from exc
    return graph


def graph_from_bytes(payload: bytes) -> Graph:
    try:
        document = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreError(f"undecodable snapshot: {exc}") from exc
    if not isinstance(document, dict):
        raise StoreError("malformed snapshot: not an object")
    return graph_from_document(document)


def _as_node(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)):
        return value
    raise StoreError(f"snapshot node id must be a JSON scalar, got "
                     f"{type(value).__name__}")
