"""Graph serialization: edge lists, adjacency mappings and JSON documents.

These formats back the "upload a graph" slot of the chat session: users
paste an edge-list text or a JSON document, and the session parses it
into a :class:`~repro.graphs.graph.Graph`.

The JSON document (:func:`to_document` / :func:`from_document`) is the
one graph document of the package: the shard wire, CLI and session
files, the ``export_graph`` answer and the store's snapshots use it::

    {"directed": bool, "name": str,
     "nodes": [[id, {attrs}], ...], "edges": [[u, v, {attrs}], ...]}

Rows are positional and in insertion order, so every attribute name
round-trips, and a JSON array in an id position decodes to a tuple (a
list is unhashable, so never a node id).  :func:`to_dict` /
:func:`from_dict` are the keyed layout the ledger benchmark stores its
graphs in, ``{"id": id, **attrs}`` / ``{"source": u, "target": v,
**attrs}``; :func:`to_dict` refuses an attribute a key would replace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import GraphError, GraphIOError
from .graph import DiGraph, Graph, Node


def to_edgelist(graph: Graph) -> list[tuple[Node, Node]]:
    """Return the list of edges of ``graph``."""
    return list(graph.edges())


def from_edgelist(edges: Iterable[tuple[Node, Node]],
                  directed: bool = False) -> Graph:
    """Build a graph from ``(u, v)`` pairs."""
    graph: Graph = DiGraph() if directed else Graph()
    graph.add_edges(edges)
    return graph


def parse_edgelist_text(text: str, directed: bool = False) -> Graph:
    """Parse a whitespace-separated edge-list text.

    Each non-empty, non-comment (``#``) line is ``u v [key=value ...]``.
    Node tokens are kept as strings; attribute values are parsed as JSON
    scalars when possible, else kept as strings.
    """
    graph: Graph = DiGraph() if directed else Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            graph.add_node(tokens[0])
            continue
        u, v, *rest = tokens
        attrs = {}
        for item in rest:
            key, sep, value = item.partition("=")
            if not sep:
                raise GraphIOError(
                    f"line {lineno}: expected key=value, got {item!r}")
            attrs[key] = _parse_scalar(value)
        graph.add_edge(u, v, **attrs)
    return graph


def _parse_scalar(token: str) -> Any:
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def read_edgelist(path: str | Path, directed: bool = False) -> Graph:
    """Read an edge-list file (see :func:`parse_edgelist_text`)."""
    with open(path, encoding="utf-8") as handle:
        return parse_edgelist_text(handle.read(), directed=directed)


def write_edgelist(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` as an edge-list file with JSON-encoded attributes."""
    with open(path, "w", encoding="utf-8") as handle:
        for node in graph.nodes():
            if graph.degree(node) == 0:
                handle.write(f"{node}\n")
        for u, v in graph.edges():
            parts = [str(u), str(v)]
            for key, value in graph.edge_attrs(u, v).items():
                parts.append(f"{key}={_dump_scalar(value)}")
            handle.write(" ".join(parts) + "\n")


def _dump_scalar(value: Any) -> str:
    """JSON-encode an attribute value as one whitespace-free token.

    The edge-list grammar splits lines on whitespace, so any space in
    the encoded value would break the token apart.  In compact JSON,
    spaces can only occur inside string literals, where the ``\\u0020``
    escape is the same character — so the replacement below keeps the
    token whitespace-free while :func:`json.loads` restores the value
    exactly (tabs/newlines are already escaped by ``json.dumps``).
    """
    return json.dumps(value, separators=(",", ":")).replace(" ", "\\u0020")


def to_adjacency(graph: Graph) -> dict[Node, list[Node]]:
    """Return an adjacency mapping ``node -> sorted neighbor list``."""
    adjacency: dict[Node, list[Node]] = {}
    step = (graph.successors if isinstance(graph, DiGraph)
            else graph.neighbors)
    for node in graph.nodes():
        adjacency[node] = sorted(step(node), key=repr)
    return adjacency


def from_adjacency(adjacency: Mapping[Node, Iterable[Node]],
                   directed: bool = False) -> Graph:
    """Build a graph from an adjacency mapping."""
    graph: Graph = DiGraph() if directed else Graph()
    for node, neighbors in adjacency.items():
        graph.add_node(node)
        for neighbor in neighbors:
            graph.add_edge(node, neighbor)
    return graph


def to_document(graph: Graph) -> dict[str, Any]:
    """The JSON-able document of ``graph`` (format in the module
    docstring), nodes and edges in insertion order."""
    return {
        "directed": graph.directed,
        "name": graph.name,
        "nodes": [[node, dict(attrs)] for node, attrs
                  in zip(graph.nodes(), graph.node_attr_dicts())],
        "edges": [[u, v, dict(graph.edge_attrs(u, v))]
                  for u, v in graph.edges()],
    }


def to_dict(graph: Graph) -> dict[str, Any]:
    """``graph`` in the keyed layout (see the module docstring)."""
    if ("id" in set().union(*graph.node_attr_dicts())
            or {"source", "target"} & graph.edge_attr_keys()):
        raise GraphIOError("an attribute would replace a key of the keyed "
                           "layout; use to_document")
    return {
        "directed": graph.directed,
        "name": graph.name,
        "nodes": [{"id": node, **attrs} for node, attrs
                  in zip(graph.nodes(), graph.node_attr_dicts())],
        "edges": [{"source": u, "target": v, **graph.edge_attrs(u, v)}
                  for u, v in graph.edges()],
    }


def fingerprint(graph: Graph) -> str:
    """Stable content hash of ``graph`` (hex digest).

    Two graphs with the same name, directedness, nodes, edges and
    attributes hash identically — regardless of insertion order, and of
    which endpoint ``edges()`` reports an undirected edge from (that
    follows node insertion order, so each one is oriented by its
    endpoints' canonical JSON first).
    """
    ids = {node: _canonical(node) for node in graph.nodes()}
    nodes = sorted(f"[{ids[node]}, {_canonical(dict(attrs))}]"
                   for node, attrs in zip(ids, graph.node_attr_dicts()))
    edges = []
    for u, v in graph.edges():
        first, second = ids[u], ids[v]
        if not graph.directed and second < first:
            first, second = second, first
        edges.append(
            f"[{first}, {second}, "
            f"{_canonical(dict(graph.edge_attrs(u, v)))}]")
    edges.sort()
    document = (f"[{_canonical(graph.directed)}, {_canonical(graph.name)}, "
                f"[{', '.join(nodes)}], [{', '.join(edges)}]]")
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> str:
    """One JSON text per value: keys sorted, non-JSON values by repr."""
    return json.dumps(value, sort_keys=True, default=repr)


def from_document(document: Mapping[str, Any]) -> Graph:
    """Rebuild the graph of a :func:`to_document` document, in its
    order (raises :class:`GraphIOError` on a malformed one)."""
    try:
        name = document.get("name", "")
        graph: Graph = (DiGraph(name=name) if document.get("directed")
                        else Graph(name=name))
        for node, attrs in document.get("nodes", ()):
            graph.add_node(_as_id(node), **attrs)
        for u, v, attrs in document.get("edges", ()):
            graph.add_edge(_as_id(u), _as_id(v), **attrs)
    except (TypeError, ValueError, AttributeError, GraphError) as exc:
        raise GraphIOError(f"malformed graph document: {exc}") from exc
    return graph


def from_dict(data: Mapping[str, Any]) -> Graph:
    """Rebuild the graph of a :func:`to_dict` document, in its order
    (raises :class:`GraphIOError` on a malformed one)."""
    try:
        nodes = [[row["id"], _without(row, "id")]
                 for row in data.get("nodes", ())]
        edges = [[row["source"], row["target"],
                  _without(row, "source", "target")]
                 for row in data.get("edges", ())]
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphIOError(f"malformed graph document: {exc}") from exc
    return from_document({**data, "nodes": nodes, "edges": edges})


def _without(row: Mapping[str, Any], *keys: str) -> dict[str, Any]:
    return {key: value for key, value in row.items() if key not in keys}


def _as_id(value: Any) -> Any:
    """A decoded id: JSON arrays (never hashable) back to tuples."""
    if isinstance(value, list):
        return tuple(map(_as_id, value))
    return value
