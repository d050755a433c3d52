"""GraphML-lite serialization (interoperability with graph tooling).

Writes/reads a strict subset of GraphML: one ``<graph>``, node/edge
elements with ``<data>`` children, and a key table typed ``string`` /
``int`` / ``double`` / ``boolean`` — plus a ``json`` extension type
carrying lists, dicts and ``None`` as JSON text, so every attribute
value the :mod:`repro.store` edit log accepts survives a GraphML round
trip.  A key used with conflicting value types across elements widens
to ``json``, which preserves each value's original type.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any

from ..errors import GraphIOError
from .graph import DiGraph, Graph

_NS = "http://graphml.graphdrawing.org/xmlns"

_PARSERS = {
    "string": str,
    "int": int,
    "long": int,
    "double": float,
    "float": float,
    "boolean": lambda text: text.strip().lower() == "true",
    "json": json.loads,
}


def _attr_type(value: Any) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, str):
        return "string"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    if value is None or isinstance(value, (list, dict)):
        return "json"
    raise GraphIOError(
        f"GraphML supports JSON-encodable attributes only, got "
        f"{type(value)}")


def _register(keys: dict[tuple[str, str], str], domain: str, name: str,
              value: Any) -> None:
    """Record ``name``'s type; conflicting types widen to ``json``."""
    type_name = _attr_type(value)
    previous = keys.get((domain, name))
    if previous is not None and previous != type_name:
        type_name = "json"
    keys[(domain, name)] = type_name


def _encode(value: Any, type_name: str) -> str:
    """The ``<data>`` text for ``value`` under the key's final type."""
    if type_name == "json":
        return json.dumps(value, sort_keys=True)
    return str(value)


def write_graphml(graph: Graph, path: str | Path) -> None:
    """Serialize ``graph`` to a GraphML file."""
    root = ET.Element("graphml", xmlns=_NS)
    # collect attribute keys and their types
    keys: dict[tuple[str, str], str] = {}
    for node in graph.nodes():
        for name, value in graph.node_attrs(node).items():
            _register(keys, "node", name, value)
    for u, v in graph.edges():
        for name, value in graph.edge_attrs(u, v).items():
            _register(keys, "edge", name, value)
    key_ids: dict[tuple[str, str], str] = {}
    for i, ((domain, name), type_name) in enumerate(sorted(keys.items())):
        key_id = f"k{i}"
        key_ids[(domain, name)] = key_id
        ET.SubElement(root, "key", id=key_id,
                      attrib={"for": domain, "attr.name": name,
                              "attr.type": type_name})
    graph_el = ET.SubElement(
        root, "graph", id=graph.name or "G",
        edgedefault="directed" if graph.directed else "undirected")
    node_ids = {node: f"n{i}" for i, node in enumerate(graph.nodes())}
    for node in graph.nodes():
        node_el = ET.SubElement(graph_el, "node", id=node_ids[node])
        ET.SubElement(node_el, "data",
                      key="label").text = str(node)  # original id
        for name, value in graph.node_attrs(node).items():
            data = ET.SubElement(node_el, "data",
                                 key=key_ids[("node", name)])
            data.text = _encode(value, keys[("node", name)])
    for i, (u, v) in enumerate(graph.edges()):
        edge_el = ET.SubElement(graph_el, "edge", id=f"e{i}",
                                source=node_ids[u], target=node_ids[v])
        for name, value in graph.edge_attrs(u, v).items():
            data = ET.SubElement(edge_el, "data",
                                 key=key_ids[("edge", name)])
            data.text = _encode(value, keys[("edge", name)])
    ET.ElementTree(root).write(Path(path), encoding="unicode",
                               xml_declaration=True)


def read_graphml(path: str | Path) -> Graph:
    """Parse a GraphML file written by :func:`write_graphml`.

    Node ids are restored from the embedded ``label`` data elements when
    present, else the GraphML ids are used.
    """
    try:
        tree = ET.parse(Path(path))
    except ET.ParseError as exc:
        raise GraphIOError(f"invalid GraphML: {exc}") from exc
    root = tree.getroot()

    def tag(name: str) -> str:
        return f"{{{_NS}}}{name}" if root.tag.startswith("{") else name

    key_table: dict[str, tuple[str, Any]] = {}
    for key_el in root.findall(tag("key")):
        parser = _PARSERS.get(key_el.get("attr.type", "string"), str)
        key_table[key_el.get("id", "")] = (key_el.get("attr.name", ""),
                                           parser)
    graph_el = root.find(tag("graph"))
    if graph_el is None:
        raise GraphIOError("GraphML file has no <graph> element")
    directed = graph_el.get("edgedefault") == "directed"
    graph: Graph = DiGraph(name=graph_el.get("id", "")) if directed \
        else Graph(name=graph_el.get("id", ""))

    id_map: dict[str, Any] = {}
    for node_el in graph_el.findall(tag("node")):
        gid = node_el.get("id", "")
        attrs: dict[str, Any] = {}
        original: Any = gid
        for data in node_el.findall(tag("data")):
            key = data.get("key", "")
            if key == "label":
                original = data.text if data.text is not None else gid
                continue
            if key in key_table:
                name, parser = key_table[key]
                attrs[name] = parser(data.text or "")
        id_map[gid] = original
        graph.add_node(original, **attrs)
    for edge_el in graph_el.findall(tag("edge")):
        source = id_map.get(edge_el.get("source", ""))
        target = id_map.get(edge_el.get("target", ""))
        if source is None or target is None:
            raise GraphIOError("edge references unknown node")
        attrs = {}
        for data in edge_el.findall(tag("data")):
            key = data.get("key", "")
            if key in key_table:
                name, parser = key_table[key]
                attrs[name] = parser(data.text or "")
        graph.add_edge(source, target, **attrs)
    return graph
