"""Graph-edit APIs: the mutation half of the cleaning scenario.

Edit APIs ask the user for confirmation through ``context.ask`` before
touching the graph (paper Fig. 6: "asks the user for confirmation"),
then work on a fresh copy which replaces ``context.graph`` — when the
copy differs: later steps tell "the graph changed" by the object having
changed, and rebuild what they derived from it only then.
"""

from __future__ import annotations

from typing import Any, Callable

from ...errors import APIError
from ...graphs.graph import Graph
from ...graphs.io import to_dict
from ..executor import ChainContext
from ..registry import APIRegistry, APISpec, Category


def _graph(context: ChainContext) -> Graph:
    if context.graph is None:
        raise APIError("no graph to edit")
    return context.graph


def _node_of(graph: Graph) -> Callable[[str], Any]:
    """Findings name entities by ``str(node)``: map a name back to the
    graph's own node (a string node keeps its name; an unknown name
    stays as it is)."""
    nodes = {str(node): node for node in graph.nodes()}
    nodes.update((node, node) for node in graph.nodes()
                 if isinstance(node, str))
    return lambda name: nodes.get(name, name)


def remove_flagged_edges(context: ChainContext,
                         confirm_each: bool = False) -> dict[str, Any]:
    """Remove the edges flagged by ``detect_incorrect_edges``.

    Reads the latest detection result from the chain context; with
    ``confirm_each`` every removal is routed through ``context.ask``.
    """
    findings = context.latest("detect_incorrect_edges")
    if findings is None:
        raise APIError("run detect_incorrect_edges before removing edges")
    graph = _graph(context).copy()
    node = _node_of(graph)
    removed = []
    skipped = []
    for finding in findings:
        u, v = node(finding["head"]), node(finding["tail"])
        question = (f"Remove suspected-wrong edge ({u}) -"
                    f"[{finding['relation']}]-> ({v})?")
        if confirm_each and not context.ask(question, finding):
            skipped.append((u, v))
            continue
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
            removed.append((u, v))
    if removed:
        context.graph = graph
    return {"removed": removed, "skipped": skipped,
            "n_removed": len(removed)}


def add_predicted_edges(context: ChainContext,
                        confirm_each: bool = False) -> dict[str, Any]:
    """Add the edges proposed by ``predict_missing_edges``."""
    findings = context.latest("predict_missing_edges")
    if findings is None:
        raise APIError("run predict_missing_edges before adding edges")
    graph = _graph(context).copy()
    node = _node_of(graph)
    added = []
    skipped = []
    for finding in findings:
        u, v = node(finding["head"]), node(finding["tail"])
        question = (f"Add inferred edge ({u}) -"
                    f"[{finding['relation']}]-> ({v})?")
        if confirm_each and not context.ask(question, finding):
            skipped.append((u, v))
            continue
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, relation=finding["relation"])
            added.append((u, v))
    if added:
        context.graph = graph
    return {"added": added, "skipped": skipped, "n_added": len(added)}


def remove_edge(context: ChainContext, source: Any = None,
                target: Any = None) -> dict[str, Any]:
    """Remove one explicit edge (confirmation-gated)."""
    if source is None or target is None:
        raise APIError("remove_edge needs 'source' and 'target' params")
    graph = _graph(context)
    if not context.ask(f"Remove edge ({source}, {target})?",
                       {"source": source, "target": target}):
        return {"removed": False, "reason": "declined by user"}
    edited = graph.copy()
    edited.remove_edge(source, target)
    context.graph = edited
    return {"removed": True}


def add_edge(context: ChainContext, source: Any = None,
             target: Any = None) -> dict[str, Any]:
    """Add one explicit edge (confirmation-gated)."""
    if source is None or target is None:
        raise APIError("add_edge needs 'source' and 'target' params")
    if not context.ask(f"Add edge ({source}, {target})?",
                       {"source": source, "target": target}):
        return {"added": False, "reason": "declined by user"}
    edited = _graph(context).copy()
    edited.add_edge(source, target)
    context.graph = edited
    return {"added": True}


def export_graph(context: ChainContext) -> dict[str, Any]:
    """Serialize the (possibly edited) graph to its JSON document.

    The cleaning scenario ends with "G is cleaned and outputted to
    file"; the session writes this document wherever the user asked.
    Attributes are listed in sorted key order, so the rendered answer
    does not depend on the order they were inserted in (a graph that
    crossed the shard pipe arrives with its attributes key-sorted).
    """
    document = to_dict(_graph(context))
    document["nodes"] = [
        {"id": entry.pop("id"), **dict(sorted(entry.items()))}
        for entry in document["nodes"]]
    document["edges"] = [
        {"source": entry.pop("source"), "target": entry.pop("target"),
         **dict(sorted(entry.items()))}
        for entry in document["edges"]]
    return document


def register(registry: APIRegistry) -> None:
    """Register every edit API."""
    edit = Category.EDIT
    for spec in (
        APISpec("remove_flagged_edges",
                "remove the incorrect edges detected by knowledge inference "
                "after user confirmation",
                edit, remove_flagged_edges,
                params={"confirm_each": False}),
        APISpec("add_predicted_edges",
                "add the missing edges predicted by knowledge inference "
                "after user confirmation",
                edit, add_predicted_edges,
                params={"confirm_each": False}),
        APISpec("remove_edge",
                "remove delete one edge from the graph",
                edit, remove_edge, params={"source": None, "target": None}),
        APISpec("add_edge",
                "add insert one edge into the graph",
                edit, add_edge, params={"source": None, "target": None}),
        APISpec("export_graph",
                "export save or output the cleaned graph to a file",
                edit, export_graph),
    ):
        registry.register(spec)
