"""Derived subgraphs: ego networks (induced ones are ``Graph.subgraph``)."""

from __future__ import annotations

from collections import deque

from ..errors import NodeNotFoundError
from .graph import DiGraph, Graph, Node


def ego_graph(graph: Graph, center: Node, radius: int = 1) -> Graph:
    """Return the subgraph within ``radius`` hops of ``center``.

    For directed graphs, hops follow successor arcs (out-edges).
    """
    if center not in graph:
        raise NodeNotFoundError(center)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    reached = {center: 0}
    frontier = deque([center])
    step = (graph.successors if isinstance(graph, DiGraph)
            else graph.neighbors)
    while frontier:
        node = frontier.popleft()
        depth = reached[node]
        if depth == radius:
            continue
        for neighbor in step(node):
            if neighbor not in reached:
                reached[neighbor] = depth + 1
                frontier.append(neighbor)
    return graph.subgraph(reached)
