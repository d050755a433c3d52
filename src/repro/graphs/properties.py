"""Summary statistics for graphs (used by reports and type prediction)."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DiGraph, Graph
from .topology import TopologyView


def density(graph: Graph) -> float:
    """Edge density in ``[0, 1]`` (0 for graphs with < 2 nodes)."""
    return _density(graph.number_of_nodes(), graph.number_of_edges(),
                    graph.directed)


def _density(n: int, m: int, directed: bool) -> float:
    if n < 2:
        return 0.0
    possible = n * (n - 1)
    if not directed:
        possible //= 2
    return m / possible


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Map ``degree -> number of nodes with that degree``."""
    histogram: dict[int, int] = {}
    for node in graph.nodes():
        d = graph.degree(node)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


@dataclass(frozen=True)
class GraphSummary:
    """Compact numeric profile of a graph."""

    n_nodes: int
    n_edges: int
    directed: bool
    density: float
    max_degree: int
    mean_degree: float
    n_isolated: int
    node_labels: tuple[str, ...]
    edge_labels: tuple[str, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "directed": self.directed,
            "density": self.density,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "n_isolated": self.n_isolated,
            "node_labels": list(self.node_labels),
            "edge_labels": list(self.edge_labels),
        }


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``.

    The degree figures come off the graph's memoised view: the degrees
    sum to twice the edge count, a self-loop counting twice.
    """
    view = TopologyView.of(graph)
    n, m = len(view.nodes), view.n_edges
    node_keys: set[str] = set().union(*graph.node_attr_dicts())
    edge_keys = graph.edge_attr_keys()
    return GraphSummary(
        n_nodes=n,
        n_edges=m,
        directed=isinstance(graph, DiGraph) and graph.directed,
        density=_density(n, m, graph.directed),
        max_degree=view.max_degree,
        mean_degree=2 * m / n if n else 0.0,
        n_isolated=len(view.isolated),
        node_labels=tuple(sorted(node_keys)),
        edge_labels=tuple(sorted(edge_keys)),
    )
