"""Property-graph substrate.

A small, self-contained graph library: :class:`Graph` (undirected) and
:class:`DiGraph` (directed) store node and edge attributes, and the
sibling modules provide the interned :class:`TopologyView` the
algorithms and the sequencer run on, views, I/O, generators and summary
statistics.
Everything downstream of ChatGraph (algorithms, sequentializer, APIs)
operates on these types.
"""

from .graph import DiGraph, Graph
from .generators import (
    ba_graph,
    complete_graph,
    cycle_graph,
    er_graph,
    grid_graph,
    knowledge_graph,
    molecule_like_graph,
    path_graph,
    planted_partition_graph,
    social_network,
    star_graph,
)
from .io import (
    fingerprint,
    from_adjacency,
    from_document,
    from_edgelist,
    parse_edgelist_text,
    read_edgelist,
    to_adjacency,
    to_document,
    to_edgelist,
    write_edgelist,
)
from .graphml import read_graphml, write_graphml
from .properties import GraphSummary, degree_histogram, density, summarize
from .topology import TopologyView
from .views import ego_graph

__all__ = [
    "Graph",
    "DiGraph",
    "TopologyView",
    "ego_graph",
    "fingerprint",
    "from_adjacency",
    "from_document",
    "from_edgelist",
    "parse_edgelist_text",
    "read_edgelist",
    "to_adjacency",
    "to_document",
    "to_edgelist",
    "write_edgelist",
    "read_graphml",
    "write_graphml",
    "GraphSummary",
    "degree_histogram",
    "density",
    "summarize",
    "ba_graph",
    "complete_graph",
    "cycle_graph",
    "er_graph",
    "grid_graph",
    "knowledge_graph",
    "molecule_like_graph",
    "path_graph",
    "planted_partition_graph",
    "social_network",
    "star_graph",
]
