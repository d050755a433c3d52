"""Motif-based super-graph coarsening (paper Sec. II-B, RUM-style).

Graphs often have multi-level structure (protein tertiary structure,
social communities).  Following the paper, we compute a super-graph
whose super-nodes are motifs of ``G``: maximal cliques of size >=
``min_motif_size`` are contracted first (greedily, largest first,
non-overlapping), then small *rings* (the motif family of molecules,
which contain no triangles), and remaining nodes become singleton
super-nodes.  Two super-nodes are adjacent iff some original edge
crosses between their member sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algorithms.motifs import maximal_cliques
from ..errors import SequencerError
from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView, neighbor_sets
from .motifs import ring_ids


@dataclass
class SuperGraph:
    """Result of coarsening: the coarse graph plus the member map."""

    #: The coarse graph; nodes are integer super-node ids with attributes
    #: ``motif`` ("clique", "triangle", "ring" or "singleton") and
    #: ``size``.
    graph: Graph
    #: Map super-node id -> frozenset of original nodes.
    members: dict[int, frozenset[Node]] = field(default_factory=dict)
    #: Inverse of ``members``: original node -> super-node id.
    node_to_super: dict[Node, int] = field(default_factory=dict, repr=False)

    def supernode_of(self, node: Node) -> int:
        """Super-node id containing the original ``node``."""
        try:
            return self.node_to_super[node]
        except KeyError:
            raise SequencerError(
                f"node {node!r} not in any super-node") from None

    @property
    def compression_ratio(self) -> float:
        """Original node count divided by super-node count (>= 1.0)."""
        n_super = self.graph.number_of_nodes()
        if n_super == 0:
            return 1.0
        n_original = sum(len(m) for m in self.members.values())
        return n_original / n_super


def build_supergraph(graph: Graph, min_motif_size: int = 3) -> SuperGraph:
    """Coarsen ``graph`` into a motif super-graph.

    Directed graphs are coarsened on their undirected skeleton (motifs
    ignore direction) but the super-graph keeps the original arcs.
    """
    return coarsen(TopologyView.of(graph), min_motif_size, name=graph.name)


def coarsen(view: TopologyView, min_motif_size: int = 3,
            name: str = "") -> SuperGraph:
    """:func:`build_supergraph` of the graph ``view`` was taken from."""
    if min_motif_size < 2:
        raise SequencerError("min_motif_size must be >= 2")
    rows = view.skeleton()
    rank = view.repr_ranks()

    def by_size_then_repr(group: frozenset[int]) -> tuple[int, list[int]]:
        # full deterministic order: Bron-Kerbosch enumerates over
        # hash-ordered sets, so a len-only sort would leave same-size
        # ties in hash order and the greedy contraction below would
        # differ run to run
        return -len(group), sorted(map(rank.__getitem__, group))

    assigned: set[int] = set()
    groups: list[tuple[str, frozenset[int]]] = []
    smallest = max(min_motif_size, 3)
    # a maximal clique of >= 3 nodes only uses edges that close a
    # triangle, so Bron-Kerbosch is spared every other edge (and every
    # node left without one); below its clique cap the contractable
    # cliques are the same set, and the sort below orders them
    sets = neighbor_sets(rows)
    supported: dict[int, set[int]] = {}
    for node, nbrs in enumerate(sets):
        keep = {other for other in nbrs if not nbrs.isdisjoint(sets[other])}
        if keep:
            supported[node] = keep
    cliques = maximal_cliques(supported)
    for clique in sorted((c for c in cliques if len(c) >= smallest),
                         key=by_size_then_repr):
        free = clique - assigned
        if len(free) >= smallest:
            label = "triangle" if len(free) == 3 else "clique"
            groups.append((label, free))
            assigned |= free
    # rings (molecule-style motifs): contract cycles of 4+ nodes whose
    # members are still free; triangles were handled as cliques above
    for ring in ring_ids(rows, rank, max_size=8):
        if len(ring) >= max(min_motif_size, 4) and not ring & assigned:
            groups.append(("ring", ring))
            assigned |= ring
    for node in range(len(rows)):
        if node not in assigned:
            groups.append(("singleton", frozenset((node,))))

    super_of = [0] * len(rows)
    coarse = Graph(name=f"super({name})")
    for sid, (motif, group) in enumerate(groups):
        coarse.add_node(sid, motif=motif, size=len(group))
        for node in group:
            super_of[node] = sid
    for u, v in view.edges():
        if super_of[u] != super_of[v]:
            coarse.add_edge(super_of[u], super_of[v])
    return SuperGraph(
        graph=coarse,
        members={sid: frozenset(view.nodes[node] for node in group)
                 for sid, (__, group) in enumerate(groups)},
        node_to_super={node: super_of[i]
                       for i, node in enumerate(view.nodes)})
