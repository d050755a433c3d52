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
from functools import cached_property

from ..algorithms.motifs import maximal_cliques
from ..errors import SequencerError
from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView, mask_ids, neighbor_masks
from .motifs import ring_ids


@dataclass(frozen=True)
class SuperGraph:
    """Result of coarsening: the coarse level as a view, plus its
    object-graph face (``graph``, ``members``, ``node_to_super``),
    built on first access for explanations and reports."""

    #: The coarse level: super-node ids ``0..k-1``, adjacency in the
    #: neighbour order of :attr:`graph`.
    view: TopologyView
    #: ``(motif, size)`` per super-node id; motif is "clique",
    #: "triangle", "ring" or "singleton".
    motifs: tuple[tuple[str, int], ...]
    #: Name of the coarsened graph.
    name: str
    #: The coarsened graph's view: original nodes and the edges replayed
    #: into :attr:`graph`.
    _base: TopologyView = field(repr=False)
    #: Super-node id of each base node id.
    _super_of: tuple[int, ...] = field(repr=False)

    @cached_property
    def graph(self) -> Graph:
        """The coarse graph; nodes are the super-node ids with attributes
        ``motif`` and ``size``."""
        coarse = Graph(name=f"super({self.name})")
        for sid, (motif, size) in enumerate(self.motifs):
            coarse.add_node(sid, motif=motif, size=size)
        super_of = self._super_of
        for u, v in self._base.edges():
            if super_of[u] != super_of[v]:
                coarse.add_edge(super_of[u], super_of[v])
        return coarse

    @cached_property
    def members(self) -> dict[int, frozenset[Node]]:
        """Map super-node id -> frozenset of original nodes."""
        groups: list[list[Node]] = [[] for _ in self.motifs]
        for node, sid in zip(self._base.nodes, self._super_of):
            groups[sid].append(node)
        return {sid: frozenset(group) for sid, group in enumerate(groups)}

    @cached_property
    def node_to_super(self) -> dict[Node, int]:
        """Inverse of ``members``: original node -> super-node id."""
        return dict(zip(self._base.nodes, self._super_of))

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
        if not self.motifs:
            return 1.0
        return len(self._super_of) / len(self.motifs)


def build_supergraph(graph: Graph, min_motif_size: int = 3) -> SuperGraph:
    """Coarsen ``graph`` into a motif super-graph.

    Directed graphs are coarsened on their undirected skeleton (motifs
    ignore direction), and the super-graph is undirected too: two
    super-nodes are adjacent iff some arc crosses between them, in
    either direction.
    """
    return coarsen(TopologyView.of(graph), min_motif_size, name=graph.name)


def coarsen(view: TopologyView, min_motif_size: int = 3,
            name: str = "") -> SuperGraph:
    """:func:`build_supergraph` of the graph ``view`` was taken from.

    Works on ids and bitmasks throughout (bit ``i`` is node id ``i``)
    and writes the coarse level straight into a view; no ``Graph`` is
    built until :attr:`SuperGraph.graph` is read.
    """
    if min_motif_size < 2:
        raise SequencerError("min_motif_size must be >= 2")
    rows = view.skeleton()
    rank = view.repr_ranks()
    smallest = max(min_motif_size, 3)
    # a maximal clique of >= 3 nodes only uses edges that close a
    # triangle, so Bron-Kerbosch is spared every other edge (and every
    # node left without one); below its clique cap the contractable
    # cliques are the same set, and the sort below orders them
    masks = neighbor_masks(rows)
    supported: dict[int, int] = {}
    for node, row in enumerate(rows):
        nbrs = masks[node]
        keep = 0
        for other in row:
            if other != node and nbrs & masks[other]:
                keep |= 1 << other
        if keep:
            supported[node] = keep
    # full deterministic order: largest first, then by the members'
    # repr, so same-size ties do not depend on enumeration order
    cliques = []
    for clique in maximal_cliques(supported):
        size = clique.bit_count()
        if size >= smallest:
            cliques.append((-size, sorted(map(rank.__getitem__,
                                              mask_ids(clique))), clique))
    cliques.sort()

    super_of = [-1] * len(rows)
    motifs: list[tuple[str, int]] = []

    def contract(motif: str, group: int) -> None:
        for node in mask_ids(group):
            super_of[node] = len(motifs)
        motifs.append((motif, group.bit_count()))

    assigned = 0
    for __, __, clique in cliques:
        free = clique & ~assigned
        size = free.bit_count()
        if size >= smallest:
            contract("triangle" if size == 3 else "clique", free)
            assigned |= free
    # rings (molecule-style motifs): contract cycles of 4+ nodes whose
    # members are still free; triangles were handled as cliques above.
    # A ring that is too small or meets a clique could never be taken,
    # so the search does not produce it
    for ring in ring_ids(rows, rank, max_size=8,
                         min_size=max(min_motif_size, 4), avoid=assigned):
        if not ring & assigned:
            contract("ring", ring)
            assigned |= ring
    for node in range(len(rows)):
        if super_of[node] < 0:
            super_of[node] = len(motifs)
            motifs.append(("singleton", 1))

    # replaying the edges in Graph.edges() order gives each super-node
    # the neighbour order Graph.add_edge would
    coarse: list[dict[int, None]] = [{} for _ in motifs]
    n_edges = 0
    for u, v in view.edges():
        su, sv = super_of[u], super_of[v]
        if su != sv and sv not in coarse[su]:
            coarse[su][sv] = None
            coarse[sv][su] = None
            n_edges += 1
    adj = tuple(map(tuple, coarse))
    return SuperGraph(
        view=TopologyView(
            nodes=tuple(range(len(adj))), adj=adj, directed=False,
            isolated=frozenset(sid for sid, row in enumerate(adj)
                               if not row),
            n_edges=n_edges),
        motifs=tuple(motifs), name=name, _base=view,
        _super_of=tuple(super_of))
