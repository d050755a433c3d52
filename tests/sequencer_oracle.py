"""Reference oracle for the sequencer: the pre-interning implementation.

This is the tuple-and-set path cover, the per-path renderer, the
``Counter`` fold and the ``Graph``-object super-graph build exactly as
they stood before the sequencer moved onto the interned view, plus the set-based Bron-Kerbosch the clique search ran on before it
moved onto bitmasks, kept verbatim so ``test_sequencer_oracle.py`` can
require the counting walk and the coarse view to reproduce them bit for
bit.  It materialises every path; do not
optimise it, and do not import it from ``src/``.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator, Mapping, Set
from dataclasses import dataclass

from repro.config import SequencerConfig
from repro.errors import GraphError, SequencerError
from repro.graphs.graph import DiGraph, Graph, Node
from repro.sequencer.path_cover import CoverStats

LABEL_KEYS = ("label", "element", "entity_type", "kind")
EDGE_TOKEN = "<e>"


# ----------------------------------------------------------------------
# path cover (was sequencer/path_cover.py)
# ----------------------------------------------------------------------
def _ball_tree(graph: Graph, source: Node,
               radius: int) -> tuple[dict[Node, Node], dict[Node, int]]:
    """Truncated BFS: parent pointers and depths within ``radius`` hops."""
    step = (graph.successors if isinstance(graph, DiGraph)
            else graph.neighbors)
    parents: dict[Node, Node] = {}
    depth: dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if depth[node] == radius:
            continue
        for neighbor in step(node):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                parents[neighbor] = node
                queue.append(neighbor)
    return parents, depth


def _tree_path(parents: dict[Node, Node], source: Node,
               target: Node) -> tuple[Node, ...]:
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def length_constrained_path_cover(
        graph: Graph, max_length: int,
        max_paths: int | None = None) -> tuple[list[tuple[Node, ...]],
                                               CoverStats]:
    """Compute the length-constrained path cover of ``graph``.

    Returns ``(paths, stats)``; each path is a node tuple with at most
    ``max_length`` edges.  ``max_paths`` truncates the output (stats then
    reflect the truncated cover).
    """
    if max_length < 1:
        raise SequencerError("max_length must be >= 1")
    paths: list[tuple[Node, ...]] = []
    seen_paths: set[tuple[Node, ...]] = set()
    covered_nodes: set[Node] = set()
    covered_edges: set[frozenset[Node] | tuple[Node, Node]] = set()
    directed = isinstance(graph, DiGraph)

    def edge_key(a: Node, b: Node):
        return (a, b) if directed else frozenset((a, b))

    def emit(path: tuple[Node, ...]) -> bool:
        """Record ``path``; returns False when the cap is hit."""
        if path in seen_paths:
            return True
        seen_paths.add(path)
        paths.append(path)
        covered_nodes.update(path)
        for a, b in zip(path, path[1:]):
            covered_edges.add(edge_key(a, b))
        return max_paths is None or len(paths) < max_paths

    capped = False
    for source in graph.nodes():
        if capped:
            break
        parents, depth = _ball_tree(graph, source, max_length)
        # node coverage: root-to-node tree paths (leaves suffice, but
        # emitting all keeps short contexts for interior nodes too)
        for node in depth:
            if node == source:
                if graph.degree(source) == 0 and not emit((source,)):
                    capped = True
                    break
                continue
            if not emit(_tree_path(parents, source, node)):
                capped = True
                break
        if capped:
            break
        # edge coverage: non-tree edges inside the ball
        step = (graph.successors if directed else graph.neighbors)
        for a in depth:
            for b in step(a):
                if b not in depth:
                    continue
                if parents.get(b) == a or parents.get(a) == b:
                    continue  # tree edge, already covered
                if edge_key(a, b) in covered_edges:
                    continue
                tree = _tree_path(parents, source, a)
                if b not in tree and len(tree) <= max_length:
                    candidate = tree + (b,)
                else:
                    candidate = (a, b)
                if not emit(candidate):
                    capped = True
                    break
            if capped:
                break

    stats = CoverStats(
        n_paths=len(paths),
        max_path_length=max((len(p) - 1 for p in paths), default=0),
        covered_nodes=len(covered_nodes),
        covered_edges=len(covered_edges),
        total_nodes=graph.number_of_nodes(),
        total_edges=graph.number_of_edges(),
    )
    return paths, stats


# ----------------------------------------------------------------------
# cliques (was algorithms/motifs.py)
# ----------------------------------------------------------------------
def find_cliques(graph: Graph, max_cliques: int = 100000) -> Iterator[
        frozenset[Node]]:
    """Maximal cliques via Bron-Kerbosch with pivoting.

    Yields each maximal clique as a frozenset.  Stops after
    ``max_cliques`` cliques to bound worst-case blowup.
    """
    if isinstance(graph, DiGraph):
        raise GraphError("clique enumeration requires an undirected graph")
    return maximal_cliques({node: set(graph.neighbors(node)) - {node}
                            for node in graph.nodes()}, max_cliques)


def maximal_cliques(adjacency: Mapping[Node, Set[Node]],
                    max_cliques: int = 100000) -> Iterator[frozenset[Node]]:
    """:func:`find_cliques` over a loop-free ``node -> neighbour set`` map."""
    emitted = 0

    def expand(r: set[Node], p: set[Node],
               x: set[Node]) -> Iterator[frozenset[Node]]:
        nonlocal emitted
        if emitted >= max_cliques:
            return
        if not p and not x:
            emitted += 1
            yield frozenset(r)
            return
        pivot = max(p | x, key=lambda u: len(adjacency[u] & p))
        for v in list(p - adjacency[pivot]):
            yield from expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p.discard(v)
            x.add(v)

    yield from expand(set(), set(adjacency), set())


# ----------------------------------------------------------------------
# rings (was sequencer/motifs.py)
# ----------------------------------------------------------------------
def find_rings(graph: Graph, max_size: int = 8) -> list[frozenset[Node]]:
    """Small rings from the fundamental cycle basis, deduplicated.

    Returns node sets of cycles with 3..``max_size`` nodes, largest
    first.  The basis has exactly ``m - n + c`` cycles, so this is
    linear-ish and safe on large graphs (unlike full cycle enumeration).
    """
    if isinstance(graph, DiGraph):
        graph = graph.to_undirected()
    parent: dict[Node, Node | None] = {}
    depth: dict[Node, int] = {}
    rings: set[frozenset[Node]] = set()

    for root in graph.nodes():
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if neighbor not in parent:
                    parent[neighbor] = node
                    depth[neighbor] = depth[node] + 1
                    queue.append(neighbor)

    def tree_cycle(u: Node, v: Node) -> frozenset[Node] | None:
        """Nodes of the cycle closed by non-tree edge (u, v)."""
        path_u, path_v = [u], [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]  # type: ignore[assignment]
            path_u.append(a)
        while depth[b] > depth[a]:
            b = parent[b]  # type: ignore[assignment]
            path_v.append(b)
        while a != b:
            a = parent[a]  # type: ignore[assignment]
            b = parent[b]  # type: ignore[assignment]
            path_u.append(a)
            path_v.append(b)
        cycle = set(path_u) | set(path_v)
        if len(cycle) > max_size:
            return None
        return frozenset(cycle)

    tree_edges = {frozenset((child, par))
                  for child, par in parent.items() if par is not None}
    for u, v in graph.edges():
        if u == v or frozenset((u, v)) in tree_edges:
            continue
        ring = tree_cycle(u, v)
        if ring is not None and len(ring) >= 3:
            rings.add(ring)
    return sorted(rings, key=lambda ring: (-len(ring), sorted(map(repr,
                                                                  ring))))


# ----------------------------------------------------------------------
# super-graph (was sequencer/supergraph.py)
# ----------------------------------------------------------------------
@dataclass
class OracleSuperGraph:
    graph: Graph
    members: dict[int, frozenset[Node]]


def build_supergraph(graph: Graph, min_motif_size: int = 3) -> OracleSuperGraph:
    """Coarsen ``graph`` into a motif super-graph.

    Directed graphs are coarsened on their undirected skeleton (motifs
    ignore direction) but the super-graph keeps the original arcs.
    """
    if min_motif_size < 2:
        raise SequencerError("min_motif_size must be >= 2")
    skeleton = graph.to_undirected() if isinstance(graph, DiGraph) else graph

    assigned: set[Node] = set()
    groups: list[tuple[str, frozenset[Node]]] = []
    # full deterministic order: Bron-Kerbosch enumerates over hash-ordered
    # sets, so a len-only sort would leave same-size ties in hash order
    # and the greedy contraction below would differ run to run
    cliques = sorted(find_cliques(skeleton),
                     key=lambda c: (-len(c), sorted(map(repr, c))))
    for clique in cliques:
        if len(clique) < max(min_motif_size, 3):
            continue
        free = clique - assigned
        if len(free) >= max(min_motif_size, 3):
            label = "triangle" if len(free) == 3 else "clique"
            groups.append((label, frozenset(free)))
            assigned |= free
    # rings (molecule-style motifs): contract cycles of 4+ nodes whose
    # members are still free; triangles were handled as cliques above
    for ring in find_rings(skeleton, max_size=8):
        if len(ring) < max(min_motif_size, 4):
            continue
        if ring & assigned:
            continue
        groups.append(("ring", ring))
        assigned |= ring
    for node in skeleton.nodes():
        if node not in assigned:
            groups.append(("singleton", frozenset((node,))))
            assigned.add(node)

    members = {sid: member_set for sid, (__, member_set)
               in enumerate(groups)}
    node_to_super: dict[Node, int] = {}
    for sid, member_set in members.items():
        for node in member_set:
            node_to_super[node] = sid

    coarse = Graph(name=f"super({graph.name})")
    for sid, (motif, member_set) in enumerate(groups):
        coarse.add_node(sid, motif=motif, size=len(member_set))
    for u, v in graph.edges():
        su, sv = node_to_super[u], node_to_super[v]
        if su != sv:
            coarse.add_edge(su, sv)
    return OracleSuperGraph(graph=coarse, members=members)


# ----------------------------------------------------------------------
# rendering and the Counter fold (was sequencer/serializer.py)
# ----------------------------------------------------------------------
def node_token(graph: Graph, node: Node) -> str:
    """Token for one node: ``<n:LABEL>`` or ``<n:*>`` when unlabeled."""
    for key in LABEL_KEYS:
        value = graph.get_node_attr(node, key)
        if value is not None:
            return f"<n:{value}>"
    return "<n:*>"


@dataclass
class OracleSequences:
    sequences: tuple[tuple[str, ...], ...]
    super_sequences: tuple[tuple[str, ...], ...]
    cover_stats: CoverStats
    supergraph: OracleSuperGraph | None
    feature_counts: Counter

    @property
    def n_sequences(self) -> int:
        return len(self.sequences) + len(self.super_sequences)


def sequentialize(graph: Graph, config: SequencerConfig) -> OracleSequences:
    paths, stats = length_constrained_path_cover(
        graph, config.path_length, max_paths=config.max_paths)
    sequences = tuple(_render(graph, path) for path in paths)

    super_sequences: tuple[tuple[str, ...], ...] = ()
    supergraph: OracleSuperGraph | None = None
    if config.multi_level and graph.number_of_nodes() > 0:
        supergraph = build_supergraph(
            graph, min_motif_size=config.min_motif_size)
        coarse_budget = max(1, config.max_paths // 4)
        coarse_paths, __ = length_constrained_path_cover(
            supergraph.graph, config.path_length,
            max_paths=coarse_budget)
        super_sequences = tuple(
            _render_super(supergraph.graph, path)
            for path in coarse_paths)

    features: Counter = Counter()
    for seq in sequences:
        features.update(seq)
    for seq in super_sequences:
        features.update(seq)
    return OracleSequences(
        sequences=sequences,
        super_sequences=super_sequences,
        cover_stats=stats,
        supergraph=supergraph,
        feature_counts=features,
    )


def _render(graph: Graph, path: tuple[Node, ...]) -> tuple[str, ...]:
    tokens: list[str] = []
    for i, node in enumerate(path):
        if i:
            tokens.append(EDGE_TOKEN)
        tokens.append(node_token(graph, node))
    return tuple(tokens)


def _render_super(coarse: Graph,
                  path: tuple[Node, ...]) -> tuple[str, ...]:
    tokens: list[str] = []
    for i, node in enumerate(path):
        if i:
            tokens.append(EDGE_TOKEN)
        motif = coarse.get_node_attr(node, "motif", "singleton")
        size = coarse.get_node_attr(node, "size", 1)
        tokens.append(f"<m:{motif}:{size}>")
    return tuple(tokens)
