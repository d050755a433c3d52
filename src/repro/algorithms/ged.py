"""Graph edit distance (GED).

Two solvers share a cost model (unit costs, label-aware substitution):

* :func:`exact_ged` — A*-style branch and bound over node mappings with an
  admissible label-multiset lower bound; exponential, for small graphs.
* :func:`approximate_ged` — the Riesen-Bunke bipartite upper bound: solve a
  linear assignment over node substitutions/deletions/insertions (with
  local edge costs), then charge the actual edit cost implied by the
  resulting node mapping.

:func:`graph_edit_distance` picks a solver by size.  GED underlies the
node matching-based finetuning loss (paper Def. 1) and the molecule
similarity-search scenario (Fig. 5).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from ..graphs.graph import Graph, Node
from .matching import hungarian

#: Sentinel meaning "deleted / inserted" in mappings.
EPS = None

LabelFn = Callable[[Graph, Node], object]


def _default_node_label(graph: Graph, node: Node) -> object:
    return graph.get_node_attr(node, "label")


@dataclass(frozen=True)
class GedResult:
    """Outcome of a GED computation."""

    #: Total edit cost.
    cost: float
    #: Mapping from nodes of g1 to nodes of g2 (``None`` = deleted).
    mapping: dict[Node, Node | None]
    #: Whether the cost is provably optimal.
    exact: bool


def _mapping_cost(g1: Graph, g2: Graph, mapping: dict[Node, Node | None],
                  node_label: LabelFn) -> float:
    """Exact edit cost induced by a (complete) node mapping."""
    cost = 0.0
    mapped_targets = {v for v in mapping.values() if v is not EPS}
    # node substitutions and deletions
    for u, v in mapping.items():
        if v is EPS:
            cost += 1.0
        elif node_label(g1, u) != node_label(g2, v):
            cost += 1.0
    # node insertions
    cost += sum(1.0 for v in g2.nodes() if v not in mapped_targets)
    # edges of g1: deleted or substituted
    for a, b in g1.edges():
        ma, mb = mapping.get(a, EPS), mapping.get(b, EPS)
        if ma is EPS or mb is EPS or not g2.has_edge(ma, mb):
            cost += 1.0
    # edges of g2 with no pre-image: insertions
    inverse = {v: u for u, v in mapping.items() if v is not EPS}
    for a, b in g2.edges():
        ia, ib = inverse.get(a), inverse.get(b)
        if ia is None or ib is None or not g1.has_edge(ia, ib):
            cost += 1.0
    return cost


def _label_lower_bound(labels1: list[object], labels2: list[object]) -> float:
    """Admissible bound: cost of matching two label multisets."""
    from collections import Counter
    c1, c2 = Counter(labels1), Counter(labels2)
    common = sum((c1 & c2).values())
    return float(max(len(labels1), len(labels2)) - common)


def exact_ged(g1: Graph, g2: Graph,
              node_label: LabelFn = _default_node_label,
              upper_bound: float | None = None) -> GedResult:
    """Optimal GED by best-first search over partial node mappings.

    Exponential in the worst case — intended for graphs with <= ~10 nodes
    (API chains, small molecules).  ``upper_bound`` prunes branches whose
    optimistic cost already exceeds it.
    """
    nodes1 = list(g1.nodes())
    nodes2 = list(g2.nodes())
    best = upper_bound if upper_bound is not None else float("inf")
    best_mapping: dict[Node, Node | None] | None = None

    # order g1 nodes by degree (high first) for earlier pruning
    nodes1.sort(key=g1.degree, reverse=True)

    def heuristic(depth: int, used2: frozenset[Node]) -> float:
        remaining1 = [node_label(g1, u) for u in nodes1[depth:]]
        remaining2 = [node_label(g2, v) for v in nodes2 if v not in used2]
        return _label_lower_bound(remaining1, remaining2)

    def partial_cost(mapping: dict[Node, Node | None]) -> float:
        """Edit cost restricted to already-mapped nodes (a lower bound)."""
        cost = 0.0
        for u, v in mapping.items():
            if v is EPS:
                cost += 1.0
            elif node_label(g1, u) != node_label(g2, v):
                cost += 1.0
        mapped1 = set(mapping)
        inverse = {v: u for u, v in mapping.items() if v is not EPS}
        for a, b in g1.edges():
            if a in mapped1 and b in mapped1:
                ma, mb = mapping[a], mapping[b]
                if ma is EPS or mb is EPS or not g2.has_edge(ma, mb):
                    cost += 1.0
        for a, b in g2.edges():
            if a in inverse and b in inverse:
                if not g1.has_edge(inverse[a], inverse[b]):
                    cost += 1.0
        return cost

    # best-first frontier: (priority, tiebreak, depth, mapping, used2)
    counter = itertools.count()
    start: tuple[float, int, int, dict[Node, Node | None], frozenset[Node]]
    start = (heuristic(0, frozenset()), next(counter), 0, {}, frozenset())
    frontier = [start]
    while frontier:
        priority, __, depth, mapping, used2 = heapq.heappop(frontier)
        if priority >= best:
            break
        if depth == len(nodes1):
            total = _mapping_cost(g1, g2, mapping, node_label)
            if total < best:
                best = total
                best_mapping = dict(mapping)
            continue
        u = nodes1[depth]
        candidates: list[Node | None] = [v for v in nodes2 if v not in used2]
        candidates.append(EPS)
        for v in candidates:
            child = dict(mapping)
            child[u] = v
            child_used = used2 if v is EPS else used2 | {v}
            g = partial_cost(child)
            h = heuristic(depth + 1, child_used)
            if g + h < best:
                heapq.heappush(
                    frontier,
                    (g + h, next(counter), depth + 1, child, child_used))

    if best_mapping is None:
        # fall back to all-delete/all-insert mapping
        best_mapping = {u: EPS for u in nodes1}
        best = min(best, _mapping_cost(g1, g2, best_mapping, node_label))
    return GedResult(cost=best, mapping=best_mapping, exact=True)


def approximate_ged(g1: Graph, g2: Graph,
                    node_label: LabelFn = _default_node_label) -> GedResult:
    """Riesen-Bunke bipartite GED upper bound (assignment on local costs)."""
    nodes1 = list(g1.nodes())
    nodes2 = list(g2.nodes())
    n1, n2 = len(nodes1), len(nodes2)
    size = n1 + n2
    if size == 0:
        return GedResult(cost=0.0, mapping={}, exact=True)
    big = 1e9
    labels1 = [node_label(g1, u) for u in nodes1]
    labels2 = [node_label(g2, v) for v in nodes2]
    degrees1 = [g1.degree(u) for u in nodes1]
    degrees2 = [g2.degree(v) for v in nodes2]
    cost: list[list[float]] = []
    for i, (label, du) in enumerate(zip(labels1, degrees1)):
        # substituting u: label mismatch + half the degree difference
        # (the local edge-structure estimate); then deleting u, allowed
        # in u's own column of the deletion block only
        row = [(0.0 if label == other else 1.0) + abs(du - dv) / 2.0
               for other, dv in zip(labels2, degrees2)]
        row.extend([big] * n1)
        row[n2 + i] = 1.0 + du / 2.0
        cost.append(row)
    for i, dv in enumerate(degrees2):
        # inserting v, allowed in v's own column only; then the zero
        # dummy block
        row = [big] * n2
        row[i] = 1.0 + dv / 2.0
        row.extend([0.0] * n1)
        cost.append(row)
    assignment, __ = hungarian(cost)
    mapping: dict[Node, Node | None] = {}
    for i, u in enumerate(nodes1):
        j = assignment[i]
        mapping[u] = nodes2[j] if j < n2 else EPS
    true_cost = _mapping_cost(g1, g2, mapping, node_label)
    return GedResult(cost=true_cost, mapping=mapping, exact=False)


def graph_edit_distance(g1: Graph, g2: Graph,
                        node_label: LabelFn = _default_node_label,
                        exact_threshold: int = 8) -> GedResult:
    """GED with automatic solver choice.

    Graphs whose node counts are both <= ``exact_threshold`` are solved
    exactly (seeded with the bipartite upper bound); larger instances get
    the bipartite approximation.
    """
    if (g1.number_of_nodes() <= exact_threshold
            and g2.number_of_nodes() <= exact_threshold):
        seed = approximate_ged(g1, g2, node_label=node_label)
        result = exact_ged(g1, g2, node_label=node_label,
                           upper_bound=seed.cost + 1e-9)
        if result.cost <= seed.cost:
            return result
        return GedResult(seed.cost, seed.mapping, exact=True)
    return approximate_ged(g1, g2, node_label=node_label)
