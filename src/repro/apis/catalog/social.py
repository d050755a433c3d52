"""Social-network APIs (community structure, influence, connectivity)."""

from __future__ import annotations

from typing import Any

from ...algorithms import (
    articulation_points,
    attribute_assortativity,
    bridges,
    greedy_modularity_communities,
    label_propagation,
    modularity,
    pagerank,
)
from ...algorithms.community import _label_propagation_modularity
from ...errors import APIError
from ...graphs.graph import DiGraph, Graph
from ..executor import ChainContext
from ..registry import APIRegistry, APISpec, Category


def _social_graph(context: ChainContext) -> Graph:
    if context.graph is None:
        raise APIError("no graph in the prompt context")
    graph = context.graph
    return graph.to_undirected() if isinstance(graph, DiGraph) else graph


def detect_communities(context: ChainContext, method: str = "label_prop",
                       seed: int = 0, k: int = 2) -> dict[str, Any]:
    """Detect communities and score the partition by modularity."""
    graph = _social_graph(context)
    if method == "label_prop":
        communities = label_propagation(graph, seed=seed)
        score = _label_propagation_modularity(graph, seed=seed)
    elif method == "greedy_modularity":
        communities = greedy_modularity_communities(graph)
        score = modularity(graph, communities)
    elif method == "spectral":
        from ...algorithms import spectral_communities
        communities = spectral_communities(graph, k=k)
        score = modularity(graph, communities)
    else:
        raise APIError(f"unknown community method {method!r}")
    return {
        "method": method,
        "n_communities": len(communities),
        "sizes": sorted((len(c) for c in communities), reverse=True),
        "modularity": round(score, 4),
        "communities": [sorted(c, key=repr) for c in communities],
    }


def find_influencers(context: ChainContext, top: int = 5
                     ) -> list[dict[str, Any]]:
    """Most influential members by PageRank, with their names."""
    graph = _social_graph(context)
    ranks = pagerank(graph)
    ordered = sorted(ranks.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return [{"node": node,
             "name": graph.get_node_attr(node, "name", str(node)),
             "pagerank": round(score, 6)}
            for node, score in ordered[:top]]


def social_connectivity(context: ChainContext) -> dict[str, Any]:
    """Weak points of the network: bridges and articulation members."""
    graph = _social_graph(context)
    bridge_list = bridges(graph)
    cut_nodes = articulation_points(graph)
    return {
        "n_bridges": len(bridge_list),
        "bridges": [tuple(sorted(edge, key=repr)) for edge in bridge_list],
        "n_cut_members": len(cut_nodes),
        "cut_members": sorted(cut_nodes, key=repr),
    }


def community_overlap(context: ChainContext, seed: int = 0
                      ) -> dict[str, Any]:
    """Agreement between the two community detectors (stability signal)."""
    graph = _social_graph(context)
    a = label_propagation(graph, seed=seed)
    b = greedy_modularity_communities(graph)
    # pairwise agreement: same-community co-membership rate
    def membership(parts: list[set[Any]]) -> dict[Any, int]:
        out: dict[Any, int] = {}
        for cid, part in enumerate(parts):
            for node in part:
                out[node] = cid
        return out
    ma, mb = membership(a), membership(b)
    nodes = list(graph.nodes())
    agree = total = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            total += 1
            if (ma[u] == ma[v]) == (mb[u] == mb[v]):
                agree += 1
    return {
        "label_prop_communities": len(a),
        "greedy_communities": len(b),
        "pairwise_agreement": round(agree / total, 4) if total else 1.0,
    }


def homophily(context: ChainContext, attribute: str = "community"
              ) -> dict[str, Any]:
    """Attribute assortativity: do like members connect to like?"""
    graph = _social_graph(context)
    try:
        r = attribute_assortativity(graph, attribute)
    except Exception as exc:
        raise APIError(f"homophily on {attribute!r} failed: {exc}") from exc
    return {"attribute": attribute, "assortativity": round(r, 4),
            "homophilous": r > 0.1}


def register(registry: APIRegistry) -> None:
    """Register every social API."""
    social = Category.SOCIAL
    for spec in (
        APISpec("detect_communities",
                "detect communities groups or clusters in a social network "
                "and measure modularity",
                social, detect_communities,
                params={"method": "label_prop", "seed": 0, "k": 2}),
        APISpec("find_influencers",
                "find the most influential users or members of a social "
                "network",
                social, find_influencers, params={"top": 5}),
        APISpec("social_connectivity",
                "analyze the connectivity of a social network finding "
                "bridges and cut members whose removal disconnects groups",
                social, social_connectivity),
        APISpec("community_overlap",
                "compare community detection methods and report their "
                "agreement",
                social, community_overlap, params={"seed": 0}),
        APISpec("homophily",
                "measure homophily whether similar members connect to "
                "each other by a node attribute",
                social, homophily, params={"attribute": "community"}),
    ):
        registry.register(spec)
