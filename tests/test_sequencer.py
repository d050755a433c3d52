"""Tests for the graph sequentializer: path cover, super-graph, rings,
serializer."""

import random

import pytest

from repro.chem import parse_smiles
from repro.config import SequencerConfig
from repro.errors import SequencerError
from repro.graphs import (
    DiGraph,
    Graph,
    TopologyView,
    ba_graph,
    complete_graph,
    cycle_graph,
    er_graph,
    molecule_like_graph,
    path_graph,
    social_network,
    star_graph,
)
from repro.sequencer import (
    GraphSequentializer,
    build_supergraph,
    length_constrained_path_cover,
)
from repro.sequencer.motifs import find_rings, ring_ids
from repro.sequencer.serializer import EDGE_TOKEN, node_token


class TestPathCover:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_coverage_uncapped(self, seed):
        g = er_graph(25, 0.15, seed=seed)
        __, stats = length_constrained_path_cover(g, 2)
        assert stats.node_coverage == 1.0
        assert stats.edge_coverage == 1.0

    def test_path_length_respected(self):
        g = er_graph(20, 0.2, seed=1)
        paths, stats = length_constrained_path_cover(g, 2)
        assert stats.max_path_length <= 2
        assert all(len(p) - 1 <= 2 for p in paths)

    def test_paths_start_consistent(self):
        g = cycle_graph(5)
        paths, __ = length_constrained_path_cover(g, 2)
        # every path is a valid walk in g
        for path in paths:
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    def test_isolated_node_covered(self):
        g = Graph()
        g.add_node("alone")
        g.add_edge(1, 2)
        paths, stats = length_constrained_path_cover(g, 2)
        assert ("alone",) in paths
        assert stats.node_coverage == 1.0

    def test_bound_respected(self):
        # paper bound: O(|G| * 2^l); with node+edge cover our paths are
        # <= sum over u of (ball nodes + ball edges)
        g = er_graph(40, 0.08, seed=2)
        paths, __ = length_constrained_path_cover(g, 2)
        ball_budget = 0
        from repro.algorithms import bfs_distances
        for u in g.nodes():
            d = {n for n, dist in bfs_distances(g, u).items() if dist <= 2}
            edges = sum(1 for a, b in g.edges() if a in d and b in d)
            ball_budget += len(d) + edges
        assert len(paths) <= ball_budget

    def test_max_paths_cap(self):
        g = complete_graph(10)
        paths, stats = length_constrained_path_cover(g, 3, max_paths=20)
        assert len(paths) == 20
        assert stats.n_paths == 20

    def test_bad_length(self):
        with pytest.raises(SequencerError):
            length_constrained_path_cover(path_graph(3), 0)

    def test_directed_cover(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("b", "c"), ("c", "a")])
        __, stats = length_constrained_path_cover(d, 2)
        assert stats.edge_coverage == 1.0

    def test_deduplication(self):
        g = path_graph(3)
        paths, __ = length_constrained_path_cover(g, 2)
        assert len(paths) == len(set(paths))


class TestSuperGraph:
    def test_clique_contracts(self):
        g = complete_graph(4)
        g.add_edge(0, 99)
        sg = build_supergraph(g)
        motifs = {sg.graph.get_node_attr(n, "motif")
                  for n in sg.graph.nodes()}
        assert "clique" in motifs
        assert sg.graph.number_of_nodes() == 2

    def test_triangle_label(self):
        sg = build_supergraph(complete_graph(3))
        assert sg.graph.get_node_attr(0, "motif") == "triangle"

    def test_all_nodes_assigned(self):
        g = social_network(30, 3, seed=5)
        sg = build_supergraph(g)
        members = set().union(*sg.members.values())
        assert members == set(g.nodes())

    def test_compression_ratio(self):
        sg = build_supergraph(complete_graph(6))
        assert sg.compression_ratio == 6.0
        sg2 = build_supergraph(path_graph(4))
        assert sg2.compression_ratio == 1.0

    def test_supernode_of(self):
        sg = build_supergraph(complete_graph(3))
        assert sg.supernode_of(0) == sg.supernode_of(1)
        with pytest.raises(SequencerError):
            sg.supernode_of("ghost")

    def test_cross_edges_preserved(self):
        g = complete_graph(3)
        h = complete_graph(3)
        merged = Graph()
        for u, v in g.edges():
            merged.add_edge(("a", u), ("a", v))
            merged.add_edge(("b", u), ("b", v))
        merged.add_edge(("a", 0), ("b", 0))
        sg = build_supergraph(merged)
        assert sg.graph.number_of_edges() == 1

    def test_bad_min_size(self):
        with pytest.raises(SequencerError):
            build_supergraph(path_graph(3), min_motif_size=1)

    def test_directed_graph_gives_undirected_supergraph(self):
        d = DiGraph(name="d")
        d.add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (3, 5),
                     (5, 4), (5, 6), (6, 5)])
        sg = build_supergraph(d)
        assert not isinstance(sg.graph, DiGraph)
        assert not sg.view.directed
        # motifs are found on the skeleton: the same groups as there
        skeleton = d.to_undirected()
        assert sg.members == build_supergraph(skeleton).members
        # one undirected edge per pair of super-nodes an arc joins, in
        # whichever direction the arc runs
        contracted = {frozenset((sg.supernode_of(u), sg.supernode_of(v)))
                      for u, v in skeleton.edges()
                      if sg.supernode_of(u) != sg.supernode_of(v)}
        edges = [frozenset(edge) for edge in sg.graph.edges()]
        assert len(edges) == len(set(edges)) == sg.view.n_edges
        assert set(edges) == contracted
        assert sg.graph.number_of_edges() == 2

    def test_coarse_view_matches_lazy_graph(self):
        sg = build_supergraph(social_network(60, 3, p_in=0.4, seed=2))
        assert sg.view == TopologyView.of(sg.graph)
        assert sg.motifs == tuple(
            (sg.graph.get_node_attr(sid, "motif"),
             sg.graph.get_node_attr(sid, "size"))
            for sid in sg.graph.nodes())


class TestFindRings:
    def test_single_cycle(self):
        rings = find_rings(cycle_graph(6))
        assert rings == [frozenset(range(6))]

    def test_tree_has_no_rings(self):
        assert find_rings(path_graph(6)) == []

    def test_max_size_filter(self):
        assert find_rings(cycle_graph(10), max_size=8) == []
        assert len(find_rings(cycle_graph(8), max_size=8)) == 1

    def test_fused_rings_found(self):
        naphthalene = parse_smiles("c1ccc2ccccc2c1").to_graph()
        rings = find_rings(naphthalene)
        assert rings  # basis yields at least one small ring
        assert all(3 <= len(ring) <= 8 for ring in rings)

    def test_clique_rings_are_triangles(self):
        rings = find_rings(complete_graph(4))
        assert all(len(ring) == 3 for ring in rings)
        assert len(rings) == 3  # m - n + 1 = 6 - 4 + 1

    def test_directed_input_accepted(self):
        from repro.graphs import DiGraph
        d = DiGraph()
        d.add_edges([(1, 2), (2, 3), (3, 1)])
        assert len(find_rings(d)) == 1


class TestRingSupergraph:
    def test_benzene_contracts_to_one_supernode(self):
        benzene = parse_smiles("c1ccccc1").to_graph()
        sg = build_supergraph(benzene)
        assert sg.graph.number_of_nodes() == 1
        assert sg.graph.get_node_attr(0, "motif") == "ring"

    def test_aspirin_ring_plus_singletons(self):
        aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").to_graph()
        sg = build_supergraph(aspirin)
        motifs = sorted(sg.graph.get_node_attr(n, "motif")
                        for n in sg.graph.nodes())
        assert motifs.count("ring") == 1
        assert sg.compression_ratio > 1.5

    def test_molecule_sequences_get_ring_tokens(self):
        from repro.config import SequencerConfig
        from repro.sequencer import GraphSequentializer
        naphthalene = parse_smiles("c1ccc2ccccc2c1").to_graph()
        out = GraphSequentializer(
            SequencerConfig(multi_level=True)).sequentialize(naphthalene)
        tokens = set(out.feature_counts)
        assert any(token.startswith("<m:ring") for token in tokens)


@pytest.mark.parametrize("seed", range(6))
def test_pruned_ring_search_drops_only_unusable_rings(seed):
    """``min_size`` / ``avoid`` filter the full search's rings, in order."""
    rng = random.Random(seed)
    graph = (molecule_like_graph(4, 3, seed=seed) if seed % 2
             else ba_graph(40, 2, seed=seed))
    view = TopologyView.of(graph)
    rows, rank = view.skeleton(), view.repr_ranks()
    avoid = sum(1 << node for node in range(len(rows))
                if rng.random() < 0.15)
    for min_size in (3, 4, 6):
        full = ring_ids(rows, rank, max_size=8)
        assert ring_ids(rows, rank, 8, min_size, avoid) == [
            ring for ring in full
            if ring.bit_count() >= min_size and not ring & avoid]


class TestSerializer:
    def test_node_token_uses_labels(self):
        g = Graph()
        g.add_node(0, element="C")
        g.add_node(1)
        assert node_token(g, 0) == "<n:C>"
        assert node_token(g, 1) == "<n:*>"

    def test_sequences_alternate_edge_tokens(self):
        g = molecule_like_graph(1, 2, seed=0)
        out = GraphSequentializer(SequencerConfig(path_length=2)) \
            .sequentialize(g)
        for seq in out.sequences:
            for i, token in enumerate(seq):
                if i % 2 == 1:
                    assert token == EDGE_TOKEN
                else:
                    assert token.startswith("<n:")

    def test_multi_level_produces_super_sequences(self):
        g = social_network(30, 3, p_in=0.4, seed=1)
        out = GraphSequentializer(
            SequencerConfig(multi_level=True)).sequentialize(g)
        assert out.super_sequences
        assert out.supergraph is not None
        assert any(t.startswith("<m:") for seq in out.super_sequences
                   for t in seq)

    def test_single_level_mode(self):
        g = star_graph(4)
        out = GraphSequentializer(
            SequencerConfig(multi_level=False)).sequentialize(g)
        assert out.super_sequences == ()
        assert out.supergraph is None

    def test_feature_counts_cover_both_levels(self):
        g = complete_graph(4)
        out = GraphSequentializer(SequencerConfig()).sequentialize(g)
        tokens = set(out.feature_counts)
        assert any(t.startswith("<n:") for t in tokens)
        assert any(t.startswith("<m:") for t in tokens)

    def test_flat_tokens_have_level_markers(self):
        g = path_graph(3)
        out = GraphSequentializer(SequencerConfig()).sequentialize(g)
        flat = out.flat_tokens()
        assert "<level:0>" in flat

    def test_max_paths_respected(self):
        g = complete_graph(8)
        out = GraphSequentializer(
            SequencerConfig(path_length=3, max_paths=30)).sequentialize(g)
        assert len(out.sequences) <= 30
