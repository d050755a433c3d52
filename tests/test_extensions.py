"""Tests for the extension modules: assortativity, GraphML and the new
catalog APIs."""

import io

import pytest

from repro.algorithms import (
    attribute_assortativity,
    degree_assortativity,
)
from repro.apis import APIChain, ChainContext, ChainExecutor, ChainNode
from repro.chem import parse_smiles
from repro.errors import ChatGraphError, GraphError, GraphIOError
from repro.graphs import (
    Graph,
    complete_graph,
    read_graphml,
    social_network,
    star_graph,
    write_graphml,
)


class TestAssortativity:
    def test_star_disassortative(self):
        assert degree_assortativity(star_graph(6)) < -0.9

    def test_regular_graph_neutral(self):
        # all degrees equal -> zero variance -> 0.0 by convention
        assert degree_assortativity(complete_graph(5)) == 0.0

    def test_tiny_graph_zero(self):
        g = Graph()
        g.add_edge(1, 2)
        assert degree_assortativity(g) == 0.0

    def test_matches_networkx(self):
        import networkx as nx
        from repro.graphs import er_graph
        for seed in range(4):
            g = er_graph(30, 0.12, seed=seed)
            G = nx.Graph()
            G.add_nodes_from(g.nodes())
            G.add_edges_from(g.edges())
            theirs = nx.degree_assortativity_coefficient(G)
            assert degree_assortativity(g) == pytest.approx(theirs,
                                                            abs=1e-6)

    def test_attribute_homophily(self):
        g = social_network(40, 2, p_in=0.5, p_out=0.01, seed=1)
        r = attribute_assortativity(g, "community")
        assert r > 0.7

    def test_attribute_missing_raises(self):
        with pytest.raises(GraphError):
            attribute_assortativity(complete_graph(3), "nope")

    def test_perfectly_mixed_attribute(self):
        g = Graph()
        g.add_node(1, team="a")
        g.add_node(2, team="a")
        g.add_edge(1, 2)
        assert attribute_assortativity(g, "team") == 1.0


class TestGraphml:
    def test_roundtrip_counts_and_attrs(self, tmp_path):
        g = social_network(15, 2, seed=4)
        path = tmp_path / "g.graphml"
        write_graphml(g, path)
        g2 = read_graphml(path)
        assert g2.number_of_nodes() == g.number_of_nodes()
        assert g2.number_of_edges() == g.number_of_edges()
        node = next(iter(g2.nodes()))
        assert g2.get_node_attr(node, "kind") == "person"
        assert isinstance(g2.get_node_attr(node, "community"), int)

    def test_directed_roundtrip(self, tmp_path, kg_graph):
        path = tmp_path / "kg.graphml"
        write_graphml(kg_graph, path)
        back = read_graphml(path)
        assert back.directed
        assert back.number_of_edges() == kg_graph.number_of_edges()
        u, v = next(iter(back.edges()))
        assert back.get_edge_attr(u, v, "relation") is not None

    def test_invalid_xml_raises(self, tmp_path):
        path = tmp_path / "broken.graphml"
        path.write_text("<graphml><graph>")
        with pytest.raises(GraphIOError):
            read_graphml(path)

    def test_json_attrs_roundtrip_and_non_json_rejected(self, tmp_path):
        # lists/dicts/None ride the "json" extension type (see
        # docs/STORE.md: everything the edit log accepts must survive)
        g = Graph()
        g.add_node(1, stuff=[1, 2], extra={"a": None})
        path = tmp_path / "x.graphml"
        write_graphml(g, path)
        back = read_graphml(path)
        node = next(iter(back.nodes()))
        assert back.get_edge_attr is not None  # api smoke
        assert back.node_attrs(node)["stuff"] == [1, 2]
        assert back.node_attrs(node)["extra"] == {"a": None}
        g.add_node(2, bad=object())
        with pytest.raises(GraphIOError):
            write_graphml(g, tmp_path / "y.graphml")


class TestNewApis:
    @pytest.fixture()
    def executor(self, registry):
        return ChainExecutor(registry)

    def run_one(self, executor, api_name, context, **params):
        chain = APIChain([ChainNode(api_name, dict(params))])
        return executor.execute(chain, context).final_result

    def test_assortativity_api(self, executor):
        result = self.run_one(executor, "assortativity",
                              ChainContext(graph=star_graph(5)))
        assert result["degree_assortativity"] < -0.9
        assert "disassortative" in result["tendency"]

    def test_homophily_api(self, executor, social_graph):
        result = self.run_one(executor, "homophily",
                              ChainContext(graph=social_graph))
        assert result["homophilous"] is True

    def test_substructure_count_carboxyl(self, executor):
        aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        result = self.run_one(executor, "substructure_count",
                              ChainContext(graph=aspirin.to_graph()),
                              pattern="C(=O)O")
        assert result["n_distinct_sites"] == 2

    def test_substructure_count_requires_pattern(self, executor):
        from repro.errors import ChainExecutionError
        with pytest.raises(ChainExecutionError):
            self.run_one(executor, "substructure_count",
                         ChainContext(graph=parse_smiles("C").to_graph()))

    def test_find_substructure_labeled(self, executor):
        mol = parse_smiles("CCO")
        result = self.run_one(
            executor, "find_substructure",
            ChainContext(graph=mol.to_graph()),
            pattern_edges=[("C1", "O1")], label_key="element")
        assert result["n_matches"] == 1  # the single C-O bond

    def test_find_substructure_symmetric_pattern(self, executor):
        mol = parse_smiles("CCO")
        result = self.run_one(
            executor, "find_substructure",
            ChainContext(graph=mol.to_graph()),
            pattern_edges=[("C1", "C2")], label_key="element")
        assert result["n_matches"] == 2  # C-C in both orientations

    def test_find_substructure_unlabeled(self, executor):
        result = self.run_one(
            executor, "find_substructure",
            ChainContext(graph=complete_graph(4)),
            pattern_edges=[(0, 1), (1, 2), (0, 2)], max_matches=100)
        assert result["n_matches"] == 24  # 4 triangles x 6 automorphisms


class TestCli:
    @pytest.fixture()
    def cli(self, chatgraph):
        from repro.cli import ChatCli
        return ChatCli(chatgraph, out=io.StringIO())

    def run_script(self, cli, *lines):
        for line in lines:
            cli.handle(line)
        return cli.out.getvalue()

    def test_demo_and_question(self, cli):
        output = self.run_script(
            cli, "/demo social", "how many nodes does the graph have")
        assert "count_nodes: 50" in output

    def test_suggest(self, cli):
        output = self.run_script(cli, "/demo kg", "/suggest")
        assert "Clean G" in output

    def test_manual_confirm_flow(self, cli):
        output = self.run_script(
            cli, "/demo social", "/manual",
            "Write a brief report for G", "/chain",
            "/edit remove 1", "/confirm")
        assert "Graph report" in output
        assert "(confirm with /confirm" in output

    def test_reject(self, cli):
        output = self.run_script(
            cli, "/demo social", "/manual", "count the nodes", "/reject")
        assert "chain discarded" in output

    def test_unknown_command(self, cli):
        assert "unknown command" in self.run_script(cli, "/bogus")

    def test_error_reported_not_raised(self, cli):
        output = self.run_script(cli, "/upload /no/such/file.json")
        assert "error:" in output

    def test_apis_listing(self, cli):
        output = self.run_script(cli, "/apis")
        assert "detect_communities" in output

    def test_config_shown(self, cli):
        output = self.run_script(cli, "/config")
        assert "top_k_apis" in output

    def test_quit_stops(self, cli):
        self.run_script(cli, "/quit")
        assert not cli.running

    def test_load_graph_kinds(self, tmp_path, chatgraph):
        from repro.cli import load_graph
        import json as json_mod
        from repro.graphs.io import to_dict
        g = social_network(10, 2, seed=0)
        json_path = tmp_path / "g.json"
        json_path.write_text(json_mod.dumps(to_dict(g)))
        assert load_graph(str(json_path)).number_of_nodes() == 10
        smi_path = tmp_path / "m.smi"
        smi_path.write_text("CCO\n")
        assert load_graph(str(smi_path)).number_of_nodes() == 3
        with pytest.raises(ChatGraphError):
            load_graph(str(tmp_path / "missing.json"))
