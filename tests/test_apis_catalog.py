"""Tests for the concrete API catalog (every category)."""

import pytest

from repro.apis import APIChain, ChainContext, ChainExecutor, ChainNode
from repro.chem import parse_smiles
from repro.errors import APIError, ChainExecutionError
from repro.graphs import (
    DiGraph,
    complete_graph,
    knowledge_graph,
    path_graph,
    social_network,
    star_graph,
)
from repro.kb import KnowledgeInferencer, TripleStore, corrupt_store


@pytest.fixture()
def executor(registry):
    return ChainExecutor(registry)


def run_one(executor, api_name, context, **params):
    from repro.apis import ChainNode
    chain = APIChain([ChainNode(api_name, dict(params))])
    record = executor.execute(chain, context)
    return record.final_result


class TestGenericApis:
    def test_counts(self, executor, social_graph):
        ctx = ChainContext(graph=social_graph)
        assert run_one(executor, "count_nodes", ctx) == 40
        assert run_one(executor, "count_edges", ctx) == \
            social_graph.number_of_edges()

    def test_summary(self, executor, social_graph):
        summary = run_one(executor, "graph_summary",
                          ChainContext(graph=social_graph))
        assert summary["n_nodes"] == 40
        assert "density" in summary

    def test_density_and_distribution(self, executor):
        ctx = ChainContext(graph=complete_graph(4))
        assert run_one(executor, "graph_density", ctx) == 1.0
        assert run_one(executor, "degree_distribution", ctx) == {3: 4}

    def test_connectivity(self, executor):
        from repro.graphs import Graph
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        result = run_one(executor, "connectivity", ChainContext(graph=g))
        assert result["connected"] is False
        assert result["n_components"] == 2

    def test_diameter(self, executor):
        assert run_one(executor, "graph_diameter",
                       ChainContext(graph=path_graph(5))) == 4

    def test_shortest_path(self, executor):
        result = run_one(executor, "find_shortest_path",
                         ChainContext(graph=path_graph(4)),
                         source=0, target=3)
        assert result == [0, 1, 2, 3]

    def test_shortest_path_missing_params(self, executor):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "find_shortest_path",
                    ChainContext(graph=path_graph(3)))

    def test_rankings(self, executor, social_graph):
        ctx = ChainContext(graph=social_graph)
        top = run_one(executor, "rank_pagerank", ctx, top=3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1]
        top_deg = run_one(executor, "rank_degree", ctx, top=2)
        assert len(top_deg) == 2
        top_btw = run_one(executor, "rank_betweenness", ctx, top=2)
        assert len(top_btw) == 2

    def test_kcore_and_motifs(self, executor):
        ctx = ChainContext(graph=complete_graph(5))
        result = run_one(executor, "kcore_decomposition", ctx)
        assert result == {"max_core": 4, "core_size": 5}
        motifs = run_one(executor, "motif_profile", ctx)
        assert motifs["max_clique"] == 5

    def test_no_graph_fails(self, executor):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "count_nodes", ChainContext())


class TestSocialApis:
    def test_detect_communities(self, executor, social_graph):
        result = run_one(executor, "detect_communities",
                         ChainContext(graph=social_graph))
        assert result["n_communities"] >= 2
        assert result["modularity"] > 0.2
        assert sum(result["sizes"]) == 40

    def test_detect_communities_greedy(self, executor, social_graph):
        result = run_one(executor, "detect_communities",
                         ChainContext(graph=social_graph),
                         method="greedy_modularity")
        assert result["method"] == "greedy_modularity"

    def test_bad_method(self, executor, social_graph):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "detect_communities",
                    ChainContext(graph=social_graph), method="nope")

    def test_find_influencers(self, executor, social_graph):
        result = run_one(executor, "find_influencers",
                         ChainContext(graph=social_graph), top=3)
        assert len(result) == 3
        assert result[0]["name"].startswith("user_")

    def test_social_connectivity(self, executor):
        from repro.graphs import Graph
        g = complete_graph(3)
        h = Graph()
        for u, v in g.edges():
            h.add_edge(u, v)
            h.add_edge(u + 10, v + 10)
        h.add_edge(0, 10)
        result = run_one(executor, "social_connectivity",
                         ChainContext(graph=h))
        assert result["n_bridges"] == 1
        assert set(result["cut_members"]) == {0, 10}

    def test_community_overlap(self, executor, social_graph):
        result = run_one(executor, "community_overlap",
                         ChainContext(graph=social_graph))
        assert 0.0 <= result["pairwise_agreement"] <= 1.0


class TestMoleculeApis:
    def test_formula_from_graph(self, executor):
        mol = parse_smiles("CCO")
        result = run_one(executor, "molecular_formula",
                         ChainContext(graph=mol.to_graph()))
        assert result == "C2H6O"

    def test_formula_from_attachment(self, executor):
        ctx = ChainContext(extras={"molecule": "c1ccccc1"})
        assert run_one(executor, "molecular_formula", ctx) == "C6H6"

    def test_describe(self, executor):
        mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        result = run_one(executor, "describe_molecule",
                         ChainContext(graph=mol.to_graph()))
        assert result["formula"] == "C9H8O4"
        assert result["rings"] == 1

    def test_toxicity_and_solubility(self, executor):
        mol = parse_smiles("Cc1c(N(=O)=O)cc(N(=O)=O)cc1N(=O)=O")
        ctx = ChainContext(graph=mol.to_graph())
        tox = run_one(executor, "predict_toxicity", ctx)
        assert tox["class"] == "high"
        sol = run_one(executor, "predict_solubility", ctx)
        assert "logS" in sol

    def test_druglikeness(self, executor):
        mol = parse_smiles("CCO")
        result = run_one(executor, "druglikeness",
                         ChainContext(graph=mol.to_graph()))
        assert result["lipinski_violations"] == 0

    def test_similarity_needs_database(self, executor):
        mol = parse_smiles("CCO")
        with pytest.raises(ChainExecutionError):
            run_one(executor, "similar_molecules",
                    ChainContext(graph=mol.to_graph()))

    def test_similarity_search(self, executor, molecule_db):
        mol = parse_smiles("CCO")
        ctx = ChainContext(graph=mol.to_graph(), database=molecule_db)
        hits = run_one(executor, "similar_molecules", ctx, k=2)
        assert len(hits) == 2
        assert hits[0]["name"] == "ethanol"

    def test_non_molecule_graph_rejected(self, executor, social_graph):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "molecular_formula",
                    ChainContext(graph=social_graph))


class TestKnowledgeAndEditApis:
    @pytest.fixture()
    def noisy_context(self, kg_graph):
        store = TripleStore.from_graph(kg_graph)
        noisy, injected, __ = corrupt_store(store, 0.08, 0.0, seed=1)
        return ChainContext(graph=noisy.to_graph()), injected

    def test_knowledge_profile(self, executor, kg_graph):
        result = run_one(executor, "knowledge_profile",
                         ChainContext(graph=kg_graph))
        assert result["n_facts"] == kg_graph.number_of_edges()
        assert "person" in result["entity_types"]

    def test_mine_rules(self, executor, kg_graph):
        result = run_one(executor, "mine_rules",
                         ChainContext(graph=kg_graph))
        assert result["type_signatures"]

    def test_detection_finds_injected(self, executor, noisy_context):
        ctx, injected = noisy_context
        findings = run_one(executor, "detect_incorrect_edges", ctx)
        flagged = {(f["head"], f["relation"], f["tail"]) for f in findings}
        truth = {(t.head, t.relation, t.tail) for t in injected}
        assert truth <= flagged

    def test_remove_requires_detection(self, executor, kg_graph):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "remove_flagged_edges",
                    ChainContext(graph=kg_graph))

    def test_detect_then_remove(self, executor, noisy_context):
        ctx, injected = noisy_context
        before = ctx.graph.number_of_edges()
        chain = APIChain.from_names(["detect_incorrect_edges",
                                     "remove_flagged_edges"])
        record = executor.execute(chain, ctx)
        removed = record.final_result["n_removed"]
        assert removed == len(injected)
        assert ctx.graph.number_of_edges() == before - removed

    def test_confirmation_can_decline(self, executor, noisy_context):
        ctx, __ = noisy_context
        ctx.confirm = lambda question, payload: False
        from repro.apis import ChainNode
        chain = APIChain([
            ChainNode("detect_incorrect_edges"),
            ChainNode("remove_flagged_edges", {"confirm_each": True}),
        ])
        record = executor.execute(chain, ctx)
        assert record.final_result["n_removed"] == 0
        assert record.final_result["skipped"]

    @staticmethod
    def int_ids(graph):
        """``graph`` with every node renamed to its insertion index."""
        index = {node: i for i, node in enumerate(graph.nodes())}
        relabelled = DiGraph()
        for node, i in index.items():
            relabelled.add_node(i, **graph.node_attrs(node))
        for u, v in graph.edges():
            relabelled.add_edge(index[u], index[v], **graph.edge_attrs(u, v))
        return relabelled

    def test_edit_steps_resolve_int_node_ids(self, executor):
        """Findings name entities by ``str(node)``; the edit steps must
        act on the graph's own (here int) nodes, not on new strings."""
        store = TripleStore.from_graph(knowledge_graph(60, 300, seed=21))
        noisy, __, __ = corrupt_store(store, 0.1, 0.0, seed=3)
        graph = self.int_ids(noisy.to_graph())
        ctx = ChainContext(graph=graph)
        record = executor.execute(APIChain.from_names(
            ["detect_incorrect_edges", "remove_flagged_edges"]), ctx)
        flagged = record.steps[0].result
        assert len(flagged) > 10
        assert record.final_result["n_removed"] == len(flagged)
        assert ctx.graph.number_of_edges() == \
            graph.number_of_edges() - len(flagged)
        for finding in flagged:
            assert not ctx.graph.has_edge(int(finding["head"]),
                                          int(finding["tail"]))

        dense = TripleStore.from_graph(knowledge_graph(40, 400, seed=22))
        sparse, __, __ = corrupt_store(dense, 0.0, 0.08, seed=4)
        graph = self.int_ids(sparse.to_graph())
        ctx = ChainContext(graph=graph)
        record = executor.execute(APIChain.from_names(
            ["predict_missing_edges", "add_predicted_edges"]), ctx)
        assert record.final_result["n_added"] > 0
        assert set(ctx.graph.nodes()) == set(graph.nodes())
        for u, v in record.final_result["added"]:
            assert ctx.graph.has_edge(u, v) and not graph.has_edge(u, v)

    PLANTED = (("person_0", "works_at", "person_5"),
               ("city_2", "located_in", "person_10"))

    @pytest.fixture()
    def planted_graph(self):
        graph = knowledge_graph(150, 600, seed=3)
        for head, relation, tail in self.PLANTED:
            graph.add_edge(head, tail, relation=relation)
        return graph

    def test_edit_step_drops_derived_store_and_inferencer(
            self, executor, planted_graph):
        """What the knowledge steps derive from the graph follows an
        edit step: the second profile counts the cleaned graph and the
        second detection does not flag edges that are already gone."""
        chain = APIChain.from_names([
            "knowledge_profile", "detect_incorrect_edges",
            "remove_flagged_edges", "knowledge_profile",
            "detect_incorrect_edges", "export_graph"])
        ctx = ChainContext(graph=planted_graph)
        results = [step.result
                   for step in executor.execute(chain, ctx).steps]
        assert results[0]["n_facts"] == 602
        assert {(f["head"], f["relation"], f["tail"])
                for f in results[1]} == set(self.PLANTED)
        assert results[2]["n_removed"] == 2
        assert len(results[5]["edges"]) == 600
        assert results[3]["n_facts"] == 600
        assert results[4] == []

    def test_edit_step_that_edits_nothing_keeps_the_fit(
            self, executor, planted_graph, monkeypatch):
        fits = []
        fit = KnowledgeInferencer.fit
        monkeypatch.setattr(KnowledgeInferencer, "fit", classmethod(
            lambda cls, *args: fits.append(args) or fit(*args)))
        ctx = ChainContext(graph=planted_graph,
                           confirm=lambda question, payload: False)
        executor.execute(APIChain.from_names(["detect_incorrect_edges"]),
                         ctx)
        assert len(fits) == 1
        record = executor.execute(APIChain([
            ChainNode("detect_incorrect_edges"),
            ChainNode("remove_flagged_edges", {"confirm_each": True}),
            ChainNode("mine_rules")]), ctx)
        assert record.steps[1].result["n_removed"] == 0
        assert ctx.graph is planted_graph
        assert len(fits) == 1

    def test_attached_triple_store_wins_over_the_graph(
            self, executor, planted_graph):
        store = TripleStore.from_triples([("a", "knows", "b")])
        ctx = ChainContext(graph=planted_graph,
                           extras={"triple_store": store})
        chain = APIChain.from_names([
            "detect_incorrect_edges", "remove_flagged_edges",
            "knowledge_profile"])
        record = executor.execute(chain, ctx)
        assert record.final_result["n_facts"] == 1

    def test_explicit_edge_edits(self, executor):
        from repro.graphs import Graph
        g = Graph()
        g.add_edge("a", "b")
        ctx = ChainContext(graph=g)
        run_one(executor, "remove_edge", ctx, source="a", target="b")
        assert not ctx.graph.has_edge("a", "b")
        run_one(executor, "add_edge", ctx, source="a", target="c")
        assert ctx.graph.has_edge("a", "c")

    def test_export_graph(self, executor, kg_graph):
        doc = run_one(executor, "export_graph",
                      ChainContext(graph=kg_graph))
        assert doc["directed"] is True
        assert len(doc["edges"]) == kg_graph.number_of_edges()


class TestReportApis:
    def test_predict_graph_type(self, executor, social_graph, kg_graph):
        result = run_one(executor, "predict_graph_type",
                         ChainContext(graph=social_graph))
        assert result["graph_type"] == "social"
        result2 = run_one(executor, "predict_graph_type",
                          ChainContext(graph=kg_graph))
        assert result2["graph_type"] == "knowledge"

    def test_report_needs_prior_steps(self, executor, social_graph):
        with pytest.raises(ChainExecutionError):
            run_one(executor, "generate_report",
                    ChainContext(graph=social_graph))

    def test_report_composes_sections(self, executor, social_graph):
        chain = APIChain.from_names([
            "predict_graph_type", "graph_summary", "generate_report"])
        record = executor.execute(chain, ChainContext(graph=social_graph))
        report = record.final_result
        assert "Graph report" in report
        assert "predict graph type" in report
        assert "graph summary" in report

    def test_report_custom_title(self, executor, social_graph):
        from repro.apis import ChainNode
        chain = APIChain([
            ChainNode("graph_summary"),
            ChainNode("generate_report", {"title": "My Title"}),
        ])
        record = executor.execute(chain, ChainContext(graph=social_graph))
        assert record.final_result.startswith("My Title")


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
