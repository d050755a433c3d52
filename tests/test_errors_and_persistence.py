"""Tests for the error hierarchy, session persistence and identity API."""

import json

import pytest

from repro import ChatSession
from repro.apis import APIChain, ChainContext, ChainExecutor, ChainNode
from repro.chem import parse_smiles
from repro.errors import (
    APIError,
    ChainError,
    ChainExecutionError,
    ChatGraphError,
    ConfigError,
    EdgeNotFoundError,
    EmbeddingError,
    FinetuneError,
    GraphError,
    GraphIOError,
    KnowledgeBaseError,
    ModelError,
    NodeNotFoundError,
    SequencerError,
    SessionError,
    SmilesError,
    UnknownAPIError,
)
from repro.graphs import Graph, social_network


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_cls", [
        GraphError, EmbeddingError, SequencerError, APIError, ChainError,
        ModelError, FinetuneError, KnowledgeBaseError, SessionError,
        ConfigError,
    ])
    def test_all_derive_from_base(self, error_cls):
        assert issubclass(error_cls, ChatGraphError)

    def test_specific_hierarchies(self):
        assert issubclass(NodeNotFoundError, GraphError)
        assert issubclass(EdgeNotFoundError, GraphError)
        assert issubclass(GraphIOError, GraphError)
        assert issubclass(UnknownAPIError, APIError)

    def test_payloads(self):
        error = NodeNotFoundError("x")
        assert error.node == "x"
        edge = EdgeNotFoundError(1, 2)
        assert (edge.u, edge.v) == (1, 2)
        unknown = UnknownAPIError("nope")
        assert unknown.name == "nope"
        smiles = SmilesError("C(", "unbalanced")
        assert smiles.smiles == "C("
        execution = ChainExecutionError("step_x", ValueError("boom"))
        assert execution.step == "step_x"
        assert isinstance(execution.cause, ValueError)

    def test_one_catch_covers_framework(self, chatgraph):
        with pytest.raises(ChatGraphError):
            chatgraph.registry.get("not_registered")


class TestSessionPersistence:
    def test_save_load_roundtrip(self, chatgraph, tmp_path):
        session = ChatSession(chatgraph)
        graph = social_network(20, 2, seed=3)
        session.upload_graph(graph)
        session.send("count the nodes")
        path = tmp_path / "session.json"
        session.save(path)

        restored = ChatSession.load(path, chatgraph)
        assert len(restored.history) == len(session.history)
        assert restored.graph == graph
        # the restored session keeps chatting
        response = restored.send("count the edges")
        assert response.record.ok

    def test_save_without_graph(self, chatgraph, tmp_path):
        session = ChatSession(chatgraph)
        session.send("hello")
        path = tmp_path / "bare.json"
        session.save(path)
        restored = ChatSession.load(path, chatgraph)
        assert restored.graph is None

    def test_load_malformed(self, chatgraph, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SessionError):
            ChatSession.load(path, chatgraph)
        path.write_text('{"version": 2, "history": "oops"}')
        with pytest.raises(SessionError):
            ChatSession.load(path, chatgraph)

    def test_load_refuses_other_versions_and_bad_graphs(self, chatgraph,
                                                       tmp_path):
        """Only this format's files load, and a malformed graph document
        is a :class:`SessionError` too, not a stray
        :class:`GraphIOError`."""
        session = ChatSession(chatgraph)
        graph = Graph()
        graph.add_node((0, 1), id="not-the-id", node="n")
        graph.add_edge((0, 1), "b", source="s", target="t", u="u")
        session.upload_graph(graph)
        path = tmp_path / "session.json"
        session.save(path)
        document = json.loads(path.read_text())
        assert document["version"] == 2
        restored = ChatSession.load(path, chatgraph)
        assert restored.graph == graph
        assert list(restored.graph.nodes()) == [(0, 1), "b"]
        for version in (1, 3, None):
            path.write_text(json.dumps({**document, "version": version}))
            with pytest.raises(SessionError, match="version"):
                ChatSession.load(path, chatgraph)
        # a version-1 file's keyed graph rows
        keyed = {"nodes": [{"id": 1, "color": "red"}], "edges": []}
        for bad in (keyed, {"nodes": [[None, {}]]}, {"edges": [[1]]}):
            path.write_text(json.dumps({**document, "graph": bad}))
            with pytest.raises(SessionError) as caught:
                ChatSession.load(path, chatgraph)
            assert isinstance(caught.value.__cause__, GraphIOError)
        path.write_text("[]")
        with pytest.raises(SessionError):
            ChatSession.load(path, chatgraph)


class TestIdentifyMolecule:
    def run_one(self, registry, context):
        executor = ChainExecutor(registry)
        chain = APIChain([ChainNode("identify_molecule")])
        return executor.execute(chain, context).final_result

    def test_recognizes_known(self, registry, molecule_db):
        aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        result = self.run_one(registry, ChainContext(
            graph=aspirin.to_graph(), database=molecule_db))
        assert result["known"] is True
        assert result["name"] == "aspirin"
        assert result["formula"] == "C9H8O4"

    def test_recognizes_kekule_form(self, registry, molecule_db):
        kekule = parse_smiles("C1=CC=CC=C1")
        result = self.run_one(registry, ChainContext(
            graph=kekule.to_graph(), database=molecule_db))
        assert result["name"] == "benzene"

    def test_unknown_molecule(self, registry, molecule_db):
        exotic = parse_smiles("FC(F)(F)C(F)(F)C(F)(F)F")
        result = self.run_one(registry, ChainContext(
            graph=exotic.to_graph(), database=molecule_db))
        assert result["known"] is False
        assert result["name"] is None
        assert result["canonical_smiles"]

    def test_end_to_end_question(self, chatgraph):
        caffeine = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C")
        response = chatgraph.ask("what molecule is this",
                                 graph=caffeine.to_graph())
        results = response.results()
        if "identify_molecule" in results:
            assert results["identify_molecule"]["name"] == "caffeine"
