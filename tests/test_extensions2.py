"""Tests for the second extension round: entity-type inference and chain
serialization."""

import json

import pytest

from repro.apis import APIChain, ChainNode
from repro.errors import ChainError
from repro.kb import KnowledgeInferencer, Triple, TripleStore


class TestEntityTypeInference:
    @pytest.fixture()
    def store(self):
        store = TripleStore()
        for entity, etype in (("alice", "person"), ("bob", "person"),
                              ("acme", "organization"),
                              ("globex", "organization")):
            store.set_entity_type(entity, etype)
        for head, tail in (("alice", "acme"), ("bob", "acme"),
                           ("alice", "globex"), ("bob", "globex")):
            store.add(Triple(head, "works_at", tail))
        # mystery entity participating as a works_at head
        store.add(Triple("carol", "works_at", "acme"))
        return store

    def test_untyped_entity_gets_type(self, store):
        inferencer = KnowledgeInferencer.fit(store)
        inferred = inferencer.infer_entity_types()
        assert inferred["carol"][0] == "person"
        assert inferred["carol"][1] == 1.0

    def test_typed_entities_not_retyped(self, store):
        inferencer = KnowledgeInferencer.fit(store)
        assert "alice" not in inferencer.infer_entity_types()

    def test_no_signatures_no_inference(self):
        store = TripleStore.from_triples([("a", "r", "b")])
        inferencer = KnowledgeInferencer.fit(store)
        assert inferencer.infer_entity_types() == {}


class TestChainSerialization:
    def test_roundtrip(self):
        chain = APIChain([
            ChainNode("graph_summary"),
            ChainNode("rank_pagerank", {"top": 3}),
            ChainNode("generate_report", {"title": "T"}, depends_on=(0,)),
        ])
        doc = chain.to_dict()
        back = APIChain.from_dict(json.loads(json.dumps(doc)))
        assert back == chain

    def test_roundtrip_validates(self, registry):
        chain = APIChain.from_names(["count_nodes", "count_edges"])
        back = APIChain.from_dict(chain.to_dict())
        back.validate(registry)

    def test_malformed_rejected(self):
        with pytest.raises(ChainError):
            APIChain.from_dict({"nodes": [{"params": {}}]})
        with pytest.raises(ChainError):
            APIChain.from_dict({})
