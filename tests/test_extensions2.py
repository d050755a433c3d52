"""Tests for the second extension round: chain serialization."""

import json

import pytest

from repro.apis import APIChain, ChainNode
from repro.errors import ChainError


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
