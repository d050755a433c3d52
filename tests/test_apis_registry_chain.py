"""Tests for API specs, the registry and chain objects."""

import json

import pytest

from repro.apis import (
    APIChain,
    APIRegistry,
    APISpec,
    Category,
    ChainNode,
    chain_to_graph,
    default_registry,
)
from repro.errors import APIError, ChainError, UnknownAPIError


def make_spec(name="demo_api", category=Category.GENERIC, **kwargs):
    return APISpec(name, "a demo api for tests", category,
                   lambda ctx: 42, **kwargs)


class TestAPISpec:
    def test_bad_name_rejected(self):
        with pytest.raises(APIError):
            APISpec("bad name!", "desc", Category.GENERIC, lambda ctx: 0)

    def test_empty_description_rejected(self):
        with pytest.raises(APIError):
            APISpec("ok_name", "   ", Category.GENERIC, lambda ctx: 0)

    def test_call_merges_params(self):
        spec = APISpec("adder", "adds", Category.GENERIC,
                       lambda ctx, a=0, b=0: a + b,
                       params={"a": 1, "b": 2})
        assert spec.call(None) == 3
        assert spec.call(None, b=10) == 11

    def test_unknown_param_rejected(self):
        spec = make_spec()
        with pytest.raises(APIError):
            spec.call(None, bogus=1)


class TestRegistry:
    def test_register_and_get(self):
        registry = APIRegistry()
        spec = registry.register(make_spec())
        assert registry.get("demo_api") is spec
        assert "demo_api" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = APIRegistry()
        registry.register(make_spec())
        with pytest.raises(APIError):
            registry.register(make_spec())

    def test_unknown_raises(self):
        with pytest.raises(UnknownAPIError):
            APIRegistry().get("nope")

    def test_by_category(self):
        registry = APIRegistry()
        registry.register(make_spec("a1", Category.SOCIAL))
        registry.register(make_spec("a2", Category.MOLECULE))
        registry.register(make_spec("a3", Category.SOCIAL))
        names = [s.name for s in registry.by_category(Category.SOCIAL)]
        assert names == ["a1", "a3"]

    def test_default_registry_complete(self, registry):
        assert len(registry) >= 30
        for required in ("graph_summary", "detect_communities",
                         "similar_molecules", "detect_incorrect_edges",
                         "remove_flagged_edges", "generate_report",
                         "predict_graph_type"):
            assert required in registry

    def test_descriptions_nonempty(self, registry):
        for name, desc in registry.descriptions().items():
            assert desc.strip(), name

    def test_every_category_populated(self, registry):
        for category in Category:
            assert registry.by_category(category), category


class TestChain:
    def test_from_names(self):
        chain = APIChain.from_names(["a", "b"])
        assert chain.api_names() == ["a", "b"]
        assert len(chain) == 2

    def test_render(self):
        chain = APIChain([ChainNode("x"), ChainNode("y", {"k": 5})])
        assert chain.render() == "x -> y(k=5)"

    def test_edit_operations(self):
        chain = APIChain.from_names(["a", "b", "c"])
        chain.remove(1)
        assert chain.api_names() == ["a", "c"]
        chain.insert(1, "z")
        assert chain.api_names() == ["a", "z", "c"]
        chain.replace(0, "q")
        assert chain.api_names() == ["q", "z", "c"]
        chain.append("end")
        assert chain.api_names()[-1] == "end"

    def test_remove_bad_index(self):
        with pytest.raises(ChainError):
            APIChain.from_names(["a"]).remove(5)

    def test_replace_bad_index(self):
        with pytest.raises(ChainError):
            APIChain.from_names(["a"]).replace(3, "x")

    def test_copy_independent(self):
        chain = APIChain.from_names(["a"])
        clone = chain.copy()
        clone.append("b")
        assert len(chain) == 1

    def test_equality(self):
        assert APIChain.from_names(["a"]) == APIChain.from_names(["a"])
        assert APIChain.from_names(["a"]) != APIChain.from_names(["b"])


class TestChainValidation:
    def test_empty_chain_invalid(self, registry):
        with pytest.raises(ChainError):
            APIChain().validate(registry)

    def test_unknown_api_invalid(self, registry):
        with pytest.raises(ChainError):
            APIChain.from_names(["not_an_api"]).validate(registry)

    def test_unknown_param_invalid(self, registry):
        chain = APIChain([ChainNode("count_nodes", {"bogus": 1})])
        with pytest.raises(ChainError):
            chain.validate(registry)

    def test_valid_params_ok(self, registry):
        chain = APIChain([ChainNode("rank_pagerank", {"top": 3})])
        chain.validate(registry)

    def test_forward_dependency_invalid(self, registry):
        chain = APIChain([
            ChainNode("count_nodes", depends_on=()),
            ChainNode("count_edges", depends_on=(5,)),
        ])
        with pytest.raises(ChainError):
            chain.validate(registry)


class TestChainToGraph:
    def test_linear_chain_graph(self):
        chain = APIChain.from_names(["a", "b", "c"])
        graph = chain_to_graph(chain)
        assert graph.number_of_nodes() == 3
        assert graph.has_edge(0, 1) and graph.has_edge(1, 2)
        assert graph.get_node_attr(0, "label") == "a"

    def test_explicit_dependencies(self):
        chain = APIChain([
            ChainNode("a"),
            ChainNode("b"),
            ChainNode("c", depends_on=(0,)),
        ])
        graph = chain_to_graph(chain)
        assert graph.has_edge(0, 2)
        assert not graph.has_edge(1, 2)


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
