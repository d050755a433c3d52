"""The triple-table knowledge plane against the object bodies it replaced.

``tests/kb_oracle.py`` holds ``TripleStore.from_graph``, ``RuleMiner``,
``KnowledgeInferencer`` and the ``knowledge_profile`` body as they were
before ``repro.kb`` moved onto :class:`repro.kb.TripleTable`.  Their
output is rounded and printed in replies, and the order of findings
decides what an edit step removes first, so "close" is not the
contract: every comparison here is on ``repr`` — the same floats (and
Python ``float``, not a numpy scalar), the same order, the same
``reason`` text.
"""

import random

import pytest

from repro.apis import APIChain, ChainContext, ChainExecutor
from repro.graphs import DiGraph, knowledge_graph
from repro.kb import (
    KnowledgeInferencer,
    RuleMiner,
    TripleStore,
    TripleTable,
    corrupt_store,
)

from . import kb_oracle as oracle

#: The default thresholds, and loose ones under which weak signatures,
#: tied type pairs and one-fact rules all survive.
MINERS = ({}, {"min_signature_confidence": 0.3, "min_rule_support": 1,
               "min_rule_confidence": 0.1})


def _grid(low, high, count):
    step = (high - low) / count
    return [int(low + index * step) for index in range(count)]


def ledger_kgs():
    """The KG grids of the ledger's ``chat_large`` (150-240 entities,
    4 facts each) and ``chat_direct`` (20-80, 3 facts each), seeds 0-1."""
    return [knowledge_graph(size, per * size, seed=seed)
            for seed in (0, 1)
            for low, high, count, per in ((150, 240, 10, 4), (20, 80, 20, 3))
            for size in _grid(low, high, count)]


def noisy_kgs():
    """``corrupt_store`` noise at three rates, some entities untyped."""
    graphs = []
    for seed, rate in enumerate((0.02, 0.1, 0.3)):
        store = TripleStore.from_graph(knowledge_graph(60, 300, seed=seed))
        noisy, __, __ = corrupt_store(store, rate, 0.05, seed=seed)
        graph = noisy.to_graph()
        graphs.append(graph)
        stripped = DiGraph(name=graph.name)
        for i, node in enumerate(graph.nodes()):
            attrs = dict(graph.node_attrs(node))
            if i % 3 == 0:
                attrs.pop("entity_type", None)
            stripped.add_node(node, **attrs)
        for u, v in graph.edges():
            stripped.add_edge(u, v, **graph.edge_attrs(u, v))
        graphs.append(stripped)
    return graphs


def tied_kg():
    """``r`` splits 2:2 between two type pairs; the pair met second in
    fact order has the smaller names."""
    graph = DiGraph()
    for node, etype in (("a1", "zeta"), ("a2", "zeta"), ("b1", "omega"),
                        ("b2", "omega"), ("c1", "alpha"), ("c2", "alpha"),
                        ("d1", "beta"), ("d2", "beta")):
        graph.add_node(node, entity_type=etype)
    for u, v in (("a1", "b1"), ("a2", "b2"), ("c1", "d1"), ("c2", "d2"),
                 ("a1", "d2")):
        graph.add_edge(u, v, relation="r" if u[0] != "a" or v[0] == "b"
                       else "s")
    return graph


def odd_kg():
    """Untyped entities, self-loops, unlabelled arcs and a ``1`` / ``"1"``
    node collision, over a three-type vote for one untyped entity."""
    rng = random.Random(5)
    graph = DiGraph()
    nodes = [1, "1", 2, "x", "y", 3.5, ("t", 1), "z", "w", "v"]
    types = ("p", "q", "s", None)
    for index, node in enumerate(nodes):
        etype = types[index % 4]
        graph.add_node(node, **({} if etype is None else
                                {"entity_type": etype}))
    for __ in range(60):
        u, v = rng.choice(nodes), rng.choice(nodes)
        if rng.random() < 0.1:
            graph.add_edge(u, v)
        else:
            graph.add_edge(u, v, relation=rng.choice("fgh"))
    for node in nodes[:4]:
        graph.add_edge(node, node, relation="f")
    return graph


CASES = ([(f"ledger-{i}", g) for i, g in enumerate(ledger_kgs())]
         + [(f"noisy-{i}", g) for i, g in enumerate(noisy_kgs())]
         + [("tied", tied_kg()), ("odd", odd_kg()), ("empty", DiGraph())])


def _stores():
    two_relations = TripleStore.from_triples(
        [("a", "works_at", "b"), ("a", "founded", "b"),
         ("c", "works_at", "b"), ("c", "founded", "d"), ("b", "in", "e"),
         ("a", "in", "e"), ("c", "in", "e")],
        entity_types={"a": "person", "c": "person", "b": "org",
                      "d": "org", "lonely": "city"})
    # (a, b) and (c, d) imply h at equal confidence on the same pairs
    equal_rules = TripleStore.from_triples(
        [fact for i in range(3) for fact in (
            (f"x{i}", "a", f"z{i}"), (f"z{i}", "b", f"y{i}"),
            (f"x{i}", "c", f"w{i}"), (f"w{i}", "d", f"y{i}"))]
        + [("x0", "h", "y0"), ("x1", "h", "y1")])
    return [("two-relations", two_relations), ("equal-rules", equal_rules),
            ("empty", TripleStore())]


def assert_same(table, store, miner):
    rows = zip(table.head.tolist(), table.relation.tolist(),
               table.tail.tolist())
    assert [(table.entities[h], table.relations[r], table.entities[t])
            for h, r, t in rows] == [(t.head, t.relation, t.tail)
                                     for t in store]
    assert list(table.entities) == store.entities()
    assert list(table.relations) == store.relations()
    new = KnowledgeInferencer.fit(table, RuleMiner(**miner))
    old = oracle.KnowledgeInferencer.fit(store, oracle.RuleMiner(**miner))
    assert repr(new.signatures) == repr(old.signatures)
    assert repr(new.rules) == repr(old.rules)
    for min_confidence in (0.0, 0.5, 0.9):
        assert repr(new.detect_incorrect_edges(min_confidence)) == repr(
            old.detect_incorrect_edges(min_confidence))
        for limit in (None, 20):
            assert repr(new.predict_missing_edges(min_confidence, limit)) \
                == repr(old.predict_missing_edges(min_confidence, limit))
    assert repr(new.infer_entity_types()) == repr(old.infer_entity_types())


@pytest.mark.parametrize("miner", MINERS, ids=("default", "loose"))
@pytest.mark.parametrize("name, graph", CASES, ids=[n for n, __ in CASES])
def test_graph_table_matches_store_bodies(name, graph, miner):
    assert_same(TripleTable.from_graph(graph),
                oracle.store_from_graph(graph), miner)


@pytest.mark.parametrize("miner", MINERS, ids=("default", "loose"))
@pytest.mark.parametrize("name, store", _stores(),
                         ids=[n for n, __ in _stores()])
def test_store_table_matches_store_bodies(name, store, miner):
    assert_same(TripleTable.from_store(store), store, miner)


@pytest.mark.parametrize("name, graph", CASES, ids=[n for n, __ in CASES])
def test_knowledge_profile_matches(name, graph, registry):
    context = ChainContext(graph=graph)
    ChainExecutor(registry).execute(
        APIChain.from_names(["knowledge_profile"]), context)
    assert repr(context.latest("knowledge_profile")) == repr(
        oracle.knowledge_profile(oracle.store_from_graph(graph)))


def test_knowledge_profile_of_an_attached_store(registry):
    for __, store in _stores():
        context = ChainContext(graph=DiGraph(),
                               extras={"triple_store": store})
        ChainExecutor(registry).execute(
            APIChain.from_names(["knowledge_profile"]), context)
        assert repr(context.latest("knowledge_profile")) == repr(
            oracle.knowledge_profile(store))


def test_cases_reach_what_they_are_for():
    """The fixtures exercise ties, collisions and mixed ballots."""
    tied = oracle.RuleMiner(min_signature_confidence=0.3) \
        .mine_type_signatures(oracle.store_from_graph(tied_kg()))
    assert (tied["r"].head_type, tied["r"].confidence) == ("zeta", 0.5)
    odd = oracle.store_from_graph(odd_kg())
    assert odd.entity_type("1") is not None and "1" in odd.entities()
    assert any(t.head == t.tail for t in odd)
    ballots = oracle.KnowledgeInferencer.fit(
        odd, oracle.RuleMiner(min_signature_confidence=0.3))
    assert ballots.infer_entity_types()
    stores = dict(_stores())
    assert {t.relation for t in stores["two-relations"].outgoing("a")} \
        >= {"works_at", "founded"}
    rules = oracle.RuleMiner().mine_path_rules(stores["equal-rules"])
    assert [(r.body_first, r.confidence) for r in rules] == [
        ("a", 2 / 3), ("c", 2 / 3)]
