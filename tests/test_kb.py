"""Tests for the knowledge-graph substrate (triples, rules, inference)."""

import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KnowledgeBaseError
from repro.graphs import knowledge_graph
from repro.kb import (
    CleaningPlan,
    KnowledgeInferencer,
    RuleMiner,
    Triple,
    TripleStore,
    apply_cleaning_plan,
    corrupt_store,
)
from repro.kb.inference import EdgeFinding


@pytest.fixture()
def toy_store():
    store = TripleStore()
    for entity, etype in (("alice", "person"), ("bob", "person"),
                          ("carol", "person"), ("acme", "organization"),
                          ("globex", "organization"), ("rome", "city"),
                          ("oslo", "city")):
        store.set_entity_type(entity, etype)
    for head, relation, tail in (
        ("alice", "works_at", "acme"),
        ("bob", "works_at", "acme"),
        ("carol", "works_at", "globex"),
        ("acme", "located_in", "rome"),
        ("globex", "located_in", "oslo"),
        ("alice", "lives_in", "rome"),
        ("bob", "lives_in", "rome"),
    ):
        store.add(Triple(head, relation, tail))
    return store


class TestTripleStore:
    def test_add_idempotent(self, toy_store):
        n = len(toy_store)
        toy_store.add(Triple("alice", "works_at", "acme"))
        assert len(toy_store) == n

    def test_remove(self, toy_store):
        toy_store.remove(Triple("alice", "works_at", "acme"))
        assert Triple("alice", "works_at", "acme") not in toy_store

    def test_remove_missing_raises(self, toy_store):
        with pytest.raises(KnowledgeBaseError):
            toy_store.remove(Triple("x", "y", "z"))

    def test_indexes(self, toy_store):
        assert len(toy_store.by_relation("works_at")) == 3
        assert len(toy_store.outgoing("alice")) == 2
        assert len(toy_store.incoming("acme")) == 2

    def test_entities_and_relations(self, toy_store):
        assert "alice" in toy_store.entities()
        assert toy_store.relations() == sorted(
            {"works_at", "located_in", "lives_in"})

    def test_copy_independent(self, toy_store):
        clone = toy_store.copy()
        clone.add(Triple("new", "works_at", "acme"))
        assert Triple("new", "works_at", "acme") not in toy_store

    def test_graph_roundtrip(self, toy_store):
        graph = toy_store.to_graph()
        back = TripleStore.from_graph(graph)
        assert set(back) == set(toy_store)
        assert back.entity_type("alice") == "person"

    def test_from_undirected_rejected(self):
        from repro.graphs import Graph
        with pytest.raises(KnowledgeBaseError):
            TripleStore.from_graph(Graph())

    def test_from_triples(self):
        store = TripleStore.from_triples(
            [("a", "r", "b")], entity_types={"a": "person"})
        assert len(store) == 1
        assert store.entity_type("a") == "person"


#: Short strings that collide on purpose, so orders are decided by
#: later fields and by prefix ("a" < "a " < "ab").
_NAMES = st.sampled_from(("", "a", "a ", "ab", "b", "B", "é", "10", "9"))


class TestTripleOrder:
    """Every ordered read is the dataclass order of ``Triple``, reached
    through a tuple key instead of the generated ``__lt__``."""

    @given(facts=st.lists(st.tuples(_NAMES, _NAMES, _NAMES), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_key_order_is_dataclass_order(self, facts):
        store = TripleStore.from_triples(facts)
        triples = {Triple(*fact) for fact in facts}
        assert list(store) == sorted(triples)
        assert list(store) == list(store)
        for name in {part for fact in facts for part in fact}:
            assert store.by_relation(name) == sorted(
                t for t in triples if t.relation == name)
            assert store.outgoing(name) == sorted(
                t for t in triples if t.head == name)
            assert store.incoming(name) == sorted(
                t for t in triples if t.tail == name)

    def test_iteration_sees_edits_made_after_it(self, toy_store):
        before = list(toy_store)
        first, extra = before[0], Triple("aaa", "works_at", "acme")
        walk = iter(toy_store)
        toy_store.add(extra)
        assert list(toy_store) == sorted(before + [extra])
        toy_store.remove(first)
        assert list(toy_store) == sorted(before[1:] + [extra])
        toy_store.add(extra)  # already there: nothing to re-sort
        assert list(toy_store) == sorted(before[1:] + [extra])
        # a walk started earlier finishes over what it started on
        assert list(walk) == before
        assert list(toy_store.copy()) == list(toy_store)


class TestRuleMining:
    def test_type_signatures(self, toy_store):
        signatures = RuleMiner().mine_type_signatures(toy_store)
        assert signatures["works_at"].head_type == "person"
        assert signatures["works_at"].tail_type == "organization"
        assert signatures["works_at"].confidence == 1.0

    def test_signature_below_threshold_dropped(self):
        store = TripleStore.from_triples(
            [("a", "r", "b"), ("c", "r", "d")],
            entity_types={"a": "t1", "b": "t2", "c": "t3", "d": "t4"})
        signatures = RuleMiner(
            min_signature_confidence=0.7).mine_type_signatures(store)
        assert "r" not in signatures

    def test_path_rules_found(self, toy_store):
        # lives_in(x, y) <= works_at(x, z), located_in(z, y) holds for
        # alice and bob (2 of 3 body instantiations)
        rules = RuleMiner(min_rule_support=2,
                          min_rule_confidence=0.5).mine_path_rules(toy_store)
        assert any(r.head_relation == "lives_in"
                   and r.body_first == "works_at"
                   and r.body_second == "located_in" for r in rules)

    def test_rule_confidence_value(self, toy_store):
        rules = RuleMiner(min_rule_support=1,
                          min_rule_confidence=0.1).mine_path_rules(toy_store)
        rule = next(r for r in rules if r.head_relation == "lives_in")
        assert rule.support == 2
        assert rule.confidence == pytest.approx(2 / 3)

    def test_rule_render(self, toy_store):
        rules = RuleMiner(min_rule_support=1,
                          min_rule_confidence=0.1).mine_path_rules(toy_store)
        assert "lives_in(x, y)" in rules[0].render() or rules


class TestInference:
    def test_detects_type_violation(self, toy_store):
        toy_store.add(Triple("alice", "works_at", "rome"))  # wrong: city
        inferencer = KnowledgeInferencer.fit(toy_store)
        findings = inferencer.detect_incorrect_edges()
        assert any(f.triple == Triple("alice", "works_at", "rome")
                   for f in findings)

    def test_clean_store_no_findings(self, toy_store):
        inferencer = KnowledgeInferencer.fit(toy_store)
        assert inferencer.detect_incorrect_edges() == []

    def test_predicts_missing_from_rule(self, toy_store):
        inferencer = KnowledgeInferencer.fit(
            toy_store, RuleMiner(min_rule_support=2,
                                 min_rule_confidence=0.5))
        findings = inferencer.predict_missing_edges(min_confidence=0.5)
        predicted = {f.triple for f in findings}
        # carol works at globex located in oslo => carol lives_in oslo
        assert Triple("carol", "lives_in", "oslo") in predicted

    def test_predictions_absent_from_store(self, toy_store):
        inferencer = KnowledgeInferencer.fit(toy_store)
        for finding in inferencer.predict_missing_edges():
            assert finding.triple not in toy_store

    def test_limit(self, toy_store):
        inferencer = KnowledgeInferencer.fit(
            toy_store, RuleMiner(min_rule_support=1,
                                 min_rule_confidence=0.1))
        assert len(inferencer.predict_missing_edges(
            min_confidence=0.0, limit=1)) <= 1


class TestCleaning:
    def test_corruption_recall(self, kg_graph):
        store = TripleStore.from_graph(kg_graph)
        noisy, injected, __ = corrupt_store(store, 0.1, 0.0, seed=2)
        inferencer = KnowledgeInferencer.fit(noisy)
        flagged = {f.triple for f in inferencer.detect_incorrect_edges()}
        assert injected <= flagged          # full recall of injected noise
        precision = len(flagged & injected) / len(flagged)
        assert precision > 0.8

    def test_corrupt_store_rates(self, kg_graph):
        store = TripleStore.from_graph(kg_graph)
        noisy, injected, removed = corrupt_store(store, 0.1, 0.1, seed=0)
        assert len(noisy) == len(store) - (len(removed) - len(injected))
        assert all(t in noisy for t in injected)
        assert all(t not in noisy for t in removed)

    def test_corrupt_bad_rate(self, toy_store):
        with pytest.raises(KnowledgeBaseError):
            corrupt_store(toy_store, corruption_rate=2.0)

    def test_apply_plan(self, toy_store):
        bad = Triple("alice", "works_at", "rome")
        toy_store.add(bad)
        inferencer = KnowledgeInferencer.fit(toy_store)
        plan = CleaningPlan(
            removals=inferencer.detect_incorrect_edges(),
            additions=inferencer.predict_missing_edges())
        cleaned = apply_cleaning_plan(toy_store, plan)
        assert bad not in cleaned
        assert bad in toy_store  # original untouched

    def test_apply_plan_with_confirmation(self, toy_store):
        toy_store.add(Triple("alice", "works_at", "rome"))
        inferencer = KnowledgeInferencer.fit(toy_store)
        plan = CleaningPlan(removals=inferencer.detect_incorrect_edges())
        cleaned = apply_cleaning_plan(toy_store, plan,
                                      confirm=lambda q, f: False)
        assert set(cleaned) == set(toy_store)

    def test_plan_kind_validation(self, toy_store):
        wrong = EdgeFinding(Triple("a", "b", "c"), "missing", 1.0, "x")
        with pytest.raises(KnowledgeBaseError):
            apply_cleaning_plan(toy_store, CleaningPlan(removals=[wrong]))

    def test_plan_render(self):
        finding = EdgeFinding(Triple("a", "r", "b"), "incorrect", 0.9, "why")
        plan = CleaningPlan(removals=[finding])
        assert "1 removals" in plan.render()
        assert "a" in plan.render()


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


def test_kg_asks_leave_numpy_ma_unimported():
    """``np.unique`` imports ``numpy.ma`` on first use (about 1 MB of
    resident memory per process); the knowledge steps must not."""
    script = textwrap.dedent("""
        import sys
        from repro import ChatGraph
        from repro.graphs import knowledge_graph
        chatgraph = ChatGraph.pretrained(corpus_size=300, seed=0)
        assert "numpy.ma" not in sys.modules
        steps = set()
        for text in ("Profile the knowledge graph G and mine its rules",
                     "Clean G"):
            reply = chatgraph.ask(text, graph=knowledge_graph(60, 240))
            steps.update(node.api_name for node in reply.chain.nodes)
        assert {"knowledge_profile", "mine_rules",
                "detect_incorrect_edges"} <= steps, steps
        print("numpy.ma" in sys.modules)
        """)
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, timeout=240)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
