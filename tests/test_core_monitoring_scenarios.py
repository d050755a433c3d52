"""Tests for chain monitoring, answer rendering and the four scenarios."""

import pytest

from repro.apis.executor import ExecutionEvent
from repro.chem import parse_smiles
from repro.core import (
    ChainMonitor,
    render_answer,
    run_chain_monitoring,
    run_graph_cleaning,
    run_graph_comparison,
    run_graph_understanding,
)
from repro.core.suggestions import suggested_questions
from repro.kb import TripleStore, corrupt_store


def event(kind, step=None, api=None, detail="", n_steps=None):
    return ExecutionEvent(kind=kind, step_index=step, api_name=api,
                          elapsed_seconds=0.1, detail=detail,
                          n_steps=n_steps)


class TestChainMonitor:
    def test_progress_tracking(self):
        monitor = ChainMonitor()
        monitor(event("chain_started", n_steps=2,
                      detail="2 steps: a -> b"))
        assert monitor.n_steps == 2
        assert monitor.progress == 0.0
        monitor(event("step_started", 0, "a"))
        monitor(event("step_finished", 0, "a"))
        assert monitor.progress == 0.5
        monitor(event("step_started", 1, "b"))
        monitor(event("step_finished", 1, "b"))
        monitor(event("chain_finished"))
        assert monitor.progress == 1.0
        assert monitor.finished and not monitor.failed

    def test_failure_tracking(self):
        monitor = ChainMonitor()
        monitor(event("chain_started", n_steps=1, detail="1 steps: a"))
        monitor(event("step_started", 0, "a"))
        monitor(event("step_failed", 0, "a", "boom"))
        monitor(event("chain_failed", 0, "a"))
        assert monitor.failed and monitor.finished

    def test_render_progress_bar(self):
        monitor = ChainMonitor()
        monitor(event("chain_started", n_steps=4, detail="4 steps: ..."))
        monitor(event("step_finished", 0, "a"))
        bar = monitor.render_progress(width=8)
        assert bar.startswith("[##......]")
        assert "1/4" in bar

    def test_structured_step_count_preferred(self):
        """chain_started carries n_steps; the detail string is never
        parsed."""
        monitor = ChainMonitor()
        monitor(event("chain_started", detail="99 steps: junk",
                      n_steps=3))
        assert monitor.n_steps == 3
        # an event without the structured count reads as zero steps
        monitor(event("chain_started", detail="2 steps: a -> b"))
        assert monitor.n_steps == 0

    def test_executor_emits_structured_step_count(self, chatgraph,
                                                  social_graph):
        """Live executions populate ExecutionEvent.n_steps."""
        response = chatgraph.ask("write a brief report for G",
                                 graph=social_graph)
        started = [e for e in response.monitor.events
                   if e.kind == "chain_started"]
        assert len(started) == 1
        assert started[0].n_steps == len(response.chain)
        assert response.monitor.n_steps == len(response.chain)

    def test_transcript_and_reset(self):
        monitor = ChainMonitor()
        monitor(event("chain_started", detail="1 steps: a"))
        assert "chain_started" in monitor.transcript()
        monitor.reset()
        assert monitor.events == []
        assert monitor.progress == 0.0

    def test_reuse_across_chains_does_not_overcount(self):
        """Regression: a monitor listening across several chains used to
        accumulate step_finished counts, reporting progress > 100%."""
        monitor = ChainMonitor()
        for _ in range(3):
            monitor(event("chain_started", n_steps=2,
                          detail="2 steps: a -> b"))
            monitor(event("step_started", 0, "a"))
            monitor(event("step_finished", 0, "a"))
            monitor(event("step_started", 1, "b"))
            monitor(event("step_finished", 1, "b"))
            monitor(event("chain_finished"))
            assert monitor.progress == 1.0
            assert monitor.steps_done == 2
        # the transcript still holds every chain's events
        assert len(monitor.events) == 18
        assert "1/2" not in monitor.render_progress()

    def test_step_index_zero_is_tracked(self):
        """Regression: ``step_index or 0`` treated index 0 like None."""
        monitor = ChainMonitor()
        monitor(event("chain_started", n_steps=1, detail="1 steps: a"))
        assert monitor.current_step == -1  # nothing started yet
        monitor(event("step_started", 0, "a"))
        assert monitor.current_step == 0
        # a step_started without an index must not move the cursor
        monitor(event("step_started", None, None))
        assert monitor.current_step == 0

    def test_recovery_counters_and_rendering(self):
        monitor = ChainMonitor()
        monitor(event("chain_started", n_steps=2, detail="2 steps: a"))
        monitor(event("step_started", 0, "a"))
        monitor(event("step_retried", 0, "a", "attempt 2/3"))
        monitor(event("step_timed_out", 0, "a", "attempt 1 exceeded"))
        monitor(event("breaker_opened", 0, "a", "circuit opened"))
        monitor(event("step_finished", 0, "a"))
        assert (monitor.retries, monitor.timeouts,
                monitor.breaker_trips) == (1, 1, 1)
        bar = monitor.render_progress()
        assert "1 retries" in bar and "1 timeouts" in bar \
            and "1 breaker trips" in bar
        # counters reset with the next chain; transcript keeps the events
        monitor(event("chain_started", n_steps=1, detail="1 steps: b"))
        assert monitor.retries == 0
        assert "step_retried" in monitor.transcript()


class TestRenderAnswer:
    def test_report_takes_precedence(self, chatgraph, social_graph):
        response = chatgraph.ask("write a brief report for G",
                                 graph=social_graph)
        assert response.answer.startswith("Graph report")

    def test_plain_results_formatted(self, chatgraph, social_graph):
        response = chatgraph.ask("count the nodes", graph=social_graph)
        assert "count_nodes: 40" in response.answer


class TestScenarios:
    def test_understanding_social(self, chatgraph, social_graph):
        result = run_graph_understanding(chatgraph, social_graph)
        assert result.details["graph_type"] == "social"
        assert "detect_communities" in result.chain_names
        assert "Graph report" in result.answer

    def test_understanding_molecule(self, chatgraph):
        graph = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C").to_graph()
        result = run_graph_understanding(
            chatgraph, graph, "Write a report about this molecule")
        assert result.details["graph_type"] == "molecule"
        assert "predict_toxicity" in result.chain_names

    def test_comparison(self, chatgraph):
        query = parse_smiles("Cc1ccccc1", name="toluene")
        result = run_graph_comparison(chatgraph, query)
        hits = result.details["top_hits"]
        assert len(hits) == 2
        assert hits[0]["name"] == "toluene"  # itself is in the library

    def test_comparison_novel_molecule(self, chatgraph):
        query = parse_smiles("CCc1ccccc1", name="ethylbenzene")
        result = run_graph_comparison(chatgraph, query)
        names = [h["name"] for h in result.details["top_hits"]]
        assert "toluene" in names or "styrene" in names

    def test_cleaning(self, chatgraph, kg_graph):
        store = TripleStore.from_graph(kg_graph)
        noisy, injected, __ = corrupt_store(store, 0.08, 0.0, seed=1)
        result = run_graph_cleaning(chatgraph, noisy.to_graph())
        assert result.details["n_removed"] == len(injected)
        assert result.details["exported"]

    def test_cleaning_declined(self, chatgraph, kg_graph):
        store = TripleStore.from_graph(kg_graph)
        noisy, __, __ = corrupt_store(store, 0.08, 0.0, seed=1)
        result = run_graph_cleaning(chatgraph, noisy.to_graph(),
                                    auto_confirm=False)
        # chains run with confirm_each=False by default, so edits apply
        # regardless; the confirmation log must still be consistent
        assert isinstance(result.details["confirmations"], list)

    def test_monitoring(self, chatgraph, social_graph):
        result = run_chain_monitoring(chatgraph, social_graph,
                                      edit_remove=1)
        assert result.details["progress"] == 1.0
        assert len(result.details["proposed_chain"].split("->")) == \
            len(result.details["executed_chain"].split("->")) + 1
        assert any("chain_finished" in e for e in result.details["events"])
        assert "assistant" in result.details["transcript"]


class TestSuggestions:
    def test_no_graph_generic(self):
        questions = suggested_questions(None)
        assert questions
        assert len(questions) <= 4

    def test_limit(self, social_graph):
        assert len(suggested_questions(social_graph, limit=2)) == 2
        assert suggested_questions(social_graph, limit=0) == []

    def test_type_specific(self, kg_graph):
        assert "Clean G" in suggested_questions(kg_graph)
