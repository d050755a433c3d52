"""End-to-end observability: traced servers, determinism, stress.

The tentpole guarantees under test:

* a seeded run through :class:`ChatGraphServer` yields a hierarchical
  trace covering every pipeline stage and every executed API step,
  including retry attempts;
* the canonical export of that trace is byte-identical across runs
  with the same seed, even under a multi-worker pool;
* under an 8-worker stress run with injected faults, the metrics
  counters reconcile *exactly* with the events the executor emitted.
"""

import threading
from collections import Counter

import pytest

from repro import ChatGraph
from repro.apis import default_registry
from repro.config import ServeConfig
from repro.finetune.dataset import CorpusSpec
from repro.graphs import knowledge_graph, social_network
from repro.obs import check_trace, spans_to_jsonl
from repro.obs.metrics import OBSERVED_EVENT_KINDS, RECOVERY_EVENT_KINDS
from repro.serve import ChatGraphServer, ServeRequest
from repro.testing import FaultInjector, FaultSpec, canonical_workload

PIPELINE_STAGES = ("stage:intent", "stage:graph_type", "stage:retrieval",
                   "stage:sequentialize", "stage:generate")


def traced_config(**overrides):
    defaults = dict(workers=1, seed=0,
                    enable_tracing=True)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def span_trees(tracer):
    """``(root_span, tree_spans)`` pairs for every request root."""
    spans = tracer.finished_spans()
    return [(root, tracer.request_spans(root.span_id))
            for root in spans if root.parent_id is None]


@pytest.fixture(scope="module")
def chaos_stack():
    """A small ChatGraph whose hottest APIs fail deterministically."""
    injector = FaultInjector(seed=11)
    faults = {
        "count_nodes": FaultSpec(fail_times=2),
        "graph_density": FaultSpec(fail_times=2),
        "count_edges": FaultSpec(fail_times=1),
    }
    registry = injector.wrap_registry(default_registry(), faults)
    chatgraph = ChatGraph(registry=registry)
    chatgraph.finetune(CorpusSpec(n_examples=150, seed=0))
    return chatgraph, injector, faults


class TestTraceCoverage:
    def test_every_stage_and_step_covered(self, chatgraph):
        responses = []
        config = traced_config(workers=2)
        with ChatGraphServer(chatgraph, config) as server:
            for __, text, graph in canonical_workload():
                responses.append(server.ask(text, graph=graph))
            tracer = server.tracer
            trees = span_trees(tracer)
        assert all(r.ok for r in responses)
        assert check_trace([s.to_dict()
                            for s in tracer.finished_spans()]) == []
        assert len(trees) == len(responses)
        for root, tree in trees:
            assert root.kind == "request"
            assert root.attrs["ok"] is True
            stage_names = {s.name for s in tree if s.kind == "stage"}
            assert stage_names == set(PIPELINE_STAGES)
            # a served request has no ``ask`` op span (that is the
            # direct ``ChatGraph.ask`` caller's): the pipeline and the
            # chain hang off the request span, one pipeline per tree
            assert sum(1 for s in tree if s.kind == "op") == 0
            assert sum(1 for s in tree if s.kind == "pipeline") == 1
        # step spans match the executed chains exactly
        executed = Counter(step.api_name for r in responses
                           for step in r.value.record.steps)
        covered = Counter(s.attrs["api"]
                          for s in tracer.finished_spans()
                          if s.kind == "step")
        assert executed == covered

    def test_attempt_spans_match_recorded_attempts(self, chaos_stack):
        chatgraph, __, __ = chaos_stack
        config = traced_config(step_max_retries=3,
                               retry_backoff_seconds=0.002)
        graph = social_network(25, 3, seed=2)
        with ChatGraphServer(chatgraph, config) as server:
            responses = [server.ask(text, graph=graph)
                         for text in ("write a brief report for G",
                                      "count the nodes",
                                      "compute the graph density")]
            tracer = server.tracer
        assert all(r.ok for r in responses)
        spans = tracer.finished_spans()
        attempts_by_parent = Counter(
            s.parent_id for s in spans if s.kind == "attempt")
        step_spans = [s for s in spans if s.kind == "step"]
        assert step_spans
        for step_span in step_spans:
            if step_span.attrs.get("used_fallback"):
                continue
            assert attempts_by_parent[step_span.span_id] == \
                step_span.attrs["attempts"]
        # the injected faults were absorbed by retries that the trace
        # records: some step needed more than one attempt
        retried = [s for s in step_spans if s.attrs.get("attempts", 1) > 1]
        assert retried
        counters = server.metrics.snapshot()["counters"]
        assert counters["events_step_retried"] >= len(retried)
        assert counters["events_step_retried"] == \
            sum(r.value.monitor.retries for r in responses)


class TestTraceDeterminism:
    def workload(self):
        graphs = (social_network(30, 3, seed=7),
                  knowledge_graph(25, 80, seed=7))
        prompts = ("write a brief report for G",
                   "clean up the knowledge graph",
                   "count the nodes", "find communities",
                   "compute the graph density", "how many edges")
        return [ServeRequest(op="ask", text=text,
                             graph=graphs[index % 2],
                             client_id=f"det-{index % 3}")
                for index, text in enumerate(prompts)]

    def run_once(self, chatgraph, order):
        # never coalesce: a shared pass adds a ``microbatch`` span, and
        # which requests share one depends on timing, not on the seed
        config = traced_config(workers=4, microbatch_size=0)
        requests = self.workload()
        if order == "reversed":
            requests = requests[::-1]
        with ChatGraphServer(chatgraph, config) as server:
            pending = [server.submit(request) for request in requests]
            for item in pending:
                assert item.result(timeout=60.0).ok
            return spans_to_jsonl(server.tracer.finished_spans(),
                                  canonical=True)

    def test_canonical_export_byte_identical(self, chatgraph):
        first = self.run_once(chatgraph, order="forward")
        second = self.run_once(chatgraph, order="reversed")
        assert first == second
        assert first  # non-trivial trace

    def test_full_export_same_structure_different_timings(self, chatgraph):
        config = traced_config()
        with ChatGraphServer(chatgraph, config) as server:
            assert server.ask("count the nodes",
                              graph=social_network(20, 2, seed=1)).ok
            full = spans_to_jsonl(server.tracer.finished_spans())
        assert '"wall_seconds"' in full


class TestStressReconciliation:
    def test_8_worker_chaos_counters_reconcile_exactly(self, chaos_stack):
        """Every executor event lands in exactly one of each ledger."""
        chatgraph, injector, __ = chaos_stack
        injector.reset()
        collected = Counter()
        lock = threading.Lock()

        def collector(event):
            with lock:
                collected[event.kind] += 1

        graphs = (social_network(25, 3, seed=2),
                  knowledge_graph(20, 60, seed=2))
        prompts = ("write a brief report for G", "count the nodes",
                   "find communities", "compute the graph density")
        config = traced_config(workers=8, queue_depth=64,
                               step_max_retries=3,
                               retry_backoff_seconds=0.002,
                               breaker_failure_threshold=10,
                               breaker_window=20)
        chatgraph.executor.add_listener(collector)
        try:
            with ChatGraphServer(chatgraph, config) as server:
                pending = [server.submit(ServeRequest(
                    op="ask", text=prompts[index % len(prompts)],
                    graph=graphs[index % 2],
                    client_id=f"stress-{index % 5}"))
                    for index in range(24)]
                responses = [item.result(timeout=120.0)
                             for item in pending]
                stats = server.stats()
                metrics = server.metrics_snapshot()
                tracer = server.tracer
        finally:
            chatgraph.executor.remove_listener(collector)
        assert all(r.ok for r in responses)

        # 1. the metrics registry counted the same events we did
        for kind in OBSERVED_EVENT_KINDS:
            assert metrics["counters"].get(f"events_{kind}", 0) == \
                collected.get(kind, 0), kind
        # 2. the server's robustness counters (the bare kind) agree
        for kind in RECOVERY_EVENT_KINDS:
            assert stats["counters"].get(kind, 0) == \
                collected.get(kind, 0), kind
        # 3. per-request monitors partition the event stream exactly
        monitor_totals = Counter()
        for response in responses:
            monitor_totals.update(response.value.monitor.event_counts())
        assert monitor_totals == collected
        # 4. chain accounting is exact: one started+finished per request
        assert collected["chain_started"] == len(responses)
        assert collected["chain_finished"] == len(responses)
        assert collected["step_finished"] == sum(
            len(r.value.record.steps) for r in responses)
        # 5. the trace saw every executed step too
        step_spans = sum(1 for s in tracer.finished_spans()
                         if s.kind == "step")
        assert step_spans == collected["step_started"]
        # 6. injected faults showed up as retries
        injected = sum(injector.stats()["injected_failures"].values())
        assert injected > 0
        assert collected["step_retried"] == injected

    def test_tracer_restored_after_stop(self, chatgraph):
        assert chatgraph.tracer is None
        with ChatGraphServer(chatgraph, traced_config()) as server:
            assert chatgraph.tracer is server.tracer
        assert chatgraph.tracer is None

    def test_untraced_server_has_no_tracer(self, chatgraph):
        config = ServeConfig(workers=1, seed=0)
        with ChatGraphServer(chatgraph, config) as server:
            assert server.tracer is None
            assert server.ask("count the nodes",
                              graph=social_network(15, 2, seed=3)).ok
            snapshot = server.metrics_snapshot()
        assert snapshot["trace"] == {}
        # event counters still flow without tracing
        assert snapshot["counters"]["events_chain_finished"] >= 1
