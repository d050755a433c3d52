"""The traced run: per-layer metrics, measured from outside.

A layer is a module under ``src/repro/``.  Each metric is the wall time
of the layer's *public* entry point, clocked by the harness on inputs
captured from the workload, or a count/ratio read from reply fields,
``stats()`` or ``metrics_snapshot()``.  Nothing inside ``src/`` is
switched on: tracing stays off in the program, and the spans come from
:mod:`spans`.

For the library workloads the harness *replays the pipeline itself*
(intent, graph type, retrieve, sequentialize, decode, repair, execute,
render — the steps of ``ChatPipeline.process`` + ``ChatGraph.execute``)
as children of one request span and requires the replay's reply to be
byte-equal to the oracle's: a decomposition that diverges is a failure,
not a number.
"""

from __future__ import annotations

import io
import struct
import time
from pathlib import Path
from typing import Any, Callable

from repro import ChatGraph, ChatGraphServer, ServeConfig
from repro.algorithms import (
    average_clustering,
    label_propagation,
    modularity,
    pagerank,
)
from repro.apis.chain import APIChain
from repro.apis.registry import Category
from repro.core.chatgraph import ChatResponse
from repro.core.fallbacks import FALLBACKS
from repro.core.monitoring import ChainMonitor
from repro.core.pipeline import PipelineResult
from repro.core.reports import render_answer
from repro.errors import ChainError, ChatGraphError, EmbeddingError
from repro.graphs.io import fingerprint, from_dict, to_dict
from repro.llm.chain_model import GenerationState
from repro.llm.decoding import greedy_decode, greedy_decode_batch
from repro.llm.intent import CATEGORY_ROUTING
from repro.llm.prompts import Prompt
from repro.obs import Tracer
from repro.shard import ShardedChatGraphServer, ShardModelSpec
from repro.shard.protocol import (
    dumps_canonical,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

import drivers
from spans import Recorder, self_time_by_name, unexplained_shares
from stats import (bracketed, kernel_reading, mean, median, ms, percentile,
                   slow_factors)
from workloads import Spec

#: Inline-graph requests the standalone probes run on.
PROBE_SAMPLE = 48
#: Requests of the differential probes (server / fleet / tracer on-off).
DIFF_SAMPLE = 32
#: Graphs the direct algorithm calls run on.
ALGO_SAMPLE = 16
#: APIs whose step time is reported (the most frequent in the chains
#: the four workloads produce at seeds 0 and 1).
STEP_APIS = ("predict_graph_type", "graph_summary", "find_influencers",
             "detect_communities", "generate_report", "knowledge_profile",
             "mine_rules", "detect_incorrect_edges")
#: ``repro.algorithms`` functions behind the most frequent chat_large
#: APIs: find_influencers, detect_communities (two) and the graph-type
#: predictor.
ALGORITHMS = ("pagerank", "label_propagation", "modularity",
              "average_clustering")


# ----------------------------------------------------------------------
# the pipeline, replayed through public functions
# ----------------------------------------------------------------------
class Replay:
    """One request decomposed into layer spans."""

    def __init__(self, chatgraph: ChatGraph, recorder: Recorder) -> None:
        self.chatgraph = chatgraph
        self.recorder = recorder
        self.states: list[GenerationState] = []
        self.records: list[Any] = []
        self.fallbacks = 0
        self.edges = 0
        self.paths = 0

    def run(self, spec: Spec, graph: Any, request_id: str,
            group: str) -> Any:
        """Returns the reply value (ChatResponse or PipelineResult)."""
        cg, rec = self.chatgraph, self.recorder
        pipeline, config = cg.pipeline, cg.config
        text = spec.text

        def span(name: str) -> Any:
            return rec.span(name, request_id, group)

        with span("request"):
            with span("llm.intent"):
                intent = pipeline.intent_classifier.predict(text)
            with span("llm.graph_type"):
                prediction = pipeline.type_predictor.predict(graph)
            categories = CATEGORY_ROUTING.get(prediction.graph_type,
                                              tuple(Category))
            with span("retrieval.retrieve"):
                try:
                    retrieved = cg.retriever.retrieve_names(
                        text, k=config.retrieval.top_k_apis,
                        categories=categories)
                except EmbeddingError:
                    retrieved = ()
            with span("sequencer.sequentialize"):
                sequences = pipeline.sequentializer.sequentialize(graph)
            state = GenerationState(
                prompt_text=text,
                graph_tokens=GenerationState.graph_tokens_from_counter(
                    sequences.feature_counts),
                retrieved=retrieved,
                allowed=tuple(item.name for item in
                              cg.registry.by_category(*categories)))
            with span("llm.decode"):
                names = greedy_decode(
                    cg.model, state,
                    max_length=config.llm.max_chain_length)
            with span("core.repair"):
                chain = APIChain.from_names(list(names))
                used_fallback = False
                try:
                    chain.validate(cg.registry)
                except ChainError:
                    chain = APIChain.from_names(list(FALLBACKS.chain_for(
                        prediction.graph_type, intent)))
                    used_fallback = True
            result = PipelineResult(
                prompt=Prompt(text=text, graph=graph), intent=intent,
                graph_type=prediction.graph_type,
                type_prediction=prediction, retrieved=retrieved,
                sequences=sequences, chain=chain,
                used_fallback=used_fallback)
            self.states.append(state)
            self.fallbacks += used_fallback
            self.edges += graph.number_of_edges()
            self.paths += sequences.n_sequences
            if spec.op == "propose":
                return result
            with span("apis.execute") as execute:
                record, monitor = cg.execute(result)
            # steps report durations, not clocks: lay them end to end
            cursor = execute.start
            for step in record.steps:
                rec.add(f"apis.step.{step.api_name}", request_id, cursor,
                        cursor + step.seconds, parent=execute.id,
                        group=group, synthetic=True)
                cursor += step.seconds
            with span("core.render"):
                answer = render_answer(record)
            self.records.append(record)
            return ChatResponse(prompt=result.prompt, pipeline=result,
                                record=record, answer=answer,
                                monitor=monitor or ChainMonitor())


def span_ms_p50(recorder: Recorder, name: str) -> float:
    spans = recorder.named(name)
    return (ms(median([recorder.nominal(span) for span in spans]))
            if spans else 0.0)


# ----------------------------------------------------------------------
# standalone probes
# ----------------------------------------------------------------------
def probe_functions(chatgraph: ChatGraph, sample: list[tuple[Spec, Any]],
                    replay: Replay, values: dict[str, float]) -> None:
    """Entry points that the request tree does not split out."""
    pipeline, retriever = chatgraph.pipeline, chatgraph.retriever
    prompts = [Prompt(text=spec.text, graph=graph) for spec, graph in sample]
    values["core.process_ms_p50"] = ms(median(
        [bracketed(lambda p=p: pipeline.process(p))[0] for p in prompts]))
    batch_s = sum(bracketed(lambda i=i: pipeline.process_batch(
        prompts[i:i + 8]))[0] for i in range(0, len(prompts), 8))
    values["core.process_batch_ms_per_req"] = ms(batch_s / len(prompts))
    states = replay.states[:len(sample)]
    max_length = chatgraph.config.llm.max_chain_length
    decode_s = sum(bracketed(lambda i=i: greedy_decode_batch(
        chatgraph.model, states[i:i + 8], max_length=max_length))[0]
        for i in range(0, len(states), 8))
    values["llm.decode_batch_ms_per_req"] = ms(decode_s / len(states))

    embed, search, distances = [], [], []
    index = retriever.index
    # a prompt with a graph is always category-routed, and the retriever
    # then searches an enlarged pool of 4k candidates
    pool = min(len(chatgraph.registry.names()),
               4 * chatgraph.config.retrieval.top_k_apis)
    for spec, _ in sample:
        seconds, vector = bracketed(
            lambda: retriever.embedder.embed(spec.text))
        embed.append(seconds)
        before = index.distance_computations
        search.append(bracketed(lambda: index.search(vector, k=pool))[0])
        distances.append(index.distance_computations - before)
    values["embedding.embed_ms_p50"] = ms(median(embed))
    values["ann.search_ms_p50"] = ms(median(search))
    values["ann.distance_computations_per_query"] = mean(distances)

    prints, dumps, loads = [], [], []
    for _, graph in sample:
        prints.append(bracketed(lambda: fingerprint(graph))[0])
        seconds, document = bracketed(lambda: to_dict(graph))
        dumps.append(seconds)
        loads.append(bracketed(lambda: from_dict(document))[0])
    values["graphs.fingerprint_ms_p50"] = ms(median(prints))
    values["graphs.to_dict_ms_p50"] = ms(median(dumps))
    values["graphs.from_dict_ms_p50"] = ms(median(loads))

    totals = dict.fromkeys(ALGORITHMS, 0.0)
    edges = 0
    for _, graph in sample[:ALGO_SAMPLE]:
        plain = graph.to_undirected() if graph.directed else graph
        edges += plain.number_of_edges()
        totals["pagerank"] += bracketed(lambda: pagerank(plain))[0]
        seconds, communities = bracketed(
            lambda: label_propagation(plain, seed=0))
        totals["label_propagation"] += seconds
        totals["modularity"] += bracketed(
            lambda: modularity(plain, communities))[0]
        totals["average_clustering"] += bracketed(
            lambda: average_clustering(plain))[0]
    for name, seconds in totals.items():
        values[f"algorithms.us_per_edge.{name}"] = seconds / edges * 1e6


def probe_tracer(chatgraph: ChatGraph, sample: list[tuple[Spec, Any]],
                 values: dict[str, float]) -> None:
    """``ChatGraph.ask`` with the program's own tracer on vs off."""
    off = [float("inf")] * len(sample)
    on = [float("inf")] * len(sample)
    for _ in range(2):
        for best, tracer in ((off, None), (on, Tracer())):
            chatgraph.set_tracer(tracer)
            try:
                for index, (spec, graph) in enumerate(sample):
                    seconds, _ = bracketed(
                        lambda: chatgraph.ask(spec.text, graph=graph))
                    best[index] = min(best[index], seconds)
            finally:
                chatgraph.set_tracer(None)
    values["obs.tracer_on_overhead_share"] = sum(on) / sum(off) - 1.0


def paired(baseline: Callable[[Spec, Any, str], Any],
           candidate: Callable[[Spec, Any, str], Any],
           sample: list[tuple[Spec, Any]], tag: str
           ) -> tuple[list[float], list[float], list[Any]]:
    """Per-request seconds (min of two rounds) of two ways of serving
    the same requests, called alternately so neither runs warmer, and
    the candidate's last replies."""
    base = [float("inf")] * len(sample)
    other = [float("inf")] * len(sample)
    replies: list[Any] = [None] * len(sample)
    for round_index in range(2):
        suffix = f"-{tag}{round_index}"
        for index, (spec, graph) in enumerate(sample):
            seconds, _ = bracketed(lambda: baseline(spec, graph, suffix))
            base[index] = min(base[index], seconds)
            seconds, replies[index] = bracketed(
                lambda: candidate(spec, graph, suffix))
            other[index] = min(other[index], seconds)
    return base, other, replies


def through(server: Any, driver: Any) -> Callable[[Spec, Any, str], Any]:
    """Serve one request through ``server`` and wait for the reply."""
    def call(spec: Spec, graph: Any, suffix: str) -> Any:
        return server.request(driver.workload.request(spec, graph, suffix),
                              drivers.REPLY_TIMEOUT)
    return call


def record_differences(recorder: Recorder, name: str, base: list[float],
                       other: list[float]) -> float:
    """Lay the per-request differences out as probe spans; their median
    in milliseconds."""
    start = time.perf_counter()
    for index, (one, two) in enumerate(zip(base, other)):
        recorder.add(name, f"probe-{index}", start,
                     start + max(0.0, two - one), group="probe",
                     synthetic=True)
    return ms(median([two - one for one, two in zip(base, other)]))


def probe_runtime(oracle: Any, driver: Any, sample: list[tuple[Spec, Any]],
                  recorder: Recorder, values: dict[str, float]) -> list[Any]:
    """Request-plane overhead: the same requests through a one-worker,
    cache-less server minus direct calls, per request."""
    chatgraph = oracle.chatgraph

    def direct(spec: Spec, graph: Any, suffix: str) -> Any:
        call = chatgraph.ask if spec.op == "ask" else chatgraph.propose
        return call(spec.text, graph=graph)

    with ChatGraphServer(chatgraph, ServeConfig(
            workers=1, enable_caches=False)) as server:
        base, served, replies = paired(direct, through(server, driver),
                                       sample, "ro")
    values["runtime.overhead_ms_p50"] = record_differences(
        recorder, "runtime.overhead", base, served)
    return replies


def probe_protocol(driver: Any, sample: list[tuple[Spec, Any]],
                   responses: list[Any], values: dict[str, float]) -> None:
    """Pipe protocol encode/decode, bytes per request and per reply."""
    header = struct.Struct(">I")
    encode_s = decode_s = 0.0
    request_bytes = []
    for index, (spec, graph) in enumerate(sample):
        request = driver.workload.request(spec, graph)
        seconds, payload = bracketed(lambda: dumps_canonical({
            "type": "batch", "batch_id": index,
            "items": [request_to_wire(request, index)]}))
        encode_s += seconds
        request_bytes.append(len(payload))
        stream = io.BytesIO(header.pack(len(payload)) + payload)

        def decode() -> Any:
            return [request_from_wire(wire)
                    for wire in read_frame(stream)["items"]]
        decode_s += bracketed(decode)[0]
    reply_bytes = []
    for response in responses:
        seconds, payload = bracketed(
            lambda: dumps_canonical(response_to_wire(response)))
        encode_s += seconds
        reply_bytes.append(len(payload))
    total = sum(request_bytes)
    values["shard.encode_mb_s"] = (total + sum(reply_bytes)) / encode_s / 1e6
    values["shard.decode_mb_s"] = total / decode_s / 1e6
    values["shard.request_bytes_mean"] = mean(request_bytes)
    values["shard.reply_bytes_mean"] = mean(reply_bytes)


def probe_roundtrip(oracle: Any, driver: Any, sample: list[tuple[Spec, Any]],
                    recorder: Recorder, values: dict[str, float]) -> None:
    """One-shard fleet minus an in-process server with the shard's own
    configuration, on the same requests, per request."""
    config = driver.server.config
    shape = dict(
        microbatch_size=config.microbatch_size,
        microbatch_deadline_seconds=config.microbatch_deadline_seconds,
        enable_caches=False)
    with ChatGraphServer(oracle.chatgraph, ServeConfig(**shape)) as local, \
            ShardedChatGraphServer(ShardModelSpec(seed=0), ServeConfig(
                shards=1, **shape)) as fleet:
        in_process, sharded, replies = paired(
            through(local, driver), through(fleet, driver), sample, "rt")
    for reply in replies:
        response_from_wire(response_to_wire(reply))  # wire twin is stable
    values["shard.roundtrip_overhead_ms_p50"] = record_differences(
        recorder, "shard.roundtrip_overhead", in_process, sharded)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def cache_counts(stats: dict[str, Any]) -> dict[str, tuple[int, int]]:
    return {name: (entry.get("hits", 0), entry.get("misses", 0))
            for name, entry in stats.get("caches", {}).items()}


def traced_run(driver: Any, oracle: Any, setup: Any, gen_s: float,
               oracle_pretrained_s: float, trace_path: Path,
               declared: list[str]) -> dict[str, float]:
    workload = driver.workload
    ledger = driver.ledger
    recorder = Recorder()
    values = dict.fromkeys(declared, 0.0)
    served = isinstance(driver, drivers.ServedDriver)

    # end-to-end numbers always come from untraced passes; this one is
    # the base of ledger.trace_overhead_share
    driver.full_pass("untraced")
    untraced = ledger.latency[-1]

    inline = [spec for spec in workload.reads() if spec.graph is not None]
    replay = Replay(oracle.chatgraph, recorder)
    phase = ledger.phase("trace")

    def replay_checked(spec: Spec, graph: Any, request_id: str,
                       group: str) -> None:
        phase.sent += 1
        try:
            value = replay.run(spec, graph, request_id, group)
        except ChatGraphError:
            value = None
        if oracle.check(spec, value) is None:
            phase.failed += 1
        else:
            phase.succeeded += 1

    def replay_all(pairs: list[tuple[Spec, Any]], prefix: str,
                   group: str) -> None:
        readings = [kernel_reading()]
        for index, (spec, graph) in enumerate(pairs):
            replay_checked(spec, graph, f"{prefix}-{index}", group)
            readings.append(kernel_reading())
        for index, factor in enumerate(slow_factors(readings)):
            recorder.slow[f"{prefix}-{index}"] = factor

    if served:
        before = driver.server.stats()
        driver.recorder = recorder
        driver.read_timings.clear()
        driver.write_seconds.clear()
        driver.full_pass("traced")
        driver.recorder = None
        after = driver.server.stats()
        traced = ledger.latency[-1]
        sample = [(spec, driver.graphs[spec.graph])
                  for spec in inline[:PROBE_SAMPLE]]
        replay_all(sample, "probe", "probe")
        timings = [t for t in driver.read_timings if t.ok]
        values["runtime.admit_us_p50"] = median(
            [(t.admitted - t.sent) / t.slow for t in timings]) * 1e6
        values["runtime.queued_ms_p50"] = ms(median(
            [t.queued / t.slow for t in timings]))
        values["runtime.queued_ms_p90"] = ms(percentile(
            [t.queued / t.slow for t in timings], 90.0))
        values["runtime.service_ms_p50"] = ms(median(
            [t.service / t.slow for t in timings]))
        values["runtime.rejected"] = float(sum(
            count for name, count in after["counters"].items()
            if name.startswith("rejected_")))
        was, now = cache_counts(before), cache_counts(after)
        for name, (hits, misses) in now.items():
            hits -= was.get(name, (0, 0))[0]
            misses -= was.get(name, (0, 0))[1]
            values[f"serve.cache_hit_ratio.{name}"] = (
                hits / (hits + misses) if hits + misses else 0.0)
        values["serve.sessions_live"] = float(
            after["sessions"].get("active", 0))
        histograms = driver.server.metrics_snapshot()["histograms"]
        values["serve.microbatch_size_mean"] = histograms.get(
            "microbatch_size", {}).get("mean", 0.0)
        values["runtime.scatter_batch_size_mean"] = histograms.get(
            "scatter_batch_size", {}).get("mean", 0.0)
    else:
        graphs = driver.fresh_graphs()
        sample = [(spec, graphs[spec.graph]) for spec in inline]
        replay_all(sample, "traced", "request")
        traced = [recorder.nominal(root) for root in recorder.roots()]
        sample = sample[:PROBE_SAMPLE]
        probe_tracer(oracle.chatgraph, sample[:DIFF_SAMPLE], values)

    probe_functions(oracle.chatgraph, sample, replay, values)
    for layer in ("llm.intent", "llm.graph_type", "llm.decode",
                  "retrieval.retrieve", "sequencer.sequentialize",
                  "apis.execute"):
        values[f"{layer}_ms_p50"] = span_ms_p50(recorder, layer)
    sequentialize_s = sum(
        recorder.nominal(span)
        for span in recorder.named("sequencer.sequentialize"))
    values["sequencer.us_per_edge"] = sequentialize_s / replay.edges * 1e6
    values["sequencer.paths_per_graph"] = replay.paths / len(replay.states)
    records = replay.records
    values["apis.steps_per_chain"] = mean(
        [len(record.steps) for record in records])
    values["apis.degraded_share"] = mean(
        [float(record.is_degraded) for record in records])
    values["apis.fallback_share"] = replay.fallbacks / len(replay.states)
    for api in STEP_APIS:
        steps = recorder.named(f"apis.step.{api}")
        values[f"apis.step_ms.{api}"] = (
            ms(mean([recorder.nominal(span) for span in steps]))
            if steps else 0.0)

    if served:
        diff = sample[:DIFF_SAMPLE]
        responses = probe_runtime(oracle, driver, diff, recorder, values)
    if workload.name == "shard_fleet":
        probe_protocol(driver, diff, responses, values)
        probe_roundtrip(oracle, driver, diff, recorder, values)
        values["shard.boot_s"] = median(setup.boot_s)
    if workload.name == "serve_mixed":
        catalog = driver.server.catalog
        values["store.edit_ms_p50"] = ms(median(driver.write_seconds))
        values["store.ingest_us_per_edge"] = (
            setup.ingest_s / setup.ingest_edges * 1e6)
        values["store.view_ms_p50"] = ms(median(
            [bracketed(lambda: catalog.view(name))[0]
             for name in catalog.names() for _ in range(5)]))
        store = after["store"].values()
        values["store.log_bytes_per_edit"] = (
            sum(entry["log_bytes"] for entry in store)
            / sum(entry["log_records"] for entry in store))

    values["finetune.pretrained_s"] = (
        median(setup.pretrained_s) if setup.pretrained_s
        else oracle_pretrained_s)
    values["ledger.import_s"] = median(setup.import_s)
    values["ledger.unexplained_share"] = median(unexplained_shares(recorder))
    values["ledger.trace_overhead_share"] = (
        median(traced) / median(untraced) - 1.0)
    values["ledger.gen_lag_ms_p90"] = (
        ms(percentile(ledger.gen_lag, 90.0)) if ledger.gen_lag else 0.0)
    values["ledger.gen_s"] = gen_s

    recorder.write(trace_path)
    print(f"  trace: {len(recorder.spans)} spans -> {trace_path}")
    print("  self time by layer (request trees):")
    totals = self_time_by_name(recorder)
    whole = sum(totals.values()) or 1.0
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<28} {seconds:9.4f} s  {seconds / whole:6.1%}")
    return values
