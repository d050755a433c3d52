"""Terminal chat front-end (the offline stand-in for the Gradio UI).

Run ``python -m repro.cli`` for an interactive session, or pipe a
script::

    printf '/demo social\\nWrite a brief report for G\\n/quit\\n' \\
        | python -m repro.cli

Commands (everything else is a question for ChatGraph):

=============================  =========================================
``/help``                      show this command list
``/upload <path>``             load a graph (.json / .graphml / .edges)
``/demo social|molecule|kg``   load a built-in demo graph
``/suggest``                   suggested questions for the upload
``/show [adj|degrees|comms]``  render the uploaded graph as text
``/manual`` / ``/auto``        require / skip chain confirmation
``/chain``                     show the pending chain
``/edit remove <i>``           edit the pending chain
``/edit append <api>``
``/edit replace <i> <api>``
``/confirm`` / ``/reject``     execute or discard the pending chain
``/apis``                      list the API catalog
``/config``                    show the active configuration
``/quit``                      exit
=============================  =========================================

Four subcommands share the entry point: ``chaos`` (seeded fault
injection), ``bench-slo`` (soak scenarios gated on SLOs, single-process
and sharded), ``trace`` (record or replay span logs) and ``store``
(manage a durable graph catalog).  Speed is measured elsewhere, by
``benchmarks/ledger/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import IO

from . import ChatGraph, ChatSession
from .errors import ChatGraphError, GraphIOError
from .graphs import from_document, read_edgelist, read_graphml
from .graphs.generators import (
    knowledge_graph,
    social_network,
)
from .chem import parse_smiles


def load_graph(path: str):
    """Load a graph by file extension (.json, .graphml, .edges, .smi)."""
    file_path = Path(path)
    if not file_path.exists():
        raise ChatGraphError(f"no such file: {path}")
    suffix = file_path.suffix.lower()
    if suffix == ".json":
        try:
            document = json.loads(file_path.read_text())
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise GraphIOError(f"{path} is not JSON: {exc}") from exc
        return from_document(document)
    if suffix == ".graphml":
        return read_graphml(file_path)
    if suffix in (".smi", ".smiles"):
        lines = file_path.read_text().strip().splitlines()
        if not lines:
            raise GraphIOError(f"{path} holds no SMILES string")
        return parse_smiles(lines[0], name=file_path.stem).to_graph()
    return read_edgelist(file_path)


def demo_graph(kind: str):
    """Built-in demo graphs for the /demo command."""
    if kind in ("social", "sn"):
        return social_network(50, 3, seed=7)
    if kind in ("molecule", "mol"):
        return parse_smiles("CC(=O)Oc1ccccc1C(=O)O",
                            name="aspirin").to_graph()
    if kind in ("kg", "knowledge"):
        return knowledge_graph(40, 150, seed=7)
    raise ChatGraphError(f"unknown demo graph {kind!r} "
                         "(social | molecule | kg)")


class ChatCli:
    """Line-oriented REPL over a :class:`~repro.core.session.ChatSession`."""

    def __init__(self, chatgraph: ChatGraph, out: IO[str] = sys.stdout,
                 auto_confirm: bool = True) -> None:
        self.session = ChatSession(chatgraph)
        self.out = out
        self.auto_confirm = auto_confirm
        self.running = True

    def say(self, text: str = "") -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------
    def handle(self, line: str) -> None:
        """Process one input line (command or question)."""
        line = line.strip()
        if not line:
            return
        if line.startswith("/"):
            self._command(line)
        else:
            self._question(line)

    def _command(self, line: str) -> None:
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        try:
            if command == "/help":
                self.say(__doc__ or "")
            elif command == "/quit":
                self.running = False
                self.say("bye")
            elif command == "/upload":
                if not args:
                    raise ChatGraphError("/upload needs a path")
                graph = load_graph(args[0])
                self.session.upload_graph(graph)
                self.say(f"uploaded {graph!r}")
            elif command == "/demo":
                graph = demo_graph(args[0] if args else "social")
                self.session.upload_graph(graph)
                self.say(f"loaded demo graph {graph!r}")
            elif command == "/suggest":
                for question in self.session.suggestions():
                    self.say(f"  - {question}")
            elif command == "/show":
                self._show(args[0] if args else "summary")
            elif command == "/manual":
                self.auto_confirm = False
                self.say("chains now require /confirm")
            elif command == "/auto":
                self.auto_confirm = True
                self.say("chains auto-execute")
            elif command == "/chain":
                self.say(self.session.pending_chain.render())
            elif command == "/edit":
                self._edit(args)
            elif command == "/confirm":
                response = self.session.confirm()
                self.say(response.answer)
            elif command == "/reject":
                self.session.reject()
                self.say("chain discarded")
            elif command == "/apis":
                for spec in self.session.chatgraph.registry:
                    self.say(f"  {spec.name:<24} [{spec.category.value}] "
                             f"{spec.description}")
            elif command == "/config":
                config = self.session.chatgraph.config.to_dict()
                self.say(json.dumps(config, indent=1))
            else:
                self.say(f"unknown command {command}; try /help")
        except ChatGraphError as exc:
            self.say(f"error: {exc}")

    def _show(self, what: str) -> None:
        from . import viz
        graph = self.session.graph
        if graph is None:
            raise ChatGraphError("upload a graph first (/upload or /demo)")
        if what in ("adj", "adjacency"):
            self.say(viz.render_adjacency(graph))
        elif what in ("degrees", "hist"):
            self.say(viz.render_degree_histogram(graph))
        elif what in ("comms", "communities"):
            self.say(viz.render_communities(graph))
        else:
            self.say(viz.render_graph_summary_card(graph))

    def _edit(self, args: list[str]) -> None:
        if not args:
            raise ChatGraphError(
                "/edit remove <i> | append <api> | replace <i> <api>")
        action = args[0]
        if action == "remove" and len(args) == 2:
            self.session.edit_chain(remove=int(args[1]))
        elif action == "append" and len(args) == 2:
            self.session.edit_chain(append=args[1])
        elif action == "replace" and len(args) == 3:
            self.session.edit_chain(replace=(int(args[1]), args[2]))
        else:
            raise ChatGraphError(f"bad /edit usage: {' '.join(args)}")
        self.say(f"chain: {self.session.pending_chain.render()}")

    def _question(self, text: str) -> None:
        try:
            proposal = self.session.propose(text)
        except ChatGraphError as exc:
            self.say(f"error: {exc}")
            return
        self.say(f"[chain] {proposal.chain.render()}")
        if self.auto_confirm:
            response = self.session.confirm()
            self.say(response.answer)
        else:
            self.say("(confirm with /confirm, edit with /edit, "
                     "discard with /reject)")

    # ------------------------------------------------------------------
    def repl(self, stream: IO[str] = sys.stdin,
             interactive: bool | None = None) -> None:
        """Read lines until EOF or /quit."""
        if interactive is None:
            interactive = stream.isatty()
        while self.running:
            if interactive:
                self.out.write("chatgraph> ")
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            self.handle(line)


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"{value!r} must be positive")
    return parsed


def chaos_main(argv: list[str]) -> int:
    """``python -m repro.cli chaos``: seeded chaos run of the serve
    engine.

    Wraps a deterministic sample of registry APIs with injected
    failures (each fails its first N calls, then recovers), serves a
    workload through :class:`~repro.serve.engine.ChatGraphServer` with
    step timeouts + retries + circuit breakers enabled, and verifies
    that every request resolves and the retry layer absorbed the
    injected faults.  Exit code 0 = the invariants held.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli chaos",
        description="Seeded fault-injection (chaos) run of the "
                    "repro.serve runtime")
    parser.add_argument("--requests", type=_positive_int, default=24,
                        help="number of ask requests (default 24)")
    parser.add_argument("--workers", type=_positive_int, default=2)
    parser.add_argument("--corpus", type=int, default=200,
                        help="finetuning corpus size (default 200)")
    parser.add_argument("--faulty-apis", type=_positive_int, default=6,
                        help="APIs to fault (seeded sample, default 6)")
    parser.add_argument("--fail-times", type=_positive_int, default=2,
                        help="injected failures per faulty API "
                             "(default 2)")
    parser.add_argument("--retries", type=_positive_int, default=3,
                        help="step retry budget (default 3)")
    parser.add_argument("--timeout-ms", type=float, default=500.0,
                        help="per-step timeout (default 500ms)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    args = parser.parse_args(argv)

    from .finetune.dataset import CorpusSpec
    from .serve import ChatGraphServer, ServeConfig, ServeRequest
    from .testing.faults import chaos_registry
    from .apis.registry import default_registry
    from .graphs.generators import knowledge_graph, social_network

    n_requests = 8 if args.quick else args.requests
    registry, injector, faults = chaos_registry(
        default_registry(), seed=args.seed, n_faulty=args.faulty_apis,
        fail_times=args.fail_times)
    print(f"faulted APIs (fail first {args.fail_times} calls): "
          f"{', '.join(sorted(faults))}", file=sys.stderr)

    print("loading ChatGraph (finetuning the simulated backbone)...",
          file=sys.stderr)
    chatgraph = ChatGraph(registry=registry)
    chatgraph.finetune(CorpusSpec(n_examples=args.corpus, seed=args.seed))

    config = ServeConfig(
        workers=args.workers,
        step_timeout_seconds=args.timeout_ms / 1000.0,
        step_max_retries=args.retries,
        retry_backoff_seconds=0.005,
        seed=args.seed)
    prompts = ("write a brief report for G", "count the nodes",
               "find communities", "compute the graph density")
    graphs = (social_network(30, 3, seed=args.seed),
              knowledge_graph(20, 60, seed=args.seed))
    failures = 0
    degraded = 0
    with ChatGraphServer(chatgraph, config) as server:
        pending = [server.submit(ServeRequest(
            op="ask", text=prompts[i % len(prompts)],
            graph=graphs[i % len(graphs)], client_id=f"chaos-{i % 4}"))
            for i in range(n_requests)]
        for item in pending:
            response = item.result(timeout=120.0)
            if not response.ok:
                failures += 1
            record = getattr(response.value, "record", None)
            if record is not None and record.is_degraded:
                degraded += 1
        snapshot = server.stats()

    counters = snapshot["counters"]
    injected = sum(injector.stats()["injected_failures"].values())
    retried = counters.get("step_retried", 0)
    print(f"requests: {n_requests}  unresolved/errored: {failures}  "
          f"degraded: {degraded}")
    print(f"injected failures: {injected}  step_retried: {retried}  "
          f"step_timed_out: {counters.get('step_timed_out', 0)}  "
          f"breaker_opened: {counters.get('breaker_opened', 0)}")
    print(f"breakers: {json.dumps(snapshot['breakers'], indent=1)}")
    ok = failures == 0 and injected > 0 and retried >= injected - \
        counters.get("step_failed", 0)
    print("chaos run: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def bench_slo_main(argv: list[str]) -> int:
    """``python -m repro.cli bench-slo``: soak scenarios gated on SLOs.

    Runs the named :mod:`repro.loadgen` scenarios (default: all of
    steady / diurnal / spike / shard-kill / shard-reshape) under the
    fake-clock discipline, writes the combined report to ``--out``
    (JSON, one block per scenario with its SLO verdict and schedule
    sha256, stamped with the host it ran on), and exits non-zero
    when any gate fails, naming the scenario, the gate and the seed
    that replays it.  Under a fixed ``--seed`` the generated request
    schedule is byte-identical across runs (``--dump-schedule DIR``
    writes the canonical JSONL to prove it).
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli bench-slo",
        description="Production traffic simulation with SLO gates "
                    "over the repro.serve runtime and the shard fleet")
    parser.add_argument("--scenario", default="all",
                        help="steady | diurnal | spike | shard-kill | "
                             "shard-reshape | smoke | all (default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized runs (shorter durations)")
    parser.add_argument("--corpus", type=int, default=200,
                        help="finetuning corpus size (default 200)")
    parser.add_argument("--real-clock", action="store_true",
                        help="replay against the real clock instead of "
                             "the virtual one (slow: sleeps think "
                             "times)")
    parser.add_argument("--out", default="bench-slo.json",
                        help="combined report path "
                             "(default bench-slo.json)")
    parser.add_argument("--dump-schedule", metavar="DIR",
                        help="also write each scenario's canonical "
                             "schedule JSONL into DIR")
    args = parser.parse_args(argv)

    from .loadgen import (
        SCENARIOS,
        get_scenario,
        run_scenario,
        scenario_schedule,
    )

    names = (list(SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    scenarios = [get_scenario(name, quick=args.quick) for name in names]

    report: dict = {"bench": "bench-slo", "seed": args.seed,
                    "quick": args.quick,
                    "fake_clock": not args.real_clock,
                    "host": {"cpu_count": os.cpu_count() or 1,
                             "platform": platform.platform(),
                             "python": platform.python_version()},
                    "scenarios": {}}
    failures: list[str] = []
    for scenario in scenarios:
        if args.dump_schedule:
            schedule = scenario_schedule(scenario, args.seed)
            out_dir = Path(args.dump_schedule)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"schedule-{scenario.name}.jsonl"
            path.write_text(schedule.to_jsonl(), encoding="utf-8")
            print(f"schedule ({len(schedule)} requests, "
                  f"sha256 {schedule.sha256()[:16]}...) -> {path}",
                  file=sys.stderr)
        print(f"running scenario {scenario.name!r} "
              f"({'quick, ' if args.quick else ''}"
              f"{'real' if args.real_clock else 'fake'} clock, "
              f"seed {args.seed})...", file=sys.stderr)
        result = run_scenario(scenario, seed=args.seed,
                              fake_clock=not args.real_clock,
                              corpus_size=args.corpus)
        report["scenarios"][scenario.name] = result
        overall = result["overall"]
        print(f"{scenario.name}: {overall['submitted']} submitted, "
              f"{overall['ok']} ok, {overall['rejected']} rejected, "
              f"{overall['errors']} errors, "
              f"p95 {overall['latency']['p95'] * 1000:.1f}ms  "
              f"[schedule {result['schedule_sha256'][:16]}...]")
        for gate in result["slo"]["gates"]:
            status = "PASS" if gate["passed"] else "FAIL"
            print(f"  {status}  {gate['gate']}")
            if not gate["passed"]:
                failures.append(f"{scenario.name}: {gate['gate']}")
        if not result["reconciliation"]["exact"]:
            print(f"  FAIL  counter reconciliation: "
                  f"{result['reconciliation']}")
            failures.append(f"{scenario.name}: counter reconciliation")
    report["passed"] = not failures
    Path(args.out).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"report -> {args.out}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED gate (seed {args.seed}"
              f"{', quick' if args.quick else ''}) {failure}")
    print("bench-slo: " + ("OK" if not failures else "FAILED"))
    return 0 if not failures else 1


def trace_main(argv: list[str]) -> int:
    """``python -m repro.cli trace``: record or replay pipeline traces.

    Two modes:

    * ``--input span_log.jsonl`` replays a recorded JSON-lines span
      log as a flame-style summary (``--check`` verifies structural
      integrity);
    * ``--demo`` serves the canonical seeded workload through a
      tracing :class:`~repro.serve.engine.ChatGraphServer`, renders
      the trace, optionally writes the span log (``--out``, with
      ``--canonical`` for the byte-stable form) and the metrics
      snapshot (``--metrics-out``), and with ``--check`` asserts the
      span log parses and covers every executed pipeline stage and
      API step.  Exit code 0 = all checks held.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Record a seeded end-to-end trace, or replay a "
                    "span log as a flame-style summary")
    parser.add_argument("--input", action="append",
                        help="replay this JSON-lines span log; repeat to "
                             "merge per-shard logs into one view")
    parser.add_argument("--demo", action="store_true",
                        help="run the canonical seeded workload with "
                             "tracing enabled")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus", type=int, default=200,
                        help="finetuning corpus size (default 200)")
    parser.add_argument("--workers", type=_positive_int, default=1)
    parser.add_argument("--canonical", action="store_true",
                        help="export the canonical (timing-free, "
                             "byte-stable) span log form")
    parser.add_argument("--out", help="write the span log here")
    parser.add_argument("--metrics-out",
                        help="write the metrics snapshot (markdown) here")
    parser.add_argument("--check", action="store_true",
                        help="verify span-log integrity and coverage")
    args = parser.parse_args(argv)

    from collections import Counter

    from .obs import (
        check_trace,
        merge_traces,
        read_trace,
        render_flame,
        render_metrics_markdown,
        write_trace,
    )

    if args.input:
        if len(args.input) == 1:
            spans = read_trace(args.input[0])
        else:
            spans = merge_traces(*(read_trace(path)
                                   for path in args.input))
            print(f"merged {len(args.input)} span logs "
                  f"({len(spans)} spans)", file=sys.stderr)
        print(render_flame(spans))
        if args.out:
            write_trace(args.out, spans, canonical=args.canonical)
            print(f"span log -> {args.out}", file=sys.stderr)
        if args.check:
            problems = check_trace(spans)
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            print("trace check: " + ("OK" if not problems else "FAILED"))
            return 0 if not problems else 1
        return 0
    if not args.demo:
        parser.error("pass --input PATH or --demo")

    from .config import ServeConfig
    from .serve import ChatGraphServer
    from .testing.workloads import canonical_workload

    print("loading ChatGraph (finetuning the simulated backbone)...",
          file=sys.stderr)
    chatgraph = ChatGraph.pretrained(corpus_size=args.corpus,
                                     seed=args.seed)
    config = ServeConfig(workers=args.workers, seed=args.seed,
                         enable_tracing=True)
    responses = []
    with ChatGraphServer(chatgraph, config) as server:
        for slug, text, graph in canonical_workload():
            responses.append((slug, server.ask(text, graph=graph)))
        spans = server.tracer.finished_spans()
        snapshot = server.metrics_snapshot()

    print(render_flame(spans))
    if args.out:
        write_trace(args.out, spans, canonical=args.canonical)
        print(f"span log -> {args.out}", file=sys.stderr)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            render_metrics_markdown(snapshot), encoding="utf-8")
        print(f"metrics snapshot -> {args.metrics_out}", file=sys.stderr)

    ok = all(response.ok for _, response in responses)
    if args.check:
        problems = check_trace([span.to_dict() for span in spans])
        executed = Counter(
            step.api_name
            for _, response in responses
            for step in response.value.record.steps)
        covered = Counter(span.attrs.get("api") for span in spans
                          if span.kind == "step")
        if executed != covered:
            problems.append(
                f"step span coverage mismatch: executed {dict(executed)} "
                f"vs spans {dict(covered)}")
        n_stages = sum(1 for span in spans if span.kind == "stage")
        if n_stages != 5 * len(responses):
            problems.append(f"expected {5 * len(responses)} stage spans, "
                            f"got {n_stages}")
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        ok = ok and not problems
        print("trace smoke: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.cli``.

    ``python -m repro.cli`` starts the chat REPL;
    ``python -m repro.cli chaos [...]`` runs the seeded
    fault-injection check of the serve engine;
    ``python -m repro.cli bench-slo [...]`` runs soak scenarios with
    SLO gates, single-process and sharded (see :mod:`repro.loadgen`);
    ``python -m repro.cli trace [...]`` records a seeded traced run or
    replays a span log (see :mod:`repro.obs`);
    ``python -m repro.cli store [...]`` manages a durable graph
    catalog (see :mod:`repro.store`).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "bench-slo":
        return bench_slo_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "store":
        from .store.cli import store_main
        return store_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="ChatGraph terminal chat")
    parser.add_argument("--graph", help="graph file to upload at start")
    parser.add_argument("--corpus", type=int, default=400,
                        help="finetuning corpus size (default 400)")
    parser.add_argument("--manual", action="store_true",
                        help="require /confirm before executing chains")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print("loading ChatGraph (finetuning the simulated backbone)...",
          file=sys.stderr)
    chatgraph = ChatGraph.pretrained(corpus_size=args.corpus,
                                     seed=args.seed)
    cli = ChatCli(chatgraph, auto_confirm=not args.manual)
    if args.graph:
        cli.handle(f"/upload {args.graph}")
    cli.say("ChatGraph ready. Type a question, or /help.")
    cli.repl()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
