"""Serving many sessions concurrently with repro.serve.

Eight clients chat at once against one shared ChatGraph: each gets its
own session (dialog history + uploaded graph), requests flow through
the bounded admission queue to a pool of worker threads, and the
content-addressed caches turn repeated retrieval/sequentialization
into lookups.  At the end the server's stats snapshot shows per-stage
latency and cache hit rates, and a deliberate overload demonstrates
backpressure.

Run:  python examples/serve_concurrent.py
"""

import threading

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.errors import BackpressureError
from repro.graphs import knowledge_graph, social_network
from repro.testing import slow_chatgraph


def main() -> None:
    print("finetuning the simulated backbone...")
    chatgraph = ChatGraph.pretrained(seed=0)
    server = ChatGraphServer(chatgraph, ServeConfig(
        workers=4, queue_depth=32,
        rate_limit_capacity=50, rate_limit_refill_per_second=25.0))

    questions = ("write a brief report for G",
                 "find the communities of this network",
                 "how many nodes does the graph have")

    with server:
        # -- eight concurrent sessions ---------------------------------
        def chat(index: int) -> None:
            session_id = f"client-{index}"
            graph = (social_network(30 + index, 3, seed=index)
                     if index % 2 == 0 else
                     knowledge_graph(24 + index, 80, seed=index))
            for question in questions:
                response = server.ask(question, graph=graph,
                                      session_id=session_id,
                                      client_id=session_id)
                first_line = response.value.answer.splitlines()[0]
                print(f"  [{session_id} via {response.worker}] "
                      f"{question!r} -> {first_line}")

        threads = [threading.Thread(target=chat, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # -- backpressure under deliberate overload --------------------
        # slow_chatgraph holds the one worker busy long enough for the
        # two-slot queue to fill (the offline backbone answers in ms)
        tiny = ChatGraphServer(chatgraph, ServeConfig(
            workers=1, queue_depth=2))
        rejected = 0
        with slow_chatgraph(chatgraph, 0.2), tiny:
            for __ in range(10):
                try:
                    tiny.submit(ServeRequest(op="propose",
                                             text="summarize G"))
                except BackpressureError as exc:
                    rejected += 1
                    hint = exc.retry_after
        print(f"\noverload: {rejected}/10 requests rejected with "
              f"backpressure (last retry_after hint: {hint:.3f}s)")

        # -- the metrics snapshot --------------------------------------
        stats = server.stats()
        print(f"\nsessions: {stats['sessions']['active']} active")
        print(f"counters: {stats['counters']}")
        for stage in ("queued", "retrieval", "generate", "execute"):
            if stage in stats["latency"]:
                s = stats["latency"][stage]
                print(f"  {stage:>13}: n={s['count']:<3} "
                      f"p50={s['p50'] * 1000:7.2f}ms "
                      f"p95={s['p95'] * 1000:7.2f}ms")
        for name, cache in stats["caches"].items():
            print(f"  cache {name:>10}: hit_rate={cache['hit_rate']:.2f} "
                  f"({cache['hits']} hits / {cache['misses']} misses)")


if __name__ == "__main__":
    main()
