"""The unified request-plane runtime: one lifecycle, two facades.

Proves the refactor's contract (see ``repro.runtime``):

* both servers are thin facades over one :class:`RequestLifecycle` —
  the submit/request/stats surface is defined once and inherited, so
  the two cannot diverge in how they admit, reply or report;
* ``stats()`` / ``metrics_snapshot()`` come from one snapshot builder,
  so the two servers' report shapes cannot drift — asserted as key-set
  equality on live snapshots from both facades, plus the builder
  refusing a backend that omits a required section;
* byte-parity regression: the refactored single-process server still
  produces the exact canonical wire bytes under micro-batching and
  across the process boundary, and the 1-shard fleet (on the loopback
  link, ``tests/shard_loopback.py``) is the degenerate case of the same
  runtime.

Golden traces are covered by ``test_golden_traces`` (which drives the
same facade); this module adds the cross-facade and cross-config
parity the unification claims.
"""

import pytest

from repro.config import ServeConfig
from repro.core.chatgraph import ChatGraph
from repro.runtime import RequestLifecycle, build_stats_snapshot
from repro.serve import ChatGraphServer
from repro.serve.engine import ServeRequest
from repro.shard.protocol import dumps_canonical, value_to_wire
from repro.testing import CANONICAL_PROMPTS, canonical_graph


@pytest.fixture(scope="module")
def chatgraph():
    return ChatGraph.pretrained(corpus_size=200)


def _canonical_cases():
    return [(text, canonical_graph(kind))
            for __, text, kind in CANONICAL_PROMPTS[:4]]


def _wire_bytes(server, cases):
    out = []
    for text, graph in cases:
        response = server.request(
            ServeRequest(op="ask", text=text, graph=graph))
        assert response.ok, response.error
        out.append(dumps_canonical(value_to_wire("ask", response.value)))
    return out


# ----------------------------------------------------------------------
# one lifecycle under the facade
# ----------------------------------------------------------------------
class TestSharedLifecycle:
    def test_facades_share_one_surface_by_construction(self, chatgraph):
        from repro.shard import ShardedChatGraphServer

        server = ChatGraphServer(chatgraph, ServeConfig(workers=1))
        assert isinstance(server.lifecycle, RequestLifecycle)
        # defined once, inherited by both: the two servers cannot
        # diverge in how they admit, reply or report
        for name in ("submit", "request", "propose", "ask", "start",
                     "stop", "stats", "metrics_snapshot"):
            assert (getattr(ChatGraphServer, name)
                    is getattr(ShardedChatGraphServer, name)), name

    def test_snapshot_builder_rejects_missing_sections(self, chatgraph):
        server = ChatGraphServer(chatgraph, ServeConfig(workers=1))
        with pytest.raises(ValueError, match="missing"):
            build_stats_snapshot(server.lifecycle,
                                 {"sessions": {}, "caches": {}})

    def test_single_process_reports_degenerate_shards(self, chatgraph):
        with ChatGraphServer(chatgraph, ServeConfig(workers=1)) as server:
            stats = server.stats()
        assert stats["shards"] == {"count": 0, "alive": 0,
                                   "per_shard": {}}


# ----------------------------------------------------------------------
# parity fixtures: scalar vs microbatched, same runtime
# ----------------------------------------------------------------------
class TestMicrobatchParity:
    def test_microbatched_bytes_match_scalar(self, chatgraph):
        cases = _canonical_cases()
        scalar_config = ServeConfig(workers=1, enable_caches=False,
                                    queue_depth=64)
        batched_config = ServeConfig(workers=1, enable_caches=False,
                                     queue_depth=64, microbatch_size=4,
                                     microbatch_deadline_seconds=0.02)
        with ChatGraphServer(chatgraph, scalar_config) as server:
            scalar = _wire_bytes(server, cases)
        with ChatGraphServer(chatgraph, batched_config) as server:
            batched = _wire_bytes(server, cases)
        assert scalar == batched

    def test_rerun_is_byte_identical(self, chatgraph):
        cases = _canonical_cases()
        config = ServeConfig(workers=1, queue_depth=64)
        with ChatGraphServer(chatgraph, config) as server:
            first = _wire_bytes(server, cases)
        with ChatGraphServer(chatgraph, config) as server:
            second = _wire_bytes(server, cases)
        assert first == second


# ----------------------------------------------------------------------
# the 1-shard degenerate case (byte parity, shapes cannot drift)
# ----------------------------------------------------------------------
class TestDegenerateShardParity:
    def test_one_shard_fleet_matches_single_process(self, chatgraph,
                                                     loopback):
        from repro.shard import ShardModelSpec, ShardedChatGraphServer

        cases = _canonical_cases()
        spec = ShardModelSpec(corpus_size=200)
        single = ChatGraphServer(chatgraph,
                                 ServeConfig(workers=1, queue_depth=64))
        sharded = ShardedChatGraphServer(
            spec, ServeConfig(shards=1, workers=1, queue_depth=64))
        with single, sharded:
            local_bytes = _wire_bytes(single, cases)
            remote_bytes = _wire_bytes(sharded, cases)

            # one snapshot builder: identical report shapes
            local_stats, remote_stats = single.stats(), sharded.stats()
            assert set(local_stats) == set(remote_stats)
            assert (set(single.metrics_snapshot())
                    == set(sharded.metrics_snapshot()))
            for section in ("counters", "latency", "queue",
                            "rate_limiter", "sessions"):
                assert section in local_stats and section in remote_stats

            # both facades run the same lifecycle class
            assert isinstance(sharded.lifecycle, RequestLifecycle)
            assert type(sharded.lifecycle) is type(single.lifecycle)

        # byte parity: the degenerate fleet serves the exact bytes the
        # single-process server does
        assert local_bytes == remote_bytes
