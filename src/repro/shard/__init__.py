"""repro.shard — multi-process sharded serving.

The scale-out tier over :mod:`repro.serve`: the GIL caps one Python
process near a single core no matter how many worker threads it runs,
so production throughput means *processes*.  This package partitions
serving across shard workers and keeps the caller surface identical to
the in-process server:

* :mod:`ring` — consistent-hash routing (:class:`HashRing`): stable
  shard ownership for sessions, named graphs, and repeated queries;
* :mod:`protocol` — the length-prefixed canonical-JSON pipe protocol
  (pickle-free by design) plus the request/response wire forms;
* :mod:`worker` — the shard worker process (``python -m
  repro.shard.worker``): a private
  :class:`~repro.serve.engine.ChatGraphServer` rebuilt
  deterministically from a :class:`ShardModelSpec`;
* :mod:`coordinator` — :class:`ShardedChatGraphServer`: admission,
  routing, hot-graph replicas, heartbeat-driven failure
  detection, breaker-guarded failover, and background restart.

The fleet's cost is the ledger's ``shard_fleet`` workload
(``benchmarks/ledger/run.py``); its kill and live-reshape soaks are the
``shard-kill`` / ``shard-reshape`` scenarios of ``python -m repro.cli
bench-slo``.

Example::

    from repro.config import ServeConfig
    from repro.shard import ShardModelSpec, ShardedChatGraphServer

    server = ShardedChatGraphServer(
        ShardModelSpec(corpus_size=200),
        ServeConfig(shards=4, workers=1))
    with server:
        response = server.ask("how many nodes are there", graph=g)
    print(server.stats()["shards"]["alive"])
"""

from .coordinator import ShardedChatGraphServer, ShardModelSpec
from .protocol import (
    ShardProtocolError,
    ShardRecord,
    ShardValue,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    value_to_wire,
    write_frame,
)
from .ring import HashRing

__all__ = [
    "HashRing",
    "ShardModelSpec",
    "ShardProtocolError",
    "ShardRecord",
    "ShardValue",
    "ShardedChatGraphServer",
    "read_frame",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "value_to_wire",
    "write_frame",
]
