"""An in-process shard link: the fleet without worker processes.

:class:`LoopbackLink` stands in for :class:`repro.runtime.shard.ShardLink`.
It runs ``ShardWorker(init, r, w).run()`` — the protocol loop a worker
process runs — on a thread of this process, over two ``os.pipe()``
pairs, so a test drives the coordinator's real routing, forwarding,
RPC and migration code against a real worker loop in one process.
``kill()`` drops the worker's ends unflushed, as SIGKILL would: the
coordinator reads what was already in the pipe, then EOF.

:func:`loopback_links` installs it by patching the module attribute the
backend reads at use (the idiom the fleet timeouts already use), and
memoises the trained model per model wire: each worker gets a
``copy.deepcopy`` of one trained model instead of finetuning its own.
The fleet-vs-single byte-parity suites are what show that is safe.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import threading
import time
from types import SimpleNamespace
from typing import Any

import pytest

import repro.runtime.shard as shard_runtime
import repro.shard.worker as shard_worker
from repro.errors import ServeError
from repro.shard.protocol import dumps_canonical

__all__ = ["LoopbackLink", "loopback_links"]

_build_model = shard_worker.build_shard_chatgraph
_models: dict[bytes, Any] = {}
_models_lock = threading.Lock()

#: Ceiling on a killed worker thread's wind-down (its local drain).
_REAP_SECONDS = 30.0


def _shared_model(model: dict[str, Any]) -> Any:
    key = dumps_canonical(model)
    with _models_lock:
        if key not in _models:
            _models[key] = _build_model(model)
        trained = _models[key]
    return copy.deepcopy(trained)


class LoopbackLink(shard_runtime.ShardLink):
    """A shard worker on a thread, behind the ``ShardLink`` surface.

    ``send`` / ``recv`` are the real link's, over the coordinator's
    pipe ends; ``spawn``, ``kill`` and ``stop`` swap the process for
    the thread.
    """

    _thread: threading.Thread | None = None

    def spawn(self, init: dict[str, Any], deadline: float) -> dict[str, Any]:
        worker_in, to_worker = os.pipe()
        from_worker, self._worker_out = os.pipe()
        self._proc = SimpleNamespace(stdin=open(to_worker, "wb"),
                                     stdout=open(from_worker, "rb"))
        self._cut_lock = threading.Lock()
        self._cut = False
        # the init a worker process reads has crossed the pipe as JSON
        init = json.loads(dumps_canonical(init))
        self._thread = threading.Thread(
            target=self._run,
            args=(init, open(worker_in, "rb"), open(self._worker_out, "wb")),
            name=f"loopback-shard-{init['shard']}", daemon=True)
        self._thread.start()
        hello = self.recv()
        if hello is None or hello.get("type") != "hello":
            self.kill()
            raise ServeError(
                f"shard {init['shard']} sent {hello!r} instead of hello")
        self.pid = int(hello["pid"])
        return hello

    def _run(self, init: dict[str, Any], stdin: Any, stdout: Any) -> None:
        try:
            shard_worker.ShardWorker(init, stdin, stdout).run()
        finally:
            with self._cut_lock:
                self._cut = True  # the fd is about to close: no dup2 onto it
                stdin.close()
                with contextlib.suppress(OSError):
                    stdout.close()

    def kill(self) -> None:
        """Cut the worker's output (its later writes vanish; the pipe
        reads EOF once drained), close both of the coordinator's ends
        (the worker reads EOF and winds down), and join the thread."""
        if self._thread is None:
            return
        with self._cut_lock:
            if not self._cut:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, self._worker_out)
                os.close(null)
                self._cut = True
        for stream in (self._proc.stdin, self._proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()
        self._thread.join(_REAP_SECONDS)

    def stop(self, deadline: float) -> None:
        if self._thread is None:
            return
        self.send({"type": "shutdown"})
        self._thread.join(max(0.0, deadline - time.monotonic()))
        self.kill()


@contextlib.contextmanager
def loopback_links():
    """Every shard spawned inside the block runs on a thread here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shard_runtime, "ShardLink", LoopbackLink)
        patch.setattr(shard_worker, "build_shard_chatgraph", _shared_model)
        yield
