"""Shared serve-test helpers: hold a worker so requests queue behind it."""

from __future__ import annotations

import contextlib
import threading


@contextlib.contextmanager
def first_pass_held(chatgraph):
    """Hold the first pipeline pass until ``released`` is set, so what
    is submitted meanwhile queues behind a busy worker; ``started`` is
    set once that pass (and so its flush) has begun."""
    started, released = threading.Event(), threading.Event()
    inner = chatgraph.propose_batch

    def propose_batch(*args, **kwargs):
        if not started.is_set():
            started.set()
            released.wait(60.0)
        return inner(*args, **kwargs)

    chatgraph.propose_batch = propose_batch
    try:
        yield started, released
    finally:
        released.set()
        del chatgraph.propose_batch
