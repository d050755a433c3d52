"""Property-based tests (seeded stdlib random) for breaker and cache.

Each property run drives the real implementation and a deliberately
naive reference model through the same randomized operation sequence
and requires them to agree at every step.  Seeds are fixed, so a
failure is a deterministic repro, and the op log carried in the assert
message shows the minimal(ish) path to it.
"""

import random

import pytest

from repro.serve import breaker as breaker_module
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import LRUCache


# ----------------------------------------------------------------------
# circuit breaker vs. reference state machine
# ----------------------------------------------------------------------
class ReferenceBreaker:
    """Straight-line model of the documented breaker semantics."""

    def __init__(self, failure_threshold, failure_rate_threshold,
                 window_size, cooldown_seconds, half_open_max_calls):
        self.failure_threshold = failure_threshold
        self.failure_rate_threshold = failure_rate_threshold
        self.window_size = window_size
        self.cooldown_seconds = cooldown_seconds
        self.half_open_max_calls = half_open_max_calls
        self.window = []  # True = success
        self.state = "closed"
        self.opened_at = 0.0
        self.probes = 0
        self.times_opened = 0

    def _roll(self, now):
        if self.state == "open" and \
                now - self.opened_at >= self.cooldown_seconds:
            self.state = "half_open"
            self.probes = 0

    def _trip(self, now):
        self.state = "open"
        self.opened_at = now
        self.times_opened += 1

    def allow(self, now):
        self._roll(now)
        if self.state == "open":
            return False
        if self.state == "half_open":
            if self.probes >= self.half_open_max_calls:
                return False
            self.probes += 1
        return True

    def record_success(self, now):
        if self.state == "half_open":
            self.state = "closed"
            self.window = []
            return
        self.window = (self.window + [True])[-self.window_size:]

    def record_failure(self, now):
        if self.state == "half_open":
            self._trip(now)
            return True
        if self.state == "open":
            return False
        self.window = (self.window + [False])[-self.window_size:]
        failures = self.window.count(False)
        if failures >= self.failure_threshold and \
                failures / len(self.window) >= self.failure_rate_threshold:
            self._trip(now)
            return True
        return False

    def observed_state(self, now):
        self._roll(now)
        return self.state


@pytest.mark.parametrize("seed", range(8))
def test_breaker_agrees_with_reference_model(seed, monkeypatch):
    rng = random.Random(seed)
    params = dict(
        failure_threshold=rng.randint(1, 4),
        failure_rate_threshold=rng.choice((0.25, 0.5, 0.9, 1.0)),
        window_size=rng.randint(4, 10),
        cooldown_seconds=rng.uniform(1.0, 5.0),
        half_open_max_calls=rng.randint(1, 3),
    )
    params["window_size"] = max(params["window_size"],
                                params["failure_threshold"])
    now = [0.0]
    # the rate and the probe budget are module constants, read at use
    monkeypatch.setattr(breaker_module, "FAILURE_RATE_THRESHOLD",
                        params["failure_rate_threshold"])
    monkeypatch.setattr(breaker_module, "HALF_OPEN_MAX_CALLS",
                        params["half_open_max_calls"])
    real = CircuitBreaker(
        failure_threshold=params["failure_threshold"],
        window_size=params["window_size"],
        cooldown_seconds=params["cooldown_seconds"],
        clock=lambda: now[0])
    model = ReferenceBreaker(**params)
    log = [f"params={params}"]
    for step in range(300):
        op = rng.choice(("success", "failure", "allow", "advance",
                         "advance_big"))
        log.append(f"t={now[0]:.2f} {op}")
        context = f"seed={seed} step={step}\n" + "\n".join(log[-12:])
        if op == "success":
            real.record_success()
            model.record_success(now[0])
        elif op == "failure":
            assert real.record_failure() == \
                model.record_failure(now[0]), context
        elif op == "allow":
            assert real.allow() == model.allow(now[0]), context
        elif op == "advance":
            now[0] += rng.uniform(0.0, 1.5)
        else:
            now[0] += params["cooldown_seconds"] + rng.uniform(0.0, 1.0)
        assert real.state.value == model.observed_state(now[0]), context
        assert real.times_opened == model.times_opened, context


@pytest.mark.parametrize("seed", range(4))
def test_breaker_open_never_allows_before_cooldown(seed):
    rng = random.Random(100 + seed)
    now = [0.0]
    breaker = CircuitBreaker(failure_threshold=2,
                             window_size=4, cooldown_seconds=10.0,
                             clock=lambda: now[0])
    breaker.record_failure()
    assert breaker.record_failure()  # trips
    for __ in range(50):
        now[0] += rng.uniform(0.0, 9.999 / 50)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() > 0.0
    now[0] += 10.0
    assert breaker.allow()  # half-open probe
    assert breaker.retry_after() == 0.0


def test_breaker_halfopen_probe_budget(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(breaker_module, "HALF_OPEN_MAX_CALLS", 2)
    breaker = CircuitBreaker(failure_threshold=1,
                             window_size=2, cooldown_seconds=1.0,
                             clock=lambda: now[0])
    breaker.record_failure()
    now[0] += 1.0
    assert breaker.allow() and breaker.allow()  # two probes
    assert not breaker.allow()  # budget exhausted
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


# ----------------------------------------------------------------------
# LRU cache vs. reference model
# ----------------------------------------------------------------------
class ReferenceLRU:
    """List-based model: most recently used last, evict from front."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.items = []  # (key, value), LRU first
        self.hits = self.misses = self.evictions = 0

    def _find(self, key):
        for index, (k, __) in enumerate(self.items):
            if k == key:
                return index
        return -1

    def get(self, key):
        index = self._find(key)
        if index < 0:
            self.misses += 1
            return None
        entry = self.items.pop(index)
        self.items.append(entry)
        self.hits += 1
        return entry[1]

    def put(self, key, value):
        index = self._find(key)
        if index >= 0:
            self.items.pop(index)
            self.items.append((key, value))
            return
        self.items.append((key, value))
        while len(self.items) > self.maxsize:
            self.items.pop(0)
            self.evictions += 1


@pytest.mark.parametrize("seed", range(8))
def test_lru_agrees_with_reference_model(seed):
    rng = random.Random(seed)
    maxsize = rng.randint(1, 8)
    real = LRUCache(maxsize=maxsize)
    model = ReferenceLRU(maxsize=maxsize)
    keys = [f"k{index}" for index in range(maxsize * 3)]
    log = [f"maxsize={maxsize}"]
    for step in range(400):
        key = rng.choice(keys)
        op = rng.choice(("get", "put", "size"))
        log.append(f"{op} {key}")
        context = f"seed={seed} step={step}\n" + "\n".join(log[-10:])
        if op == "get":
            assert real.get(key) == model.get(key), context
        elif op == "put":
            value = f"v{step}"
            real.put(key, value)
            model.put(key, value)
        else:
            assert real.stats().size == len(model.items), context
        # invariants after every operation
        stats = real.stats()
        assert stats.size <= maxsize, context
        assert stats.hits == model.hits, context
        assert stats.misses == model.misses, context
        assert stats.evictions == model.evictions, context
        for k, v in list(model.items):
            # a hit on both sides refreshes both orders identically
            assert real.get(k) == v, context
            model.get(k)


@pytest.mark.parametrize("seed", range(4))
def test_lru_eviction_order_is_lru(seed):
    rng = random.Random(200 + seed)
    maxsize = 4
    real = LRUCache(maxsize=maxsize)
    model = ReferenceLRU(maxsize=maxsize)
    for step in range(200):
        key = f"k{rng.randint(0, 9)}"
        real.put(key, step)
        model.put(key, step)
        if rng.random() < 0.5:
            probe = f"k{rng.randint(0, 9)}"
            assert real.get(probe) == model.get(probe)
    # the surviving set agrees exactly, and so does its recency order:
    # each fresh key evicts the least recent survivor on both sides
    survivors = list(model.items)
    assert real.stats().size == len(survivors)
    for k, v in survivors:
        assert real.get(k) == v
        model.get(k)
    for step, (k, __) in enumerate(list(model.items)):
        real.put(f"fresh{step}", step)
        model.put(f"fresh{step}", step)
        assert real.get(k) is None and model.get(k) is None


def test_lru_hit_rate():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("zz") is None
    stats = cache.stats()
    assert stats.hit_rate == pytest.approx(0.5)
    assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
