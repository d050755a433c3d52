"""Open-loop arrival processes: *when* simulated users show up.

Every process maps ``(duration, rng)`` to a sorted list of arrival
offsets in virtual seconds from soak start.  Generation is pure — the
only randomness comes from the :class:`random.Random` the caller
passes, so a fixed seed yields a byte-identical schedule — and
open-loop: arrival times never depend on how the server responds,
which is what lets a soak genuinely overload the serve tier instead of
self-throttling the way closed-loop benches do.

This module must stay free of the :mod:`time` module entirely (virtual
time only); ``tests/test_clock_discipline.py`` audits that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..errors import ConfigError


class ArrivalProcess:
    """Base: a deterministic generator of arrival offsets."""

    #: Stable identifier used in schedule digests and reports.
    name = "arrival"

    def times(self, duration: float,
              rng: random.Random) -> list[float]:
        """Sorted arrival offsets in ``[0, duration)``."""
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        """Expected instantaneous arrival rate at offset ``t``."""
        raise NotImplementedError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ConstantRate(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` per second (no randomness)."""

    rate: float
    name = "constant"

    def __post_init__(self) -> None:
        _require(self.rate > 0.0, "rate must be > 0")

    def times(self, duration: float,
              rng: random.Random) -> list[float]:
        count = int(math.floor(duration * self.rate))
        return [index / self.rate for index in range(count)]

    def rate_at(self, t: float) -> float:
        return self.rate


@dataclass(frozen=True)
class PoissonBursts(ArrivalProcess):
    """Homogeneous Poisson process: bursty, memoryless arrivals.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate`` —
    the classic model for independent users, and the one that produces
    natural short bursts a constant-rate schedule never shows.
    """

    rate: float
    name = "poisson"

    def __post_init__(self) -> None:
        _require(self.rate > 0.0, "rate must be > 0")

    def times(self, duration: float,
              rng: random.Random) -> list[float]:
        out: list[float] = []
        t = rng.expovariate(self.rate)
        while t < duration:
            out.append(t)
            t += rng.expovariate(self.rate)
        return out

    def rate_at(self, t: float) -> float:
        return self.rate


@dataclass(frozen=True)
class DiurnalSinusoid(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal day/night rate.

    ``rate(t) = base_rate * (1 + amplitude * sin(2*pi*t / period))``,
    realized by thinning a homogeneous process at the peak rate: each
    candidate arrival is kept with probability ``rate(t) / peak``.
    ``amplitude`` in ``[0, 1)`` keeps the trough rate positive.
    """

    base_rate: float
    amplitude: float = 0.6
    period_seconds: float = 600.0
    name = "diurnal"

    def __post_init__(self) -> None:
        _require(self.base_rate > 0.0, "base_rate must be > 0")
        _require(0.0 <= self.amplitude < 1.0,
                 "amplitude must be in [0, 1)")
        _require(self.period_seconds > 0.0, "period_seconds must be > 0")

    def rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude
            * math.sin(2.0 * math.pi * t / self.period_seconds))

    def times(self, duration: float,
              rng: random.Random) -> list[float]:
        peak = self.base_rate * (1.0 + self.amplitude)
        out: list[float] = []
        t = rng.expovariate(peak)
        while t < duration:
            if rng.random() < self.rate_at(t) / peak:
                out.append(t)
            t += rng.expovariate(peak)
        return out


@dataclass(frozen=True)
class StepSpike(ArrivalProcess):
    """Constant base load with a deterministic rate step inside a window.

    Outside ``[spike_start, spike_end)`` arrivals come at ``base_rate``;
    inside, extra arrivals at ``spike_rate - base_rate`` are interleaved
    so the window runs at exactly ``spike_rate``.  Fully deterministic
    (no rng draws): the spike test's rejection and breaker behavior
    should depend on the serve tier, not on sampling luck.
    """

    base_rate: float
    spike_rate: float
    spike_start: float
    spike_end: float
    name = "step-spike"

    def __post_init__(self) -> None:
        _require(self.base_rate > 0.0, "base_rate must be > 0")
        _require(self.spike_rate > self.base_rate,
                 "spike_rate must exceed base_rate")
        _require(0.0 <= self.spike_start < self.spike_end,
                 "need 0 <= spike_start < spike_end")

    def rate_at(self, t: float) -> float:
        if self.spike_start <= t < self.spike_end:
            return self.spike_rate
        return self.base_rate

    def times(self, duration: float,
              rng: random.Random) -> list[float]:
        base = [index / self.base_rate
                for index in range(int(math.floor(duration
                                                  * self.base_rate)))]
        extra_rate = self.spike_rate - self.base_rate
        window = min(self.spike_end, duration) - self.spike_start
        extra_count = max(0, int(math.floor(window * extra_rate)))
        extra = [self.spike_start + index / extra_rate
                 for index in range(extra_count)]
        return sorted(base + extra)
