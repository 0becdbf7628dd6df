"""Lightweight observability primitives: counters, probes, time series.

Experiments attach these to model hooks instead of the models printing
or accumulating ad hoc state.  Everything is plain Python so overhead is
negligible next to event dispatch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple


class Counter:
    """Monotonic named counter with an optional byte dimension.

    Used for packet/byte accounting throughout the switch models.
    :attr:`enabled` is a plain attribute that :meth:`disable` and
    :meth:`enable` write.  Per-packet call sites test it before they
    call :meth:`add`, so a disabled counter costs one attribute read and
    no call; :meth:`add` itself checks it too, for every other caller.
    """

    __slots__ = ("name", "count", "bytes", "enabled")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.bytes = 0
        #: False while :meth:`disable` is in effect.
        self.enabled = True

    def add(self, count: int = 1, nbytes: int = 0) -> None:
        """Increment by ``count`` events and ``nbytes`` bytes."""
        if self.enabled:
            self.count += count
            self.bytes += nbytes

    def disable(self) -> None:
        """Stop counting: subsequent :meth:`add` calls are no-ops."""
        self.enabled = False

    def enable(self) -> None:
        """Resume counting after :meth:`disable` (idempotent)."""
        self.enabled = True

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, count={self.count}, bytes={self.bytes})"


class TimeSeries:
    """Append-only ``(time_ps, value)`` series with summary helpers.

    Construct with ``enabled=False`` (or call :meth:`disable`) for a
    no-op recorder: per-packet occupancy tracks are pure diagnostics,
    and untraced runs should pay neither the two list appends nor the
    unbounded memory growth.  As with :class:`Counter`, :attr:`enabled`
    is a plain attribute that per-packet call sites test before they
    call :meth:`record`.
    """

    __slots__ = ("name", "times", "values", "enabled")

    def __init__(self, name: str, enabled: bool = True) -> None:
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []
        #: False while :meth:`disable` is in effect.
        self.enabled = enabled

    def record(self, time_ps: int, value: float) -> None:
        """Append one sample."""
        if self.enabled:
            self.times.append(time_ps)
            self.values.append(value)

    def disable(self) -> None:
        """Stop recording: subsequent :meth:`record` calls are no-ops."""
        self.enabled = False

    def enable(self) -> None:
        """Resume recording after :meth:`disable` (idempotent)."""
        self.enabled = True

    def __len__(self) -> int:
        return len(self.values)

    def max(self) -> float:
        """Largest recorded value (0.0 when empty)."""
        return max(self.values) if self.values else 0.0

    def min(self) -> float:
        """Smallest recorded value (0.0 when empty)."""
        return min(self.values) if self.values else 0.0

    def mean(self) -> float:
        """Arithmetic mean of recorded values (0.0 when empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def last(self) -> Optional[float]:
        """Most recent value, or ``None`` when empty."""
        return self.values[-1] if self.values else None

    def time_weighted_mean(self, end_time: Optional[int] = None) -> float:
        """Mean weighted by how long each value was held.

        Treats the series as a step function: value ``v[i]`` holds from
        ``t[i]`` until ``t[i+1]`` (or ``end_time`` for the last sample).
        This is the right average for queue occupancies.
        """
        if not self.values:
            return 0.0
        if len(self.values) == 1:
            return self.values[0]
        horizon = end_time if end_time is not None else self.times[-1]
        total = 0.0
        duration = 0
        for i in range(len(self.values)):
            start = self.times[i]
            stop = self.times[i + 1] if i + 1 < len(self.times) else horizon
            if stop <= start:
                continue
            total += self.values[i] * (stop - start)
            duration += stop - start
        return total / duration if duration else self.values[-1]


@dataclass
class Probe:
    """A sampling probe: periodically calls ``sample()`` into a series.

    Attach with :meth:`install`; the probe re-arms itself until the
    simulator run ends.
    """

    name: str
    period_ps: int
    sample: Callable[[], float]
    series: TimeSeries = field(init=False)

    def __post_init__(self) -> None:
        self.series = TimeSeries(self.name)

    def install(self, sim) -> None:
        """Begin periodic sampling on ``sim`` (first sample after one period)."""
        # One label string for the probe's lifetime — re-arming happens
        # once per period and must not allocate a fresh f-string per
        # event.
        label = f"probe:{self.name}"

        def fire() -> None:
            self.series.record(sim.now, float(self.sample()))
            sim.schedule(self.period_ps, fire, label=label)

        sim.schedule(self.period_ps, fire, label=label)


@contextmanager
def untraced(*instruments: "Counter | TimeSeries") -> Iterator[None]:
    """Disable ``instruments`` for the duration of the block.

    Code under the block skips per-event bookkeeping entirely;
    previously accumulated state is preserved and recording resumes on
    exit (only for instruments that were enabled when the block was
    entered).
    """
    was_enabled = [inst for inst in instruments if inst.enabled]
    for inst in was_enabled:
        inst.disable()
    try:
        yield
    finally:
        for inst in was_enabled:
            inst.enable()


__all__ = ["Counter", "TimeSeries", "Probe", "untraced"]


def merge_step_max(series_list: List[TimeSeries]) -> float:
    """Peak of the sum of step-function series (upper bound via sample sum).

    Computes the maximum over all sample instants of the sum of the most
    recent value of each series.  Exact when all series share sample
    instants (our probes do); a tight upper bound otherwise.
    """
    events: List[Tuple[int, int, float]] = []
    for idx, series in enumerate(series_list):
        for t, v in zip(series.times, series.values):
            events.append((t, idx, v))
    events.sort()
    current = [0.0] * len(series_list)
    best = 0.0
    for __, idx, value in events:
        current[idx] = value
        total = sum(current)
        if total > best:
            best = total
    return best
