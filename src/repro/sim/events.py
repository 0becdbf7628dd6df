"""Events, and the heap that orders and dispatches them.

The queue is a binary heap of ``(time, sequence, Event)`` tuples.  The
monotonically increasing sequence number guarantees a total order even
when many events share a timestamp, which makes runs deterministic and
lets FIFO semantics fall out naturally: events scheduled earlier at the
same instant fire earlier.

This module is the only one that knows that layout.  :class:`EventQueue`
pushes (:meth:`~EventQueue.schedule`, :meth:`~EventQueue.at`), pops and
dispatches, and :class:`~repro.sim.engine.Simulator` inherits all three.
Every packet hop is at least one push and one pop, so both stay free of
per-event method calls and bookkeeping: :class:`Event` is a
``slots=True`` dataclass (no per-event ``__dict__``), a push is one
``heappush``, and the loop pops one event at a time off the top,
dropping cancelled events as it meets them.  A stop, a spent event
budget or a raising callback simply leaves the rest of the heap where
it is.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.errors import SimulationError


@dataclass(slots=True)
class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute firing time in picoseconds.
    callback:
        Zero-argument callable invoked when the event fires.  Closures
        carry their own context; keeping the signature empty keeps the
        dispatch loop branch-free.
    label:
        Optional human-readable tag used by tracing and error messages.
        Callers on hot paths should pass a precomputed constant (or
        nothing) rather than building an f-string per event.
    cancelled:
        Lazy-deletion flag.  Cancelled events stay in the heap but are
        skipped on pop; this is O(1) per cancel instead of O(n) removal.
    """

    time: int
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects, with its clock.

    Not thread-safe; the simulator is single-threaded by design.

    :attr:`now` is a plain attribute that only the dispatch loop
    advances.  ``len(queue)`` is the number of *live* (non-cancelled)
    events, counted when asked: an event cancelled directly via
    :meth:`Event.cancel` drops out of the count at once, and no push or
    pop pays for a running count that nothing on the packet path reads.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._next_sequence = itertools.count().__next__
        self._stopped = False
        #: Current simulated time in picoseconds.
        self.now = 0
        #: Count of events dispatched so far (for progress/diagnostics),
        #: brought up to date when each dispatch loop returns.
        self.events_dispatched = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued; O(n)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    # -- pushing ---------------------------------------------------------------

    def push(self, event: Event) -> None:
        """Insert an event; O(log n).

        Each :class:`Event` instance must be pushed at most once.
        """
        heapq.heappush(self._heap,
                       (event.time, self._next_sequence(), event))

    def schedule(self, delay: int, callback: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` picoseconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        A zero delay is allowed and fires after all events already
        scheduled for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay}ps in the past (label={label!r})")
        time = self.now + delay
        event = Event(time, callback, label)
        heapq.heappush(self._heap, (time, self._next_sequence(), event))
        return event

    def at(self, time: int, callback: Callable[[], None],
           label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}ps, now is {self.now}ps"
                f" (label={label!r})")
        event = Event(time, callback, label)
        heapq.heappush(self._heap, (time, self._next_sequence(), event))
        return event

    # -- popping ---------------------------------------------------------------

    def pop(self) -> Event:
        """Remove and return the earliest live event; O(log n) amortised.

        Does not move the clock.  Raises :class:`SimulationError` when
        empty.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> Optional[int]:
        """Firing time of the earliest live event, or ``None`` if empty.

        Compacts cancelled events off the top as a side effect.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        event.cancelled = True

    def clear(self) -> None:
        """Drop every queued event."""
        self._heap.clear()

    # -- dispatching -------------------------------------------------------------

    def stop(self) -> None:
        """Make the dispatch loop return after the current event."""
        self._stopped = True

    def _dispatch(self, until: Optional[int],
                  max_events: Optional[int]) -> int:
        """Fire events in ``(time, sequence)`` order; return how many.

        Pops one event at a time.  Before each callback the clock moves
        to the event's time.  The loop ends when the heap holds no live
        event, when the next one would fire after ``until`` (it goes
        back on the heap and the clock moves forward to ``until``, never
        back), after a :meth:`stop`, or by raising once ``max_events``
        callbacks have run.  A raising callback ends it too and is not
        counted.
        """
        heap = self._heap
        heappop = heapq.heappop
        bounded = until is not None
        # ``dispatched`` is at least 1 when compared, so 0 never stops.
        budget = 0 if max_events is None else max(max_events, 1)
        dispatched = 0
        now = self.now
        self._stopped = False
        try:
            while heap:
                time, sequence, event = heappop(heap)
                if event.cancelled:
                    continue
                if bounded and time > until:
                    heapq.heappush(heap, (time, sequence, event))
                    if until > self.now:
                        self.now = until
                    return dispatched
                if time != now:
                    # Only on a new instant: models keep ``now`` in
                    # packet stamps, and one int object per instant
                    # (not one per event) is what those then hold.
                    self.now = now = time
                event.callback()
                dispatched += 1
                if dispatched == budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "model is likely in an event loop")
                if self._stopped:
                    return dispatched
            if bounded and until > self.now:
                self.now = until
            return dispatched
        finally:
            self.events_dispatched += dispatched


__all__ = ["Event", "EventQueue"]
