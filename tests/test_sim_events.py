"""Tests for Event / EventQueue determinism."""

import pytest

from repro.sim.errors import SimulationError
from repro.sim.events import Event, EventQueue


def _noop():
    pass


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        q.push(Event(30, _noop))
        q.push(Event(10, _noop))
        q.push(Event(20, _noop))
        assert [q.pop().time for _ in range(3)] == [10, 20, 30]

    def test_fifo_within_same_timestamp(self):
        q = EventQueue()
        order = []
        for tag in "abc":
            q.push(Event(5, _noop, label=tag))
        while len(q):
            order.append(q.pop().label)
        assert order == ["a", "b", "c"]

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = Event(1, _noop)
        e2 = Event(2, _noop)
        q.push(e1)
        q.push(e2)
        assert len(q) == 2
        q.cancel(e1)
        assert len(q) == 1

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        e1 = Event(1, _noop, label="cancelled")
        e2 = Event(2, _noop, label="live")
        q.push(e1)
        q.push(e2)
        q.cancel(e1)
        assert q.pop().label == "live"

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = Event(1, _noop)
        q.push(event)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time_none_when_empty(self):
        assert EventQueue().peek_time() is None

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = Event(1, _noop)
        q.push(e1)
        q.push(Event(9, _noop))
        q.cancel(e1)
        assert q.peek_time() == 9

    def test_clear(self):
        q = EventQueue()
        q.push(Event(1, _noop))
        q.clear()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_many_events_sorted(self):
        q = EventQueue()
        import random
        rng = random.Random(3)
        times = [rng.randrange(10_000) for _ in range(500)]
        for t in times:
            q.push(Event(t, _noop))
        popped = [q.pop().time for _ in range(500)]
        assert popped == sorted(times)

    def test_event_has_no_dict(self):
        # slots=True: per-event __dict__ allocation is the cost the fast
        # path removes; this pins the optimisation.
        assert not hasattr(Event(1, _noop), "__dict__")

    def test_live_count_under_interleaved_cancel_and_peek(self):
        # Regression: peek_time() compacts cancelled events off the
        # heap; interleaving queue.cancel() with peeks (in any order)
        # must keep len() consistent.
        q = EventQueue()
        events = [Event(t, _noop) for t in range(6)]
        for event in events:
            q.push(event)
        q.cancel(events[0])
        assert len(q) == 5
        assert q.peek_time() == 1  # compacts events[0] off the heap
        assert len(q) == 5
        q.cancel(events[0])  # idempotent after compaction
        assert len(q) == 5
        q.cancel(events[1])
        q.cancel(events[2])
        assert q.peek_time() == 3
        assert len(q) == 3
        # Every remaining event pops; the count reaches exactly zero.
        assert [q.pop().time for _ in range(3)] == [3, 4, 5]
        assert len(q) == 0

    def test_live_count_reconciles_direct_event_cancel(self):
        # Event.cancel() is public API; cancelling behind the queue's
        # back must be reconciled into len() as soon as the queue
        # touches the event (peek compaction, pop skip, or a later
        # queue.cancel).
        q = EventQueue()
        events = [Event(t, _noop) for t in range(4)]
        for event in events:
            q.push(event)
        events[0].cancel()          # bypasses queue.cancel
        assert q.peek_time() == 1   # compaction reconciles the count
        assert len(q) == 3
        events[1].cancel()
        q.cancel(events[1])         # explicit cancel after direct cancel
        assert len(q) == 2
        assert q.peek_time() == 2
        assert len(q) == 2
        events[2].cancel()          # reconciled by the pop-skip path
        assert q.pop().time == 3
        assert len(q) == 0
        # A drain loop driven by len() terminates cleanly.
        while len(q):
            q.pop()

    def test_len_drops_direct_cancel_at_once(self):
        # len() counts live events when asked, so an Event.cancel()
        # behind the queue's back leaves the count before the queue
        # next touches the event.
        q = EventQueue()
        events = [Event(t, _noop) for t in range(3)]
        for event in events:
            q.push(event)
        events[1].cancel()
        assert len(q) == 2
        events[0].cancel()
        events[2].cancel()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_cancel_after_pop_does_not_double_discount(self):
        # Regression: cancelling an event that already fired (stale
        # timer cleanup via Simulator.cancel) must not subtract it from
        # the live count a second time.
        q = EventQueue()
        fired = Event(1, _noop)
        pending = Event(2, _noop)
        q.push(fired)
        q.push(pending)
        assert q.pop() is fired
        q.cancel(fired)  # idempotent no-op: the event already left
        assert len(q) == 1
        assert q.pop() is pending
        assert len(q) == 0

    def test_cancel_after_clear_does_not_drift(self):
        q = EventQueue()
        event = Event(1, _noop)
        q.push(event)
        q.clear()
        q.cancel(event)
        assert len(q) == 0
        q.push(Event(2, _noop))
        assert len(q) == 1
