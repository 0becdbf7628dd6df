"""Tests for the Simulator engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_schedule_advances_clock(self, sim):
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]
        assert sim.now == 100

    def test_at_absolute(self, sim):
        seen = []
        sim.at(250, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [250]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_at_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_zero_delay_fires_after_earlier_same_time_events(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("first"))

        def second_scheduler():
            sim.schedule(0, lambda: order.append("zero-delay"))
            order.append("second")

        sim.schedule(10, second_scheduler)
        sim.run()
        assert order == ["first", "second", "zero-delay"]

    def test_cancel(self, sim):
        seen = []
        event = sim.schedule(10, lambda: seen.append(1))
        sim.cancel(event)
        sim.run()
        assert seen == []


class TestRun:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(1_000, lambda: None)
        dispatched = sim.run(until=500)
        assert dispatched == 0
        assert sim.now == 500
        # The event is still pending and fires on the next run.
        assert sim.run() == 1
        assert sim.now == 1_000

    def test_event_exactly_at_until_fires(self, sim):
        seen = []
        sim.schedule(500, lambda: seen.append(1))
        sim.run(until=500)
        assert seen == [1]

    def test_run_empty_advances_to_until(self, sim):
        sim.run(until=123)
        assert sim.now == 123

    def test_cascading_events(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(10, lambda: chain(depth - 1))

        sim.schedule(0, lambda: chain(3))
        sim.run()
        assert seen == [0, 10, 20, 30]

    def test_stop_inside_callback(self, sim):
        seen = []

        def stopper():
            seen.append("stop")
            sim.stop()

        sim.schedule(1, stopper)
        sim.schedule(2, lambda: seen.append("late"))
        sim.run()
        assert seen == ["stop"]
        assert sim.pending_events() == 1

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(1, loop)

        sim.schedule(0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_run_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_events_dispatched_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5
        # Events a callback schedules are dispatched and counted too.
        remaining = [100]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(10, tick)

        sim.schedule(0, tick)
        sim.run()
        assert sim.events_dispatched == 105


class TestDeterminism:
    def test_same_seed_same_stream_draws(self):
        a = Simulator(seed=7).streams.stream("x").random()
        b = Simulator(seed=7).streams.stream("x").random()
        assert a == b

    def test_different_seed_differs(self):
        a = Simulator(seed=7).streams.stream("x").random()
        b = Simulator(seed=8).streams.stream("x").random()
        assert a != b


class TestBatchDispatch:
    """Simulator.run's same-timestamp batch fast path."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_fifo_within_dense_burst(self, sim):
        seen = []
        for i in range(50):
            sim.schedule(10, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(50))

    def test_callback_scheduling_at_now_fires_after_batch(self, sim):
        seen = []

        def first():
            seen.append("first")
            sim.schedule(0, lambda: seen.append("injected"))

        sim.schedule(5, first)
        sim.schedule(5, lambda: seen.append("second"))
        sim.run()
        assert seen == ["first", "second", "injected"]

    def test_cancel_within_batch_skips_peer(self, sim):
        # The killer fires first and cancels an event already popped
        # into the same batch; the victim must be skipped, with no
        # live-count drift.
        seen = []

        def killer():
            seen.append("killer")
            sim.cancel(victim)

        sim.schedule(7, killer)
        victim = sim.schedule(7, lambda: seen.append("victim"))
        sim.run()
        assert seen == ["killer"]
        assert sim.pending_events() == 0

    def test_stop_mid_batch_requeues_tail(self, sim):
        seen = []
        sim.schedule(3, lambda: (seen.append("a"), sim.stop()))
        sim.schedule(3, lambda: seen.append("b"))
        sim.schedule(3, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a"]
        assert sim.pending_events() == 2
        # Resuming dispatches the requeued tail in original order.
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.pending_events() == 0

    def test_max_events_mid_batch_requeues_tail(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(1, lambda i=i: seen.append(i))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=2)
        assert seen == [0, 1]
        assert sim.pending_events() == 3
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_raising_callback_requeues_tail(self, sim):
        seen = []

        def boom():
            raise RuntimeError("model bug")

        sim.schedule(2, lambda: seen.append("ok"))
        sim.schedule(2, boom)
        sim.schedule(2, lambda: seen.append("after"))
        with pytest.raises(RuntimeError, match="model bug"):
            sim.run()
        assert seen == ["ok"]
        assert sim.pending_events() == 1
        sim.run()
        assert seen == ["ok", "after"]

    def test_cancel_interleaved_with_stop_keeps_count(self, sim):
        cancelled = sim.schedule(9, lambda: None)

        def stop_and_cancel():
            sim.cancel(cancelled)
            sim.stop()

        sim.schedule(9, stop_and_cancel)
        tail = sim.schedule(9, lambda: None)
        sim.run()
        assert sim.pending_events() == 1  # only the tail survives
        sim.cancel(tail)
        assert sim.pending_events() == 0
