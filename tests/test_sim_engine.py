"""Tests for the Simulator engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_simulator_is_truthy_whatever_it_queues(self, sim):
        # Simulator inherits EventQueue.__len__; an idle simulator must
        # not read as false, or ``sim or Simulator()`` would swap it.
        assert sim.pending_events() == 0
        assert bool(sim)
        sim.schedule(1, lambda: None)
        assert bool(sim)


class TestRun:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(1_000, lambda: None)
        dispatched = sim.run(until=500)
        assert dispatched == 0
        assert sim.now == 500
        # The event is still pending and fires on the next run.
        assert sim.run() == 1
        assert sim.now == 1_000

    def test_event_past_until_keeps_its_place(self, sim):
        # A bounded run pops the first event past ``until`` and puts it
        # back: it must still fire before an event scheduled later for
        # the same instant.
        seen = []
        sim.schedule(10, lambda: seen.append("early"))
        assert sim.run(until=5) == 0
        assert sim.pending_events() == 1
        sim.at(10, lambda: seen.append("late"))
        assert sim.run() == 2
        assert seen == ["early", "late"]

    def test_same_instant_shares_one_clock_int(self, sim):
        # Models store ``sim.now`` in packet stamps; through a run of
        # events at one instant the clock keeps a single int object, so
        # the stamps hold one int per instant, not one per event.
        instant = 10 ** 12
        times = [int(str(instant)) for _ in range(3)]
        assert times[0] is not times[1]
        seen = []
        for time in times:
            sim.at(time, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [instant] * 3
        assert seen[0] is seen[1] is seen[2]

    def test_event_exactly_at_until_fires(self, sim):
        seen = []
        sim.schedule(500, lambda: seen.append(1))
        sim.run(until=500)
        assert seen == [1]

    def test_run_empty_advances_to_until(self, sim):
        sim.run(until=123)
        assert sim.now == 123

    def test_until_behind_the_clock_leaves_it_alone(self, sim):
        # With an event pending after ``until``, a bounded run whose
        # ``until`` is behind the clock fires nothing and keeps ``now``:
        # moved back, it would accept an event earlier than one fired.
        fired = []
        sim.at(100, lambda: fired.append(sim.now))
        sim.run(until=100)
        sim.at(200, lambda: fired.append(sim.now))
        assert sim.run(until=50) == 0
        assert sim.now == 100
        with pytest.raises(SimulationError):
            sim.at(60, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100, 200]

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


# -- the event core against a sorted reference model ------------------------

_DELAYS = st.sampled_from([0, 0, 1, 2, 5, 10])

_LEAF = st.one_of(
    st.just(("noop",)),
    st.just(("stop",)),
    st.just(("raise",)),
    st.tuples(st.just("cancel"), st.integers(0, 7), st.booleans()),
)

_BEHAVIOUR = st.one_of(
    _LEAF,
    st.tuples(st.just("spawn"), _DELAYS, _LEAF),
)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _BEHAVIOUR),
    st.tuples(st.just("at"), _DELAYS, _BEHAVIOUR),
    st.tuples(st.just("cancel"), st.integers(0, 30), st.booleans()),
    st.tuples(st.just("run"), st.just("all"), st.just(0)),
    st.tuples(st.just("run"), st.just("until"),
              st.sampled_from([-20, -3, -1, 0, 1, 2, 3, 5, 7, 10, 20])),
    st.tuples(st.just("run"), st.just("max"), st.integers(1, 4)),
)


class _ModelEvent:
    def __init__(self, ident, time, key, behaviour):
        self.ident = ident
        self.time = time
        self.key = key
        self.behaviour = behaviour
        self.cancelled = False
        self.fired = False
        #: Cancelled only through Event.cancel(), behind the queue's back.
        self.direct_only = False


class _Model:
    """A sorted-list event core: the spec the engine must match."""

    def __init__(self):
        self.now = 0
        self.dispatched = 0
        self.fired = []
        self.events = []
        #: ident of a fired ``cancel`` callback -> the ident it cancelled.
        self.cancel_targets = {}
        self._sequence = 0
        self._last_key = (-1, -1)

    def add(self, time, behaviour):
        event = _ModelEvent(len(self.events), time,
                            (time, self._sequence), behaviour)
        self._sequence += 1
        self.events.append(event)
        return event

    def live(self):
        return [e for e in self.events if not e.fired and not e.cancelled]

    def cancel(self, event, direct):
        if not event.cancelled and not event.fired:
            event.direct_only = direct
        elif not direct:
            event.direct_only = False
        event.cancelled = True

    def run(self, until=None, max_events=None):
        count = 0
        while True:
            live = self.live()
            if not live:
                if until is not None:
                    self.now = max(self.now, until)
                return ("ok", count)
            event = min(live, key=lambda e: e.key)
            if until is not None and event.time > until:
                # The clock never runs backwards, whatever ``until``.
                self.now = max(self.now, until)
                return ("ok", count)
            event.fired = True
            self.now = event.time
            self._last_key = event.key
            self.fired.append(event.ident)
            stopped = False
            behaviour = event.behaviour
            if behaviour[0] == "spawn":
                self.add(self.now + behaviour[1], behaviour[2])
            elif behaviour[0] == "cancel":
                # A same-time peer while one is queued, else any event
                # created so far (fired ones included).
                peers = sorted((e for e in self.live()
                                if e.time == event.time), key=lambda e: e.key)
                pool = peers or self.events
                target = pool[behaviour[1] % len(pool)]
                self.cancel_targets[event.ident] = target.ident
                self.cancel(target, behaviour[2])
            elif behaviour[0] == "stop":
                stopped = True
            elif behaviour[0] == "raise":
                return ("raise", None)
            count += 1
            self.dispatched += 1
            if max_events is not None and count >= max_events:
                return ("max", None)
            if stopped:
                return ("ok", count)

    def pending_bounds(self):
        """Live events, plus direct cancels a queue may not yet have
        met (any still keyed after the last fired event)."""
        live = len(self.live())
        unmet = sum(1 for e in self.events
                    if e.cancelled and e.direct_only and not e.fired
                    and e.key > self._last_key)
        return live, live + unmet


class _Driver:
    """Applies the same program to a real Simulator.

    Callbacks replay the model's cancel targets, so the model runs
    each ``run`` step first.  Events are numbered in creation order on
    both sides; any divergence shows up as a different fired order.
    """

    def __init__(self, model):
        self.sim = Simulator()
        self.model = model
        self.events = []
        self.fired = []

    def add(self, time, behaviour, use_at):
        ident = len(self.events)
        callback = lambda: self._fire(ident, behaviour)  # noqa: E731
        if use_at:
            event = self.sim.at(time, callback)
        else:
            event = self.sim.schedule(time - self.sim.now, callback)
        self.events.append(event)

    def _fire(self, ident, behaviour):
        self.fired.append(ident)
        kind = behaviour[0]
        if kind == "spawn":
            self.add(self.sim.now + behaviour[1], behaviour[2],
                     use_at=bool(ident % 2))
        elif kind == "cancel":
            self.cancel(self.model.cancel_targets[ident], behaviour[2])
        elif kind == "stop":
            self.sim.stop()
        elif kind == "raise":
            raise RuntimeError("callback failed")

    def cancel(self, ident, direct):
        if direct:
            self.events[ident].cancel()
        else:
            self.sim.cancel(self.events[ident])

    def run(self, until=None, max_events=None):
        try:
            return ("ok", self.sim.run(until=until, max_events=max_events))
        except SimulationError as exc:
            assert "max_events" in str(exc)
            return ("max", None)
        except RuntimeError as exc:
            assert str(exc) == "callback failed"
            return ("raise", None)


class TestEventCoreModel:
    """Generated programs of schedule/at/cancel/run against the model.

    Callbacks schedule at zero or small delay, cancel a peer at their
    own timestamp (through the simulator or behind the queue's back),
    stop the run or raise; runs end at and between event times, at an
    ``until`` already behind the clock (which must not move it back),
    or on an event budget that a later run resumes from.
    """

    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(_OP, min_size=1, max_size=25))
    def test_matches_sorted_model(self, program):
        model = _Model()
        real = _Driver(model)
        for op in program + [("run", "all", 0)]:
            kind = op[0]
            if kind in ("schedule", "at"):
                event = model.add(model.now + op[1], op[2])
                real.add(event.time, op[2], use_at=kind == "at")
            elif kind == "cancel":
                if model.events:
                    target = model.events[op[1] % len(model.events)]
                    model.cancel(target, op[2])
                    real.cancel(target.ident, op[2])
            else:
                until = model.now + op[2] if op[1] == "until" else None
                budget = op[2] if op[1] == "max" else None
                expected = model.run(until=until, max_events=budget)
                assert real.run(until=until, max_events=budget) == expected
                assert real.fired == model.fired
                assert real.sim.now == model.now
                assert real.sim.events_dispatched == model.dispatched
                assert real.sim.run_until is None
            low, high = model.pending_bounds()
            assert low <= real.sim.pending_events() <= high
