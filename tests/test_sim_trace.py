"""Tests for counters, time series and probes."""

import pytest

from repro.sim.trace import Counter, Probe, TimeSeries, merge_step_max


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("x")
        assert c.count == 0 and c.bytes == 0

    def test_add(self):
        c = Counter("x")
        c.add(2, 300)
        c.add()
        assert c.count == 3
        assert c.bytes == 300

    def test_repr_mentions_name(self):
        assert "drops" in repr(Counter("drops"))

    def test_has_no_instance_dict(self):
        # __slots__: an n=64 VOQ bank holds three counters per queue.
        assert not hasattr(Counter("x"), "__dict__")


class TestTimeSeries:
    def test_has_no_instance_dict(self):
        # __slots__: an n=64 VOQ bank holds one series per queue.
        assert not hasattr(TimeSeries("x"), "__dict__")

    def test_record_and_summaries(self):
        s = TimeSeries("s")
        for t, v in [(0, 1.0), (10, 5.0), (20, 3.0)]:
            s.record(t, v)
        assert len(s) == 3
        assert s.max() == 5.0
        assert s.min() == 1.0
        assert s.mean() == 3.0
        assert s.last() == 3.0

    def test_empty_summaries(self):
        s = TimeSeries("s")
        assert s.max() == 0.0
        assert s.mean() == 0.0
        assert s.last() is None

    def test_time_weighted_mean_step_function(self):
        s = TimeSeries("s")
        s.record(0, 0.0)
        s.record(10, 100.0)   # value 0 held for 10
        s.record(20, 0.0)     # value 100 held for 10
        # With end_time 30: 0*10 + 100*10 + 0*10 over 30.
        assert s.time_weighted_mean(end_time=30) == pytest.approx(100 / 3)

    def test_time_weighted_mean_single_sample(self):
        s = TimeSeries("s")
        s.record(5, 7.0)
        assert s.time_weighted_mean() == 7.0

    def test_time_weighted_mean_empty(self):
        assert TimeSeries("s").time_weighted_mean() == 0.0


class TestProbe:
    def test_probe_samples_periodically(self, sim):
        state = {"v": 0.0}
        probe = Probe("p", period_ps=100, sample=lambda: state["v"])
        probe.install(sim)
        sim.schedule(150, lambda: state.update(v=9.0))
        sim.run(until=400)
        assert probe.series.times == [100, 200, 300, 400]
        assert probe.series.values == [0.0, 9.0, 9.0, 9.0]


class TestMergeStepMax:
    def test_peak_of_sum(self):
        a = TimeSeries("a")
        b = TimeSeries("b")
        a.record(0, 1)
        b.record(0, 1)
        a.record(10, 5)
        b.record(12, 4)   # both high simultaneously: 5 + 4
        a.record(20, 0)
        assert merge_step_max([a, b]) == 9

    def test_empty(self):
        assert merge_step_max([TimeSeries("a")]) == 0.0
