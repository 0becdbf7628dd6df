"""Tests for the bounded packet queue."""

import pytest

from repro.net.packet import Packet
from repro.sim.errors import CapacityError, ConfigurationError
from repro.switches.buffers import DropPolicy, PacketQueue


def _packet(size=100):
    return Packet(src=0, dst=1, size=size, created_ps=0)


class TestBasics:
    def test_fifo_order(self, sim):
        q = PacketQueue(sim, "q")
        first, second = _packet(), _packet()
        q.enqueue(first)
        q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second

    def test_len_and_bytes(self, sim):
        q = PacketQueue(sim, "q")
        q.enqueue(_packet(100))
        q.enqueue(_packet(250))
        assert len(q) == 2
        assert q.bytes == 350

    def test_head_peeks_without_removal(self, sim):
        q = PacketQueue(sim, "q")
        p = _packet()
        q.enqueue(p)
        assert q.head() is p
        assert len(q) == 1

    def test_head_empty(self, sim):
        assert PacketQueue(sim, "q").head() is None

    def test_dequeue_empty_raises(self, sim):
        with pytest.raises(IndexError):
            PacketQueue(sim, "q").dequeue()

    def test_timestamps_stamped(self, sim):
        q = PacketQueue(sim, "q")
        p = _packet()
        sim.schedule(10, lambda: q.enqueue(p))
        sim.schedule(25, lambda: q.dequeue())
        sim.run()
        assert p.enqueued_ps == 10
        assert p.dequeued_ps == 25

    def test_drain(self, sim):
        q = PacketQueue(sim, "q")
        for __ in range(3):
            q.enqueue(_packet())
        drained = q.drain()
        assert len(drained) == 3
        assert q.is_empty and q.bytes == 0


class TestCapacity:
    def test_byte_cap_tail_drop(self, sim):
        q = PacketQueue(sim, "q", capacity_bytes=150)
        assert q.enqueue(_packet(100))
        assert not q.enqueue(_packet(100))   # would exceed 150
        assert q.drops.count == 1
        assert q.bytes == 100

    def test_packet_cap(self, sim):
        q = PacketQueue(sim, "q", capacity_packets=1)
        assert q.enqueue(_packet())
        assert not q.enqueue(_packet())

    def test_error_policy_raises(self, sim):
        q = PacketQueue(sim, "q", capacity_bytes=50,
                        policy=DropPolicy.ERROR)
        with pytest.raises(CapacityError):
            q.enqueue(_packet(100))

    def test_error_names_the_cap_that_tripped(self, sim):
        packets = PacketQueue(sim, "q", capacity_packets=1,
                              policy=DropPolicy.ERROR)
        packets.enqueue(_packet(100))
        with pytest.raises(CapacityError) as caught:
            packets.enqueue(_packet(100))
        assert str(caught.value) == \
            "queue q overflow: 1 + 1 packets > 1 packets"
        nbytes = PacketQueue(sim, "b", capacity_bytes=150,
                             capacity_packets=5, policy=DropPolicy.ERROR)
        nbytes.enqueue(_packet(100))
        with pytest.raises(CapacityError) as caught:
            nbytes.enqueue(_packet(100))
        assert str(caught.value) == "queue b overflow: 100B + 100B > 150B"

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            PacketQueue(sim, "q", capacity_bytes=0)
        with pytest.raises(ConfigurationError):
            PacketQueue(sim, "q", capacity_packets=-1)

    def test_capacity_frees_after_dequeue(self, sim):
        q = PacketQueue(sim, "q", capacity_bytes=100)
        q.enqueue(_packet(100))
        q.dequeue()
        assert q.enqueue(_packet(100))


class TestAccounting:
    def test_peaks(self, sim):
        q = PacketQueue(sim, "q")
        q.enqueue(_packet(100))
        q.enqueue(_packet(100))
        q.dequeue()
        q.enqueue(_packet(50))
        assert q.peak_bytes == 200
        assert q.peak_packets == 2

    def test_counters(self, sim):
        q = PacketQueue(sim, "q")
        q.enqueue(_packet(10))
        q.enqueue(_packet(20))
        q.dequeue()
        assert q.enqueues.count == 2
        assert q.enqueues.bytes == 30
        assert q.dequeues.count == 1

    def test_occupancy_series_records_changes(self, sim):
        q = PacketQueue(sim, "q", trace_occupancy=True)
        q.enqueue(_packet(10))
        q.dequeue()
        assert q.occupancy.values == [10, 0]

    def test_occupancy_series_disabled_by_default(self, sim):
        q = PacketQueue(sim, "q")
        q.enqueue(_packet(10))
        q.dequeue()
        # Untraced runs skip the per-packet series entirely; peaks and
        # counters still track.
        assert q.occupancy.values == []
        assert not q.occupancy.enabled
        assert q.peak_bytes == 10

    def test_popleft_run_matches_stepwise_dequeues(self, sim):
        # The batched drain must leave what one dequeue per stamp
        # leaves: stamps, bytes, counters, peaks and the series.
        batched = PacketQueue(sim, "b", trace_occupancy=True)
        stepwise = PacketQueue(sim, "s", trace_occupancy=True)
        for size in (10, 20, 30, 40):
            batched.enqueue(_packet(size))
            stepwise.enqueue(_packet(size))
        times = [0, 5, 9]
        run = batched.popleft_run(times)
        steps = [stepwise.dequeue() for _ in times]
        assert [p.size for p in run] == [p.size for p in steps]
        assert [p.dequeued_ps for p in run] == times
        assert len(batched) == len(stepwise) == 1
        assert batched.bytes == stepwise.bytes == 40
        assert (batched.dequeues.count, batched.dequeues.bytes) == (3, 60)
        assert (batched.peak_bytes, batched.peak_packets) == (100, 4)
        assert batched.occupancy.values[-1] == 40

    def test_on_change_hook(self, sim):
        q = PacketQueue(sim, "q")
        seen = []
        q.on_change = seen.append
        q.enqueue(_packet(10))
        q.enqueue(_packet(5))
        q.dequeue()
        assert seen == [10, 15, 5]

    def test_dropped_packet_does_not_fire_hooks(self, sim):
        q = PacketQueue(sim, "q", capacity_bytes=5)
        seen = []
        q.on_change = seen.append
        q.enqueue(_packet(10))
        assert seen == []
