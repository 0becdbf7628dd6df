"""The packet-path fast lane vs the per-packet reference path.

The columnar lane (chunked sources, PacketLog telemetry, eager egress)
must be *observably identical* to the reference path: same packets with
the same timestamps in the same delivery order, same counters that
reach reports, same derived metrics.  These tests run the same scenario
down both lanes and compare, plus unit coverage for the new pieces.
"""

import collections
import sys

import pytest

from repro.analysis.record import UNSET, PacketLog
from repro.net.link import Link
from repro.net.packet import Packet
from repro.scenario import Scenario, TrafficPhase
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.time import MICROSECONDS, MILLISECONDS, NANOSECONDS
from repro.sim.trace import Counter, TimeSeries, untraced


def _fields(packet):
    return (packet.src, packet.dst, packet.size, packet.created_ps,
            packet.flow_id, packet.priority, packet.enqueued_ps,
            packet.dequeued_ps, packet.delivered_ps, packet.via)


def _scenario(**overrides):
    base = dict(
        name="fastlane-test",
        n_ports=8,
        switching_time_ps=100 * NANOSECONDS,
        scheduler="islip",
        scheduler_kwargs={"iterations": 2},
        timing_preset="netfpga_sume",
        default_slot_ps=5 * MICROSECONDS,
        buffer_mode="switch",
        duration_ps=2 * MILLISECONDS,
        seed=7,
        traffic=(TrafficPhase(pattern="uniform", source="poisson",
                              load=0.45),),
    )
    base.update(overrides)
    return Scenario(**base)


def _both_lanes(scenario):
    columnar = scenario.build(packet_lane="columnar").run()
    reference = scenario.build(packet_lane="reference").run()
    return columnar, reference


class TestLaneEquivalence:
    def _assert_equivalent(self, columnar, reference):
        assert columnar.log is not None and reference.log is None
        assert columnar.offered_packets == reference.offered_packets
        assert columnar.offered_bytes == reference.offered_bytes
        assert columnar.delivered_bytes == reference.delivered_bytes
        assert columnar.ocs_bytes == reference.ocs_bytes
        assert columnar.eps_bytes == reference.eps_bytes
        assert columnar.drops == reference.drops
        assert (columnar.switch_peak_buffer_bytes
                == reference.switch_peak_buffer_bytes)
        assert (columnar.host_peak_buffer_bytes
                == reference.host_peak_buffer_bytes)
        assert columnar.latency() == reference.latency()
        # Same packets, same stamps, same per-host delivery order —
        # packet_id is excluded: construction order differs by design.
        assert ([_fields(p) for p in columnar.delivered]
                == [_fields(p) for p in reference.delivered])

    def test_poisson_uniform(self):
        self._assert_equivalent(*_both_lanes(_scenario()))

    def test_onoff_and_cbr_mix(self):
        scenario = _scenario(traffic=(
            TrafficPhase(pattern="fixed", source="cbr", load=1.0,
                         hosts=(0,), pattern_kwargs={"dst": 1},
                         source_kwargs={"packet_bytes": 200,
                                        "period_ps": 50 * MICROSECONDS}),
            TrafficPhase(pattern="uniform", source="onoff", load=0.4,
                         hosts=(2, 3, 4, 5, 6, 7),
                         source_kwargs={
                             "burst_fraction": 0.5,
                             "mean_on_ps": 100 * MICROSECONDS,
                             "mean_off_ps": 150 * MICROSECONDS}),
        ))
        columnar, reference = _both_lanes(scenario)
        self._assert_equivalent(columnar, reference)
        flow = columnar.flow_packets(1)
        assert flow  # CBR flow took flow id 1 in both lanes
        assert (columnar.flow_jitter_ps(1, 50 * MICROSECONDS)
                == reference.flow_jitter_ps(1, 50 * MICROSECONDS))
        assert (columnar.flow_latencies_ps(1).tolist()
                == reference.flow_latencies_ps(1).tolist())

    def test_shared_host_falls_back_per_packet(self):
        # Two sources on host 0: the chunk lane must self-disable there
        # (and only there) with results still identical.
        scenario = _scenario(traffic=(
            TrafficPhase(pattern="fixed", source="cbr", load=1.0,
                         hosts=(0,), pattern_kwargs={"dst": 1},
                         source_kwargs={"period_ps": 40 * MICROSECONDS}),
            TrafficPhase(pattern="uniform", source="poisson", load=0.3),
        ))
        self._assert_equivalent(*_both_lanes(scenario))

    def test_mixed_frame_sizes_near_window_edge(self):
        # Regression: two different-size flows per host pack drain
        # runs whose last injection lands within the OCS transit of
        # the window edge; the next slot's reconfiguration must stay
        # legal (the commitment ends at the last *injection*, transit
        # survives reconfiguration on both lanes).
        scenario = _scenario(traffic=(
            TrafficPhase(pattern="uniform", source="poisson", load=0.55,
                         source_kwargs={"packet_bytes": 1500}),
            TrafficPhase(pattern="uniform", source="poisson", load=0.3,
                         source_kwargs={"packet_bytes": 137}),
        ))
        self._assert_equivalent(*_both_lanes(scenario))

    def test_host_buffered_mode(self):
        scenario = _scenario(
            buffer_mode="host",
            scheduler="hotspot",
            scheduler_kwargs={},
            timing_preset="cpu_cthrough",
            epoch_ps=500 * MICROSECONDS,
            default_slot_ps=250 * MICROSECONDS,
            switching_time_ps=50 * MICROSECONDS)
        self._assert_equivalent(*_both_lanes(scenario))

    def test_faulted_links_fall_back(self):
        from repro.scenario.spec import FaultEvent

        scenario = _scenario(faults=(
            FaultEvent(kind="link-flap", target=2, at_ps=300_000_000,
                       duration_ps=200 * MICROSECONDS),
        ))
        self._assert_equivalent(*_both_lanes(scenario))

    def test_optimistic_grant_disables_drain_batching(self):
        from repro.core.framework import HybridSwitchFramework

        config = _scenario().framework_config()
        columnar = HybridSwitchFramework(config)
        assert columnar.processing._batch_inject is not None
        ablated = HybridSwitchFramework(config, optimistic_grant=True)
        # The batched drain assumes windows open at OCS-ready time;
        # the ablation ordering exposes traffic to the blackout, so it
        # must stay on the per-packet path.
        assert ablated.processing._batch_inject is None


class TestPacketLog:
    def test_append_and_lazy_view_roundtrip(self):
        log = PacketLog(capacity=2)
        packets = []
        for i in range(5):
            packet = Packet(src=i % 3, dst=(i % 3) + 1, size=100 + i,
                            created_ps=10 * i, flow_id=i, priority=i % 2)
            packet.enqueued_ps = 10 * i + 1 if i % 2 else None
            packet.dequeued_ps = 10 * i + 2 if i % 2 else None
            packet.via = "ocs" if i % 2 else "eps"
            log.append_packet(packet, delivered_ps=10 * i + 5)
            packet.delivered_ps = 10 * i + 5
            packets.append(packet)
        assert len(log) == 5
        assert [_fields(p) for p in log.packets()] == \
            [_fields(p) for p in packets]
        assert [p.packet_id for p in log.packets()] == \
            [p.packet_id for p in packets]

    def test_unset_sentinel_for_none_stamps(self):
        log = PacketLog()
        packet = Packet(src=0, dst=1, size=64, created_ps=5)
        packet.via = None
        log.append_packet(packet, delivered_ps=9)
        assert log.column("enqueued_ps")[0] == UNSET
        view = log.packet(0)
        assert view.enqueued_ps is None
        assert view.via is None

    def test_concatenate_preserves_order(self):
        logs = []
        for base in (0, 100):
            log = PacketLog(capacity=1)
            for i in range(3):
                log.append(src=0, dst=1, size=64, created_ps=base + i,
                           flow_id=1, priority=0, packet_id=base + i,
                           enqueued_ps=None, dequeued_ps=None,
                           delivered_ps=base + i + 1, via_code=1)
            logs.append(log)
        merged = PacketLog.concatenate(logs)
        assert merged.created_ps.tolist() == [0, 1, 2, 100, 101, 102]
        assert merged.total_bytes() == 6 * 64
        assert merged.via_bytes("ocs") == 6 * 64
        assert merged.via_bytes("eps") == 0

    def test_columns_are_views_not_copies(self):
        log = PacketLog()
        log.append(src=1, dst=2, size=64, created_ps=3, flow_id=4,
                   priority=0, packet_id=5, enqueued_ps=None,
                   dequeued_ps=None, delivered_ps=6, via_code=0)
        column = log.size
        assert column.base is log._cols["size"]

    def test_out_of_range_view(self):
        with pytest.raises(IndexError):
            PacketLog().packet(0)


class TestFlowIdIsolation:
    def test_equal_seed_runs_allocate_identical_ids(self):
        first = _scenario().build().run()
        second = _scenario().build().run()
        assert (first.log.flow_id.tolist()
                == second.log.flow_id.tolist())

    def test_per_simulator_counter(self):
        a, b = Simulator(), Simulator()
        assert a.next_flow_id() == 1
        assert a.next_flow_id() == 2
        assert b.next_flow_id() == 1

    def test_deprecated_global_shim_still_counts(self):
        from repro.traffic.sources import next_flow_id

        first = next_flow_id()
        assert next_flow_id() == first + 1


class TestTraceFastPaths:
    def test_counter_disable_enable(self):
        counter = Counter("c")
        counter.add(2, 10)
        counter.disable()
        assert not counter.enabled
        counter.add(5, 50)
        assert (counter.count, counter.bytes) == (2, 10)
        counter.enable()
        counter.add(1, 1)
        assert (counter.count, counter.bytes) == (3, 11)

    def test_timeseries_disabled_mode(self):
        series = TimeSeries("s", enabled=False)
        series.record(1, 2.0)
        assert series.values == []
        series.enable()
        series.record(3, 4.0)
        assert series.values == [4.0]

    def test_untraced_context(self):
        counter = Counter("c")
        series = TimeSeries("s")
        with untraced(counter, series):
            counter.add()
            series.record(0, 1.0)
        assert counter.count == 0 and series.values == []
        counter.add()
        assert counter.count == 1

    def test_columnar_framework_runs_untraced(self):
        run = _scenario().build(packet_lane="columnar")
        fw = run.framework
        assert not fw.processing.requests_generated.enabled
        assert not fw.topology.uplinks[0].accepted.enabled
        # Lazily materialised VOQ queues come up untraced too.
        voq = fw.processing.voqs.queue(0, 1)
        assert not voq.enqueues.enabled
        fw.enable_observability()
        assert fw.processing.requests_generated.enabled
        assert voq.enqueues.enabled
        assert fw.processing.voqs.queue(0, 2).enqueues.enabled
        assert fw.processing._batch_inject is None

    def test_reference_framework_stays_traced(self):
        run = _scenario().build(packet_lane="reference")
        assert run.framework.processing.requests_generated.enabled


#: Python calls into ``repro`` per delivered packet on :func:`_scenario`'s
#: columnar run: 32.0 measured on CPython 3.11, plus 10% headroom for
#: interpreter versions (3.12 inlines comprehensions, for one).
CALLS_PER_PACKET_BOUND = 35.2


class TestCallCount:
    """Per-packet Python calls on the columnar lane.

    Every call made by ``repro`` code during the run is counted with
    ``sys.setprofile``.  Switched-off diagnostics must cost no call at
    all, the clock is a plain attribute, and the total per delivered
    packet stays under :data:`CALLS_PER_PACKET_BOUND`.
    """

    def test_calls_per_packet(self):
        run = _scenario().build(packet_lane="columnar")
        calls = collections.Counter()
        into_disabled = collections.Counter()

        def profile(frame, event, arg):
            if event != "call":
                return
            module = frame.f_globals.get("__name__", "")
            if not module.startswith("repro."):
                return
            name = frame.f_code.co_name
            calls[module, name] += 1
            if module == "repro.sim.trace" and name != "__init__":
                # Past construction (lazy VOQs build theirs mid-run), a
                # call that no enabled instrument owns is a call into a
                # switched-off diagnostic.
                owner = frame.f_locals.get("self")
                if owner is None or not owner.enabled:
                    into_disabled[name] += 1

        sys.setprofile(profile)
        try:
            result = run.run()
        finally:
            sys.setprofile(None)
        assert not into_disabled
        assert not [key for key in calls if key[1] == "now"]
        per_packet = sum(calls.values()) / result.delivered_count
        assert per_packet <= CALLS_PER_PACKET_BOUND, \
            calls.most_common(10)


class TestPresendGuards:
    def test_fail_until_refuses_after_future_commit(self):
        sim = Simulator()
        hits = []
        link = Link(sim, "l", rate_bps=10e9, sink=hits.append)
        packets = [Packet(src=0, dst=1, size=64, created_ps=t)
                   for t in (0, 10_000)]
        sim.run_until = 10 * MICROSECONDS
        link.send_presend(packets, [0, 10_000])
        with pytest.raises(SimulationError):
            link.fail_until(5_000)

    def test_marked_unreliable_link_refuses_presend(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=10e9, sink=lambda p: None)
        link.mark_unreliable()
        assert not link.can_presend()
        with pytest.raises(SimulationError):
            link.send_presend(
                [Packet(src=0, dst=1, size=64, created_ps=0)], [0])

    def test_presend_matches_per_packet_serialisation(self):
        def arrivals(batch):
            sim = Simulator()
            seen = []
            link = Link(sim, "l", rate_bps=10e9, propagation_ps=500,
                        sink=lambda p: seen.append(
                            (p.packet_id, sim.now)))
            packets = [Packet(src=0, dst=1, size=1500,
                              created_ps=200 * i, packet_id=i)
                       for i in range(20)]
            times = [200 * i for i in range(20)]
            if batch:
                def send_all():
                    link.send_presend(packets, times)
                sim.at(0, send_all)
            else:
                for packet, t in zip(packets, times):
                    sim.at(t, (lambda p=packet: link.send(p)))
            sim.run(until=1 * MILLISECONDS)
            return seen, link.busy_ps, link.free_at

        assert arrivals(batch=True) == arrivals(batch=False)


class TestHostPresendConditions:
    def test_sole_emitter_required(self):
        run = _scenario(traffic=(
            TrafficPhase(pattern="uniform", source="poisson", load=0.2),
            TrafficPhase(pattern="uniform", source="poisson", load=0.2),
        )).build()
        host = run.framework.hosts[0]
        assert host.emitter_count == 2
        assert not host.can_presend()

    def test_switch_buffered_sole_emitter_ok(self):
        run = _scenario().build()
        assert all(host.can_presend()
                   for host in run.framework.hosts)
