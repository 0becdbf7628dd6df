"""Host model with both buffering disciplines from Figure 1.

The paper contrasts two regimes:

* **Slow Scheduling / host buffering** — the ToR cannot afford the
  gigabytes needed to absorb bursts across millisecond reconfigurations,
  so "packets stored in the host can be passed to the switch only at
  appropriate times, upon a grant from the scheduler".  The host keeps
  per-destination queues and transmits only inside granted windows; it
  must stay tightly synchronised with the switch, and any clock skew
  sends packets into a closed circuit.
* **Fast Scheduling / switch buffering** — nanosecond switching shrinks
  the requirement to kilobytes, packets are buffered "directly in the
  ToR switch", and the host just transmits at will.

:class:`Host` implements both; :class:`HostBufferMode` selects one.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro.net.link import Link
from repro.net.packet import Packet, wire_size
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.time import transmission_time_ps
from repro.sim.trace import Counter, TimeSeries

if TYPE_CHECKING:  # import cycle: analysis.record materialises Packets
    from repro.analysis.record import PacketLog


class HostBufferMode(enum.Enum):
    """Which side of Figure 1 the host operates on."""

    #: Fast scheduling: transmit immediately; the switch buffers.
    SWITCH_BUFFERED = "switch_buffered"
    #: Slow scheduling: buffer at the host; transmit only on grant.
    HOST_BUFFERED = "host_buffered"


class Host:
    """One server attached to a hybrid-switch port.

    Parameters
    ----------
    sim:
        Owning simulator.
    host_id:
        Port index on the hybrid switch (0-based).
    uplink:
        Host-to-switch :class:`~repro.net.link.Link`.
    mode:
        Buffering discipline (see module docstring).
    clock_skew_ps:
        Host-clock offset relative to the switch, applied to grant start
        times in host-buffered mode.  Positive skew means the host is
        *late*.  Models the paper's "tight synchronization" hazard.
    """

    def __init__(self, sim: Simulator, host_id: int, uplink: Link,
                 mode: HostBufferMode = HostBufferMode.SWITCH_BUFFERED,
                 clock_skew_ps: int = 0,
                 trace_occupancy: bool = False) -> None:
        self.sim = sim
        self.host_id = host_id
        self.uplink = uplink
        self.mode = mode
        self.clock_skew_ps = clock_skew_ps
        self._queues: Dict[int, Deque[Packet]] = {}
        self._queued_bytes = 0
        self.occupancy = TimeSeries(f"host{host_id}.occupancy",
                                    enabled=trace_occupancy)
        self.peak_queued_bytes = 0
        self._grant_label = f"host{host_id}.grant"
        self.emitted = Counter(f"host{host_id}.emitted")
        self.received = Counter(f"host{host_id}.received")
        self.sent_on_grant = Counter(f"host{host_id}.sent_on_grant")
        self.delivered_packets: List[Packet] = []
        self.on_deliver: Optional[Callable[[Packet], None]] = None
        #: Columnar fast-lane sink; when set, deliveries append into the
        #: log instead of retaining ``Packet`` objects.
        self.packet_log: Optional["PacketLog"] = None
        #: Sources attached to this host (see :meth:`register_emitter`).
        self.emitter_count = 0

    # -- fast-lane wiring -------------------------------------------------------

    def register_emitter(self, source: object) -> None:
        """Declare one traffic source driving this host.

        Chunked sources may pre-serialise a whole chunk through the
        uplink only when they are the host's *sole* emitter — otherwise
        another source's packets could interleave on the wire inside
        the chunk window and the pre-computed serialisation would lie.
        """
        self.emitter_count += 1

    def use_packet_log(self, log: "PacketLog") -> None:
        """Switch delivery telemetry to columnar mode.

        Deliveries append into ``log`` instead of retaining ``Packet``
        objects in :attr:`delivered_packets`.
        """
        self.packet_log = log

    def can_presend(self) -> bool:
        """True when chunk pre-serialisation through the uplink is exact.

        Requires switch-buffered mode (host-buffered emission lands in
        the grant queues, whose state the scheduler polls *between* the
        chunk's emission instants), a sole emitter, and an uplink with
        no armed fault injector.
        """
        return (self.mode is HostBufferMode.SWITCH_BUFFERED
                and self.emitter_count == 1
                and self.uplink.can_presend())

    def emit_presend(self, packets: List[Packet],
                     times: List[int]) -> None:
        """Accept a chunk of future emissions (``times`` ascending).

        Semantically identical to calling :meth:`emit` at each
        ``times[i]``; the caller must have checked :meth:`can_presend`.
        """
        count = 0
        nbytes = 0
        for packet in packets:
            count += 1
            nbytes += packet.size
        self.emitted.add(count, nbytes)
        self.uplink.send_presend(packets, times)

    # -- traffic source side ---------------------------------------------------

    def emit(self, packet: Packet) -> None:
        """Accept a packet from the application layer.

        Switch-buffered mode hands it straight to the uplink;
        host-buffered mode parks it in the per-destination queue until a
        grant opens a window.
        """
        if packet.src != self.host_id:
            raise ConfigurationError(
                f"host {self.host_id} asked to emit packet with "
                f"src={packet.src}")
        self.emitted.add(1, packet.size)
        if self.mode is HostBufferMode.SWITCH_BUFFERED:
            self.uplink.send(packet)
            return
        queue = self._queues.setdefault(packet.dst, deque())
        queue.append(packet)
        packet.enqueued_ps = self.sim.now
        self._change_occupancy(packet.size)

    # -- scheduler side (host-buffered mode) ------------------------------------

    def queued_bytes_to(self, dst: int) -> int:
        """Bytes currently queued for destination ``dst`` (demand report)."""
        queue = self._queues.get(dst)
        return sum(p.size for p in queue) if queue else 0

    def demand_vector(self, n_ports: int) -> List[int]:
        """Bytes queued per destination — what a Helios-style software
        scheduler polls from each host."""
        return [self.queued_bytes_to(dst) for dst in range(n_ports)]

    @property
    def queued_bytes(self) -> int:
        """Total bytes parked at this host across all destinations."""
        return self._queued_bytes

    def grant(self, dst: int, start_ps: int, duration_ps: int) -> None:
        """Open a transmission window toward ``dst``.

        The window is ``[start_ps, start_ps + duration_ps)`` in *switch*
        time; the host acts at ``start_ps + clock_skew_ps`` in its own
        (skewed) perception.  Packets whose serialisation would overrun
        the perceived window stay queued for the next grant.
        """
        if self.mode is not HostBufferMode.HOST_BUFFERED:
            raise ConfigurationError(
                f"host {self.host_id} is switch-buffered; grants are "
                "only meaningful in host-buffered mode")
        perceived_start = max(self.sim.now, start_ps + self.clock_skew_ps)
        deadline = start_ps + self.clock_skew_ps + duration_ps

        def open_window() -> None:
            self._drain_window(dst, deadline)

        self.sim.at(perceived_start, open_window,
                    label=self._grant_label)

    def _drain_window(self, dst: int, deadline_ps: int) -> None:
        """Send queued packets toward ``dst`` until the window closes."""
        queue = self._queues.get(dst)
        if not queue:
            return
        while queue:
            packet = queue[0]
            tx_ps = transmission_time_ps(wire_size(packet.size),
                                         self.uplink.rate_bps)
            start = max(self.sim.now, self.uplink.free_at)
            if start + tx_ps > deadline_ps:
                break
            queue.popleft()
            packet.dequeued_ps = self.sim.now
            self._change_occupancy(-packet.size)
            if self.sent_on_grant.enabled:
                self.sent_on_grant.add(1, packet.size)
            self.uplink.send(packet)

    # -- receive side -------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Accept a delivered packet from the switch's egress link."""
        packet.delivered_ps = self.sim.now
        if self.received.enabled:
            self.received.add(1, packet.size)
        if self.packet_log is not None:
            self.packet_log.append_packet(packet, packet.delivered_ps)
        else:
            self.delivered_packets.append(packet)
        if self.on_deliver is not None:
            self.on_deliver(packet)

    def receive_at(self, packet: Packet, arrival_ps: int) -> None:
        """Eager delivery: record an arrival known to happen later.

        The egress link calls this at *send* time with the exact
        arrival instant it would otherwise have delivered the packet at
        via an event.  Only valid while :attr:`on_deliver` is unset
        (the link's eager guard checks) — a delivery hook must observe
        simulator state at true delivery time.
        """
        packet.delivered_ps = arrival_ps
        if self.received.enabled:
            self.received.add(1, packet.size)
        if self.packet_log is not None:
            self.packet_log.append_packet(packet, arrival_ps)
        else:
            self.delivered_packets.append(packet)

    # -- internals ------------------------------------------------------------------

    def _change_occupancy(self, delta: int) -> None:
        self._queued_bytes += delta
        if self._queued_bytes > self.peak_queued_bytes:
            self.peak_queued_bytes = self._queued_bytes
        if self.occupancy.enabled:
            self.occupancy.record(self.sim.now, self._queued_bytes)


__all__ = ["Host", "HostBufferMode"]
