"""Electrical Packet Switch model.

In the hybrid architecture the EPS carries "the remaining traffic and
short bursts" (§1): anything the scheduler has not mapped onto a
circuit.  We model a store-and-forward, output-queued switch — the
standard abstraction for a commodity electrical ToR:

* per-output FIFO queues with a shared or per-port byte budget,
* a configurable fabric rate per output (the residual path is usually
  provisioned well below the OCS line rate — that asymmetry is exactly
  why hybrid designs need a good scheduler),
* a fixed forwarding latency (pipeline + lookup), defaulting to 500 ns,
  typical of a shallow-buffered commodity ASIC.

Output ports drain onto sinks (the shared egress downlinks) which the
framework connects.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import Packet, wire_size
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.time import GIGABIT, NANOSECONDS, transmission_time_ps
from repro.sim.trace import Counter
from repro.switches.buffers import DropPolicy, PacketQueue


class ElectricalPacketSwitch:
    """Output-queued store-and-forward packet switch.

    Parameters
    ----------
    sim, n_ports:
        Simulator and port count.
    port_rate_bps:
        Drain rate of each output queue onto its sink.
    forwarding_latency_ps:
        Ingress-to-egress-queue pipeline latency.
    queue_capacity_bytes:
        Per-output byte cap (tail drop beyond it); ``None`` = unbounded.
    output_sinks:
        ``output_sinks[j]`` consumes packets leaving output j.
    """

    def __init__(self, sim: Simulator, n_ports: int,
                 port_rate_bps: float = 10 * GIGABIT,
                 forwarding_latency_ps: int = 500 * NANOSECONDS,
                 queue_capacity_bytes: Optional[int] = None,
                 policy: DropPolicy = DropPolicy.TAIL_DROP,
                 output_sinks: Optional[
                     List[Callable[[Packet], None]]] = None) -> None:
        if n_ports < 2:
            raise ConfigurationError(f"EPS needs >= 2 ports, got {n_ports}")
        if port_rate_bps <= 0:
            raise ConfigurationError("EPS port rate must be positive")
        self.sim = sim
        self.n_ports = n_ports
        self.port_rate_bps = port_rate_bps
        self.forwarding_latency_ps = forwarding_latency_ps
        self._sinks = output_sinks or [_unconnected] * n_ports
        self._queues = [
            PacketQueue(sim, f"eps.out[{j}]",
                        capacity_bytes=queue_capacity_bytes, policy=policy)
            for j in range(n_ports)
        ]
        self._draining = [False] * n_ports
        self.forwarded = Counter("eps.forwarded")
        self.received = Counter("eps.received")
        # Packets accepted but not yet forwarded or dropped (pipeline +
        # queues + drain).  Plain int, independent of the counters, so
        # the fast lane's quiescence gate works even on untraced runs.
        self._inside = 0

    @property
    def is_quiescent(self) -> bool:
        """True when nothing is inside the EPS.

        While quiescent *and* no new ingress is possible except via
        scheduled events at least a pipeline + serialisation in the
        future, the EPS cannot put a packet onto a shared egress link —
        the condition the fast lane's batched OCS egress relies on.
        """
        return self._inside == 0

    def connect_output(self, port: int, sink: Callable[[Packet], None]) -> None:
        """Attach the consumer of output ``port``."""
        self._sinks[port] = sink

    # -- data plane ---------------------------------------------------------------

    def receive(self, packet: Packet) -> bool:
        """Accept a packet at ingress; False when tail-dropped at egress queue."""
        if self.received.enabled:
            self.received.add(1, packet.size)
        self._inside += 1
        queue = self._queues[packet.dst]

        def arrive_at_output() -> None:
            if queue.enqueue(packet):
                self._start_drain(packet.dst)
            else:
                self._inside -= 1

        self.sim.schedule(self.forwarding_latency_ps, arrive_at_output,
                          label="eps.pipeline")
        return True

    # -- occupancy ------------------------------------------------------------------

    @property
    def total_queued_bytes(self) -> int:
        """Bytes across all output queues right now."""
        return sum(q.bytes for q in self._queues)

    def peak_queue_bytes(self) -> int:
        """Largest single-output peak occupancy seen so far."""
        return max(q.peak_bytes for q in self._queues)

    def drops_total(self) -> int:
        """Total packets tail-dropped across outputs."""
        return sum(q.drops.count for q in self._queues)

    def queue(self, port: int) -> PacketQueue:
        """The output queue for ``port`` (tests and probes)."""
        return self._queues[port]

    # -- internals ---------------------------------------------------------------------

    def _start_drain(self, port: int) -> None:
        if self._draining[port]:
            return
        self._draining[port] = True
        self._drain_next(port)

    def _drain_next(self, port: int) -> None:
        queue = self._queues[port]
        if queue.is_empty:
            self._draining[port] = False
            return
        packet = queue.dequeue()
        tx_ps = transmission_time_ps(wire_size(packet.size),
                                     self.port_rate_bps)

        def finish() -> None:
            packet.via = "eps"
            if self.forwarded.enabled:
                self.forwarded.add(1, packet.size)
            self._inside -= 1
            self._sinks[port](packet)
            self._drain_next(port)

        self.sim.schedule(tx_ps, finish, label="eps.drain")


def _unconnected(packet: Packet) -> None:
    raise ConfigurationError(
        f"EPS output for packet {packet.packet_id} is not connected")


__all__ = ["ElectricalPacketSwitch"]
