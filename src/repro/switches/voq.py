"""Virtual Output Queue bank.

An input-queued switch keeps, at each input port, one queue per output
port — the VOQ discipline that avoids head-of-line blocking.  Figure 2's
processing logic "places [packets] into their respective Virtual Output
Queue" and "as the status of a VOQ changes, the subsystem generates
scheduling requests".

:class:`VoqBank` is the n×n bank for the whole switch, with:

* per-VOQ :class:`~repro.switches.buffers.PacketQueue` storage,
* a status-change hook that fires exactly when the paper says requests
  are generated (empty↔non-empty transitions and byte-count changes),
* O(1) demand-matrix snapshots for the scheduling logic.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

import numpy as np

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.switches.buffers import DropPolicy, PacketQueue


class VoqBank:
    """n×n virtual output queues with demand snapshots.

    Parameters
    ----------
    sim, n_ports:
        Simulator and port count.
    capacity_bytes:
        Per-VOQ byte cap (None = unbounded).  The *aggregate* cap that
        Figure 1 reasons about is enforced by
        :class:`~repro.switches.memory.BufferMemoryMeter` instead, since
        real ToR SRAM is shared.
    on_status_change:
        Called with ``(src, dst, queued_bytes)`` after every enqueue or
        dequeue — the request-generation hook.
    """

    def __init__(self, sim: Simulator, n_ports: int,
                 capacity_bytes: Optional[int] = None,
                 policy: DropPolicy = DropPolicy.TAIL_DROP,
                 on_status_change:
                 Optional[Callable[[int, int, int], None]] = None) -> None:
        if n_ports < 2:
            raise ConfigurationError(f"VoqBank needs >= 2 ports, got {n_ports}")
        self.sim = sim
        self.n_ports = n_ports
        self.on_status_change = on_status_change
        self._capacity_bytes = capacity_bytes
        self._policy = policy
        # Queues materialise on first touch: an n-port bank holds n²−n
        # of them, and at large radix most (src, dst) pairs never carry
        # a packet in a given run — eager construction would dominate
        # framework build time.
        self._queues: List[List[Optional[PacketQueue]]] = [
            [None] * n_ports for __ in range(n_ports)]
        # Dense byte counts for O(n^2) demand snapshots without walking
        # deques, kept in sync by _touch as plain Python ints (a NumPy
        # scalar store costs several times an int list store, and
        # _touch runs twice per packet).  The ndarray views are rebuilt
        # lazily, at most once per snapshot.
        self._byte_rows = [[0] * n_ports for __ in range(n_ports)]
        self._packet_rows = [[0] * n_ports for __ in range(n_ports)]
        self._total = 0
        self._total_packets = 0
        self._peak_total = 0
        # Batched drains subtract a whole run's bytes up front; the
        # occupancy that a per-packet execution would have shown at any
        # later instant is ``_total`` plus the departures still pending
        # *after* that instant.  The heap tracks those so the peak —
        # which can only move at enqueues — stays exact.
        self._pending_departures: List[tuple] = []
        self._future_departed = 0
        # Persistent ndarray view of the byte rows, refreshed row-wise:
        # only inputs touched since the last snapshot are re-written,
        # so the per-epoch snapshot costs O(active inputs · n) instead
        # of a full n² rebuild.
        self._demand_np = np.zeros((n_ports, n_ports), dtype=np.int64)
        self._dirty_rows: set = set()
        #: When True, queues materialise with their per-packet
        #: enqueue/dequeue counters disabled (untraced fast lane).
        self.untraced_counters = False

    # -- access -----------------------------------------------------------------

    def queue(self, src: int, dst: int) -> PacketQueue:
        """The VOQ for (src, dst); raises on the src == dst diagonal."""
        q = self._queues[src][dst]
        if q is None:
            if src == dst:
                raise ConfigurationError(
                    f"no VOQ on diagonal ({src},{src})")
            q = PacketQueue(self.sim, f"voq[{src},{dst}]",
                            capacity_bytes=self._capacity_bytes,
                            policy=self._policy)
            if self.untraced_counters:
                q.enqueues.disable()
                q.dequeues.disable()
            self._queues[src][dst] = q
        return q

    def set_counter_tracing(self, enabled: bool) -> None:
        """Enable/disable enqueue/dequeue counters, bank-wide.

        Applies to every queue materialised so far and (via
        :attr:`untraced_counters`) to queues created later.  Drop
        counters always count — they feed reports.
        """
        self.untraced_counters = not enabled
        for row in self._queues:
            for q in row:
                if q is not None:
                    if enabled:
                        q.enqueues.enable()
                        q.dequeues.enable()
                    else:
                        q.enqueues.disable()
                        q.dequeues.disable()

    # -- operations --------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Place ``packet`` into VOQ (packet.src, packet.dst).

        Returns False if tail-dropped.  Fires the status hook only for
        an accepted packet: a real request generator watches occupancy,
        and a drop changes nothing.
        """
        src = packet.src
        dst = packet.dst
        q = self._queues[src][dst]
        if q is None:
            q = self.queue(src, dst)
        accepted = q.enqueue(packet)
        if accepted:
            self._touch(src, dst)
        return accepted

    def dequeue(self, src: int, dst: int) -> Packet:
        """Remove the head packet of VOQ (src, dst)."""
        q = self._queues[src][dst]
        if q is None:
            q = self.queue(src, dst)
        packet = q.dequeue()
        self._touch(src, dst)
        return packet

    def dequeue_run(self, src: int, dst: int,
                    times: List[int]) -> List[Packet]:
        """Dequeue a drain run from VOQ (src, dst), stamped at ``times``.

        Equivalent to calling :meth:`dequeue` at each ``times[i]``,
        with the bank accounting paid once.  The status hook is *not*
        fired — callers use this only when nothing listens (the batched
        drain gates on that).  Departures at future instants are
        registered so :meth:`peak_total_bytes` remains exact.
        """
        q = self.queue(src, dst)
        packets = q.popleft_run(times)
        row = self._byte_rows[src]
        queued = q._bytes
        self._total += queued - row[dst]
        row[dst] = queued
        self._dirty_rows.add(src)
        packet_row = self._packet_rows[src]
        count = len(q._queue)
        self._total_packets += count - packet_row[dst]
        packet_row[dst] = count
        now = self.sim.now
        pending = self._pending_departures
        for when, packet in zip(times, packets):
            if when > now:
                heapq.heappush(pending, (when, packet.size))
                self._future_departed += packet.size
        return packets

    def head(self, src: int, dst: int) -> Optional[Packet]:
        """Peek the head packet of VOQ (src, dst)."""
        q = self._queues[src][dst]
        if q is None:
            if src == dst:
                raise ConfigurationError(
                    f"no VOQ on diagonal ({src},{src})")
            return None
        return q.head()

    def is_empty(self, src: int, dst: int) -> bool:
        """True when VOQ (src, dst) holds no packets."""
        q = self._queues[src][dst]
        if q is None:
            if src == dst:
                raise ConfigurationError(
                    f"no VOQ on diagonal ({src},{src})")
            return True
        return q.is_empty

    # -- aggregate views ------------------------------------------------------------

    def demand_bytes(self) -> np.ndarray:
        """n×n matrix of queued bytes (a copy; callers may mutate)."""
        if self._dirty_rows:
            demand = self._demand_np
            rows = self._byte_rows
            for src in self._dirty_rows:
                demand[src] = rows[src]
            self._dirty_rows.clear()
        return self._demand_np.copy()

    def demand_packets(self) -> np.ndarray:
        """n×n matrix of queued packet counts (a copy)."""
        return np.array(self._packet_rows, dtype=np.int64)

    @property
    def total_bytes(self) -> int:
        """Total bytes stored across the whole bank."""
        return self._total

    @property
    def total_packets(self) -> int:
        """Total packets stored across the whole bank."""
        return self._total_packets

    def peak_total_bytes(self) -> int:
        """Peak simultaneous occupancy — the Figure 1 measurement.

        Exact, not sampled: recomputed from per-queue step series would
        be expensive, so the bank tracks the running aggregate in
        :meth:`_touch`.
        """
        return self._peak_total

    def nonempty_voqs(self) -> List[tuple]:
        """(src, dst) of every backlogged VOQ."""
        return [(src, dst)
                for src, row in enumerate(self._packet_rows)
                for dst, count in enumerate(row) if count]

    def drops_total(self) -> int:
        """Total packets tail-dropped across the bank."""
        return sum(q.drops.count
                   for row in self._queues for q in row if q is not None)

    # -- internals ---------------------------------------------------------------------

    def _touch(self, src: int, dst: int) -> None:
        # Reads the queue's state directly: this runs twice per packet,
        # and a property plus two ``__len__`` calls cost three frames.
        q = self._queues[src][dst]
        queued = q._bytes
        row = self._byte_rows[src]
        self._total += queued - row[dst]
        row[dst] = queued
        self._dirty_rows.add(src)
        packet_row = self._packet_rows[src]
        count = len(q._queue)
        self._total_packets += count - packet_row[dst]
        packet_row[dst] = count
        occupancy = self._total
        if self._future_departed:
            # Settle batched departures that have now "happened"; what
            # remains is occupancy a per-packet execution would still
            # be holding at this instant.
            pending = self._pending_departures
            now = self.sim.now
            while pending and pending[0][0] <= now:
                self._future_departed -= heapq.heappop(pending)[1]
            occupancy += self._future_departed
        if occupancy > self._peak_total:
            self._peak_total = occupancy
        if self.on_status_change is not None:
            self.on_status_change(src, dst, queued)


__all__ = ["VoqBank"]
