"""Bounded packet FIFO with occupancy accounting.

Every queue in the system (VOQs, EPS output queues) is a
:class:`PacketQueue`.  It tracks byte/packet occupancy continuously so
Figure 1's "how much memory does this switching time cost" question can
be answered from simulation, not just the analytic model.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.errors import CapacityError, ConfigurationError
from repro.sim.trace import Counter, TimeSeries


class DropPolicy(enum.Enum):
    """What happens when an enqueue would exceed capacity."""

    #: Silently drop the arriving packet (counted).
    TAIL_DROP = "tail_drop"
    #: Raise :class:`~repro.sim.errors.CapacityError` — for experiments
    #: where overflow indicates a model bug rather than congestion.
    ERROR = "error"


class PacketQueue:
    """FIFO of packets with optional byte and packet caps.

    Parameters
    ----------
    sim:
        Simulator (for occupancy timestamps).
    name:
        Trace name.
    capacity_bytes / capacity_packets:
        ``None`` means unbounded along that dimension.
    policy:
        Behaviour at capacity (default tail drop, like a real ToR).
    trace_occupancy:
        Record the full ``occupancy`` time series (one sample per
        enqueue/dequeue).  Off by default: the series is a debugging
        diagnostic, and untraced runs should not pay two list appends
        plus unbounded memory per packet.  Peaks and counters are
        always maintained — they are what experiments report.
    """

    def __init__(self, sim: Simulator, name: str,
                 capacity_bytes: Optional[int] = None,
                 capacity_packets: Optional[int] = None,
                 policy: DropPolicy = DropPolicy.TAIL_DROP,
                 trace_occupancy: bool = False) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ConfigurationError(f"{name}: capacity_bytes must be > 0")
        if capacity_packets is not None and capacity_packets <= 0:
            raise ConfigurationError(f"{name}: capacity_packets must be > 0")
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.capacity_packets = capacity_packets
        self.policy = policy
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.peak_bytes = 0
        self.peak_packets = 0
        self.occupancy = TimeSeries(f"{name}.bytes",
                                    enabled=trace_occupancy)
        self.drops = Counter(f"{name}.drops")
        self.enqueues = Counter(f"{name}.enqueues")
        self.dequeues = Counter(f"{name}.dequeues")
        #: Called after every occupancy change with the new byte count.
        self.on_change: Optional[Callable[[int], None]] = None

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes(self) -> int:
        """Current occupancy in bytes."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True when no packets are queued."""
        return not self._queue

    def head(self) -> Optional[Packet]:
        """Peek at the head-of-line packet without removing it."""
        return self._queue[0] if self._queue else None

    # -- operations -------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False if it was dropped at capacity.

        Under :attr:`DropPolicy.ERROR` the :class:`CapacityError` names
        the cap that tripped.
        """
        size = packet.size
        queue = self._queue
        queued = self._bytes + size
        over_bytes = (self.capacity_bytes is not None
                      and queued > self.capacity_bytes)
        over_packets = (self.capacity_packets is not None
                        and len(queue) >= self.capacity_packets)
        if over_bytes or over_packets:
            if self.policy is DropPolicy.ERROR:
                tripped = []
                if over_bytes:
                    tripped.append(f"{self._bytes}B + {size}B >"
                                   f" {self.capacity_bytes}B")
                if over_packets:
                    tripped.append(f"{len(queue)} + 1 packets >"
                                   f" {self.capacity_packets} packets")
                raise CapacityError(f"queue {self.name} overflow: "
                                    + " and ".join(tripped))
            self.drops.add(1, size)
            return False
        now = self.sim.now
        packet.enqueued_ps = now
        queue.append(packet)
        self._bytes = queued
        if self.enqueues.enabled:
            self.enqueues.add(1, size)
        if queued > self.peak_bytes:
            self.peak_bytes = queued
        if len(queue) > self.peak_packets:
            self.peak_packets = len(queue)
        if self.occupancy.enabled:
            self.occupancy.record(now, queued)
        if self.on_change is not None:
            self.on_change(queued)
        return True

    def dequeue(self) -> Packet:
        """Remove and return the head-of-line packet.

        Raises ``IndexError`` when empty — callers must check
        :attr:`is_empty`; an unexpected empty dequeue is a protocol bug.
        A dequeue cannot raise a peak, so only the series and the hook
        see it.
        """
        packet = self._queue.popleft()
        queued = self._bytes - packet.size
        self._bytes = queued
        now = self.sim.now
        packet.dequeued_ps = now
        if self.dequeues.enabled:
            self.dequeues.add(1, packet.size)
        if self.occupancy.enabled:
            self.occupancy.record(now, queued)
        if self.on_change is not None:
            self.on_change(queued)
        return packet

    def popleft_run(self, times: "list[int]") -> "list[Packet]":
        """Dequeue ``len(times)`` head packets stamped at ``times``.

        The batched-drain fast path: identical to calling
        :meth:`dequeue` at each ``times[i]`` (ascending, first == now),
        with the byte accounting, counters and change notification paid
        once per run.  Caller contract: the queue holds at least that
        many packets and :attr:`on_change` is unset (a hook must see
        every step).  Occupancy peaks are unaffected — dequeues only
        shrink the queue.
        """
        popleft = self._queue.popleft
        packets = []
        nbytes = 0
        for when in times:
            packet = popleft()
            packet.dequeued_ps = when
            nbytes += packet.size
            packets.append(packet)
        self._bytes -= nbytes
        if self.dequeues.enabled:
            self.dequeues.add(len(packets), nbytes)
        if self.occupancy.enabled:
            self.occupancy.record(self.sim.now, self._bytes)
        if self.on_change is not None:
            self.on_change(self._bytes)
        return packets

    def drain(self) -> "list[Packet]":
        """Remove and return every queued packet (teardown helper)."""
        drained = []
        while self._queue:
            drained.append(self.dequeue())
        return drained


__all__ = ["PacketQueue", "DropPolicy"]
