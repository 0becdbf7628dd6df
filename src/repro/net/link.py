"""Point-to-point link with serialisation and propagation delay.

The link is the only place in the model where bytes turn into time.  It
enforces FIFO ordering and non-overlapping serialisation: a packet
begins transmitting at ``max(now, previous packet's finish)``, occupies
the wire for ``wire_size/rate``, then arrives at the sink after the
propagation delay.

This matches the paper's accounting: propagation delay between host and
switch is one of the latency components that makes *software* scheduling
slow (§2), so it must be a first-class parameter.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.time import frame_tx_time_ps
from repro.sim.trace import Counter


class Link:
    """Unidirectional link.

    Parameters
    ----------
    sim:
        The simulator that owns time.
    name:
        Used in traces and error messages.
    rate_bps:
        Line rate in bits per second.
    propagation_ps:
        One-way propagation delay in picoseconds.  Intra-rack copper or
        fibre runs are a few metres: ~5 ns/m, so defaults elsewhere use
        tens of nanoseconds.
    sink:
        Callable invoked with each packet on arrival.  May be replaced
        after construction via :meth:`connect` (lets topologies wire
        rings of components without ordering headaches).
    """

    def __init__(self, sim: Simulator, name: str, rate_bps: float,
                 propagation_ps: int = 0,
                 sink: Optional[Callable[[Packet], None]] = None) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"link {name}: rate must be positive")
        if propagation_ps < 0:
            raise ConfigurationError(
                f"link {name}: propagation must be non-negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_ps = propagation_ps
        self._sink = sink
        self._free_at = 0
        self._down_until = 0
        self.accepted = Counter(f"{name}.accepted")
        self.delivered = Counter(f"{name}.delivered")
        self.fault_drops = Counter(f"{name}.fault_drops")
        self.busy_ps = 0
        # One label for the link's lifetime: send() schedules an event
        # per packet and must not allocate a fresh f-string each time.
        self._event_label = f"link:{name}"
        # Fast-lane state: eager delivery straight into a telemetry
        # sink, and pre-serialised future sends from chunked sources.
        self._eager_fn: Optional[Callable[[Packet, int], None]] = None
        self._eager_guard: Callable[[], bool] = _always
        self._unreliable = False
        self._committed_until = 0

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Set (or replace) the arrival sink."""
        self._sink = sink

    # -- fast-lane wiring ---------------------------------------------------------

    def set_eager_sink(self, fn: Callable[[Packet, int], None],
                       guard: Callable[[], bool] = None) -> None:
        """Deliver eagerly through ``fn(packet, arrival_ps)``.

        Valid only when the link's sink is a pure telemetry endpoint
        (nothing downstream reads simulator state at delivery time): the
        link then skips the per-packet delivery event and hands the
        packet over at *send* time together with its exact arrival
        instant.  ``guard`` is re-checked per packet; when it returns
        False (e.g. a delivery hook was installed) the link falls back
        to the event path.
        """
        self._eager_fn = fn
        self._eager_guard = guard if guard is not None else _always

    def clear_eager_sink(self) -> None:
        """Return to per-packet delivery events (instrumentation hook).

        Diagnostic wrappers that re-point :meth:`connect` (e.g. the
        path tracer) need every delivery to flow through the sink at
        true arrival time; clearing the eager sink restores that.
        """
        self._eager_fn = None
        self._eager_guard = _always

    def mark_unreliable(self) -> None:
        """Declare that a fault injector may take this link down.

        Future-committing fast paths (:meth:`send_presend`,
        :meth:`send_at`) are disabled: they could otherwise commit
        transmissions the fault would have dropped.
        """
        self._unreliable = True

    def can_presend(self) -> bool:
        """True when committing future sends on this link is exact."""
        return not self._unreliable and self._down_until == 0

    def send(self, packet: Packet) -> int:
        """Queue ``packet`` for transmission; returns its arrival time.

        The link has no internal buffer limit: back-pressure is the
        caller's job (hosts and switch logic gate what they hand to the
        wire).  Serialisation slots never overlap.
        """
        if self._sink is None:
            raise ConfigurationError(f"link {self.name} has no sink connected")
        if self.sim.now < self._down_until:
            # The wire is dark (fault injection): the frame is lost at
            # the transmitter, as a real PHY-down event would lose it.
            self.fault_drops.add(1, packet.size)
            return self._down_until
        if self.accepted.enabled:
            self.accepted.add(1, packet.size)
        start = max(self.sim.now, self._free_at)
        tx_ps = frame_tx_time_ps(packet.size, self.rate_bps)
        self._free_at = start + tx_ps
        self.busy_ps += tx_ps
        arrival = self._free_at + self.propagation_ps
        if self._eager_fn is not None:
            horizon = self.sim.run_until
            if (horizon is not None and arrival <= horizon
                    and self._eager_guard()):
                # Telemetry-sink fast lane: the arrival is fully
                # determined now, so the delivery event is pure
                # overhead.  (Past the horizon the event would never
                # have fired; scheduling it keeps that exact.)
                if self.delivered.enabled:
                    self.delivered.add(1, packet.size)
                self._eager_fn(packet, arrival)
                return arrival
        sink = self._sink

        def deliver() -> None:
            if self.delivered.enabled:
                self.delivered.add(1, packet.size)
            sink(packet)

        self.sim.at(arrival, deliver, label=self._event_label)
        return arrival

    def send_at(self, packet: Packet, when: int) -> int:
        """Commit a send known to happen at future time ``when``.

        Exactly :meth:`send` as-if called at ``when``, evaluated early.
        Caller contract (checked): the link is reliable (no fault
        injector armed), ``when`` is within the current run horizon,
        and every earlier send on this link has already been committed
        (callers hand the link monotonically non-decreasing times).
        """
        if self._unreliable or self.sim.now < self._down_until:
            raise SimulationError(
                f"link {self.name}: send_at on an unreliable link")
        if self._sink is None:
            raise ConfigurationError(f"link {self.name} has no sink connected")
        if when > self._committed_until:
            self._committed_until = when
        if self.accepted.enabled:
            self.accepted.add(1, packet.size)
        start = max(when, self._free_at)
        tx_ps = frame_tx_time_ps(packet.size, self.rate_bps)
        self._free_at = start + tx_ps
        self.busy_ps += tx_ps
        arrival = self._free_at + self.propagation_ps
        if self._eager_fn is not None:
            horizon = self.sim.run_until
            if (horizon is not None and arrival <= horizon
                    and self._eager_guard()):
                if self.delivered.enabled:
                    self.delivered.add(1, packet.size)
                self._eager_fn(packet, arrival)
                return arrival
        self.sim.at(arrival, partial(self._deliver_one, packet),
                    label=self._event_label)
        return arrival

    def send_presend(self, packets: List[Packet], times: List[int]) -> None:
        """Commit a chunk of future sends (``times`` ascending, >= now).

        Serialisation is computed for the whole chunk at once —
        ``start_i = max(t_i, free_{i-1})`` evaluated as a prefix-max
        over int64 arrays — and one arrival event is scheduled per
        packet (the ingress consumes packets at exact arrival instants;
        only the per-packet *source* event is gone).  Counters update
        in bulk.
        """
        if self._unreliable or self._down_until > 0:
            raise SimulationError(
                f"link {self.name}: presend on an unreliable link")
        if self._sink is None:
            raise ConfigurationError(f"link {self.name} has no sink connected")
        n = len(packets)
        if n == 0:
            return
        self._committed_until = max(self._committed_until, times[-1])
        sizes = [p.size for p in packets]
        total = sum(sizes)
        if self.accepted.enabled:
            self.accepted.add(n, total)
        first_size = sizes[0]
        if n >= 8 and sizes.count(first_size) == n:
            # Constant frame size: f_i = max(t_i, f_{i-1}) + tx has the
            # closed form f_i = (i+1)*tx + running_max(t_i - i*tx).
            tx_ps = frame_tx_time_ps(first_size, self.rate_bps)
            t_arr = np.asarray(times, dtype=np.int64)
            offsets = np.arange(n, dtype=np.int64) * tx_ps
            slack = np.maximum.accumulate(t_arr - offsets)
            np.maximum(slack, self._free_at, out=slack)
            frees = slack + offsets + tx_ps
            self._free_at = int(frees[-1])
            self.busy_ps += n * tx_ps
            arrivals = (frees + self.propagation_ps).tolist()
        else:
            free = self._free_at
            rate = self.rate_bps
            busy = 0
            arrivals = []
            for size, t in zip(sizes, times):
                start = t if t > free else free
                tx_ps = frame_tx_time_ps(size, rate)
                free = start + tx_ps
                busy += tx_ps
                arrivals.append(free + self.propagation_ps)
            self._free_at = free
            self.busy_ps += busy
        if self._eager_fn is not None:
            horizon = self.sim.run_until
            if horizon is not None and self._eager_guard():
                eager = self._eager_fn
                delivered = 0
                dbytes = 0
                for packet, arrival in zip(packets, arrivals):
                    if arrival <= horizon:
                        delivered += 1
                        dbytes += packet.size
                        eager(packet, arrival)
                    else:
                        # Beyond the horizon the delivery event would
                        # never have fired; schedule it so that stays
                        # exact under any later run extension.
                        self.sim.at(arrival,
                                    partial(self._deliver_one, packet),
                                    label=self._event_label)
                if self.delivered.enabled:
                    self.delivered.add(delivered, dbytes)
                return
        at = self.sim.at
        deliver = self._deliver_one
        label = self._event_label
        for packet, arrival in zip(packets, arrivals):
            at(arrival, partial(deliver, packet), label=label)

    def _deliver_one(self, packet: Packet) -> None:
        if self.delivered.enabled:
            self.delivered.add(1, packet.size)
        self._sink(packet)

    @property
    def free_at(self) -> int:
        """Earliest time the wire is idle again (== now when idle)."""
        return max(self._free_at, self.sim.now)

    @property
    def in_flight(self) -> int:
        """Packets accepted but not yet delivered (queued or on wire)."""
        return self.accepted.count - self.delivered.count

    def fail_until(self, up_at_ps: int) -> None:
        """Take the link down until ``up_at_ps`` (fault injection).

        Frames offered while down are dropped and counted in
        :attr:`fault_drops`.  Repeated calls extend the outage.

        Injectors are expected to :meth:`mark_unreliable` the link at
        arm time; failing a link that already committed future sends
        through the fast lane cannot be made consistent retroactively,
        so it raises instead of silently diverging.
        """
        if self.sim.now < self._committed_until:
            raise SimulationError(
                f"link {self.name}: fail_until at {self.sim.now}ps but "
                f"future sends are committed through "
                f"{self._committed_until}ps; call mark_unreliable() "
                "before the run (fault injectors do) so the fast lane "
                "stays off this link")
        self._unreliable = True
        self._down_until = max(self._down_until, up_at_ps)

    @property
    def is_down(self) -> bool:
        """True while a fault outage is in effect."""
        return self.sim.now < self._down_until

    def utilisation(self, since_ps: int = 0) -> float:
        """Fraction of wall time the wire was busy since ``since_ps``."""
        window = self.sim.now - since_ps
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_ps / window)


def _always() -> bool:
    return True


__all__ = ["Link"]
