"""Optical Circuit Switch model.

The OCS is a crossbar of light paths: once configured with a (partial)
permutation it forwards at line rate with essentially zero added latency
(light in, light out — only propagation).  Its defining cost is the
**reconfiguration blackout**: "during the switching time ... no packets
can be sent through the switch and hence need to be buffered" (§2).

The switching time is the paper's central swept parameter — from
milliseconds (3D-MEMS, c-Through/Helios era) through microseconds
(Mordia-class) down to nanoseconds (the PLZT switch the paper cites).

Model contract
--------------

* :meth:`configure` starts a blackout of ``switching_time_ps``; the new
  circuits carry traffic only after it ends.  Packets arriving during a
  blackout, or at an input whose circuit does not lead to their
  destination, are *dark drops* — a real OCS would misdeliver or lose
  them.  The framework's processing logic is responsible for never
  letting that happen (that is exactly the synchronisation problem the
  paper describes); the drop counters exist to expose protocol bugs and
  to measure the cost of clock skew in E8.
* Transit delay through the configured crossbar is ``transit_ps``
  (pure propagation, default 10 ns).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import Packet
from repro.schedulers.matching import Matching
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.time import NANOSECONDS
from repro.sim.trace import Counter


class OpticalCircuitSwitch:
    """Circuit crossbar with reconfiguration blackout.

    Parameters
    ----------
    sim, n_ports:
        Simulator and port count.
    switching_time_ps:
        Blackout duration for every reconfiguration.
    transit_ps:
        Propagation through the device once circuits are up.
    output_sinks:
        ``output_sinks[j]`` receives packets leaving output j; the
        framework connects these to the egress downlinks.
    """

    def __init__(self, sim: Simulator, n_ports: int,
                 switching_time_ps: int,
                 transit_ps: int = 10 * NANOSECONDS,
                 output_sinks: Optional[
                     List[Callable[[Packet], None]]] = None) -> None:
        if n_ports < 2:
            raise ConfigurationError(f"OCS needs >= 2 ports, got {n_ports}")
        if switching_time_ps < 0:
            raise ConfigurationError("switching time must be >= 0")
        self.sim = sim
        self.n_ports = n_ports
        self.switching_time_ps = switching_time_ps
        self.transit_ps = transit_ps
        self._sinks = output_sinks or [_unconnected] * n_ports
        self._circuits = Matching.empty(n_ports)
        self._dark_until = 0
        self._pending: Optional[Matching] = None
        # Eager transit (fast lane): commit the egress-link send at
        # receive time instead of scheduling a per-packet transit event.
        self._eager_links = None
        self._eager_guard: Optional[Callable[[int], bool]] = None
        #: Set by injectors that may reconfigure the device at
        #: arbitrary instants; disables future-committing fast paths.
        self.unstable = False
        self._committed_until = 0
        self.reconfigurations = 0
        self.forwarded = Counter("ocs.forwarded")
        self.dark_drops = Counter("ocs.dark_drops")
        self.misdirected_drops = Counter("ocs.misdirected_drops")
        #: Total picoseconds spent dark (for duty-cycle accounting).
        self.blackout_ps = 0

    def connect_output(self, port: int, sink: Callable[[Packet], None]) -> None:
        """Attach the consumer of output ``port``."""
        if self._sinks is None or len(self._sinks) != self.n_ports:
            self._sinks = [_unconnected] * self.n_ports
        self._sinks[port] = sink

    def enable_eager_transit(self, links,
                             guard: Callable[[int], bool]) -> None:
        """Commit egress sends at receive time when provably exact.

        ``links[j]`` must be the egress :class:`~repro.net.link.Link`
        behind output ``j``'s sink.  The transit stage is a pure fixed
        delay, so the send at ``now + transit_ps`` can be applied early
        via :meth:`Link.send_at` — *provided* no other sender can slip
        onto the same link inside the transit window.  ``guard(j)``
        answers that per packet (the framework passes "the EPS is not
        draining output ``j``"; any EPS send it could newly originate
        is at least a pipeline + serialisation away, which exceeds the
        transit window).  Unreliable links and unbounded runs fall back
        to the event path.
        """
        self._eager_links = list(links)
        self._eager_guard = guard

    def mark_unstable(self) -> None:
        """Declare that reconfigurations may arrive at arbitrary times.

        Future-committing fast paths (batched injection, and their
        assumption that circuits hold for a whole grant window) must
        stay off such a device.  Fault injectors that corrupt the
        configuration call this at arm time.
        """
        self.unstable = True

    # -- control plane ----------------------------------------------------------

    def configure(self, matching: Matching) -> int:
        """Begin reconfiguring to ``matching``; returns ready time.

        The blackout starts immediately: circuits drop *now* and the new
        matching is live at ``now + switching_time_ps``.  Re-configuring
        while a previous blackout is still in progress restarts the
        blackout (the device can only slew to one target at a time).

        A zero switching time applies instantaneously — the idealised
        fast path of Figure 1.
        """
        if matching.n != self.n_ports:
            raise ConfigurationError(
                f"matching is {matching.n}-port, switch is {self.n_ports}")
        if self.sim.now < self._committed_until:
            raise SimulationError(
                f"OCS reconfigured at {self.sim.now}ps while batched "
                f"injections are committed through "
                f"{self._committed_until}ps; call mark_unstable() "
                "before the run (fault injectors do) so the fast lane "
                "stays off this device")
        self.reconfigurations += 1
        if self.switching_time_ps == 0:
            self._circuits = matching
            return self.sim.now
        self.blackout_ps += max(
            0, self.sim.now + self.switching_time_ps - max(self.sim.now,
                                                           self._dark_until))
        self._dark_until = self.sim.now + self.switching_time_ps
        self._pending = matching
        ready_at = self._dark_until

        def commit() -> None:
            # A later configure() may have superseded this one.
            if self._pending is matching and self.sim.now >= self._dark_until:
                self._circuits = matching
                self._pending = None

        self.sim.at(ready_at, commit, label="ocs.commit")
        return ready_at

    @property
    def is_dark(self) -> bool:
        """True while a reconfiguration blackout is in progress."""
        return self.sim.now < self._dark_until

    @property
    def circuits(self) -> Matching:
        """The currently live matching (empty during first blackout)."""
        return self._circuits

    def circuit_for(self, input_port: int) -> Optional[int]:
        """Live output for ``input_port`` or None (dark or unmatched)."""
        if self.is_dark:
            return None
        return self._circuits.output_for(input_port)

    # -- data plane ------------------------------------------------------------------

    def receive(self, packet: Packet, input_port: Optional[int] = None) -> bool:
        """Accept a packet at an input port; returns True if forwarded.

        The packet rides the live circuit from ``input_port`` (default:
        ``packet.src``).  Dark switch → dark drop.  Circuit leading to a
        different output than ``packet.dst`` → misdirected drop.
        """
        port = packet.src if input_port is None else input_port
        if self.is_dark:
            self.dark_drops.add(1, packet.size)
            return False
        out = self._circuits.output_for(port)
        if out is None:
            self.dark_drops.add(1, packet.size)
            return False
        if out != packet.dst:
            self.misdirected_drops.add(1, packet.size)
            return False
        if self.forwarded.enabled:
            self.forwarded.add(1, packet.size)
        packet.via = "ocs"
        if self._eager_links is not None:
            when = self.sim.now + self.transit_ps
            horizon = self.sim.run_until
            link = self._eager_links[out]
            if (horizon is not None and when <= horizon
                    and link.can_presend() and self._eager_guard(out)):
                link.send_at(packet, when)
                return True
        sink = self._sinks[out]
        self.sim.schedule(self.transit_ps, lambda: sink(packet),
                          label="ocs.transit")
        return True

    def receive_batch(self, packets: List[Packet],
                      times: List[int]) -> bool:
        """Accept a drain run of same-(src, dst) packets at ``times``.

        Exactly :meth:`receive` applied at each injection instant,
        evaluated at the first.  Caller contract (the batched drain):
        the device is stable (no reconfiguration can land inside an
        open grant window — enforced by :meth:`configure`'s committed
        guard), not dark at any of the times (windows open at
        OCS-ready), and eager transit is armed with the egress link
        reliable.  Under that contract the circuit decision is uniform
        across the run, so it is taken once and the egress sends are
        committed in one pass.
        """
        first = packets[0]
        if self.sim.now < self._dark_until or self.unstable:
            raise SimulationError(
                "OCS receive_batch outside its stability contract")
        count = len(packets)
        nbytes = 0
        for packet in packets:
            nbytes += packet.size
        out = self._circuits.output_for(first.src)
        if out is None:
            self.dark_drops.add(count, nbytes)
            return False
        if out != first.dst:
            self.misdirected_drops.add(count, nbytes)
            return False
        if self.forwarded.enabled:
            self.forwarded.add(count, nbytes)
        link = self._eager_links[out]
        transit = self.transit_ps
        # Only the *injections* depend on circuit state; a transit
        # already in flight survives a reconfiguration on the
        # reference path too, so the commitment ends at the last
        # injection instant — a configure() exactly at the window edge
        # (the scheduler's next slot) must stay legal.
        if times[-1] > self._committed_until:
            self._committed_until = times[-1]
        for packet in packets:
            packet.via = "ocs"
        link.send_presend(packets, [t + transit for t in times])
        return True


def _unconnected(packet: Packet) -> None:
    raise ConfigurationError(
        f"OCS output for packet {packet.packet_id} is not connected")


__all__ = ["OpticalCircuitSwitch"]
