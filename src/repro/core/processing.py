"""Processing logic: classification, VOQs, requests, grant-driven dequeue.

Figure 2, left block.  "Incoming packets from hosts H1..Hn are sent to
the processing logic.  There, packets are classified into flows based on
configurable look-up rules and [placed] into their respective Virtual
Output Queue.  As the status of a VOQ changes, the subsystem generates
scheduling requests and transmits packets upon receiving transmission
grants from the scheduling logic."

Two operating modes mirror Figure 1:

* **switch-buffered** (fast scheduling) — packets land in VOQs here and
  leave on grants;
* **host-buffered** (slow scheduling) — hosts release packets only
  inside granted windows, so this block is a classify-and-forward
  pass-through toward the OCS (the switch has no memory to hold them;
  that is the premise of the slow regime).

Grant execution drains each granted VOQ at line rate into the OCS for
the duration of the window; packets that would overrun the window stay
queued.  Residue the scheduler assigned to the electrical path is moved
to the EPS on request (:meth:`ProcessingLogic.divert_to_eps`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.core.messages import Grant, Request
from repro.net.classifier import FlowClassifier
from repro.net.host import HostBufferMode
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.time import frame_tx_time_ps
from repro.sim.trace import Counter
from repro.switches.voq import VoqBank

#: Longest single batched drain run; bounds per-event work and the
#: chunk of future state committed at once.
_DRAIN_RUN_CAP = 512


class ProcessingLogic:
    """The ingress block of the hybrid switch.

    Parameters
    ----------
    sim, n_ports:
        Simulator and radix.
    port_rate_bps:
        Dequeue (fabric injection) rate per input port.
    mode:
        Buffering regime (see module docstring).
    classifier:
        Look-up rule table (a default-only table when None).
    voq_capacity_bytes:
        Per-VOQ cap (None = unbounded).
    ocs_sink / eps_sink:
        Where dequeued packets go; wired by the framework to the
        switching logic.
    on_request:
        Callback receiving each generated :class:`Request`.
    on_observe:
        Callback receiving ``(src, dst, nbytes)`` for every packet
        entering the VOQ path — the packet-stream tap a sketch-based
        demand estimator counts from.
    """

    def __init__(self, sim: Simulator, n_ports: int,
                 port_rate_bps: float,
                 mode: HostBufferMode = HostBufferMode.SWITCH_BUFFERED,
                 classifier: Optional[FlowClassifier] = None,
                 voq_capacity_bytes: Optional[int] = None,
                 ocs_sink: Optional[Callable[[Packet], None]] = None,
                 eps_sink: Optional[Callable[[Packet], None]] = None,
                 on_request: Optional[Callable[[Request], None]] = None,
                 on_observe: Optional[
                     Callable[[int, int, int], None]] = None,
                 ) -> None:
        self.sim = sim
        self.n_ports = n_ports
        self.port_rate_bps = port_rate_bps
        self.mode = mode
        self.classifier = classifier or FlowClassifier()
        self.ocs_sink = ocs_sink or _unwired
        self.eps_sink = eps_sink or _unwired
        self.on_request = on_request
        self.on_observe = on_observe
        self.voqs = VoqBank(sim, n_ports,
                            capacity_bytes=voq_capacity_bytes,
                            on_status_change=self._voq_changed)
        # Per-input active grant window: dst and window open/close times.
        self._window_dst: List[Optional[int]] = [None] * n_ports
        self._window_start: List[int] = [0] * n_ports
        self._window_end: List[int] = [0] * n_ports
        self._draining: List[bool] = [False] * n_ports
        self.requests_generated = Counter("processing.requests")
        self.classified_drops = Counter("processing.classified_drops")
        self.to_eps = Counter("processing.to_eps")
        self.to_ocs = Counter("processing.to_ocs")
        # Event labels precomputed per port: the drain loop schedules
        # one event per injected packet and must not build an f-string
        # for each.
        self._drain_labels = [f"drain[{src}]" for src in range(n_ports)]
        self._grant_labels = [f"grant.open[{src}]" for src in range(n_ports)]
        # Batched-drain fast lane (see enable_drain_batching).
        self._batch_inject: Optional[
            Callable[[List[Packet], List[int]], bool]] = None
        self._batch_gate: Optional[Callable[[int], bool]] = None

    # -- fast-lane wiring --------------------------------------------------------

    def enable_drain_batching(
            self,
            inject: Callable[[List[Packet], List[int]], bool],
            gate: Callable[[int], bool]) -> None:
        """Arm the batched drain: one event per drain run, not per packet.

        Within one open grant window the per-packet drain chain is a
        deterministic schedule: injection instants depend only on the
        head packets' sizes and the window edge, and nothing else may
        reconfigure the circuit or interleave on the egress wire while
        the fast lane's preconditions hold.  ``inject(packets, times)``
        commits a whole run into the fabric (the framework passes the
        switching logic's batched OCS entry); ``gate(dst)`` re-checks
        the dynamic preconditions per run (EPS quiescent, OCS stable,
        egress link reliable, bounded run).  Static preconditions —
        default classifier, no request listener, no queue hook — are
        checked here per run as well; any failure falls back to the
        per-packet reference path mid-window, packet for packet.
        """
        self._batch_inject = inject
        self._batch_gate = gate

    def disable_drain_batching(self) -> None:
        """Return to the per-packet drain (instrumentation hook)."""
        self._batch_inject = None
        self._batch_gate = None

    # -- ingress ---------------------------------------------------------------

    def ingress(self, packet: Packet) -> None:
        """Accept one packet from an uplink."""
        if not self.classifier.is_default:
            decision = self.classifier.classify(packet)
            if decision.action == "drop":
                self.classified_drops.add(1, packet.size)
                return
            if decision.action == "eps":
                if self.to_eps.enabled:
                    self.to_eps.add(1, packet.size)
                self.eps_sink(packet)
                return
            if decision.dst != packet.dst:
                packet.dst = decision.dst
        if self.on_observe is not None:
            self.on_observe(packet.src, packet.dst, packet.size)
        if self.mode is HostBufferMode.HOST_BUFFERED:
            # The host released this packet against a grant; the switch
            # has no buffering for it — straight into the fabric.
            if self.to_ocs.enabled:
                self.to_ocs.add(1, packet.size)
            self.ocs_sink(packet)
            return
        self.voqs.enqueue(packet)

    # -- demand view --------------------------------------------------------------

    def demand_bytes(self) -> np.ndarray:
        """Current VOQ occupancy matrix (the true demand)."""
        return self.voqs.demand_bytes()

    # -- grant execution -------------------------------------------------------------

    def apply_grant(self, grant: Grant) -> None:
        """Open the grant's transmission windows and start draining.

        A new grant for an input supersedes any previous window (the
        OCS has been reconfigured; the old circuit no longer exists).
        """
        if grant.matching.n != self.n_ports:
            raise ConfigurationError(
                f"grant matching is {grant.matching.n}-port, switch is "
                f"{self.n_ports}")
        for src, dst in grant.matching.pairs():
            self._window_dst[src] = dst
            self._window_start[src] = grant.start_ps
            self._window_end[src] = grant.end_ps

            def start(src_port: int = src) -> None:
                self._try_drain(src_port)

            if grant.start_ps <= self.sim.now:
                start()
            else:
                self.sim.at(grant.start_ps, start,
                            label=self._grant_labels[src])

    def close_windows(self) -> None:
        """Force-close every window (e.g. before an early reconfigure)."""
        for src in range(self.n_ports):
            self._window_dst[src] = None

    def divert_to_eps(self, residue_bytes: np.ndarray) -> int:
        """Move up to ``residue_bytes[i, j]`` from VOQ (i, j) to the EPS.

        Returns the number of bytes diverted.  Models the ToR-internal
        handoff of scheduler-designated residual traffic onto the
        electrical path; the EPS's own queues then pace it out.
        """
        diverted = 0
        src_idx, dst_idx = np.nonzero(residue_bytes > 0)
        for src, dst in zip(src_idx.tolist(), dst_idx.tolist()):
            if src == dst:
                continue
            budget = float(residue_bytes[src, dst])
            while budget > 0 and not self.voqs.is_empty(src, dst):
                head = self.voqs.head(src, dst)
                assert head is not None
                if head.size > budget:
                    break
                packet = self.voqs.dequeue(src, dst)
                budget -= packet.size
                diverted += packet.size
                if self.to_eps.enabled:
                    self.to_eps.add(1, packet.size)
                self.eps_sink(packet)
        return diverted

    # -- internals ------------------------------------------------------

    def _voq_changed(self, src: int, dst: int, queued_bytes: int) -> None:
        """Status-change hook: emit a request, resume draining."""
        if self.requests_generated.enabled:
            self.requests_generated.add(1)
        if self.on_request is not None:
            # Construct lazily: with no listener the Request object
            # would be allocated twice per packet just to be dropped.
            self.on_request(Request(src, dst, queued_bytes, self.sim.now))
        # A packet may have arrived inside an *open* window for this
        # pair; windows registered for a future start (the OCS is still
        # reconfiguring) must wait for their start event.
        if (queued_bytes > 0 and self._window_dst[src] == dst
                and self._window_start[src] <= self.sim.now
                and not self._draining[src]):
            self._try_drain(src)

    def _try_drain(self, src: int) -> None:
        """Drain VOQ (src, window dst) while the window stays open."""
        if self._draining[src]:
            return
        dst = self._window_dst[src]
        if dst is None:
            return
        self._draining[src] = True
        self._drain_step(src)

    def _drain_step(self, src: int) -> None:
        dst = self._window_dst[src]
        if (dst is None or self.sim.now >= self._window_end[src]
                or self.sim.now < self._window_start[src]):
            self._draining[src] = False
            return
        queued = self.voqs._packet_rows[src][dst]
        if not queued:
            self._draining[src] = False
            return
        if (self._batch_inject is not None
                and queued > 1
                and self.on_request is None
                and self.classifier.is_default
                and self._batch_gate(dst)
                and self._drain_run(src, dst)):
            return
        head = self.voqs.head(src, dst)
        assert head is not None
        tx_ps = frame_tx_time_ps(head.size, self.port_rate_bps)
        if self.sim.now + tx_ps >= self._window_end[src]:
            # Would land on or past the window edge, where the next
            # reconfiguration may already be in progress; wait for the
            # next grant.
            self._draining[src] = False
            return
        packet = self.voqs.dequeue(src, dst)
        if self.to_ocs.enabled:
            self.to_ocs.add(1, packet.size)

        def injected() -> None:
            self.ocs_sink(packet)
            self._drain_step(src)

        self.sim.schedule(tx_ps, injected, label=self._drain_labels[src])

    def _drain_run(self, src: int, dst: int) -> bool:
        """Batch one drain run; False to fall back to the per-packet path.

        Replays exactly the per-packet chain's schedule: packet ``i``
        is dequeued at ``t_i`` and injected at ``t_i + tx_i``, with
        ``t_0 = now`` and ``t_{i+1} = t_i + tx_i``, stopping at the
        packet whose serialisation would touch the window edge.  The
        run horizon-clips the way never-fired events would have: a
        packet is dequeued only if ``t_i`` is within the run bound, and
        injected only if its injection instant is.  One continuation
        event at the end of the run re-enters :meth:`_drain_step`,
        which handles the window-close / queue-empty terminals and any
        packets that arrived meanwhile.
        """
        queue = self.voqs.queue(src, dst)
        if queue.on_change is not None:
            return False
        horizon = self.sim.run_until
        window_end = self._window_end[src]
        rate = self.port_rate_bps
        times: List[int] = []
        inject_times: List[int] = []
        t = self.sim.now
        for packet in queue._queue:
            tx_ps = frame_tx_time_ps(packet.size, rate)
            if t + tx_ps >= window_end or t > horizon:
                break
            times.append(t)
            t += tx_ps
            if t <= horizon:
                inject_times.append(t)
            if len(times) == _DRAIN_RUN_CAP:
                break
        if len(times) < 2:
            return False
        packets = self.voqs.dequeue_run(src, dst, times)
        if self.to_ocs.enabled:
            nbytes = 0
            for packet in packets:
                nbytes += packet.size
            self.to_ocs.add(len(packets), nbytes)
        if inject_times:
            self._batch_inject(packets[:len(inject_times)], inject_times)
        self.sim.at(t, partial(self._drain_step, src),
                    label=self._drain_labels[src])
        return True


def _unwired(packet: Packet) -> None:
    raise ConfigurationError(
        f"processing logic sink not wired (packet {packet.packet_id})")


__all__ = ["ProcessingLogic"]
