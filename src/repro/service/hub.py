"""The sweep hub's policy with no I/O: :class:`HubCore`.

:class:`~repro.service.daemon.ReproDaemon` moves bytes; this module
decides what they say.  The core owns every piece of hub state — the
job table and its queue, live and flapping workers, standby peers,
the quarantine and its failure strikes, :class:`DaemonStats` and the
drain flag — behind one synchronous call, :meth:`HubCore.handle`,
which takes an event and the current time and returns the effects the
shell must carry out, in order.  That is the sans-IO pattern
(https://sans-io.readthedocs.io/): the core never reads a clock, a
socket or a thread, and the only outside object it touches is the
:class:`~repro.runner.cache.ResultCache` it is handed, so a test can
drive it with a fake clock and an in-memory cache
(``tests/test_hub_core.py``).

Events: :class:`Opened`, :class:`Received` (one decoded frame — hello,
submit, cancel, stats, shutdown, register, upload, cache-lookup,
cache-push, heartbeat or peer), :class:`Closed` (a disconnect),
:class:`Tick`, :class:`Shutdown`, :class:`Replayed` (the journal's
debt at start-up), :class:`LocalOutcome` and :class:`LocalDone`.
Effects: :class:`Send`, :class:`Append` (a journal record),
:class:`StartLocal`, :class:`Close` and :class:`Log`.

The policy:

* **Cross-client dedup** — submissions are coalesced *in flight*: a
  spec already queued or executing is never queued twice, it just
  gains a subscriber, and the single result is fanned out to every
  subscriber when it settles.  Two clients racing the same sweep cost
  one execution.
* **The lease scheduler** — every event ends in one dispatch pass:
  queued specs are leased to whichever executor (the local
  ``JobRunner`` or a registered worker) has free credits, bounded per
  worker by a credit window of ``CREDIT_FACTOR × jobs``.  Work
  stealing falls out, because a fast worker frees credits sooner and
  keeps winning leases.
* **Fleet fault tolerance** — a worker whose connection drops, or
  whose heartbeats stop for longer than the lease timeout (the
  partition case, reaped on :class:`Tick`), is expelled and its
  in-flight leases go back to the front of the queue.  The submitting
  client never sees a gap, only a result that took one re-execution
  longer.
* **Reconnect-without-requeue** — workers carry a stable ``uid``.  A
  dropped *connection* parks the worker's leases instead of requeueing
  them; the same uid re-registering within the lease timeout reclaims
  them, so a network flap costs zero re-executions.  The reaper
  distinguishes "flapping" (parked) from "gone" (deadline passed,
  leases requeued).
* **Crash recovery** — every accepted spec is journaled (an
  :class:`Append` effect, before the spec is queued) and retired when
  it settles.  :class:`Replayed` feeds a previous life's debt back in:
  unsettled specs re-enter the queue, warm ones settle straight from
  the cache, and reconnecting clients resubmit into coalescence.
* **Fleet cache transport** — workers ask the hub's cache before
  executing (``cache-lookup``: the core settles warm keys itself) and
  ship results hub-ward (``upload``/``cache-push``), so a flapped
  worker's finished work is never re-run.
* **Quarantine and admission control** — a spec that fails the same
  way twice is quarantined (journaled, reported once, never leased
  again); submits past ``max_queue`` get a ``busy`` frame, and a
  nearly-full cache volume refuses new work with ``cache-full``.
* **Graceful drain** — :class:`Shutdown` (or a ``shutdown`` frame)
  stops accepting work; :attr:`HubCore.finished` turns true once
  everything in flight has settled and streamed.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.experiments.base import ExperimentReport
from repro.runner.cache import (
    ResultCache,
    free_disk_bytes,
    report_from_payload,
    report_to_payload,
)
from repro.runner.executor import RunOutcome, credit_window
from repro.runner.governance import FAIL_ERROR, FAIL_QUARANTINED
from repro.runner.spec import RunSpec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_frame,
    sync_digest,
)
from repro.service.session import Session, Submission
from repro.sim.errors import ConfigurationError

#: The ``settled`` error of a queued job every subscriber cancelled.
DROPPED = "dropped: every subscriber cancelled"

#: What a spec payload that does not decode raises.
_BAD_SPEC = (ConfigurationError, KeyError, TypeError, AttributeError)


@dataclass
class DaemonStats:
    """Daemon-lifetime counters (the ``stats`` frame's payload)."""

    submitted: int = 0      # spec payloads accepted across all SUBMITs
    executed: int = 0       # jobs that actually ran (any executor)
    cache_hits: int = 0     # jobs answered straight from the cache
    coalesced: int = 0      # subscriptions merged onto an in-flight job
    failed: int = 0         # jobs surfacing a worker-crash error
    dropped: int = 0        # queued jobs abandoned by all subscribers
    results_streamed: int = 0
    sessions_opened: int = 0
    protocol_errors: int = 0
    remote_executed: int = 0       # of `executed`, ran on a remote worker
    remote_failed: int = 0         # of `failed`, failed on a remote worker
    workers_registered: int = 0    # register handshakes accepted, ever
    workers_lost: int = 0          # workers expelled dirty (leases/timeout)
    leases_reassigned: int = 0     # specs requeued off a lost worker
    workers_flapped: int = 0       # connections lost with leases parked
    workers_reconnected: int = 0   # re-registers that reclaimed a parked id
    leases_reclaimed: int = 0      # leases handed back on reconnect
    cache_lookup_hits: int = 0     # leased keys settled via cache-lookup
    cache_lookup_misses: int = 0   # leased keys a lookup found cold
    remote_cache_hits: int = 0     # uploads served from a worker's cache
    cache_pushes: int = 0          # out-of-lease results shipped hub-ward
    recovered_jobs: int = 0        # specs re-queued from the journal
    quarantined: int = 0           # poison specs locked out (failed same way twice)
    quarantine_hits: int = 0       # submits answered by a quarantine verdict
    busy_rejections: int = 0       # submits shed by admission control
    disk_refusals: int = 0         # submits refused: cache volume nearly full
    promotions: int = 0            # 1 when this hub rose from a standby
    peers_connected: int = 0       # standby peer handshakes accepted, ever
    sync_records_relayed: int = 0  # journal records relayed to peers

    def payload(self) -> Dict[str, Any]:
        return dict(vars(self))


@dataclass
class _Job:
    """One unique spec somewhere between SUBMIT and its result."""

    spec: RunSpec
    key: str
    #: (submission, index-within-submission) fan-out targets.
    subscribers: List[Tuple[Submission, int]] = field(
        default_factory=list)
    #: The hub cache missed this job once during its current stay in
    #: the queue; nothing but its own settlement can warm it since.
    checked: bool = False
    #: Replayed from the journal after a crash: owed to a client that
    #: has not (yet) reconnected, so it must run even with zero
    #: subscribers instead of being dropped as abandoned.
    recovered: bool = False

    @functools.cached_property
    def canonical(self) -> Dict[str, Any]:
        """The spec's canonical payload, built once for the journal,
        every lease and every snapshot."""
        return self.spec.canonical()


@dataclass
class WorkerState:
    """One registered remote worker, hub side.

    ``leased`` maps spec keys to the in-flight :class:`_Job` records
    this worker currently owes results for; its length against the
    credit window is the whole flow-control state.
    """

    id: int
    session: Session
    name: str
    address: str
    jobs: int
    replica_batch: bool
    version: str
    last_seen: float
    #: Stable identity from the register frame; ``None`` for legacy
    #: workers, which get per-connection identity and no flap parking.
    uid: Optional[str] = None
    #: deadline while parked in ``flapping``; 0 when live.
    flap_deadline: float = 0.0
    #: Worker-requested heartbeat override (``--heartbeat``); 0 means
    #: "derive from the lease timeout".
    heartbeat_s: float = 0.0
    leased: Dict[str, _Job] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0

    @property
    def credit_window(self) -> int:
        return credit_window(self.jobs)

    def stats_row(self, now: float,
                  status: str = "up") -> Dict[str, Any]:
        row = {name: getattr(self, name) for name in (
            "id", "name", "uid", "address", "jobs", "replica_batch",
            "version", "completed", "failed")}
        row.update(status=status, leased=len(self.leased),
                   heartbeat_age_s=round(max(0.0, now - self.last_seen), 3))
        return row


@dataclass
class PeerState:
    """One connected standby hub, primary side.

    Peers are read-mostly: after the ``peer-welcome`` snapshot they
    just receive every journal append (``journal-sync``) plus a
    :class:`Tick`-paced ``sync-ping`` that keeps their read timeout
    fed, so a silent primary reads as a dead primary.
    """

    session: Session
    name: str
    synced: int = 0


# -- events ------------------------------------------------------------------


class Opened(NamedTuple):
    """A connection arrived; its first frame gives it a role."""

    sid: int
    peer: str


class Received(NamedTuple):
    """One decoded frame from connection ``sid``."""

    sid: int
    frame: Dict[str, Any]


class Closed(NamedTuple):
    """Connection ``sid`` ended; ``error`` when its stream broke the
    framing."""

    sid: int
    error: Optional[ProtocolError] = None


class Tick(NamedTuple):
    """The reaper's beat, every quarter of the lease timeout."""


class Shutdown(NamedTuple):
    """Begin the graceful drain (SIGTERM, SIGINT, request_shutdown)."""


class Replayed(NamedTuple):
    """A journal's unsettled specs and quarantine roster, at start-up
    (``--resume`` and standby promotion)."""

    live: Dict[str, dict]
    quarantined: Dict[str, Dict[str, str]]


class LocalOutcome(NamedTuple):
    """One job of the running local batch settled."""

    outcome: RunOutcome


class LocalDone(NamedTuple):
    """The local batch returned; ``error`` when it raised outside any
    job (a job's own exception is an in-band ERROR outcome)."""

    error: Optional[str] = None


# -- effects -----------------------------------------------------------------


class Send(NamedTuple):
    """Write ``frame`` to connection ``sid``, after its earlier frames."""

    sid: int
    frame: Dict[str, Any]


class Append(NamedTuple):
    """Make ``record`` durable in the journal before what follows."""

    record: Dict[str, Any]


class StartLocal(NamedTuple):
    """Run ``specs`` on the local pool; report back with
    :class:`LocalOutcome` per job, then :class:`LocalDone`."""

    specs: List[RunSpec]


class Close(NamedTuple):
    """Close connection ``sid`` once the frames sent to it are out."""

    sid: int


class Log(NamedTuple):
    message: str


def _failed(spec: RunSpec, title: str, error: str,
            kind: str) -> RunOutcome:
    """A failed outcome whose report carries ``error`` as a warning."""
    report = ExperimentReport(experiment_id=spec.experiment_id,
                              title=title, warnings=[error])
    return RunOutcome(spec, report, cached=False, elapsed_s=0.0,
                      error=error, kind=kind)


class HubCore:
    """All hub state and policy behind :meth:`handle`.

    ``cache`` is the shared result cache (``None`` for a cacheless
    hub, which also keeps no journal); the other arguments are the
    daemon's settings of the same names.  ``now`` is the clock reading
    at construction, the origin of ``uptime_s``.
    """

    def __init__(self, *, cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 local_execution: bool = True,
                 lease_timeout_s: float = 30.0,
                 max_submit: int = 4096,
                 max_queue: int = 4096,
                 busy_retry_s: float = 1.0,
                 min_free_mb: int = 64,
                 high_watermark: int = 1024,
                 low_watermark: int = 512,
                 resume: bool = True,
                 governed: bool = False,
                 promoted: bool = False,
                 now: float = 0.0) -> None:
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if busy_retry_s <= 0:
            raise ValueError(
                f"busy_retry_s must be > 0, got {busy_retry_s}")
        if min_free_mb < 0:
            raise ValueError(
                f"min_free_mb must be >= 0, got {min_free_mb}")
        self.cache = cache
        self.jobs = jobs
        self.local_execution = local_execution
        self.lease_timeout_s = lease_timeout_s
        self.max_submit = max_submit
        self.max_queue = max_queue
        self.busy_retry_s = busy_retry_s
        self.min_free_mb = min_free_mb
        self.high_watermark = high_watermark
        self.low_watermark = min(low_watermark, high_watermark)
        self.resume = resume
        self.governed = governed
        self.started = now
        self.stats = DaemonStats(promotions=int(promoted))
        #: every unsettled job, by spec key, and the ones not yet leased.
        self.live: Dict[str, _Job] = {}
        self.queue: Deque[_Job] = collections.deque()
        self.sessions: Dict[int, Session] = {}
        #: registered workers by session id; parked ones by uid.
        self.workers: Dict[int, WorkerState] = {}
        self.flapping: Dict[str, WorkerState] = {}
        self.peers: Dict[int, PeerState] = {}
        #: Poison-job quarantine: key -> {"kind", "error"}.  Specs in
        #: here are never queued or leased again; submits against them
        #: settle immediately with a QUARANTINED verdict.
        self.quarantined: Dict[str, Dict[str, str]] = {}
        #: key -> {kind: consecutive-failure count}; two failures of
        #: the same kind quarantine the key, a success clears it.
        self.failures: Dict[str, Dict[str, int]] = {}
        #: the jobs the local pool is running, ``None`` when it idles.
        self.local_batch: Optional[List[_Job]] = None
        self.draining = False
        self._sync_seq = 0
        self._worker_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._now = now
        self._effects: List[Any] = []
        #: frame handlers per role: the accepted handshake's type, or
        #: ``None`` until a connection's first frame.
        self._handlers = {
            None: {"hello": self._on_hello,
                   "register": self._on_register,
                   "peer": self._on_peer},
            "hello": {"submit": self._on_submit,
                      "cancel": self._on_cancel,
                      "stats": self._on_stats,
                      "shutdown": self._on_shutdown},
            "register": {"heartbeat": self._on_heartbeat,
                         "upload": self._on_upload,
                         "cache-lookup": self._on_cache_lookup,
                         "cache-push": self._on_cache_push},
            "peer": {"heartbeat": self._on_heartbeat},
        }

    # -- the one entry point ---------------------------------------------------

    def handle(self, event: Any, now: float) -> List[Any]:
        """Apply one event at clock reading ``now``; return the
        effects to carry out, in order.

        Every event ends in one dispatch pass (queued work onto free
        credits) and, while draining, the stranded-work check.
        """
        self._now, self._effects = now, []
        session = self.sessions.get(getattr(event, "sid", None))
        if isinstance(event, Received):
            if session is not None:
                try:
                    self._on_frame(session, event.frame)
                except ProtocolError as exc:
                    self._violation(session, exc)
        elif isinstance(event, Closed):
            if session is not None and event.error is not None:
                self._violation(session, event.error)
            elif session is not None:
                self._close(session)
        elif isinstance(event, Opened):
            self.sessions[event.sid] = Session(
                event.sid, event.peer, self.high_watermark,
                self.low_watermark)
            self.stats.sessions_opened += 1
        elif isinstance(event, LocalOutcome):
            self._settle(event.outcome)
        elif isinstance(event, LocalDone):
            batch, self.local_batch = self.local_batch or [], None
            if event.error is not None:
                self._log(f"local batch aborted: {event.error}")
                self._fail(batch, event.error)
        elif isinstance(event, Tick):
            self._reap()
        elif isinstance(event, Shutdown):
            self._on_shutdown()
        elif isinstance(event, Replayed):
            self._recover(event.live, event.quarantined)
        else:
            raise TypeError(f"not a hub event: {event!r}")
        self._dispatch()
        if self.draining:
            self._fail_stranded()
        return self._effects

    @property
    def finished(self) -> bool:
        """Draining, with nothing left queued, running or leased."""
        return (self.draining and not self.queue
                and self.local_batch is None
                and not any(worker.leased for worker in itertools.chain(
                    self.workers.values(), self.flapping.values())))

    def settings(self) -> Dict[str, Any]:
        """The fields the ``serve-ready`` banner and the ``stats``
        frame share."""
        return {
            "jobs": self.jobs,
            "local_execution": self.local_execution,
            "lease_timeout_s": self.lease_timeout_s,
            "max_queue": self.max_queue,
            "governed": self.governed,
            "resume": self.resume,
            "quarantined_keys": len(self.quarantined),
            "version": PROTOCOL_VERSION,
        }

    # -- effects ---------------------------------------------------------------

    def _send(self, session: Session, frame: Dict[str, Any]) -> None:
        if not session.closed:
            self._effects.append(Send(session.id, frame))

    def _log(self, message: str) -> None:
        self._effects.append(Log(message))

    def _journal(self, record: Dict[str, Any]) -> None:
        """Journal ``record``, then relay it to every standby peer, so
        a standby's mirror can only trail ours, never lead it."""
        if self.cache is None:
            return  # no cache, nothing worth replaying into
        self._effects.append(Append(record))
        if not self.peers:
            return
        self._sync_seq += 1
        frame = {
            "type": "journal-sync",
            "seq": self._sync_seq,
            "records": [record],
            "digest": sync_digest([record]),
        }
        for peer in self.peers.values():
            peer.synced += 1
            self._send(peer.session, frame)
        self.stats.sync_records_relayed += 1

    # -- connections -----------------------------------------------------------

    def _on_frame(self, session: Session, frame: Dict[str, Any]) -> None:
        kind = frame["type"]
        worker = self.workers.get(session.id)
        if worker is not None:
            worker.last_seen = self._now
        handler = self._handlers[session.role].get(kind)
        if handler is not None:
            handler(session, frame)
        elif session.role is None:
            raise ProtocolError(
                "bad-handshake",
                f"expected a hello, register or peer frame, got {kind!r}")
        elif kind == session.role != "peer":
            raise ProtocolError("bad-handshake", f"duplicate {kind} frame")
        else:
            where = {"hello": "", "register": " on a worker connection",
                     "peer": " on a peer connection"}[session.role]
            self._send(session, error_frame(
                "unknown-type", f"unknown frame type {kind!r}{where}"))

    @staticmethod
    def _check_version(frame: Dict[str, Any], who: str) -> None:
        version = frame.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "version-mismatch",
                f"{who} speaks protocol {version!r}, "
                f"server speaks {PROTOCOL_VERSION}")

    def _on_hello(self, session: Session, frame: Dict[str, Any]) -> None:
        self._check_version(frame, "client")
        session.role = "hello"
        self._send(session, {
            "type": "welcome",
            "version": PROTOCOL_VERSION,
            "server": "repro-serve",
            "jobs": self.jobs,
            "cache": self.cache is not None,
            "workers": len(self.workers),
        })

    def _close(self, session: Session) -> None:
        """Forget a connection.

        A client's pending subscriptions are void; its executions are
        not interrupted, and their results land in the shared cache,
        which is what makes a resubmit free.  A worker is the inverse:
        the hub owes its *leases* to other clients.  With a uid and
        leases in flight it parks for a reconnect (the flap bet: the
        same uid back within the lease timeout still has those
        executions, and requeueing now would pay for each twice);
        otherwise it is expelled and its leases requeue.
        """
        worker = self.workers.pop(session.id, None)
        if worker is not None and worker.leased and worker.uid:
            worker.flap_deadline = self._now + self.lease_timeout_s
            self.flapping[worker.uid] = worker
            self.stats.workers_flapped += 1
            self._log(f"worker {worker.id} ({worker.name}) connection "
                      f"lost with {len(worker.leased)} lease(s) in "
                      f"flight — parked for reconnect "
                      f"(window {self.lease_timeout_s:.1f}s)")
        elif worker is not None:
            self._expel(worker, "disconnected")
        peer = self.peers.pop(session.id, None)
        if peer is not None:
            self._log(f"standby peer {peer.name} disconnected after "
                      f"{peer.synced} synced record(s)")
        session.closed = True
        del self.sessions[session.id]
        for submission in session.submissions.values():
            submission.cancelled = True
        self._drop_cancelled()
        self._effects.append(Close(session.id))

    def _violation(self, session: Session, exc: ProtocolError) -> None:
        """Answer a protocol violation with its error, then close.

        A violating worker is "gone", not "flapping": its byte stream
        cannot be trusted, so neither can a reclaim.
        """
        worker = self.workers.pop(session.id, None)
        if worker is not None:
            self._expel(worker, "protocol violation")
        self.stats.protocol_errors += 1
        self._log(f"session {session.id}: protocol error "
                  f"[{exc.code}] {exc}")
        self._send(session, error_frame(exc.code, str(exc)))
        self._close(session)

    def _drop_cancelled(self) -> None:
        """Unsubscribe every cancelled submission; the next dispatch
        pass drops queued jobs left with no subscriber."""
        for job in self.live.values():
            job.subscribers = [(submission, index)
                               for submission, index in job.subscribers
                               if not submission.cancelled]

    # -- clients ---------------------------------------------------------------

    def _on_submit(self, session: Session, frame: Dict[str, Any]) -> None:
        submit_id = frame.get("submit_id")
        payloads = frame.get("specs")
        if not isinstance(submit_id, str) or not submit_id:
            self._send(session, error_frame(
                "bad-submit", "submit frame needs a string submit_id"))
            return
        if not isinstance(payloads, list) or not payloads:
            self._send(session, error_frame(
                "bad-submit",
                "submit frame needs a non-empty 'specs' list"))
            return
        if submit_id in session.submissions:
            self._send(session, error_frame(
                "duplicate-submit",
                f"submit_id {submit_id!r} is already live on this "
                "connection"))
            return
        if self.draining:
            self._send(session, error_frame(
                "draining",
                "daemon is shutting down and not accepting new work"))
            return
        if len(payloads) > self.max_submit:
            self._send(session, error_frame(
                "submit-too-large",
                f"{len(payloads)} specs in one submit exceeds the "
                f"cap of {self.max_submit}; split the sweep"))
            return
        try:
            specs = [RunSpec.from_canonical(payload).validate()
                     for payload in payloads]
        except _BAD_SPEC as exc:
            self._send(session, error_frame(
                "bad-spec", f"submit {submit_id!r} rejected: {exc}"))
            return
        if self._disk_nearly_full():
            # Refusing to journal beats corrupting the journal: a full
            # cache volume turns new work away with a typed error the
            # operator can act on (gc or grow the disk).
            self.stats.disk_refusals += 1
            self._send(session, error_frame(
                "cache-full",
                f"cache volume has under {self.min_free_mb}MB free; "
                "refusing to journal new work — run `repro cache gc` "
                "or free disk space"))
            return
        # Admission control: count only keys that would *add* queue
        # depth — resubmits of in-flight work coalesce for free, and
        # quarantined keys settle instantly, so neither is load.
        new_keys = ({spec.key() for spec in specs}
                    - set(self.live) - set(self.quarantined))
        if len(self.live) + len(new_keys) > self.max_queue:
            self.stats.busy_rejections += 1
            self._send(session, {
                "type": "busy",
                "submit_id": submit_id,
                "retry_after_s": self.busy_retry_s,
                "queued": len(self.queue),
                "inflight": len(self.live),
                "max_queue": self.max_queue,
            })
            self._log(f"session {session.id}: shed submit "
                      f"{submit_id!r} ({len(new_keys)} new keys would "
                      f"exceed max_queue={self.max_queue})")
            return
        submission = session.accept(submit_id, len(specs))
        self.stats.submitted += len(specs)
        self._send(session, {
            "type": "accepted",
            "submit_id": submit_id,
            "total": len(specs),
            "keys": [spec.key() for spec in specs],
        })
        for index, spec in enumerate(specs):
            self._enqueue(spec, submission, index)
        self._log(f"session {session.id}: accepted {len(specs)} "
                  f"job(s) as {submit_id!r} "
                  f"({len(self.queue)} unique queued)")

    def _disk_nearly_full(self) -> bool:
        """Whether the cache volume is below the free-space floor."""
        if self.cache is None or self.min_free_mb <= 0:
            return False
        free = free_disk_bytes(self.cache.root)
        return free is not None and free < self.min_free_mb * 1024 * 1024

    def _enqueue(self, spec: RunSpec, submission: Submission,
                 index: int) -> None:
        """Queue one spec, or coalesce onto its in-flight twin."""
        key = spec.key()
        quarantine = self.quarantined.get(key)
        if quarantine is not None:
            # Poison spec: report the recorded verdict immediately,
            # never lease it again — a client retry loop cannot
            # livelock the scheduler with known-bad work.
            # The key was never queued, so nothing is journaled.
            self.stats.quarantine_hits += 1
            self._deliver(
                _Job(spec=spec, key=key, subscribers=[(submission, index)]),
                _failed(spec, "job failed — quarantined",
                        f"{key}: quarantined after failing the same way "
                        f"twice ({quarantine.get('kind', FAIL_ERROR)}: "
                        f"{quarantine.get('error', '')})",
                        FAIL_QUARANTINED))
            return
        job = self.live.get(key)
        if job is not None:
            job.subscribers.append((submission, index))
            self.stats.coalesced += 1
            return
        job = _Job(spec=spec, key=key, subscribers=[(submission, index)])
        # WAL ordering: durable before queued, so a crash between the
        # two can only over-remember (re-run a settled spec — harmless,
        # it's a cache hit) and never under-remember.
        self._journal({"op": "queued", "key": key, "spec": job.canonical})
        self.live[key] = job
        self.queue.append(job)

    def _on_cancel(self, session: Session, frame: Dict[str, Any]) -> None:
        submit_id = frame.get("submit_id")
        submission = session.submissions.get(submit_id) \
            if isinstance(submit_id, str) else None
        if submission is None:
            self._send(session, error_frame(
                "unknown-submit",
                f"no live submission {submit_id!r} on this "
                "connection"))
            return
        submission.cancelled = True
        self._drop_cancelled()
        detached = submission.pending
        session.detach(submission, detached)
        self._send(session, {
            "type": "cancelled",
            "submit_id": submit_id,
            "detached": detached,
        })

    def _on_stats(self, session: Session, frame: Dict[str, Any]) -> None:
        payload = self.stats.payload()
        payload.update(self.settings())
        payload.update({
            "type": "stats",
            "inflight": len(self.live),
            "queued": len(self.queue),
            "sessions": len(self.sessions),
            "draining": self.draining,
            "uptime_s": self._now - self.started,
            "cache": self.cache is not None,
            "journal": self.cache is not None,
            "min_free_mb": self.min_free_mb,
            "peers": len(self.peers),
            "workers": [
                worker.stats_row(self._now)
                for worker in sorted(self.workers.values(),
                                     key=lambda w: w.id)
            ] + [
                worker.stats_row(self._now, status="flapping")
                for worker in sorted(self.flapping.values(),
                                     key=lambda w: w.id)
            ],
        })
        self._send(session, payload)

    def _on_shutdown(self, session: Optional[Session] = None,
                     frame: Optional[Dict[str, Any]] = None) -> None:
        if not self.draining:
            self._log("shutdown requested — draining in-flight work")
        self.draining = True

    # -- settlement ------------------------------------------------------------

    def _settle(self, outcome: RunOutcome,
                worker: Optional[WorkerState] = None) -> None:
        """Fan one finished job's result out to every subscriber."""
        job = self.live.pop(outcome.spec.key(), None)
        if job is None:
            return  # settled already, by another route
        self._note_failure(job, outcome)
        self._journal({"op": "settled", "key": job.key,
                       "error": outcome.error})
        self._deliver(job, outcome, worker)

    def _deliver(self, job: _Job, outcome: RunOutcome,
                 worker: Optional[WorkerState] = None) -> None:
        """Count one outcome and stream it to the job's subscribers."""
        if outcome.error is not None:
            self.stats.failed += 1
            if worker is not None:
                worker.failed += 1
                self.stats.remote_failed += 1
        elif outcome.cached:
            self.stats.cache_hits += 1
        else:
            self.stats.executed += 1
            if worker is not None:
                worker.completed += 1
                self.stats.remote_executed += 1
        result = {
            "type": "result",
            "key": job.key,
            "cached": outcome.cached,
            "coalesced": len(job.subscribers) > 1,
            "elapsed_s": outcome.elapsed_s,
            "error": outcome.error,
            "kind": outcome.kind,
            "report": report_to_payload(outcome.report),
        }
        for submission, index in job.subscribers:
            session = submission.session
            self._send(session, dict(result, index=index,
                                     submit_id=submission.submit_id))
            self.stats.results_streamed += 1
            session.settle_one(submission,
                               executed=not outcome.cached
                               and outcome.error is None,
                               cached=outcome.cached,
                               failed=outcome.error is not None)
            if submission.pending <= 0:
                self._send(session, {
                    "type": "done",
                    "submit_id": submission.submit_id,
                    "executed": submission.executed,
                    "cached": submission.cached,
                    "failed": submission.failed,
                })

    def _note_failure(self, job: _Job, outcome: RunOutcome) -> None:
        """Track repeated identical failures; quarantine on the 2nd.

        "Identical" means the same taxonomy kind: a TIMEOUT followed
        by another TIMEOUT is a deterministic hang, not bad luck.  A
        success wipes the key's history (a flaky environment that
        recovered owes nothing).  The quarantine record is journaled
        so a daemon restart cannot resurrect the storm.
        """
        if outcome.error is None:
            self.failures.pop(job.key, None)
            return
        if outcome.kind == FAIL_QUARANTINED:
            return  # a verdict, not a new failure
        kind = outcome.kind or FAIL_ERROR
        counts = self.failures.setdefault(job.key, {})
        counts[kind] = counts.get(kind, 0) + 1
        if counts[kind] < 2 or job.key in self.quarantined:
            return
        self.quarantined[job.key] = {"kind": kind, "error": outcome.error}
        self.failures.pop(job.key, None)
        self.stats.quarantined += 1
        self._journal({"op": "quarantined", "key": job.key,
                       "kind": kind, "error": outcome.error})
        self._log(f"quarantined {job.key}: failed the same way twice "
                  f"({kind})")

    def _fail(self, jobs: List[_Job], message: str) -> None:
        """Fan an ERROR outcome to every job in ``jobs`` still live.

        Identity, not key: a job that settled may already have a
        resubmitted twin queued under its key, which never ran here.
        """
        for job in jobs:
            if self.live.get(job.key) is job:
                self._settle(_failed(
                    job.spec, "job failed — exception in the entry point",
                    f"{job.key}: {message}", FAIL_ERROR))

    def _recover(self, live: Dict[str, dict],
                 quarantined: Dict[str, Dict[str, str]]) -> None:
        """Re-queue every journaled spec the last daemon still owed.

        Warm specs settle from the cache on the dispatch pass that
        follows; cold ones re-execute.  Either way, a client
        reconnecting with a resubmit coalesces onto these jobs.
        """
        if quarantined:
            self.quarantined.update(quarantined)
            self._log(f"journal replay: {len(self.quarantined)} "
                      f"quarantined spec(s) stay locked out")
        recovered = 0
        for key, payload in live.items():
            try:
                spec = RunSpec.from_canonical(payload).validate()
            except _BAD_SPEC:
                continue  # a journal tear or a stale spec format
            if spec.key() != key or key in self.live:
                continue
            job = _Job(spec=spec, key=key, recovered=True)
            self.live[key] = job
            self.queue.append(job)
            recovered += 1
        if recovered:
            self.stats.recovered_jobs += recovered
            self._log(f"journal replay: recovered {recovered} "
                      f"unsettled job(s) from the previous daemon")

    # -- the lease scheduler ---------------------------------------------------

    def _dispatch(self) -> None:
        """One scheduling pass: drain the queue onto free capacity.

        Per job, in order: a cache hit settles immediately; otherwise
        the executor with the most free credits wins it (ties prefer
        the local pool).  Jobs stay queued when nobody has capacity.
        """
        local_batch: List[_Job] = []
        planned: Dict[int, List[_Job]] = {}
        while self.queue:
            job = self.queue[0]
            if self.live.get(job.key) is not job:
                # Settled out from under the queue (a cache-push for
                # a key that was still waiting its turn).
                self.queue.popleft()
                continue
            if not job.subscribers and not job.recovered:
                # Every subscriber cancelled before it started, so
                # nobody is owed it — not after a restart either.
                # (Recovered jobs are owed to clients that may not
                # have reconnected yet — they run regardless.)
                self.queue.popleft()
                del self.live[job.key]
                self._journal({"op": "settled", "key": job.key,
                               "error": DROPPED})
                self.stats.dropped += 1
                continue
            if self.cache is not None and not job.checked \
                    and not self.workers:
                # Hub-side warm check, fleetless mode only.  With
                # workers registered the warm check rides the lease
                # instead (``cache-lookup``), so the counters measure
                # the transport.  The local pool path still checks
                # per spec inside execute().
                report = self.cache.load(job.spec)
                if report is not None:
                    self.queue.popleft()
                    self._settle(RunOutcome(job.spec, report,
                                            cached=True, elapsed_s=0.0))
                    continue
                job.checked = True
            target = self._pick_executor(len(local_batch), planned)
            if target is None:
                break  # no free credits anywhere; wait for an upload
            self.queue.popleft()
            if target == "local":
                local_batch.append(job)
            else:
                planned.setdefault(target, []).append(job)
        for session_id, jobs in planned.items():
            self._lease(self.workers[session_id], jobs)
        if local_batch:
            self.local_batch = local_batch
            self._log(f"executing {len(local_batch)} job(s) on the "
                      f"local pool, {len(self.queue)} queued behind")
            self._effects.append(
                StartLocal([job.spec for job in local_batch]))

    def _pick_executor(self, local_planned: int,
                       planned: Dict[int, List[_Job]],
                       ) -> Union[str, int, None]:
        """``"local"``, a worker's session id, or ``None`` if every
        executor's credit window is full for this pass."""
        best: Union[str, int, None] = None
        best_free = 0
        if self.local_execution and self.local_batch is None:
            # With no fleet, the local pool takes the whole queue in
            # one batch (which also keeps replica groups intact for
            # --replica-batch).  With workers registered, it is
            # window-bounded like them so there is work left for the
            # fleet to steal.
            capacity = (credit_window(self.jobs) if self.workers
                        else len(self.queue) + local_planned)
            free = capacity - local_planned
            if free > 0:
                best, best_free = "local", free
        for session_id, worker in self.workers.items():
            free = worker.credit_window - len(worker.leased) \
                - len(planned.get(session_id, ()))
            if free > best_free:
                best, best_free = session_id, free
        return best

    def _lease(self, worker: WorkerState, jobs: List[_Job]) -> None:
        """Post ``jobs`` to a worker, one lease frame per full-width
        chunk so each lease runs at the worker's full parallelism."""
        for start in range(0, len(jobs), worker.jobs):
            chunk = jobs[start:start + worker.jobs]
            lease_id = f"L{next(self._lease_ids)}"
            for job in chunk:
                worker.leased[job.key] = job
            self._send(worker.session, {
                "type": "lease",
                "lease_id": lease_id,
                "specs": [job.canonical for job in chunk],
            })
            self._log(f"leased {len(chunk)} job(s) to worker "
                      f"{worker.id} as {lease_id} "
                      f"({len(worker.leased)}/{worker.credit_window} "
                      f"credits used)")

    def _fail_stranded(self) -> None:
        """Draining with no executor left: fail the queue visibly.

        With ``--no-local`` and an empty fleet nothing can ever run
        the queued jobs, and a draining hub refuses new workers, so
        waiting would hang the shutdown forever.  Each stranded job
        fails to its subscribers instead.  A flapping worker may yet
        reconnect and take the queue; if it never does, the reaper
        expels it at its deadline and the check runs again.
        """
        if not self.queue or self.local_execution or self.workers \
                or self.flapping:
            return
        stranded = list(self.queue)
        self.queue.clear()
        self._log(f"draining with no eligible executor — failing "
                  f"{len(stranded)} stranded job(s)")
        self._fail(stranded,
                   "daemon draining with no eligible executor "
                   "(local execution disabled, no workers registered)")

    # -- the worker fleet ------------------------------------------------------

    def _on_register(self, session: Session,
                     frame: Dict[str, Any]) -> None:
        self._check_version(frame, "worker")
        jobs = frame.get("jobs", 1)
        if isinstance(jobs, bool) or not isinstance(jobs, int) \
                or not 1 <= jobs <= 4096:
            raise ProtocolError(
                "bad-register",
                f"register frame needs an integer 'jobs' in "
                f"[1, 4096], got {jobs!r}")
        uid = frame.get("uid")
        if uid is not None and (not isinstance(uid, str)
                                or not uid or len(uid) > 256):
            raise ProtocolError(
                "bad-register",
                "register 'uid' must be a non-empty string "
                "of at most 256 chars")
        heartbeat_s = frame.get("heartbeat_s")
        if heartbeat_s is not None:
            if isinstance(heartbeat_s, bool) \
                    or not isinstance(heartbeat_s, (int, float)) \
                    or heartbeat_s <= 0:
                raise ProtocolError(
                    "bad-register",
                    f"register 'heartbeat_s' must be a positive "
                    f"number, got {heartbeat_s!r}")
            if heartbeat_s > self.lease_timeout_s / 2.0:
                # A worker beating slower than half the lease timeout
                # is one dropped packet away from being reaped as
                # dead; refuse at registration, where the operator
                # sees both numbers, instead of expelling it later.
                raise ProtocolError(
                    "bad-heartbeat",
                    f"requested heartbeat interval {heartbeat_s}s "
                    f"exceeds half this daemon's lease timeout "
                    f"({self.lease_timeout_s}s); lower --heartbeat "
                    "or raise the daemon's --lease-timeout")
        name = frame.get("name")
        if not isinstance(name, str) or not name:
            name = session.peer
        worker = self._reclaim(uid)
        if worker is None and self.draining:
            # A brand-new worker has nothing the drain is waiting on;
            # a reclaiming one holds leases the drain *needs*, so it
            # is always let back in.
            self._send(session, error_frame(
                "draining",
                "daemon is shutting down and not registering workers"))
            self._close(session)
            return
        session.role = "register"
        fields = dict(session=session, name=name, address=session.peer,
                      jobs=jobs, last_seen=self._now,
                      replica_batch=bool(frame.get("replica_batch")),
                      version=str(frame.get("repro") or "unknown"),
                      heartbeat_s=float(heartbeat_s or 0.0))
        if worker is not None:
            reclaimed = len(worker.leased)
            worker = dataclasses.replace(worker, flap_deadline=0.0,
                                         **fields)
            self.stats.workers_reconnected += 1
            self.stats.leases_reclaimed += reclaimed
            self._log(f"worker {worker.id} reconnected as {name} — "
                      f"{reclaimed} parked lease(s) reclaimed")
        else:
            reclaimed = 0
            worker = WorkerState(id=next(self._worker_ids), uid=uid,
                                 **fields)
            self.stats.workers_registered += 1
            self._log(f"worker {worker.id} registered: {name} "
                      f"(jobs={jobs}, repro {worker.version}) — "
                      f"fleet size {len(self.workers) + 1}")
        self.workers[session.id] = worker
        self._send(session, {
            "type": "registered",
            "worker_id": worker.id,
            "reclaimed": reclaimed,
            "heartbeat_interval_s": worker.heartbeat_s
            or max(0.05, self.lease_timeout_s / 3.0),
            "lease_timeout_s": self.lease_timeout_s,
            "credit_window": worker.credit_window,
        })
        if reclaimed:
            # Re-send the reclaimed specs as fresh lease frames: the
            # worker may never have received the originals (they can
            # die in the old connection's buffers).  Re-delivery is
            # harmless — the worker's cache-lookup drops everything
            # its reconnect flush already settled.
            release = list(worker.leased.values())
            worker.leased.clear()
            self._lease(worker, release)

    def _reclaim(self, uid: Optional[str]) -> Optional[WorkerState]:
        """The parked (or superseded) WorkerState for ``uid``, if any.

        A re-register may race the hub's discovery of the old
        connection's death — the uid also reclaims straight out of
        ``workers``, closing the stale session.
        """
        if not uid:
            return None
        worker = self.flapping.pop(uid, None)
        if worker is not None:
            return worker
        for live in list(self.workers.values()):
            if live.uid == uid:
                del self.workers[live.session.id]
                self._log(f"worker {live.id} re-registered over a "
                          f"stale connection — superseding it")
                self._close(live.session)
                return live
        return None

    def _expel(self, worker: WorkerState, reason: str, *,
               lost: bool = False) -> None:
        """Requeue what a departed worker owed, at the front of the
        queue; the caller has already unlisted it.

        The jobs are re-checked against the cache (the worker may have
        pushed some results already).  The submitting client never
        learns any of this happened.
        """
        requeued = list(worker.leased.values())
        worker.leased.clear()
        for job in reversed(requeued):
            job.checked = False
            self.queue.appendleft(job)
        if requeued or lost:
            self.stats.workers_lost += 1
            self.stats.leases_reassigned += len(requeued)
            verb = "gone" if worker.flap_deadline else "lost"
            self._log(f"worker {worker.id} ({worker.name}) {verb} "
                      f"({reason}); {len(requeued)} lease(s) reassigned")
        else:
            self._log(f"worker {worker.id} ({worker.name}) left "
                      f"({reason})")

    def _reap(self) -> None:
        """Expel workers whose heartbeats stopped (the partition case;
        a SIGKILLed worker is caught sooner, by its EOF) and parked
        workers whose reconnect window closed.  Ping every standby
        peer: a silent primary must read as a dead one to them."""
        for worker in list(self.workers.values()):
            age = self._now - worker.last_seen
            if age > self.lease_timeout_s:
                del self.workers[worker.session.id]
                self._expel(worker,
                            f"no heartbeat for {age:.1f}s (lease "
                            f"timeout {self.lease_timeout_s:.1f}s)",
                            lost=True)
                self._close(worker.session)
        for uid, worker in list(self.flapping.items()):
            if self._now >= worker.flap_deadline:
                del self.flapping[uid]
                self._expel(worker, "reconnect window expired — gone, "
                            "not flapping", lost=True)
        for peer in self.peers.values():
            self._send(peer.session, {"type": "sync-ping"})

    def _on_heartbeat(self, session: Session,
                      frame: Dict[str, Any]) -> None:
        """Nothing to do: every worker frame already renewed its
        ``last_seen``."""

    def _uploaded(self, frame: Dict[str, Any], code: str, key: str,
                  spec: RunSpec, cached: bool) -> RunOutcome:
        """The checked outcome an ``upload`` or ``cache-push`` carries.

        A good report is stored even when ``cached``: that is the
        transport — a hit in the *worker's* local cache lands in the
        hub's, where the whole fleet can see it.
        """
        what = frame["type"]
        error, kind = frame.get("error"), frame.get("kind")
        if error is not None and not isinstance(error, str):
            raise ProtocolError(code,
                                f"{what} 'error' must be null or a string")
        if kind is not None and not isinstance(kind, str):
            raise ProtocolError(code,
                                f"{what} 'kind' must be null or a string")
        elapsed = frame.get("elapsed_s", 0.0)
        if isinstance(elapsed, bool) \
                or not isinstance(elapsed, (int, float)):
            raise ProtocolError(code, f"{what} 'elapsed_s' must be a number")
        payload = frame.get("report")
        if not isinstance(payload, dict):
            raise ProtocolError(code, f"{what} 'report' must be an object")
        try:
            report = report_from_payload(payload)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ProtocolError(
                code, f"malformed {what} for {key}: {exc}") from exc
        if error is None and self.cache is not None:
            self.cache.store(spec, report)
        return RunOutcome(spec, report, cached=cached,
                          elapsed_s=float(elapsed), error=error,
                          kind=kind if error is not None else None)

    def _on_upload(self, session: Session, frame: Dict[str, Any]) -> None:
        """One leased spec's result came back from a worker."""
        worker = self.workers[session.id]
        key = frame.get("key")
        job = worker.leased.get(key) if isinstance(key, str) else None
        if job is None:
            raise ProtocolError(
                "bad-upload",
                f"upload for a key this worker does not hold: {key!r}")
        outcome = self._uploaded(frame, "bad-upload", key, job.spec,
                                 cached=bool(frame.get("cached")))
        del worker.leased[key]
        if outcome.cached:
            worker.completed += 1
            self.stats.remote_cache_hits += 1
        self._settle(outcome, worker)

    def _on_cache_lookup(self, session: Session,
                         frame: Dict[str, Any]) -> None:
        """A worker asks which of its leased keys are already warm.

        Hits are settled *here*, straight from the hub cache — the
        worker just drops them from its batch, so a warm spec costs
        one round trip and zero executions anywhere in the fleet.
        """
        worker = self.workers[session.id]
        keys = frame.get("keys")
        lookup_id = frame.get("lookup_id")
        if not isinstance(lookup_id, str) or not lookup_id:
            raise ProtocolError(
                "bad-lookup",
                "cache-lookup frame needs a string 'lookup_id'")
        if not isinstance(keys, list) \
                or not all(isinstance(k, str) for k in keys):
            raise ProtocolError(
                "bad-lookup",
                "cache-lookup frame needs a list of string 'keys'")
        hits: List[str] = []
        warm: List[RunOutcome] = []
        for key in keys:
            # A key not held here was already settled (a reconnect
            # flush raced the re-lease) or never ours.  Either way
            # there is nothing for the worker to execute, so it reads
            # as droppable — but not as a cache hit.
            job = worker.leased.get(key)
            if job is not None:
                report = self.cache.load(job.spec) \
                    if self.cache is not None else None
                if report is None:
                    self.stats.cache_lookup_misses += 1
                    continue
                del worker.leased[key]
                warm.append(RunOutcome(job.spec, report, cached=True,
                                       elapsed_s=0.0))
            hits.append(key)
        # Answer first: the worker is blocked on this reply, while the
        # hits' subscribers are only streaming results.
        self._send(session, {
            "type": "cache-result",
            "lookup_id": lookup_id,
            "hits": hits,
        })
        for outcome in warm:
            self.stats.cache_lookup_hits += 1
            self._settle(outcome)
        if hits:
            self._log(f"cache-lookup from worker {worker.id}: "
                      f"{len(hits)}/{len(keys)} warm, settled from "
                      "the hub cache")

    def _on_cache_push(self, session: Session,
                       frame: Dict[str, Any]) -> None:
        """An out-of-lease result shipped hub-ward by a worker.

        The reconnect-flush path: results a worker finished while
        disconnected arrive here after its leases may have been
        reclaimed, reassigned, or even settled by someone else.
        Content addressing makes every case an idempotent merge —
        settle the job if it is still live (whoever holds the lease),
        and store the payload either way.
        """
        worker = self.workers[session.id]
        key = frame.get("key")
        spec_payload = frame.get("spec")
        if not isinstance(key, str) or not key:
            raise ProtocolError(
                "bad-push", "cache-push frame needs a string 'key'")
        if not isinstance(spec_payload, dict):
            raise ProtocolError(
                "bad-push", "cache-push frame needs a 'spec' object")
        try:
            spec = RunSpec.from_canonical(spec_payload)
        except _BAD_SPEC + (ValueError,) as exc:
            raise ProtocolError(
                "bad-push",
                f"malformed cache-push for {key}: {exc}") from exc
        if spec.key() != key:
            raise ProtocolError(
                "bad-push",
                f"cache-push key {key!r} does not match its spec's "
                f"content hash {spec.key()!r}")
        outcome = self._uploaded(frame, "bad-push", key, spec, cached=False)
        self.stats.cache_pushes += 1
        if key not in self.live:
            return  # already settled (or never ours) — store was enough
        # Whoever currently holds the lease is off the hook.
        for holder in itertools.chain(self.workers.values(),
                                      self.flapping.values()):
            holder.leased.pop(key, None)
        self._settle(outcome, worker)

    # -- standby peers ---------------------------------------------------------

    def _on_peer(self, session: Session, frame: Dict[str, Any]) -> None:
        """A standby hub: snapshot now, then every journal append.

        The snapshot and the peer registration happen in one
        :meth:`handle` call, so no journal append can fall in the gap
        — the standby sees exactly snapshot + every later record, in
        order, on one connection.
        """
        self._check_version(frame, "peer")
        if self.cache is None:
            self._send(session, error_frame(
                "no-journal",
                "this daemon has no journal to sync (no cache dir); "
                "start it with --cache-dir to support standby peers"))
            self._close(session)
            return
        session.role = "peer"
        name = frame.get("name")
        if not isinstance(name, str) or not name:
            name = session.peer
        snapshot = {
            "live": {key: job.canonical for key, job in self.live.items()},
            "quarantined": {key: dict(record)
                            for key, record in self.quarantined.items()},
        }
        self.peers[session.id] = PeerState(session=session, name=name)
        self.stats.peers_connected += 1
        self._send(session, {
            "type": "peer-welcome",
            "snapshot": snapshot,
            "digest": sync_digest(snapshot),
            "lease_timeout_s": self.lease_timeout_s,
        })
        self._log(f"standby peer {name} connected "
                  f"({len(snapshot['live'])} live, "
                  f"{len(snapshot['quarantined'])} quarantined "
                  "in its snapshot)")


__all__ = ["HubCore", "DaemonStats", "DROPPED", "WorkerState", "PeerState",
           "Opened", "Received", "Closed", "Tick", "Shutdown",
           "Replayed", "LocalOutcome", "LocalDone", "Send", "Append",
           "StartLocal", "Close", "Log"]
