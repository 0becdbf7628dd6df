"""The always-on sweep daemon behind ``repro serve``.

One daemon process owns the two things worth keeping warm between
sweeps: the :class:`~repro.runner.cache.ResultCache` and the
warm-worker pool (via the :class:`~repro.runner.executor.JobRunner`
seam).  Clients connect over a local socket, speak the length-prefixed
JSON protocol of :mod:`repro.service.protocol`, and submit batches of
:class:`~repro.runner.spec.RunSpec` payloads; the daemon streams back
one ``result`` frame per spec as jobs finish, in whatever order they
settle (each frame carries the spec's index in its submission, so
clients reassemble plan order trivially).

What the daemon adds over ``repro run --jobs N``:

* **Zero startup on the client side** — interpreter boot, ``import
  repro`` and worker spawn were paid once, at ``repro serve`` time.
* **One shared cache** — every client's results land in (and are
  served from) the same content-addressed store, so a sweep one user
  ran this morning is a pure cache read for everyone else all day.
* **Cross-client dedup** — submissions are coalesced *in flight*:
  a spec already queued or executing is never queued twice, it just
  gains a subscriber, and the single result is fanned out to every
  subscriber when it settles.  Two clients racing the same sweep cost
  one execution.
* **Resumability** — a client that dies mid-sweep loses nothing:
  completed jobs are in the shared cache, so a resubmission streams
  them back as instant hits and only genuinely unfinished work runs.
* **Backpressure** — per-session watermarks stop reading from clients
  with too much outstanding work (see :mod:`repro.service.session`),
  bounding daemon memory under firehose submission.
* **Graceful drain** — SIGTERM (or a ``shutdown`` frame) stops
  accepting work, finishes and streams everything in flight, sends
  ``bye`` to connected clients and exits 0.
* **A worker fleet** — remote nodes (``repro worker --connect``,
  :mod:`repro.service.worker`) register into the pool over the same
  socket protocol.  The execution loop is a lease scheduler: queued
  specs are leased to whichever executor (the local ``JobRunner`` or
  a registered worker) has free credits, bounded per worker by a
  credit window of ``CREDIT_FACTOR × jobs`` — work stealing falls out,
  because a fast worker frees credits sooner and keeps winning leases.
  Results upload as canonical report payloads into the one shared
  cache, so server-vs-direct byte-identity holds with N remote nodes.
* **Fleet fault tolerance** — workers heartbeat; a worker whose
  connection drops (or whose heartbeats stop for longer than the
  lease timeout — the partition case, reaped by a periodic sweep) is
  expelled and its in-flight leases are requeued at the front of the
  queue for another executor.  The submitting client never sees a
  gap, only a result that took one re-execution longer.
* **Reconnect-without-requeue** — workers carry a stable identity
  (``uid`` in the register frame).  A dropped *connection* parks the
  worker's leases instead of requeueing them; the same uid
  re-registering within the lease timeout reclaims them, so a network
  flap costs zero re-executions.  The reaper distinguishes "flapping"
  (parked, awaiting reconnect) from "gone" (deadline passed → leases
  requeued as before).
* **Crash recovery** — with a cache directory, every accepted spec is
  written to a write-ahead journal (:mod:`repro.service.journal`)
  before it is queued, and retired when it settles.  A SIGKILLed
  daemon restarted with ``--resume`` (the default) replays the
  journal: unsettled specs re-enter the queue, warm ones settle
  straight from the cache, and reconnecting clients resubmit into
  coalescence — zero client-visible loss, byte-identical manifests.
* **Fleet cache transport** — workers interrogate the hub's cache
  before executing (``cache-lookup``: the daemon settles warm keys
  itself and the worker runs only the cold remainder) and ship
  results hub-ward as canonical payloads (``upload``/``cache-push``),
  so a worker joining mid-campaign benefits from the fleet's whole
  history and a flapped worker's finished work is never re-run.
* **Hub failover** — a standby daemon (``repro serve --standby
  --follow ADDR``, :mod:`repro.service.standby`) connects as a
  ``peer`` and receives a snapshot of the journal state plus every
  later append (``journal-sync``), digest-verified, mirrored into its
  own journal.  When the primary dies the standby promotes itself —
  a journal replay identical to ``--resume`` — and multi-address
  clients/workers rotate onto it; ``promotions`` in its stats records
  the takeover.
* **Resource governance** — optional per-job deadlines and memory
  ceilings (``--job-timeout``/``--job-memory-mb``) bound local
  execution; a spec that fails the same way twice is **quarantined**
  (journaled, reported once, never re-leased) so retry storms cannot
  livelock the scheduler; admission control sheds submits past
  ``--max-queue`` with a ``busy`` frame clients back off on; and a
  nearly-full cache volume turns new work away with a typed
  ``cache-full`` refusal instead of corrupting the journal.

Local execution is delegated batch-by-batch to the ``JobRunner`` in
a worker thread; the asyncio side never blocks on simulation work.
Dedup, fan-out and lease state live entirely on the event loop
thread — results cross back in via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.runner.cache import (
    ResultCache,
    free_disk_bytes,
    report_from_payload,
    report_to_payload,
)
from repro.runner.executor import JobRunner, RunOutcome, credit_window
from repro.runner.governance import (
    FAIL_ERROR,
    FAIL_QUARANTINED,
    ResourceLimits,
)
from repro.runner.spec import RunSpec
from repro.service.journal import ServiceJournal, journal_path
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_frame,
    parse_address,
    read_frame_async,
    sync_digest,
    write_frame_async,
)
from repro.service.session import Session, Submission
from repro.sim.errors import ConfigurationError


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
    started: bool = False
    #: Replayed from the journal after a crash: owed to a client that
    #: has not (yet) reconnected, so it must run even with zero
    #: subscribers instead of being dropped as abandoned.
    recovered: bool = False


@dataclass
class WorkerState:
    """One registered remote worker, daemon side.

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
    registered_at: float
    last_seen: float
    #: Stable identity from the register frame; ``None`` for legacy
    #: workers, which get per-connection identity and no flap parking.
    uid: Optional[str] = None
    #: monotonic deadline while parked in ``_flapping``; 0 when live.
    flap_deadline: float = 0.0
    #: Worker-requested heartbeat override (``--heartbeat``); 0 means
    #: "derive from the lease timeout" (the pre-override behaviour).
    heartbeat_s: float = 0.0
    leased: Dict[str, _Job] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0

    @property
    def credit_window(self) -> int:
        return credit_window(self.jobs)

    @property
    def free_credits(self) -> int:
        return self.credit_window - len(self.leased)

    def stats_row(self, now: float,
                  status: str = "up") -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "uid": self.uid,
            "status": status,
            "address": self.address,
            "jobs": self.jobs,
            "replica_batch": self.replica_batch,
            "version": self.version,
            "leased": len(self.leased),
            "completed": self.completed,
            "failed": self.failed,
            "heartbeat_age_s": round(max(0.0, now - self.last_seen), 3),
        }


@dataclass
class PeerState:
    """One connected standby hub, primary side.

    Peers are read-mostly: after the ``peer-welcome`` snapshot they
    just receive every journal append (``journal-sync``) plus a
    reaper-paced ``sync-ping`` that keeps their read timeout fed, so
    a silent primary reads as a dead primary.
    """

    session: Session
    name: str
    address: str
    registered_at: float
    synced: int = 0


class ReproDaemon:
    """``repro serve``: accept sweep jobs over a socket, forever.

    ``address`` is anything :func:`repro.service.protocol.parse_address`
    accepts (a unix-socket path or ``host:port``).  Construct, then
    either :meth:`run` on the main thread (the CLI path — installs
    SIGTERM/SIGINT drain handlers) or hand :meth:`run` to a background
    thread (tests — use :meth:`wait_ready` / :meth:`request_shutdown`).
    """

    def __init__(self, address: str, *, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 replica_batch: bool = False,
                 high_watermark: int = 1024,
                 low_watermark: int = 512,
                 max_submit: int = 4096,
                 lease_timeout_s: float = 30.0,
                 local_execution: bool = True,
                 resume: bool = True,
                 limits: Optional[ResourceLimits] = None,
                 max_queue: int = 4096,
                 busy_retry_s: float = 1.0,
                 min_free_mb: int = 64,
                 promoted: bool = False,
                 quiet: bool = False) -> None:
        self.address = address
        self._kind, self._target = parse_address(address)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self._runner = JobRunner(jobs=jobs, cache=self.cache,
                                 replica_batch=replica_batch,
                                 limits=limits)
        self.stats = DaemonStats()
        self.high_watermark = high_watermark
        self.low_watermark = min(low_watermark, high_watermark)
        self.max_submit = max_submit
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        self.lease_timeout_s = lease_timeout_s
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if busy_retry_s <= 0:
            raise ValueError(
                f"busy_retry_s must be > 0, got {busy_retry_s}")
        if min_free_mb < 0:
            raise ValueError(
                f"min_free_mb must be >= 0, got {min_free_mb}")
        self.limits = limits
        self.max_queue = max_queue
        self.busy_retry_s = busy_retry_s
        self.min_free_mb = min_free_mb
        self.local_execution = local_execution
        self.resume = resume
        self.quiet = quiet
        #: Write-ahead journal; opened in serve() when a cache dir
        #: exists (durability is keyed to the same root the results
        #: land in — no cache, nothing worth replaying into).
        self._journal: Optional[ServiceJournal] = None
        self._started = time.monotonic()
        # Event-loop-side state, created inside serve().
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._jobs: Dict[str, _Job] = {}
        self._queue: Deque[_Job] = collections.deque()
        self._wake: Optional[asyncio.Event] = None
        self._sessions: Dict[int, Session] = {}
        self._outboxes: Dict[int, asyncio.Queue] = {}
        self._writer_tasks: Dict[int, asyncio.Task] = {}
        #: registered workers, keyed by their session id.
        self._workers: Dict[int, WorkerState] = {}
        #: connected standby hubs, keyed by their session id.
        self._peers: Dict[int, PeerState] = {}
        self._sync_seq = 0
        #: disconnected-but-not-dead workers, keyed by uid, leases
        #: parked until reconnect or flap deadline.
        self._flapping: Dict[str, WorkerState] = {}
        self._worker_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        #: Poison-job quarantine: key -> {"kind", "error"}.  Specs in
        #: here are never queued or leased again; submits against them
        #: settle immediately with a QUARANTINED verdict.
        self._quarantined: Dict[str, Dict[str, str]] = {}
        #: key -> {kind: consecutive-failure count}; two failures of
        #: the same kind quarantine the key, a success clears it.
        self._failures: Dict[str, Dict[str, int]] = {}
        self._local_busy = False
        self._local_task: Optional[asyncio.Task] = None
        self._draining = False
        self._ready = threading.Event()
        self._exit_requested = False
        if promoted:
            self.stats.promotions = 1

    # -- lifecycle -----------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro-serve] {message}", file=sys.stderr,
                  flush=True)

    def run(self) -> int:
        """Blocking entry point; returns the process exit code."""
        if self.local_execution:
            # Fork workers before any server threads; a hub that only
            # dispatches to remote workers never loads the solver.
            self._runner.warm()
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:  # pragma: no cover — belt and braces
            return 130
        return 0

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the daemon is listening (thread-mode tests)."""
        return self._ready.wait(timeout)

    @property
    def bound_address(self) -> str:
        """The concrete address clients should dial (after binding,
        a TCP ``:0`` request reflects the kernel-assigned port)."""
        if self._kind == "unix":
            return str(self._target)
        host, port = self._target
        return f"{host}:{port}"

    def request_shutdown(self) -> None:
        """Thread-safe graceful-drain request (SIGTERM equivalent)."""
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):  # already stopped
                loop.call_soon_threadsafe(self.initiate_shutdown)

    def initiate_shutdown(self) -> None:
        """Begin the graceful drain (event-loop thread only)."""
        if not self._draining:
            self.log("shutdown requested — draining in-flight work")
        self._draining = True
        if self._wake is not None:
            self._wake.set()

    async def serve(self) -> None:
        """Listen, execute, drain; returns after a graceful shutdown."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._open_journal()
        if self._kind == "unix":
            # A leftover socket file from a crashed daemon blocks
            # bind(); nothing else can legitimately own the path.
            with contextlib.suppress(OSError):
                os.unlink(self._target)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self._target)
        else:
            host, port = self._target
            server = await asyncio.start_server(
                self._handle_connection, host=host, port=port)
            self._target = server.sockets[0].getsockname()[:2]
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError,
                                     ValueError):
                self._loop.add_signal_handler(signum,
                                              self.initiate_shutdown)
        self.log(f"listening on {self.address} "
                 f"(jobs={self._runner.jobs}, "
                 f"cache={'on' if self.cache is not None else 'off'})")
        # One machine-parseable readiness line on stdout: supervisors
        # and CI wait for this instead of scraping stderr heuristics.
        print(json.dumps(self.ready_banner(), sort_keys=True),
              flush=True)
        self._ready.set()
        drained_clean = False
        try:
            await self._execution_loop()
            drained_clean = True
        finally:
            self._ready.clear()
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
            await self._farewell()
            if self._journal is not None:
                if drained_clean:
                    self._journal.record_drained()
                self._journal.close()
            if self._kind == "unix":
                with contextlib.suppress(OSError):
                    os.unlink(self._target)
            self.log("drained and stopped")

    def ready_banner(self) -> Dict[str, Any]:
        """The startup banner payload (printed as one stdout line)."""
        return {
            "event": "serve-ready",
            "address": self.bound_address,
            "pid": os.getpid(),
            "jobs": self._runner.jobs,
            "cache": str(self.cache.root) if self.cache is not None
            else None,
            "local_execution": self.local_execution,
            "lease_timeout_s": self.lease_timeout_s,
            "max_queue": self.max_queue,
            "governed": self.limits is not None and self.limits.enabled,
            "resume": self.resume,
            "recovered_jobs": self.stats.recovered_jobs,
            "quarantined_keys": len(self._quarantined),
            "promotions": self.stats.promotions,
            "version": PROTOCOL_VERSION,
        }

    def _open_journal(self) -> None:
        """Open the WAL and (by default) replay the previous life's debt."""
        if self.cache is None:
            return
        if self.resume:
            self._journal, debt = ServiceJournal.recover(self.cache.root)
            if self._journal.quarantined:
                self._quarantined.update(self._journal.quarantined)
                self.log(f"journal replay: {len(self._quarantined)} "
                         f"quarantined spec(s) stay locked out")
            self._recover_jobs(debt)
        else:
            self._journal = ServiceJournal(journal_path(self.cache.root))
            self._journal.compact({})  # explicitly forget the past
        self._journal.on_append = self._relay_journal

    def _recover_jobs(self, debt: Dict[str, dict]) -> None:
        """Re-queue every journaled spec the last daemon still owed.

        Warm specs settle from the cache on the first dispatch pass;
        cold ones re-execute.  Either way, a client reconnecting with
        a resubmit coalesces onto these jobs instead of starting over.
        """
        recovered = 0
        for key, payload in debt.items():
            try:
                spec = RunSpec.from_canonical(payload).validate()
            except (ConfigurationError, KeyError, TypeError,
                    AttributeError):
                continue  # a journal tear or a stale spec format
            if spec.key() != key or key in self._jobs:
                continue
            job = _Job(spec=spec, key=key, recovered=True)
            self._jobs[key] = job
            self._queue.append(job)
            recovered += 1
        if recovered:
            self.stats.recovered_jobs += recovered
            self.log(f"journal replay: recovered {recovered} "
                     f"unsettled job(s) from the previous daemon")
            assert self._wake is not None
            self._wake.set()

    async def _farewell(self) -> None:
        """``bye`` every connected client, then close their writers."""
        for session in list(self._sessions.values()):
            self._post(session, {"type": "bye"})
        for sid, outbox in list(self._outboxes.items()):
            outbox.put_nowait(None)
        for task in list(self._writer_tasks.values()):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(task, timeout=2.0)

    # -- lease scheduler -----------------------------------------------------

    async def _execution_loop(self) -> None:
        """The scheduler: lease queued specs to whoever has credits.

        Every state change that could create dispatch opportunity —
        a submit, a freed credit, a finished local batch, a lost
        worker, a drain request — sets ``_wake``; each wake runs one
        :meth:`_dispatch` pass and then checks the drain condition.
        """
        assert self._wake is not None
        reaper = asyncio.ensure_future(self._reaper_loop())
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                self._dispatch()
                if self._draining:
                    self._fail_stranded()
                    if (not self._queue
                            and not self._local_busy
                            and not any(worker.leased
                                        for worker
                                        in self._workers.values())
                            and not any(worker.leased
                                        for worker
                                        in self._flapping.values())):
                        return
        finally:
            reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reaper

    async def _reaper_loop(self) -> None:
        """Expel workers whose heartbeats stopped (the partition
        case — a SIGKILLed worker is caught faster, by its EOF) and
        flapped workers whose reconnect window closed (the "gone"
        verdict on what looked like a flap)."""
        interval = max(0.05, self.lease_timeout_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session_id in list(self._workers):
                worker = self._workers[session_id]
                age = now - worker.last_seen
                if age > self.lease_timeout_s:
                    self._expel_worker(
                        session_id,
                        f"no heartbeat for {age:.1f}s "
                        f"(lease timeout {self.lease_timeout_s:.1f}s)",
                        timed_out=True)
            for uid in list(self._flapping):
                if now >= self._flapping[uid].flap_deadline:
                    self._expel_flapped(
                        uid, "reconnect window expired — gone, "
                        "not flapping")
            # Standby peers read with a lease-timeout-sized deadline;
            # this ping keeps a quiet-but-alive primary from looking
            # dead to them (and a wedged one from looking alive).
            for peer in list(self._peers.values()):
                self._post(peer.session, {"type": "sync-ping"})

    def _dispatch(self) -> None:
        """One scheduling pass: drain the queue onto free capacity.

        Per job, in order: a cache hit settles immediately; otherwise
        the executor with the most free credits wins it (ties prefer
        the local pool).  Jobs stay queued when nobody has capacity —
        every ``upload`` frees a credit and re-wakes the loop.
        """
        local_batch: List[_Job] = []
        planned: Dict[int, List[_Job]] = {}
        while self._queue:
            job = self._queue[0]
            if self._jobs.get(job.key) is not job:
                # Settled out from under the queue (a cache-push for
                # a key that was still waiting its turn).
                self._queue.popleft()
                continue
            if not job.subscribers and not job.recovered:
                # Every subscriber cancelled before it started.
                # (Recovered jobs are owed to clients that may not
                # have reconnected yet — they run regardless.)
                self._queue.popleft()
                self._jobs.pop(job.key, None)
                self.stats.dropped += 1
                continue
            if self.cache is not None and not job.started \
                    and not self._workers:
                # Hub-side warm check, fleetless mode only.  With
                # workers registered the warm check rides the lease
                # instead (``cache-lookup``), so the counters measure
                # the transport and a local hit can't starve the
                # fleet's view of the cache.  The local pool path
                # still checks per spec inside execute().
                report = self.cache.load(job.spec)
                if report is not None:
                    self._queue.popleft()
                    self._settle(RunOutcome(job.spec, report,
                                            cached=True, elapsed_s=0.0))
                    continue
            target = self._pick_executor(len(local_batch), planned)
            if target is None:
                break  # no free credits anywhere; wait for an upload
            self._queue.popleft()
            job.started = True
            if target == "local":
                local_batch.append(job)
            else:
                planned.setdefault(target, []).append(job)
        for session_id, jobs in planned.items():
            self._lease(self._workers[session_id], jobs)
        if local_batch:
            self._start_local(local_batch)

    def _pick_executor(self, local_planned: int,
                       planned: Dict[int, List[_Job]],
                       ) -> Union[str, int, None]:
        """``"local"``, a worker's session id, or ``None`` if every
        executor's credit window is full for this pass."""
        best: Union[str, int, None] = None
        best_free = 0
        if self.local_execution and not self._local_busy:
            # With no fleet, the local pool takes the whole queue in
            # one batch (the pre-fleet behaviour, which also keeps
            # replica groups intact for --replica-batch).  With
            # workers registered, it is window-bounded like them so
            # there is work left for the fleet to steal.
            capacity = (self._runner.credit_window if self._workers
                        else len(self._queue) + local_planned)
            free = capacity - local_planned
            if free > 0:
                best, best_free = "local", free
        for session_id, worker in self._workers.items():
            free = worker.free_credits - len(planned.get(session_id, ()))
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
                if self._journal is not None:
                    self._journal.record_leased(
                        job.key, worker.uid or f"worker-{worker.id}")
            self._post(worker.session, {
                "type": "lease",
                "lease_id": lease_id,
                "specs": [job.spec.canonical() for job in chunk],
            })
            self.log(f"leased {len(chunk)} job(s) to worker "
                     f"{worker.id} as {lease_id} "
                     f"({len(worker.leased)}/{worker.credit_window} "
                     f"credits used)")

    def _start_local(self, batch: List[_Job]) -> None:
        """Run one batch on the local JobRunner in a worker thread."""
        self._local_busy = True
        specs = [job.spec for job in batch]
        if self._journal is not None:
            for job in batch:
                self._journal.record_leased(job.key, "local")
        self.log(f"executing {len(specs)} job(s) on the local pool, "
                 f"{len(self._queue)} queued behind")
        loop = self._loop
        assert loop is not None

        def settle_threadsafe(outcome: RunOutcome) -> None:
            loop.call_soon_threadsafe(self._settle, outcome)

        async def run_batch() -> None:
            try:
                await asyncio.to_thread(self._runner.run, specs,
                                        settle_threadsafe)
            except Exception as exc:  # noqa: BLE001
                # An ordinary exception raised by a job aborts the
                # rest of its batch inside execute() (that is the
                # local-runner contract: the raise surfaces at the
                # failing job).  A daemon must outlive it: every
                # job the batch did not settle fails visibly to
                # its subscribers, and the service keeps serving.
                self.log(f"batch aborted by a job exception: "
                         f"{type(exc).__name__}: {exc}")
                self._fail_unsettled(batch, str(exc))
            finally:
                self._local_busy = False
                assert self._wake is not None
                self._wake.set()

        self._local_task = asyncio.ensure_future(run_batch())

    def _fail_stranded(self) -> None:
        """Draining with no executor left: fail the queue visibly.

        With ``--no-local`` and an empty fleet (never populated, or
        every worker lost mid-drain) nothing can ever run the queued
        jobs, and a draining daemon refuses new worker registrations
        — waiting on an empty queue would hang the shutdown forever.
        Each stranded job fails to its subscribers instead, so the
        drain still completes and clients still see every result.
        """
        if not self._queue or self.local_execution or self._workers \
                or self._flapping:
            # A flapping worker may yet reconnect and take the queue;
            # if it never does, the reaper expels it at the deadline
            # and the next wake re-evaluates with _flapping empty.
            return
        stranded = list(self._queue)
        self._queue.clear()
        self.log(f"draining with no eligible executor — failing "
                 f"{len(stranded)} stranded job(s)")
        self._fail_unsettled(
            stranded,
            "daemon draining with no eligible executor "
            "(local execution disabled, no workers registered)")

    def _enqueue(self, spec: RunSpec, submission: Submission,
                 index: int) -> None:
        """Queue one spec, or coalesce onto its in-flight twin."""
        key = spec.key()
        quarantine = self._quarantined.get(key)
        if quarantine is not None:
            # Poison spec: report the recorded verdict immediately,
            # never lease it again — a client retry loop cannot
            # livelock the scheduler with known-bad work.
            self.stats.quarantine_hits += 1
            job = _Job(spec=spec, key=key,
                       subscribers=[(submission, index)])
            self._jobs[key] = job
            self._settle(self._quarantine_outcome(spec, quarantine))
            return
        job = self._jobs.get(key)
        if job is not None:
            job.subscribers.append((submission, index))
            self.stats.coalesced += 1
            return
        job = _Job(spec=spec, key=key,
                   subscribers=[(submission, index)])
        if self._journal is not None:
            # WAL ordering: durable before queued, so a crash between
            # the two can only over-remember (re-run a settled spec —
            # harmless, it's a cache hit) and never under-remember.
            self._journal.record_queued(key, spec.canonical())
        self._jobs[key] = job
        self._queue.append(job)
        assert self._wake is not None
        self._wake.set()

    def _fail_unsettled(self, batch: List[_Job], message: str) -> None:
        """Fan an error outcome to every batch job still in flight."""
        from repro.experiments.base import ExperimentReport

        for job in batch:
            if job.key not in self._jobs:
                continue  # settled before the batch aborted
            error = f"{job.key}: {message}"
            report = ExperimentReport(
                experiment_id=job.spec.experiment_id,
                title="job failed — exception in the entry point",
                warnings=[error])
            self._settle(RunOutcome(job.spec, report, cached=False,
                                    elapsed_s=0.0, error=error,
                                    kind=FAIL_ERROR))

    def _quarantine_outcome(self, spec: RunSpec,
                            record: Dict[str, str]) -> RunOutcome:
        """The canned verdict a quarantined spec settles with."""
        from repro.experiments.base import ExperimentReport

        error = (f"{spec.key()}: quarantined after failing the same "
                 f"way twice ({record.get('kind', FAIL_ERROR)}: "
                 f"{record.get('error', '')})")
        report = ExperimentReport(
            experiment_id=spec.experiment_id,
            title="job failed — quarantined",
            warnings=[error])
        return RunOutcome(spec, report, cached=False, elapsed_s=0.0,
                          error=error, kind=FAIL_QUARANTINED)

    def _note_failure(self, job: _Job, outcome: RunOutcome) -> None:
        """Track repeated identical failures; quarantine on the 2nd.

        "Identical" means the same taxonomy kind: a TIMEOUT followed
        by another TIMEOUT is a deterministic hang, not bad luck.  A
        success wipes the key's history (a flaky environment that
        recovered owes nothing).  The quarantine record is journaled
        fsync-durably so a daemon restart cannot resurrect the storm.
        """
        if outcome.error is None:
            self._failures.pop(job.key, None)
            return
        if outcome.kind == FAIL_QUARANTINED:
            return  # a verdict, not a new failure
        kind = outcome.kind or FAIL_ERROR
        counts = self._failures.setdefault(job.key, {})
        counts[kind] = counts.get(kind, 0) + 1
        if counts[kind] < 2 or job.key in self._quarantined:
            return
        record = {"kind": kind, "error": outcome.error}
        self._quarantined[job.key] = record
        self._failures.pop(job.key, None)
        self.stats.quarantined += 1
        if self._journal is not None:
            self._journal.quarantined[job.key] = record
            self._journal.record_quarantined(job.key, kind,
                                             outcome.error)
        self.log(f"quarantined {job.key}: failed the same way twice "
                 f"({kind})")

    def _settle(self, outcome: RunOutcome,
                worker: Optional[WorkerState] = None) -> None:
        """Fan one finished job's result out to every subscriber."""
        job = self._jobs.pop(outcome.spec.key(), None)
        if job is None:  # pragma: no cover — defensive
            return
        self._note_failure(job, outcome)
        if self._journal is not None:
            self._journal.record_settled(job.key, outcome.error)
            if self._journal.wants_compaction:
                self._journal.compact({
                    key: live.spec.canonical()
                    for key, live in self._jobs.items()},
                    dict(self._quarantined))
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
        report_payload = report_to_payload(outcome.report)
        for submission, index in job.subscribers:
            if submission.cancelled:
                continue
            session = submission.session
            self._post(session, {
                "type": "result",
                "submit_id": submission.submit_id,
                "index": index,
                "key": job.key,
                "cached": outcome.cached,
                "coalesced": len(job.subscribers) > 1,
                "elapsed_s": outcome.elapsed_s,
                "error": outcome.error,
                "kind": outcome.kind,
                "report": report_payload,
            })
            self.stats.results_streamed += 1
            session.settle_one(submission,
                               executed=not outcome.cached
                               and outcome.error is None,
                               cached=outcome.cached,
                               failed=outcome.error is not None)
            if submission.pending <= 0:
                self._post(session, {
                    "type": "done",
                    "submit_id": submission.submit_id,
                    "executed": submission.executed,
                    "cached": submission.cached,
                    "failed": submission.failed,
                })

    # -- worker fleet --------------------------------------------------------

    def _expel_worker(self, session_id: int, reason: str, *,
                      timed_out: bool = False) -> None:
        """Forget a worker; requeue whatever it still owed us.

        Requeued jobs go to the *front* of the queue (``started`` is
        reset so the cache re-checks them — the dead worker may have
        uploaded some results already).  The submitting client never
        learns any of this happened.
        """
        worker = self._workers.pop(session_id, None)
        if worker is None:
            return
        reassigned = len(worker.leased)
        for job in reversed(list(worker.leased.values())):
            job.started = False
            self._queue.appendleft(job)
        worker.leased.clear()
        if reassigned or timed_out:
            self.stats.workers_lost += 1
            self.stats.leases_reassigned += reassigned
            self.log(f"worker {worker.id} ({worker.name}) lost "
                     f"({reason}); {reassigned} lease(s) reassigned")
        else:
            self.log(f"worker {worker.id} ({worker.name}) left "
                     f"({reason})")
        if timed_out:
            # The reaper path: the connection is still nominally open
            # (a partitioned peer), so break its blocked reader.  On
            # the disconnect path the reader already returned, and
            # closing here would race the writer loop out of flushing
            # a final error frame.
            with contextlib.suppress(Exception):
                worker.session.writer.close()
        if self._wake is not None:
            self._wake.set()

    def _park_worker(self, session_id: int) -> bool:
        """Connection lost with leases in flight: park, don't requeue.

        The flap bet: a worker that can present the same uid within
        the lease timeout still has those executions running (or
        finished, buffered) and will deliver them — requeueing now
        would pay for every one of them twice.  Returns ``False`` when
        the worker is not eligible (no uid, or nothing leased), in
        which case the caller falls back to a plain expel.
        """
        worker = self._workers.get(session_id)
        if worker is None or not worker.leased or not worker.uid:
            return False
        del self._workers[session_id]
        worker.flap_deadline = time.monotonic() + self.lease_timeout_s
        self._flapping[worker.uid] = worker
        self.stats.workers_flapped += 1
        self.log(f"worker {worker.id} ({worker.name}) connection lost "
                 f"with {len(worker.leased)} lease(s) in flight — "
                 f"parked for reconnect "
                 f"(window {self.lease_timeout_s:.1f}s)")
        return True

    def _expel_flapped(self, uid: str, reason: str) -> None:
        """A parked worker never came back: requeue what it owed."""
        worker = self._flapping.pop(uid, None)
        if worker is None:
            return
        reassigned = len(worker.leased)
        for job in reversed(list(worker.leased.values())):
            job.started = False
            self._queue.appendleft(job)
        worker.leased.clear()
        self.stats.workers_lost += 1
        self.stats.leases_reassigned += reassigned
        self.log(f"worker {worker.id} ({worker.name}) gone "
                 f"({reason}); {reassigned} lease(s) reassigned")
        if self._wake is not None:
            self._wake.set()

    def _handle_upload(self, worker: WorkerState,
                       frame: Dict[str, Any]) -> None:
        """One leased spec's result came back from a worker."""
        key = frame.get("key")
        job = worker.leased.get(key) if isinstance(key, str) else None
        if job is None:
            raise ProtocolError(
                "bad-upload",
                f"upload for a key this worker does not hold: {key!r}")
        error = frame.get("error")
        if error is not None and not isinstance(error, str):
            raise ProtocolError(
                "bad-upload", "upload 'error' must be null or a string")
        kind = frame.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ProtocolError(
                "bad-upload", "upload 'kind' must be null or a string")
        elapsed = frame.get("elapsed_s", 0.0)
        if isinstance(elapsed, bool) or \
                not isinstance(elapsed, (int, float)):
            raise ProtocolError(
                "bad-upload", "upload 'elapsed_s' must be a number")
        payload = frame.get("report")
        if not isinstance(payload, dict):
            raise ProtocolError(
                "bad-upload", "upload 'report' must be an object")
        try:
            report = report_from_payload(payload)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ProtocolError(
                "bad-upload",
                f"malformed report payload for {key}: {exc}") from exc
        cached = bool(frame.get("cached"))
        del worker.leased[key]
        if error is None and self.cache is not None:
            # Stored even for cached=True uploads: that is the
            # transport — a hit in the *worker's* local cache lands in
            # the hub's, where the whole fleet can see it.
            self.cache.store(job.spec, report)
        if cached:
            worker.completed += 1
            self.stats.remote_cache_hits += 1
        self._settle(RunOutcome(job.spec, report, cached=cached,
                                elapsed_s=float(elapsed), error=error,
                                kind=kind if error is not None
                                else None),
                     worker=worker)
        assert self._wake is not None
        self._wake.set()  # a credit came free — dispatch again

    def _handle_cache_lookup(self, worker: WorkerState,
                             frame: Dict[str, Any]) -> None:
        """A worker asks which of its leased keys are already warm.

        Hits are settled *here*, straight from the hub cache — the
        worker just drops them from its batch, so a warm spec costs
        one round trip and zero executions anywhere in the fleet.
        """
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
        for key in keys:
            job = worker.leased.get(key)
            if job is None:
                # Not held here: either already settled (a reconnect
                # flush raced the re-lease) or never ours.  Either
                # way there is nothing for the worker to execute, so
                # it reads as droppable — but not as a cache hit.
                hits.append(key)
                continue
            report = self.cache.load(job.spec) \
                if self.cache is not None else None
            if report is None:
                self.stats.cache_lookup_misses += 1
                continue
            hits.append(key)
            del worker.leased[key]
            self.stats.cache_lookup_hits += 1
            self._settle(RunOutcome(job.spec, report, cached=True,
                                    elapsed_s=0.0))
        self._post(worker.session, {
            "type": "cache-result",
            "lookup_id": lookup_id,
            "hits": hits,
        })
        if hits:
            self.log(f"cache-lookup from worker {worker.id}: "
                     f"{len(hits)}/{len(keys)} warm, settled from "
                     "the hub cache")
            assert self._wake is not None
            self._wake.set()  # freed credits

    def _handle_cache_push(self, worker: WorkerState,
                           frame: Dict[str, Any]) -> None:
        """An out-of-lease result shipped hub-ward by a worker.

        The reconnect-flush path: results a worker finished while
        disconnected arrive here after its leases may have been
        reclaimed, reassigned, or even settled by someone else.
        Content addressing makes every case an idempotent merge —
        settle the job if it is still live (whoever holds the lease),
        and store the payload either way.
        """
        key = frame.get("key")
        spec_payload = frame.get("spec")
        if not isinstance(key, str) or not key:
            raise ProtocolError(
                "bad-push", "cache-push frame needs a string 'key'")
        if not isinstance(spec_payload, dict):
            raise ProtocolError(
                "bad-push", "cache-push frame needs a 'spec' object")
        error = frame.get("error")
        if error is not None and not isinstance(error, str):
            raise ProtocolError(
                "bad-push", "cache-push 'error' must be null or a string")
        kind = frame.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ProtocolError(
                "bad-push", "cache-push 'kind' must be null or a string")
        elapsed = frame.get("elapsed_s", 0.0)
        if isinstance(elapsed, bool) or \
                not isinstance(elapsed, (int, float)):
            raise ProtocolError(
                "bad-push", "cache-push 'elapsed_s' must be a number")
        payload = frame.get("report")
        if not isinstance(payload, dict):
            raise ProtocolError(
                "bad-push", "cache-push 'report' must be an object")
        try:
            spec = RunSpec.from_canonical(spec_payload)
            report = report_from_payload(payload)
        except (ConfigurationError, KeyError, TypeError,
                AttributeError, ValueError) as exc:
            raise ProtocolError(
                "bad-push",
                f"malformed cache-push for {key}: {exc}") from exc
        if spec.key() != key:
            raise ProtocolError(
                "bad-push",
                f"cache-push key {key!r} does not match its spec's "
                f"content hash {spec.key()!r}")
        self.stats.cache_pushes += 1
        if error is None and self.cache is not None:
            self.cache.store(spec, report)
        live = self._jobs.get(key)
        if live is None:
            return  # already settled (or never ours) — store was enough
        # Whoever currently holds the lease is off the hook.
        worker.leased.pop(key, None)
        for other in self._workers.values():
            other.leased.pop(key, None)
        for other in self._flapping.values():
            other.leased.pop(key, None)
        self._settle(RunOutcome(live.spec, report, cached=False,
                                elapsed_s=float(elapsed), error=error,
                                kind=kind if error is not None
                                else None),
                     worker=worker)
        assert self._wake is not None
        self._wake.set()

    async def _worker_loop(self, session: Session,
                           reader: asyncio.StreamReader,
                           register: Dict[str, Any]) -> None:
        """One registered worker's connection: leases out, uploads in."""
        version = register.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "version-mismatch",
                f"worker speaks protocol {version!r}, "
                f"server speaks {PROTOCOL_VERSION}")
        jobs = register.get("jobs", 1)
        if isinstance(jobs, bool) or not isinstance(jobs, int) \
                or not 1 <= jobs <= 4096:
            raise ProtocolError(
                "bad-register",
                f"register frame needs an integer 'jobs' in "
                f"[1, 4096], got {jobs!r}")
        uid = register.get("uid")
        if uid is not None and (not isinstance(uid, str)
                                or not uid or len(uid) > 256):
            raise ProtocolError(
                "bad-register",
                "register 'uid' must be a non-empty string "
                "of at most 256 chars")
        heartbeat_s = register.get("heartbeat_s")
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
        name = register.get("name")
        if not isinstance(name, str) or not name:
            name = session.peer
        now = time.monotonic()
        worker = self._reclaim_worker(uid)
        if worker is None and self._draining:
            # A brand-new worker has nothing the drain is waiting on;
            # a reclaiming one holds leases the drain *needs*, so it
            # is always let back in.
            self._post(session, error_frame(
                "draining",
                "daemon is shutting down and not registering workers"))
            return
        if worker is not None:
            reclaimed = len(worker.leased)
            worker.session = session
            worker.address = session.peer
            worker.name = name
            worker.jobs = jobs
            worker.replica_batch = bool(register.get("replica_batch"))
            worker.version = str(register.get("repro") or "unknown")
            worker.last_seen = now
            worker.flap_deadline = 0.0
            worker.heartbeat_s = float(heartbeat_s or 0.0)
            self.stats.workers_reconnected += 1
            self.stats.leases_reclaimed += reclaimed
            self.log(f"worker {worker.id} reconnected as {name} — "
                     f"{reclaimed} parked lease(s) reclaimed")
        else:
            reclaimed = 0
            worker = WorkerState(
                id=next(self._worker_ids), session=session, name=name,
                address=session.peer, jobs=jobs,
                replica_batch=bool(register.get("replica_batch")),
                version=str(register.get("repro") or "unknown"),
                registered_at=now, last_seen=now, uid=uid,
                heartbeat_s=float(heartbeat_s or 0.0))
            self.stats.workers_registered += 1
            self.log(f"worker {worker.id} registered: {name} "
                     f"(jobs={jobs}, repro {worker.version}) — "
                     f"fleet size {len(self._workers) + 1}")
        self._workers[session.id] = worker
        self._post(session, {
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
        assert self._wake is not None
        self._wake.set()  # fresh capacity — dispatch
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    return
                worker.last_seen = time.monotonic()
                kind = frame["type"]
                if kind == "heartbeat":
                    continue
                elif kind == "upload":
                    self._handle_upload(worker, frame)
                elif kind == "cache-lookup":
                    self._handle_cache_lookup(worker, frame)
                elif kind == "cache-push":
                    self._handle_cache_push(worker, frame)
                elif kind == "register":
                    raise ProtocolError("bad-handshake",
                                        "duplicate register frame")
                else:
                    self._post(session, error_frame(
                        "unknown-type",
                        f"unknown frame type {kind!r} on a worker "
                        "connection"))
        except ProtocolError:
            # A protocol violator is "gone", not "flapping" — its
            # byte stream can't be trusted, so neither can a reclaim.
            # Expel now (requeueing its leases) so the disconnect
            # cleanup below finds nothing to park.
            self._expel_worker(session.id, "protocol violation")
            raise

    def _reclaim_worker(self, uid: Optional[str]
                        ) -> Optional[WorkerState]:
        """The parked (or superseded) WorkerState for ``uid``, if any.

        A re-register may race the daemon's discovery of the old
        connection's death — the uid also reclaims straight out of
        ``_workers``, closing the stale session.
        """
        if not uid:
            return None
        worker = self._flapping.pop(uid, None)
        if worker is not None:
            return worker
        for session_id, live in list(self._workers.items()):
            if live.uid == uid:
                del self._workers[session_id]
                self.log(f"worker {live.id} re-registered over a "
                         f"stale connection — superseding it")
                with contextlib.suppress(Exception):
                    live.session.writer.close()
                return live
        return None

    # -- standby peers -------------------------------------------------------

    def _relay_journal(self, record: Dict[str, Any]) -> None:
        """Fan one freshly-journaled record out to every standby peer.

        Hung on :attr:`ServiceJournal.on_append`, so it runs on the
        event loop thread right after the record is durable locally —
        the standby's mirror can only ever trail ours, never lead it.
        """
        if not self._peers:
            return
        self._sync_seq += 1
        frame = {
            "type": "journal-sync",
            "seq": self._sync_seq,
            "records": [record],
            "digest": sync_digest([record]),
        }
        for peer in self._peers.values():
            peer.synced += 1
            self._post(peer.session, frame)
        self.stats.sync_records_relayed += 1

    async def _peer_loop(self, session: Session,
                         reader: asyncio.StreamReader,
                         first: Dict[str, Any]) -> None:
        """One standby hub's connection: snapshot, then live relay.

        The snapshot and the peer registration happen in one
        synchronous block (no await between them), so no journal
        append can fall in the gap — the standby sees exactly
        snapshot + every later record, in order, on one outbox.
        """
        version = first.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "version-mismatch",
                f"peer speaks protocol {version!r}, "
                f"server speaks {PROTOCOL_VERSION}")
        if self._journal is None:
            self._post(session, error_frame(
                "no-journal",
                "this daemon has no journal to sync (no cache dir); "
                "start it with --cache-dir to support standby peers"))
            return
        name = first.get("name")
        if not isinstance(name, str) or not name:
            name = session.peer
        snapshot = {
            "live": {key: job.spec.canonical()
                     for key, job in self._jobs.items()},
            "quarantined": {key: dict(record)
                            for key, record
                            in self._quarantined.items()},
        }
        peer = PeerState(session=session, name=name,
                         address=session.peer,
                         registered_at=time.monotonic())
        self._peers[session.id] = peer
        self.stats.peers_connected += 1
        self._post(session, {
            "type": "peer-welcome",
            "snapshot": snapshot,
            "digest": sync_digest(snapshot),
            "lease_timeout_s": self.lease_timeout_s,
        })
        self.log(f"standby peer {name} connected "
                 f"({len(snapshot['live'])} live, "
                 f"{len(snapshot['quarantined'])} quarantined "
                 "in its snapshot)")
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    return
                kind = frame["type"]
                if kind == "heartbeat":
                    continue
                self._post(session, error_frame(
                    "unknown-type",
                    f"unknown frame type {kind!r} on a peer "
                    "connection"))
        finally:
            self._peers.pop(session.id, None)
            self.log(f"standby peer {name} disconnected after "
                     f"{peer.synced} synced record(s)")

    # -- per-connection protocol ---------------------------------------------

    def _post(self, session: Session, frame: Dict[str, Any]) -> None:
        """Enqueue a frame on a session's ordered outbox."""
        if session.closed:
            return
        outbox = self._outboxes.get(session.id)
        if outbox is not None:
            outbox.put_nowait(frame)

    async def _writer_loop(self, session: Session,
                           outbox: asyncio.Queue) -> None:
        """Serialise one session's outbound frames (order-preserving)."""
        try:
            while True:
                frame = await outbox.get()
                if frame is None:
                    break
                await write_frame_async(session.writer, frame)
        except (ConnectionError, OSError):
            # Client vanished mid-stream; the reader loop (or the
            # farewell sweep) detaches its submissions.
            session.closed = True
        finally:
            with contextlib.suppress(Exception):
                session.writer.close()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and len(peername) >= 2:
            peername = f"{peername[0]}:{peername[1]}"
        session = Session(writer=writer, peer=str(peername or "local"),
                          high_watermark=self.high_watermark,
                          low_watermark=self.low_watermark)
        outbox: asyncio.Queue = asyncio.Queue()
        self._sessions[session.id] = session
        self._outboxes[session.id] = outbox
        self._writer_tasks[session.id] = asyncio.ensure_future(
            self._writer_loop(session, outbox))
        self.stats.sessions_opened += 1
        try:
            await self._session_loop(session, reader)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            self.log(f"session {session.id}: protocol error "
                     f"[{exc.code}] {exc}")
            self._post(session, error_frame(exc.code, str(exc)))
        except (ConnectionError, OSError) as exc:
            self.log(f"session {session.id}: dropped ({exc})")
        finally:
            self._detach_session(session)
            outbox.put_nowait(None)
            self._sessions.pop(session.id, None)
            self._outboxes.pop(session.id, None)
            task = self._writer_tasks.pop(session.id, None)
            if task is not None:
                with contextlib.suppress(Exception):
                    await asyncio.wait_for(task, timeout=2.0)

    def _detach_session(self, session: Session) -> None:
        """Forget a dead client: its pending subscriptions are void.

        In-flight *executions* are not interrupted — their results
        land in the shared cache, which is exactly what makes a
        reconnecting client resume for free.

        A worker session is the inverse: the daemon owes its *leases*
        to other sessions' clients, so they are requeued for another
        executor instead of forgotten.
        """
        if session.id in self._workers:
            # A flap (identity + leases in flight) parks; anything
            # else is a plain expel with requeue.
            if not self._park_worker(session.id):
                self._expel_worker(session.id, "disconnected")
        session.closed = True
        for submission in list(session.submissions.values()):
            submission.cancelled = True
        for job in self._jobs.values():
            job.subscribers = [
                (submission, index)
                for submission, index in job.subscribers
                if submission.session is not session
            ]
        if self._wake is not None:
            # Jobs orphaned above are dropped on the next dispatch
            # pass; without this wake a drain could wait on them
            # indefinitely.
            self._wake.set()

    async def _session_loop(self, session: Session,
                            reader: asyncio.StreamReader) -> None:
        first = await read_frame_async(reader)
        if first is None:
            return
        if first.get("type") == "register":
            await self._worker_loop(session, reader, first)
            return
        if first.get("type") == "peer":
            await self._peer_loop(session, reader, first)
            return
        if first.get("type") != "hello":
            raise ProtocolError(
                "bad-handshake",
                f"expected a hello, register or peer frame, got "
                f"{first.get('type')!r}")
        if first.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                "version-mismatch",
                f"client speaks protocol {first.get('version')!r}, "
                f"server speaks {PROTOCOL_VERSION}")
        self._post(session, {
            "type": "welcome",
            "version": PROTOCOL_VERSION,
            "server": "repro-serve",
            "jobs": self._runner.jobs,
            "cache": self.cache is not None,
            "workers": len(self._workers),
        })
        while True:
            await session.throttle()  # backpressure: stop reading
            frame = await read_frame_async(reader)
            if frame is None:
                return
            kind = frame["type"]
            if kind == "submit":
                self._handle_submit(session, frame)
            elif kind == "cancel":
                self._handle_cancel(session, frame)
            elif kind == "stats":
                self._post(session, self._stats_frame())
            elif kind == "shutdown":
                self.initiate_shutdown()
            elif kind == "hello":
                raise ProtocolError("bad-handshake",
                                    "duplicate hello frame")
            else:
                self._post(session, error_frame(
                    "unknown-type",
                    f"unknown frame type {kind!r}"))

    def _handle_submit(self, session: Session,
                       frame: Dict[str, Any]) -> None:
        submit_id = frame.get("submit_id")
        payloads = frame.get("specs")
        if not isinstance(submit_id, str) or not submit_id:
            self._post(session, error_frame(
                "bad-submit", "submit frame needs a string submit_id"))
            return
        if not isinstance(payloads, list) or not payloads:
            self._post(session, error_frame(
                "bad-submit",
                "submit frame needs a non-empty 'specs' list"))
            return
        if submit_id in session.submissions:
            self._post(session, error_frame(
                "duplicate-submit",
                f"submit_id {submit_id!r} is already live on this "
                "connection"))
            return
        if self._draining:
            self._post(session, error_frame(
                "draining",
                "daemon is shutting down and not accepting new work"))
            return
        if len(payloads) > self.max_submit:
            self._post(session, error_frame(
                "submit-too-large",
                f"{len(payloads)} specs in one submit exceeds the "
                f"cap of {self.max_submit}; split the sweep"))
            return
        try:
            specs = [RunSpec.from_canonical(payload).validate()
                     for payload in payloads]
        except (ConfigurationError, KeyError, TypeError,
                AttributeError) as exc:
            self._post(session, error_frame(
                "bad-spec", f"submit {submit_id!r} rejected: {exc}"))
            return
        if self._disk_nearly_full():
            # Refusing to journal beats corrupting the journal: a full
            # cache volume turns new work away with a typed error the
            # operator can act on (gc or grow the disk).
            self.stats.disk_refusals += 1
            self._post(session, error_frame(
                "cache-full",
                f"cache volume has under {self.min_free_mb}MB free; "
                "refusing to journal new work — run `repro cache gc` "
                "or free disk space"))
            return
        # Admission control: count only keys that would *add* queue
        # depth — resubmits of in-flight work coalesce for free, and
        # quarantined keys settle instantly, so neither is load.
        new_keys = ({spec.key() for spec in specs}
                    - set(self._jobs) - set(self._quarantined))
        if len(self._jobs) + len(new_keys) > self.max_queue:
            self.stats.busy_rejections += 1
            self._post(session, {
                "type": "busy",
                "submit_id": submit_id,
                "retry_after_s": self.busy_retry_s,
                "queued": len(self._queue),
                "inflight": len(self._jobs),
                "max_queue": self.max_queue,
            })
            self.log(f"session {session.id}: shed submit "
                     f"{submit_id!r} ({len(new_keys)} new keys would "
                     f"exceed max_queue={self.max_queue})")
            return
        submission = session.accept(submit_id, len(specs))
        self.stats.submitted += len(specs)
        self._post(session, {
            "type": "accepted",
            "submit_id": submit_id,
            "total": len(specs),
            "keys": [spec.key() for spec in specs],
        })
        for index, spec in enumerate(specs):
            self._enqueue(spec, submission, index)
        self.log(f"session {session.id}: accepted {len(specs)} "
                 f"job(s) as {submit_id!r} "
                 f"({len(self._queue)} unique queued)")

    def _handle_cancel(self, session: Session,
                       frame: Dict[str, Any]) -> None:
        submit_id = frame.get("submit_id")
        submission = session.submissions.get(submit_id) \
            if isinstance(submit_id, str) else None
        if submission is None:
            self._post(session, error_frame(
                "unknown-submit",
                f"no live submission {submit_id!r} on this "
                "connection"))
            return
        submission.cancelled = True
        for job in self._jobs.values():
            job.subscribers = [
                (sub, index) for sub, index in job.subscribers
                if sub is not submission
            ]
        detached = submission.pending
        session.detach(submission, detached)
        if self._wake is not None:
            # As in _detach_session: promptly drop queued jobs whose
            # last subscriber just left.
            self._wake.set()
        self._post(session, {
            "type": "cancelled",
            "submit_id": submit_id,
            "detached": detached,
        })

    def _disk_nearly_full(self) -> bool:
        """Whether the cache volume is below the free-space floor."""
        if self.cache is None or self.min_free_mb <= 0:
            return False
        free = free_disk_bytes(self.cache.root)
        if free is None:
            return False
        return free < self.min_free_mb * 1024 * 1024

    def _stats_frame(self) -> Dict[str, Any]:
        now = time.monotonic()
        payload = self.stats.payload()
        payload.update({
            "type": "stats",
            "version": PROTOCOL_VERSION,
            "jobs": self._runner.jobs,
            "inflight": len(self._jobs),
            "queued": len(self._queue),
            "sessions": len(self._sessions),
            "draining": self._draining,
            "uptime_s": now - self._started,
            "cache": self.cache is not None,
            "local_execution": self.local_execution,
            "lease_timeout_s": self.lease_timeout_s,
            "journal": self._journal is not None,
            "resume": self.resume,
            "max_queue": self.max_queue,
            "min_free_mb": self.min_free_mb,
            "governed": self.limits is not None
            and self.limits.enabled,
            "quarantined_keys": len(self._quarantined),
            "peers": len(self._peers),
            "workers": [
                worker.stats_row(now)
                for worker in sorted(self._workers.values(),
                                     key=lambda w: w.id)
            ] + [
                worker.stats_row(now, status="flapping")
                for worker in sorted(self._flapping.values(),
                                     key=lambda w: w.id)
            ],
        })
        return payload


__all__ = ["ReproDaemon", "DaemonStats", "WorkerState", "PeerState"]
