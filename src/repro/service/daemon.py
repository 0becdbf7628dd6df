"""The always-on sweep daemon behind ``repro serve``: the asyncio shell.

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
  A client that dies mid-sweep loses nothing: a resubmission streams
  completed jobs back as instant hits.
* **A worker fleet** — remote nodes (``repro worker --connect``,
  :mod:`repro.service.worker`) register over the same socket protocol
  and take leases beside the local pool.
* **Crash recovery** — with a cache directory, a write-ahead journal
  (:mod:`repro.service.journal`) records every accepted spec, and a
  SIGKILLed daemon restarted with ``--resume`` (the default) replays
  it: zero client-visible loss, byte-identical manifests.
* **Hub failover** — a standby daemon (``repro serve --standby
  --follow ADDR``, :mod:`repro.service.standby`) connects as a
  ``peer``, mirrors every journal append, and promotes itself — the
  same journal replay as ``--resume`` — when the primary dies.
* **Resource governance** — optional per-job deadlines and memory
  ceilings (``--job-timeout``/``--job-memory-mb``) bound local
  execution.
* **Graceful drain** — SIGTERM (or a ``shutdown`` frame) stops
  accepting work, finishes and streams everything in flight, sends
  ``bye`` to connected clients and exits 0.

Every scheduling decision — dedup, leasing, flap parking, quarantine,
admission control, what to journal and when — lives in
:class:`~repro.service.hub.HubCore`, which does no I/O.  This module
is its shell: it binds, runs one read loop per connection whatever
its role, writes each connection's frames in order and pauses reading
a throttled one, beats the core's reaper clock, runs local batches on
the ``JobRunner`` in a worker thread (results cross back in via
``call_soon_threadsafe``), and carries out the effects the core
returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.runner.cache import ResultCache
from repro.runner.executor import JobRunner, RunOutcome
from repro.runner.governance import ResourceLimits
from repro.runner.spec import RunSpec
from repro.service.hub import (
    Append,
    Close,
    Closed,
    DaemonStats,
    HubCore,
    LocalDone,
    LocalOutcome,
    Opened,
    PeerState,
    Received,
    Replayed,
    Send,
    Shutdown,
    StartLocal,
    Tick,
    WorkerState,
)
from repro.service.journal import ServiceJournal, journal_path
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    parse_address,
    read_frame_async,
)


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
        self.core = HubCore(
            cache=self.cache, jobs=jobs, local_execution=local_execution,
            lease_timeout_s=lease_timeout_s, max_submit=max_submit,
            max_queue=max_queue, busy_retry_s=busy_retry_s,
            min_free_mb=min_free_mb, high_watermark=high_watermark,
            low_watermark=low_watermark, resume=resume,
            governed=limits is not None and limits.enabled,
            promoted=promoted, now=time.monotonic())
        self.quiet = quiet
        #: Write-ahead journal; opened in serve() when a cache dir
        #: exists (durability is keyed to the same root the results
        #: land in — no cache, nothing worth replaying into).
        self._journal: Optional[ServiceJournal] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._session_ids = itertools.count(1)
        #: The open connections' writers.  A writer's transport buffer
        #: is the connection's ordered outbox: ``write`` never blocks.
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        #: Readers paused on a throttled session, woken once it drains.
        self._paused: Dict[int, asyncio.Event] = {}
        self._local_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._ready = threading.Event()

    @property
    def stats(self) -> DaemonStats:
        return self.core.stats

    @property
    def lease_timeout_s(self) -> float:
        return self.core.lease_timeout_s

    # -- lifecycle -----------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro-serve] {message}", file=sys.stderr,
                  flush=True)

    def run(self) -> int:
        """Blocking entry point; returns the process exit code."""
        if self.core.local_execution:
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
                loop.call_soon_threadsafe(self._feed, Shutdown())

    async def serve(self) -> None:
        """Listen, execute, drain; returns after a graceful shutdown."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
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
                self._loop.add_signal_handler(signum, self._feed,
                                              Shutdown())
        self.log(f"listening on {self.address} "
                 f"(jobs={self._runner.jobs}, "
                 f"cache={'on' if self.cache is not None else 'off'})")
        # One machine-parseable readiness line on stdout: supervisors
        # and CI wait for this instead of scraping stderr heuristics.
        print(json.dumps(self.ready_banner(), sort_keys=True),
              flush=True)
        self._ready.set()
        ticker = asyncio.ensure_future(self._tick_loop())
        drained_clean = False
        try:
            await self._stopped.wait()
            drained_clean = True
        finally:
            ticker.cancel()
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
        return dict(
            self.core.settings(),
            event="serve-ready",
            address=self.bound_address,
            pid=os.getpid(),
            cache=str(self.cache.root) if self.cache is not None
            else None,
            recovered_jobs=self.stats.recovered_jobs,
            promotions=self.stats.promotions,
        )

    def _open_journal(self) -> None:
        """Open the WAL and (by default) replay the previous life's debt
        into the core."""
        if self.cache is None:
            return
        if self.core.resume:
            self._journal, debt = ServiceJournal.recover(self.cache.root)
            self._feed(Replayed(debt, dict(self._journal.quarantined)))
        else:
            self._journal = ServiceJournal(journal_path(self.cache.root))
            self._journal.compact({}, {})  # explicitly forget the past

    async def _farewell(self) -> None:
        """``bye`` every open connection, then close it once flushed."""
        writers = list(self._writers.values())
        for writer in writers:
            if not writer.is_closing():
                writer.write(encode_frame({"type": "bye"}))
            writer.close()
        for writer in writers:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.wait_closed(), timeout=2.0)

    # -- the core and its effects ---------------------------------------------

    def _feed(self, event: Any) -> None:
        """Run one event through the core and carry out its effects."""
        for effect in self.core.handle(event, time.monotonic()):
            if isinstance(effect, Send):
                writer = self._writers.get(effect.sid)
                if writer is not None and not writer.is_closing():
                    writer.write(encode_frame(effect.frame))
            elif isinstance(effect, Append):
                assert self._journal is not None
                self._journal.record_entry(effect.record)
                if self._journal.wants_compaction:
                    self._journal.compact({
                        key: job.canonical
                        for key, job in self.core.live.items()})
            elif isinstance(effect, StartLocal):
                self._local_task = asyncio.ensure_future(
                    self._run_local(effect.specs))
            elif isinstance(effect, Close):
                writer = self._writers.pop(effect.sid, None)
                if writer is not None:
                    writer.close()  # after what it already holds
            else:
                self.log(effect.message)
        for sid in [sid for sid in self._paused
                    if not self._throttled(sid)]:
            self._paused.pop(sid).set()
        if self.core.finished and self._stopped is not None:
            self._stopped.set()

    def _throttled(self, sid: int) -> bool:
        session = self.core.sessions.get(sid)
        return session is not None and session.throttled

    async def _tick_loop(self) -> None:
        """The core's reaper clock: a beat every quarter lease."""
        interval = max(0.05, self.core.lease_timeout_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            self._feed(Tick())

    async def _run_local(self, specs: List[RunSpec]) -> None:
        """Run one batch on the local JobRunner in a worker thread."""
        loop = asyncio.get_running_loop()

        def settle_threadsafe(outcome: RunOutcome) -> None:
            loop.call_soon_threadsafe(self._feed, LocalOutcome(outcome))

        error = None
        try:
            await asyncio.to_thread(self._runner.run, specs,
                                    settle_threadsafe)
        except Exception as exc:  # noqa: BLE001
            # A job's own exception settles in-band as an ERROR row;
            # this is a failure outside any job (a cache.store
            # OSError, say).  The daemon outlives it: the core fails
            # whatever the batch left unsettled.
            error = f"{type(exc).__name__}: {exc}"
        self._feed(LocalDone(error))

    # -- connections ---------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """The one read loop, for clients, workers and peers alike."""
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and len(peername) >= 2:
            peername = f"{peername[0]}:{peername[1]}"
        sid = next(self._session_ids)
        self._writers[sid] = writer
        self._feed(Opened(sid, str(peername or "local")))
        error = None
        try:
            while sid in self._writers:
                while self._throttled(sid):  # backpressure: stop reading
                    resume = self._paused[sid] = asyncio.Event()
                    await resume.wait()
                frame = await read_frame_async(reader)
                if frame is None:
                    break
                self._feed(Received(sid, frame))
        except ProtocolError as exc:
            error = exc
        except (ConnectionError, OSError) as exc:
            self.log(f"session {sid}: dropped ({exc})")
        finally:
            self._feed(Closed(sid, error))
            self._writers.pop(sid, None)
            writer.close()
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.wait_closed(), timeout=2.0)


__all__ = ["ReproDaemon", "DaemonStats", "WorkerState", "PeerState"]
