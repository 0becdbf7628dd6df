"""Remote worker node: ``repro worker --connect ADDR``.

A :class:`ReproWorker` is the other half of the fleet protocol the
daemon's lease scheduler speaks (see :mod:`repro.service.protocol`):
it dials a ``repro serve`` daemon, registers with a capability payload
(parallel width, replica-batch support, repro version), then sits in a
pull loop — the daemon leases it batches of canonical ``RunSpec``
payloads sized to its width, it executes them on its own local
:class:`~repro.runner.executor.JobRunner`, and uploads one canonical
report payload per spec as each settles.

Design points:

* **Byte-identity is inherited, not re-proven.**  A spec fully
  determines its report and uploads reuse the canonical payload form
  of :mod:`repro.runner.cache`, so results are indistinguishable from
  local execution no matter which node ran them.
* **Crash isolation is inherited too.**  The runner's warm-worker
  pool already turns a segfaulting job into a FAIL-row outcome
  (``WorkerCrashError`` semantics) and an entry-point exception into
  an ERROR row for that spec alone — the worker process survives
  both.
* **Liveness is a background heartbeat thread**, so a long-running
  lease does not look like a death.  The daemon picks the interval
  (a third of its lease timeout) and tells us at registration.
  Socket writes (uploads from the lease loop, heartbeats from the
  thread) share one lock; frames are atomic under it.  Sends carry an
  OS-level timeout (``SO_SNDTIMEO``) and the thread sleeps on an
  event, so a wedged daemon can neither strand the heartbeat in a
  blocked ``send`` nor stop :meth:`stop` from completing — ``run``
  always joins the thread with a deadline on the way out.
* **Identity survives the connection.**  The worker registers with a
  stable ``uid``; when the connection drops mid-campaign it keeps
  executing, buffers finished results, reconnects under
  :class:`~repro.service.client.RetryPolicy` backoff, reclaims its
  parked leases (the daemon's reconnect-without-requeue path) and
  flushes the buffer as ``cache-push`` frames.  A network flap costs
  the fleet zero re-executions.  ``--connect`` accepts a
  comma-separated failover list; each reconnect attempt rotates to
  the next hub, so when a standby promotes itself the fleet
  re-registers there without operator help.
* **The hub's cache is checked before executing.**  Each lease opens
  with a ``cache-lookup``; warm keys are settled hub-side and dropped
  from the batch, so a worker joining mid-campaign executes no spec
  the fleet already paid for.  With ``cache_dir`` set the worker also
  keeps a local cache whose hits upload as ``cached`` payloads —
  shipping its private history into the hub.
* **A dead daemon is handled like a dead server anywhere else** —
  the CLI maps a failed dial or a version-mismatch handshake to exit
  code 2 with a one-line error, and a connection lost mid-service
  (after reconnects are exhausted) to exit code 1.
"""

from __future__ import annotations

import collections
import itertools
import os
import socket
import struct
import sys
import threading
import uuid
from typing import Any, Deque, Dict, List, Optional

from repro.experiments.base import ExperimentReport
from repro.runner.cache import ResultCache, report_to_payload
from repro.runner.executor import JobRunner, RunOutcome
from repro.runner.governance import FAIL_ERROR, ResourceLimits
from repro.runner.spec import RunSpec
from repro.service.client import RetryPolicy
from repro.service.protocol import (
    ProtocolError,
    connect,
    parse_address_list,
    read_frame,
    register_frame,
    write_frame,
)

#: Upper bound on one blocking socket send; a wedged peer turns into
#: an OSError the caller handles instead of a stranded thread.
SEND_TIMEOUT_S = 10.0


class WorkerError(RuntimeError):
    """Registration or service failed in a way the worker reports
    with one line and an exit code (see ``repro worker``)."""


def _close_socket(sock: socket.socket) -> None:
    """Shut down and close, ignoring a socket that is already gone."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _bound_send_timeout(sock: socket.socket,
                        seconds: float = SEND_TIMEOUT_S) -> None:
    """Bound blocking sends without touching the receive side.

    ``settimeout`` would cap reads too (and leases can be minutes
    apart), so the send bound goes in at the socket-option level.
    Best-effort: platforms without ``SO_SNDTIMEO`` keep the old
    behaviour.
    """
    if not hasattr(socket, "SO_SNDTIMEO"):  # pragma: no cover
        return
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO,
            struct.pack("ll", int(seconds),
                        int((seconds - int(seconds)) * 1_000_000)))
    except (OSError, struct.error):  # pragma: no cover — platform quirk
        return


class ReproWorker:
    """One remote execution node for a ``repro serve`` daemon.

    Construct, then call :meth:`run` (blocking; the CLI path) or hand
    :meth:`run` to a thread and use :meth:`wait_registered` /
    :meth:`stop` (tests).  ``run`` returns the process
    exit code: 0 after a clean ``bye`` or :meth:`stop`, 1 when the
    daemon stays gone through every reconnect attempt; a daemon that
    cannot be dialed or refuses the *first* registration raises
    (``OSError`` / :class:`WorkerError`) so the CLI can map both to
    exit code 2.
    """

    def __init__(self, address: str, *, jobs: int = 1,
                 replica_batch: bool = False,
                 name: Optional[str] = None,
                 timeout: float = 30.0,
                 cache_dir: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 limits: Optional[ResourceLimits] = None,
                 heartbeat_s: Optional[float] = None,
                 quiet: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat must be > 0 seconds, got {heartbeat_s}")
        #: Failover candidates, in preference order; ``self.address``
        #: tracks whichever one the worker is currently talking to.
        self.addresses = parse_address_list(address)
        self.address = self.addresses[0]
        self._target = 0
        self.jobs = jobs
        self.replica_batch = replica_batch
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        #: Stable identity across reconnects (but not restarts: a new
        #: process must not reclaim leases whose work died with the
        #: old one, so the uid includes a per-process nonce).
        self.uid = f"{self.name}-{uuid.uuid4().hex[:8]}"
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=8, base_delay_s=0.25, max_delay_s=5.0)
        self.quiet = quiet
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self._runner = JobRunner(jobs=jobs, cache=self.cache,
                                 replica_batch=replica_batch,
                                 limits=limits)
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._registered = threading.Event()
        self._stop_event = threading.Event()
        self._stopping = False
        #: frames received while waiting for a specific reply
        #: (a lease can land while a cache-lookup is in flight).
        self._inbox: Deque[Dict[str, Any]] = collections.deque()
        #: results finished while disconnected, flushed as cache-push
        #: frames on reconnect:
        #: [(spec, elapsed_s, error, kind, payload)].
        self._push_buffer: List[tuple] = []
        self._lookup_ids = itertools.count(1)
        self.worker_id: Optional[int] = None
        #: Requested override for the daemon-derived interval; the
        #: daemon validates it against its lease timeout and echoes
        #: the interval actually in force back at registration.
        self.heartbeat_override_s = heartbeat_s
        self.heartbeat_interval_s = heartbeat_s or 5.0
        self.leases_run = 0
        self.specs_completed = 0
        self.specs_failed = 0
        self.specs_skipped_warm = 0
        self.reconnects = 0

    # -- lifecycle -----------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro-worker] {message}", file=sys.stderr,
                  flush=True)

    def wait_registered(self, timeout: float = 10.0) -> bool:
        """Block until the handshake completed (thread-mode tests)."""
        return self._registered.wait(timeout)

    def stop(self) -> None:
        """Thread-safe clean-stop request: closes the socket, which
        pops the serve loop out of its blocking read with exit 0."""
        self._stopping = True
        self._stop_event.set()
        sock = self._sock
        if sock is not None:
            _close_socket(sock)

    def run(self) -> int:
        """Warm, dial, register, then serve leases until told to stop.

        Raises ``OSError`` (daemon unreachable) or :class:`WorkerError`
        (registration refused) before any work is accepted; after
        that, a lost connection goes through the reconnect policy and
        only an exhausted policy returns 1.
        """
        self._runner.warm()  # fork workers before any threads exist
        # First registration: give every failover candidate one shot
        # at being dialed (the standby may already be the live hub),
        # but let a *refusal* raise immediately — a daemon that
        # rejects our registration (bad heartbeat, version mismatch)
        # will reject it everywhere.
        for remaining in range(len(self.addresses) - 1, -1, -1):
            try:
                self._connect()
                break
            except OSError:
                if remaining == 0:
                    raise
                self._target += 1
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="repro-worker-heartbeat",
                                     daemon=True)
        heartbeat.start()
        try:
            while True:
                try:
                    return self._serve()
                except (ProtocolError, ConnectionError, OSError) as exc:
                    if self._stopping:
                        return 0
                    self.log(f"connection to {self.address} lost: "
                             f"{exc}")
                if not self._reconnect():
                    self.log(
                        f"daemon stayed unreachable through "
                        f"{self.retry.max_attempts} reconnect "
                        f"attempts; giving up")
                    return 1
        finally:
            self._stopping = True
            self._stop_event.set()
            self.stop()
            # Deadline, not forever: a send stuck inside the daemon's
            # kernel buffers is already bounded by SO_SNDTIMEO, and
            # the thread is a daemon thread besides — but an orderly
            # exit should not depend on either.
            heartbeat.join(timeout=SEND_TIMEOUT_S)

    # -- the fleet protocol, worker side -------------------------------------

    def _connect(self) -> None:
        self._inbox.clear()  # stale frames die with their connection
        self.address = self.addresses[self._target % len(self.addresses)]
        previous, self._sock = self._sock, None
        if previous is not None:
            _close_socket(previous)  # the connection that was lost
        self._sock = sock = connect(self.address, timeout=self.timeout)
        try:
            _bound_send_timeout(sock)
            self._send(register_frame(jobs=self.jobs,
                                      replica_batch=self.replica_batch,
                                      name=self.name, uid=self.uid,
                                      heartbeat_s=self.heartbeat_override_s))
            reply = read_frame(sock)
            if reply is None:
                raise WorkerError(
                    "server closed the connection during registration")
            if reply.get("type") == "error":
                raise WorkerError(
                    f"registration refused [{reply.get('code')}]: "
                    f"{reply.get('message')}")
            if reply.get("type") != "registered":
                raise WorkerError(
                    f"expected a registered frame, got "
                    f"{reply.get('type')!r}")
        except BaseException:
            self._sock = None
            _close_socket(sock)
            raise
        self.worker_id = reply.get("worker_id")
        interval = reply.get("heartbeat_interval_s")
        if isinstance(interval, (int, float)) and interval > 0:
            self.heartbeat_interval_s = float(interval)
        # Leases can be minutes apart on a busy fleet; only outbound
        # traffic is time-bounded (see _bound_send_timeout).
        self._sock.settimeout(None)
        self._registered.set()
        reclaimed = reply.get("reclaimed") or 0
        self.log(f"registered with {self.address} as worker "
                 f"{self.worker_id} (jobs={self.jobs}"
                 + (f", {reclaimed} lease(s) reclaimed" if reclaimed
                    else "") + ")")

    def _reconnect(self) -> bool:
        """Backoff-paced re-dial + re-register; flushes the buffer.

        Returns ``False`` once the policy is exhausted (or a stop was
        requested mid-backoff).  Registration *refusals* also count as
        failed attempts here — a draining daemon and a dead daemon
        look the same to a worker that just wants its campaign back.
        Each attempt rotates through the failover list, so a promoted
        standby is found within ``len(addresses)`` attempts.
        """
        self._registered.clear()
        for attempt, delay in enumerate(self.retry.delays(), start=1):
            if self._stop_event.wait(delay) or self._stopping:
                return False
            self._target += 1  # rotate: next hub in the failover list
            try:
                self._connect()
            except (WorkerError, OSError) as exc:
                self.log(f"reconnect attempt {attempt}/"
                         f"{self.retry.max_attempts} failed to reach "
                         f"{self.address}: {exc}")
                continue
            self.reconnects += 1
            self._flush_pushes()
            return True
        return False

    def _flush_pushes(self) -> None:
        """Ship results that finished while disconnected hub-ward."""
        flushed = 0
        while self._push_buffer:
            spec, elapsed_s, error, kind, payload = self._push_buffer[0]
            try:
                self._send({
                    "type": "cache-push",
                    "key": spec.key(),
                    "spec": spec.canonical(),
                    "elapsed_s": elapsed_s,
                    "error": error,
                    "kind": kind,
                    "report": payload,
                })
            except OSError:
                # Connection died again already; keep the remainder
                # for the next successful reconnect.
                break
            self._push_buffer.pop(0)
            flushed += 1
        if flushed:
            self.log(f"flushed {flushed} buffered result(s) "
                     "as cache-push")

    def _send(self, frame: Dict[str, Any]) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("worker socket is closed")
        with self._send_lock:
            write_frame(sock, frame)

    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_interval_s):
            if self._stopping:
                return
            if not self._registered.is_set():
                continue  # mid-reconnect: nothing to heartbeat yet
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                continue  # the serve loop handles the dead connection

    def _next_frame(self) -> Optional[Dict[str, Any]]:
        if self._inbox:
            return self._inbox.popleft()
        assert self._sock is not None
        return read_frame(self._sock)

    def _serve(self) -> int:
        while True:
            frame = self._next_frame()
            if frame is None:
                if self._stopping:
                    return 0
                raise ConnectionError(
                    f"{self.address} closed the connection without "
                    "a bye")
            kind = frame.get("type")
            if kind == "lease":
                self._run_lease(frame)
            elif kind == "bye":
                self.log(f"daemon said bye after {self.leases_run} "
                         f"lease(s) ({self.specs_completed} ok, "
                         f"{self.specs_failed} failed); exiting")
                return 0
            elif kind == "busy":
                # Admission control reaches workers too: back off for
                # the daemon's hint (bounded by the retry policy's
                # ceiling) instead of hammering an overloaded hub.
                delay = float(frame.get("retry_after_s") or 1.0)
                self._stop_event.wait(
                    min(delay, self.retry.max_delay_s))
            elif kind == "error":
                self.log(f"daemon error [{frame.get('code')}]: "
                         f"{frame.get('message')}")
                return 1
            # anything else: ignore — forward-compatible

    def _run_lease(self, frame: Dict[str, Any]) -> None:
        """Execute one leased batch, uploading results as they settle.

        The daemon only ever leases well-formed canonical specs; if
        this one did not, the stream cannot be trusted and the raise
        below drops the connection (the daemon reassigns the lease).
        """
        lease_id = frame.get("lease_id")
        payloads = frame.get("specs")
        if not isinstance(payloads, list) or not payloads:
            raise ProtocolError(
                "bad-lease",
                f"lease {lease_id!r} carries no spec list")
        try:
            specs = [RunSpec.from_canonical(payload)
                     for payload in payloads]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ProtocolError(
                "bad-lease",
                f"lease {lease_id!r} carries a malformed spec: "
                f"{exc}") from exc
        self.leases_run += 1
        specs = self._drop_warm(lease_id, specs)
        if not specs:
            return
        self.log(f"lease {lease_id}: {len(specs)} job(s)")
        uploaded = set()

        def deliver(outcome: RunOutcome) -> None:
            self._deliver(lease_id, outcome)
            uploaded.add(outcome.spec.key())

        try:
            self._runner.run(specs, on_outcome=deliver)
        except (ProtocolError, OSError):
            raise  # the connection itself failed mid-upload
        except Exception as exc:  # noqa: BLE001
            # Same contract as the daemon's local batches: a job's own
            # exception is already an in-band ERROR row, so this is a
            # failure outside any job (a cache.store OSError, say).
            # It aborts the rest of *this lease*; every unsettled spec
            # fails visibly and the worker keeps serving.
            self.log(f"lease {lease_id} aborted: "
                     f"{type(exc).__name__}: {exc}")
            self._fail_rest(lease_id, specs, uploaded,
                            f"{type(exc).__name__}: {exc}")

    def _drop_warm(self, lease_id: Any,
                   specs: List[RunSpec]) -> List[RunSpec]:
        """Ask the hub which leased keys are warm; keep the cold ones.

        The daemon settles every hit itself, so a dropped spec is a
        *finished* spec from the client's point of view.  A lookup
        that cannot complete (connection trouble) degrades to
        executing everything — correctness never depends on it.
        """
        lookup_id = f"c{next(self._lookup_ids)}"
        try:
            self._send({
                "type": "cache-lookup",
                "lookup_id": lookup_id,
                "keys": [spec.key() for spec in specs],
            })
            result = self._await_cache_result(lookup_id)
        except (ConnectionError, OSError):
            return specs
        hits = result.get("hits")
        if not isinstance(hits, list):
            return specs
        warm = {key for key in hits if isinstance(key, str)}
        if warm:
            self.specs_skipped_warm += len(warm)
            self.log(f"lease {lease_id}: {len(warm)}/{len(specs)} "
                     "already warm at the hub — skipped")
        return [spec for spec in specs if spec.key() not in warm]

    def _await_cache_result(self, lookup_id: str) -> Dict[str, Any]:
        """Read until our cache-result; stash everything else.

        Frames that arrive out of order (another lease, an error, the
        drain's bye) go to ``_inbox`` for the serve loop — the
        conversation is a stream, not a strict request/response.
        """
        assert self._sock is not None
        while True:
            frame = read_frame(self._sock)
            if frame is None:
                raise ConnectionError(
                    "connection closed awaiting a cache-result")
            if frame.get("type") == "cache-result" \
                    and frame.get("lookup_id") == lookup_id:
                return frame
            self._inbox.append(frame)

    def _deliver(self, lease_id: Any, outcome: RunOutcome) -> None:
        """Upload one outcome, or buffer it if the daemon is gone."""
        if outcome.error is None:
            self.specs_completed += 1
        else:
            self.specs_failed += 1
        payload = report_to_payload(outcome.report)
        try:
            self._send({
                "type": "upload",
                "lease_id": lease_id,
                "key": outcome.spec.key(),
                "spec": outcome.spec.canonical(),
                "cached": outcome.cached,
                "elapsed_s": outcome.elapsed_s,
                "error": outcome.error,
                "kind": outcome.kind,
                "report": payload,
            })
        except OSError:
            if self._stopping:
                raise
            # Keep executing the lease: the work is paid for whether
            # or not the daemon is listening right now, and the
            # buffer turns into cache-push frames on reconnect.
            self._push_buffer.append(
                (outcome.spec, outcome.elapsed_s, outcome.error,
                 outcome.kind, payload))

    def _fail_rest(self, lease_id: Any, specs: List[RunSpec],
                   uploaded: set, message: str) -> None:
        for spec in specs:
            key = spec.key()
            if key in uploaded:
                continue
            error = f"{key}: {message}"
            report = ExperimentReport(
                experiment_id=spec.experiment_id,
                title="job failed — exception in the entry point",
                warnings=[error])
            self._deliver(lease_id, RunOutcome(
                spec, report, cached=False, elapsed_s=0.0,
                error=error, kind=FAIL_ERROR))


__all__ = ["ReproWorker", "WorkerError", "SEND_TIMEOUT_S"]
