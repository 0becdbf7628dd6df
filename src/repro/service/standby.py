"""Standby hub: ``repro serve --standby --follow ADDR``.

A :class:`StandbyHub` is the warm spare that removes the daemon as the
fleet's last single point of failure.  It dials the primary, opens the
``peer`` conversation (:mod:`repro.service.protocol`), receives a
digest-verified snapshot of the primary's journal state, and then
mirrors every subsequent journal append into its *own* write-ahead
journal under its *own* cache directory.  From that moment the
standby's disk always holds a state the primary already made durable
— the mirror trails, never leads.

Failure handling is deliberately asymmetric:

* **Clean drain** (the primary sends ``bye``, or a ``drained`` record
  arrives): the operator stopped the primary on purpose.  The standby
  marks its own mirror drained and exits 0 — promoting here would
  resurrect a campaign the operator just ended.
* **Loss** (EOF without ``bye``, a read timeout with no ``sync-ping``,
  a connection error): re-dial under the retry policy.  Only when
  every attempt fails does the standby **promote**: it replays its
  mirrored journal exactly as ``repro serve --resume`` does — via
  :class:`~repro.service.daemon.ReproDaemon` with ``resume=True`` and
  ``promoted=True`` — and starts serving on its own address.  The
  retry gauntlet is the split-brain guard: a primary that was merely
  slow gets the whole backoff window to prove it is alive.
* **Never synced**: a standby that could not complete even one
  snapshot handshake refuses to promote (that is an operator error —
  a typo'd ``--follow`` must not silently become a fresh empty hub)
  and raises :class:`StandbyError` instead, which the CLI maps to
  exit code 2.

Multi-address clients (``--server primary,standby``) and workers
(``--connect primary,standby``) rotate onto the promoted hub
automatically; in-flight dedup plus the shared-cache transport make
their resubmissions free, so a mid-campaign primary death costs the
campaign nothing but the failover latency.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
from typing import Any, Dict, Optional

from repro.runner.governance import ResourceLimits
from repro.service.client import RetryPolicy
from repro.service.daemon import ReproDaemon
from repro.service.journal import (
    ServiceJournal,
    apply_record,
    journal_path,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    connect,
    peer_frame,
    read_frame,
    sync_digest,
    write_frame,
)

#: Floor on the follower's read timeout; the primary pings every
#: lease_timeout/4, so a full lease timeout of silence means at least
#: four missed pings — a wedged or partitioned primary, not jitter.
MIN_READ_TIMEOUT_S = 1.0


class StandbyError(RuntimeError):
    """The standby cannot (or must not) do its job; the CLI reports
    one line and exits 2."""


class StandbyHub:
    """A warm-spare daemon that tails a primary's journal.

    Construct with the standby's *own* listen address plus the
    primary's address to follow, then call :meth:`run` (blocking; the
    CLI path) or hand :meth:`run` to a thread and use
    :meth:`wait_synced` / :meth:`stop` (tests).  ``daemon_kwargs``
    are held until promotion and passed to the
    :class:`~repro.service.daemon.ReproDaemon` constructor verbatim
    (jobs, limits, admission control, ...).

    The standby requires a cache directory of its own: the mirror
    journal lives there, and it must not be the primary's directory —
    two daemons appending to one ``service-journal.jsonl`` would
    corrupt both lifelines.
    """

    def __init__(self, address: str, follow: str, *,
                 cache_dir: str,
                 jobs: int = 1,
                 replica_batch: bool = False,
                 lease_timeout_s: float = 30.0,
                 local_execution: bool = True,
                 limits: Optional[ResourceLimits] = None,
                 max_queue: int = 4096,
                 busy_retry_s: float = 1.0,
                 min_free_mb: int = 64,
                 retry: Optional[RetryPolicy] = None,
                 name: Optional[str] = None,
                 dial_timeout: float = 10.0,
                 quiet: bool = False) -> None:
        if not cache_dir:
            raise ValueError(
                "--standby needs a --cache-dir of its own: the "
                "mirrored journal (and, after promotion, the result "
                "cache) live there")
        self.address = address
        self.follow = follow
        self.cache_dir = cache_dir
        self.name = name or f"standby-{socket.gethostname()}-{os.getpid()}"
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay_s=0.2, max_delay_s=2.0)
        self.dial_timeout = dial_timeout
        self.quiet = quiet
        self._daemon_kwargs: Dict[str, Any] = dict(
            jobs=jobs, replica_batch=replica_batch,
            lease_timeout_s=lease_timeout_s,
            local_execution=local_execution, limits=limits,
            max_queue=max_queue, busy_retry_s=busy_retry_s,
            min_free_mb=min_free_mb, quiet=quiet)
        self._journal: Optional[ServiceJournal] = None
        self._live: Dict[str, dict] = {}
        self._quarantined: Dict[str, Dict[str, str]] = {}
        self._sock: Optional[socket.socket] = None
        self._stop_event = threading.Event()
        self._synced = threading.Event()
        self.records_mirrored = 0
        self.resyncs = 0
        #: Set once promotion begins (test seam + stop() routing).
        self.promoted_daemon: Optional[ReproDaemon] = None

    # -- lifecycle -----------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro-standby] {message}", file=sys.stderr,
                  flush=True)

    def _banner(self, payload: Dict[str, Any]) -> None:
        print(json.dumps(payload, sort_keys=True), flush=True)

    def wait_synced(self, timeout: float = 10.0) -> bool:
        """Block until the first snapshot landed (thread-mode tests)."""
        return self._synced.wait(timeout)

    def stop(self) -> None:
        """Thread-safe clean-stop: ends the follow loop (exit 0) or,
        after promotion, drains the promoted daemon gracefully."""
        self._stop_event.set()
        daemon = self.promoted_daemon
        if daemon is not None:
            daemon.request_shutdown()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def run(self) -> int:
        """Follow until the primary drains (0), stop() (0), or loss —
        in which case promote and serve; raises :class:`StandbyError`
        when following was never possible at all."""
        self.log(f"standing by for {self.follow} "
                 f"(will serve on {self.address} if promoted)")
        self._banner({"event": "standby-following",
                      "follow": self.follow,
                      "address": self.address,
                      "pid": os.getpid()})
        try:
            while not self._stop_event.is_set():
                outcome = None
                try:
                    outcome = self._follow_once()
                except StandbyError:
                    raise
                except (ProtocolError, ConnectionError, OSError) as exc:
                    if self._stop_event.is_set():
                        return 0
                    self.log(f"lost the primary at {self.follow}: "
                             f"{exc}")
                if outcome == "drained":
                    if self._journal is not None:
                        self._journal.record_drained()
                    self.log("primary drained cleanly — standing down")
                    return 0
                if self._stop_event.is_set():
                    return 0
                if not self._redial():
                    if not self._synced.is_set():
                        raise StandbyError(
                            f"never completed a journal sync with "
                            f"{self.follow} and will not promote "
                            "from nothing — check --follow")
                    return self._promote()
            return 0
        finally:
            self._close_journal()

    # -- following -----------------------------------------------------------

    def _follow_once(self) -> Optional[str]:
        """One peer conversation: handshake, snapshot, mirror stream.

        Returns ``"drained"`` on a clean goodbye; raises on loss.
        """
        sock = connect(self.follow, timeout=self.dial_timeout)
        self._sock = sock
        read_timeout = MIN_READ_TIMEOUT_S
        try:
            write_frame(sock, peer_frame(self.name))
            reply = read_frame(sock)
            if reply is None:
                raise ConnectionError(
                    "primary closed the connection during the peer "
                    "handshake")
            if reply.get("type") == "error":
                code = reply.get("code")
                if code in ("no-journal", "version-mismatch"):
                    # Retrying cannot fix either; surface it as the
                    # operator error it is.
                    raise StandbyError(
                        f"primary at {self.follow} refused the peer "
                        f"handshake [{code}]: {reply.get('message')}")
                raise ConnectionError(
                    f"peer handshake refused [{code}]: "
                    f"{reply.get('message')}")
            if reply.get("type") != "peer-welcome":
                raise ProtocolError(
                    "bad-handshake",
                    f"expected peer-welcome, got "
                    f"{reply.get('type')!r}")
            self._adopt_snapshot(reply)
            lease_timeout = reply.get("lease_timeout_s")
            if isinstance(lease_timeout, (int, float)) \
                    and lease_timeout > 0:
                read_timeout = max(MIN_READ_TIMEOUT_S,
                                   float(lease_timeout))
            sock.settimeout(read_timeout)
            while True:
                try:
                    frame = read_frame(sock)
                except socket.timeout as exc:
                    raise ConnectionError(
                        f"no sync-ping from the primary for "
                        f"{read_timeout:.1f}s — presumed dead"
                    ) from exc
                if frame is None:
                    raise ConnectionError(
                        "primary closed the connection without a bye")
                kind = frame.get("type")
                if kind == "journal-sync":
                    if self._mirror_sync(frame):
                        return "drained"
                elif kind == "sync-ping":
                    continue
                elif kind == "bye":
                    return "drained"
                elif kind == "error":
                    raise ProtocolError(
                        str(frame.get("code") or "error"),
                        str(frame.get("message") or "peer error"))
                # anything else: ignore — forward-compatible
        finally:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _adopt_snapshot(self, welcome: Dict[str, Any]) -> None:
        """Reset the mirror to the primary's snapshot, verified."""
        snapshot = welcome.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ProtocolError(
                "bad-snapshot", "peer-welcome carries no snapshot")
        if sync_digest(snapshot) != welcome.get("digest"):
            raise ProtocolError(
                "digest-mismatch",
                "peer-welcome snapshot does not match its digest")
        live = snapshot.get("live")
        quarantined = snapshot.get("quarantined")
        if not isinstance(live, dict) \
                or not isinstance(quarantined, dict):
            raise ProtocolError(
                "bad-snapshot",
                "snapshot needs 'live' and 'quarantined' objects")
        self._live = {key: dict(spec) for key, spec in live.items()
                      if isinstance(key, str) and isinstance(spec, dict)}
        self._quarantined = {
            key: {"kind": str(record.get("kind") or "ERROR"),
                  "error": str(record.get("error") or "")}
            for key, record in quarantined.items()
            if isinstance(key, str) and isinstance(record, dict)}
        if self._journal is None:
            self._journal = ServiceJournal(journal_path(self.cache_dir))
        # A (re)sync replaces whatever the mirror held: compact the
        # file down to exactly the snapshot, atomically.
        self._journal.compact(self._live, self._quarantined)
        if self._synced.is_set():
            self.resyncs += 1
        self._synced.set()
        self.log(f"synced with {self.follow}: {len(self._live)} live, "
                 f"{len(self._quarantined)} quarantined")
        self._banner({"event": "standby-synced",
                      "follow": self.follow,
                      "live": len(self._live),
                      "quarantined": len(self._quarantined),
                      "resyncs": self.resyncs})

    def _mirror_sync(self, frame: Dict[str, Any]) -> bool:
        """Apply one journal-sync frame; True when it carried a drain."""
        records = frame.get("records")
        if not isinstance(records, list):
            raise ProtocolError(
                "bad-sync", "journal-sync carries no records list")
        if sync_digest(records) != frame.get("digest"):
            raise ProtocolError(
                "digest-mismatch",
                "journal-sync records do not match their digest")
        drained = False
        assert self._journal is not None
        for record in records:
            if not isinstance(record, dict):
                raise ProtocolError(
                    "bad-sync", "journal-sync record is not an object")
            apply_record(self._live, self._quarantined, record)
            self._journal.mirror(record)
            self.records_mirrored += 1
            if record.get("op") == "drained":
                drained = True
        if self._journal.wants_compaction:
            self._journal.compact(self._live, self._quarantined)
        return drained

    def _redial(self) -> bool:
        """Backoff-paced attempts to find the primary again.

        ``False`` once the policy is exhausted (the promotion
        trigger) or a stop was requested mid-backoff.
        """
        for attempt, delay in enumerate(self.retry.delays(), start=1):
            if self._stop_event.wait(delay):
                return False
            try:
                self._probe()
            except StandbyError:
                raise
            except (ProtocolError, ConnectionError, OSError) as exc:
                self.log(f"re-dial {attempt}/{self.retry.max_attempts} "
                         f"failed: {exc}")
                continue
            return True
        return False

    def _probe(self) -> None:
        """One cheap liveness check: can the primary still be dialed?

        The actual resync (snapshot + stream) happens in the next
        :meth:`_follow_once` pass; this just answers the promotion
        question without committing to a full handshake here.
        """
        sock = connect(self.follow, timeout=self.dial_timeout)
        try:
            sock.close()
        except OSError:
            pass

    # -- promotion -----------------------------------------------------------

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def _promote(self) -> int:
        """The primary is gone: become the hub, exactly like --resume.

        The mirror journal is closed and handed to a fresh
        :class:`ReproDaemon` whose normal recovery path replays it —
        unsettled debt re-enters the queue, quarantines stay locked
        out, and reconnecting clients coalesce onto the recovered
        jobs.  ``promoted=True`` marks the takeover in its stats.
        """
        self._close_journal()
        self.log(f"primary at {self.follow} stayed gone through "
                 f"{self.retry.max_attempts} re-dial attempt(s) — "
                 f"promoting; serving on {self.address}")
        self._banner({"event": "standby-promoting",
                      "follow": self.follow,
                      "address": self.address,
                      "mirrored": self.records_mirrored,
                      "pid": os.getpid()})
        daemon = ReproDaemon(self.address, cache_dir=self.cache_dir,
                             resume=True, promoted=True,
                             **self._daemon_kwargs)
        self.promoted_daemon = daemon
        if self._stop_event.is_set():  # stop() raced the promotion
            return 0
        return daemon.run()


__all__ = ["StandbyHub", "StandbyError", "MIN_READ_TIMEOUT_S",
           "PROTOCOL_VERSION"]
