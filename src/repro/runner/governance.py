"""Resource governance: per-job deadlines, memory ceilings, taxonomy.

A production sweep service fails by *overload and resource exhaustion*
at least as often as by crashing: one infinite loop at a pathological
sweep point, one memory-exploding config, and a campaign stalls
forever while every other job waits behind it.  This module is the
shared vocabulary the runner, the daemon and the remote workers use to
bound that blast radius:

* :class:`ResourceLimits` — the per-job ceilings (wall-clock deadline,
  RSS/address-space budget) a caller binds onto an executor.  The
  limits are *enforced in the worker process* (``resource.setrlimit``
  for memory, a ``SIGALRM`` interval timer for the deadline) and
  *backstopped by the supervisor*: a worker that stops producing
  results past ``deadline × grace`` is killed outright and its chunk
  requeued, so even a job hung inside a C extension — where Python
  signal delivery is deferred indefinitely — cannot stall the stream.
* The **failure taxonomy** — ``CRASH`` / ``TIMEOUT`` / ``OOM`` /
  ``QUARANTINED`` / ``ERROR`` — the typed FAIL kinds every manifest
  row, ``result`` frame and ``upload`` frame carries, so automation
  can tell "the entry point raised" from "the governor shot it".
* :class:`GovernedFailure` — the in-band value a governed worker
  returns *instead of* a result when a limit trips.  It travels the
  normal result path (the worker's pipe), so a TIMEOUT costs one
  job, not the batch, and the pool machinery needs no new channels.

Everything here is dependency-free and picklable: limits ride task
queues into pool workers and JSON payloads over the service protocol.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

#: The worker process died (segfault, ``os._exit``, OOM-killer) and the
#: isolation retry pinned the death on this job.
FAIL_CRASH = "CRASH"
#: The job overran its wall-clock deadline — either the in-worker alarm
#: fired, or the supervisor's hang watchdog killed a silent worker.
FAIL_TIMEOUT = "TIMEOUT"
#: The job hit its memory ceiling (``RLIMIT_AS``) and allocation failed.
FAIL_OOM = "OOM"
#: The daemon refused to run a spec that already failed the same way
#: twice (poison-job quarantine; see ``repro.service.daemon``).
FAIL_QUARANTINED = "QUARANTINED"
#: The entry point raised an ordinary exception.
FAIL_ERROR = "ERROR"

FAILURE_KINDS = frozenset({FAIL_CRASH, FAIL_TIMEOUT, FAIL_OOM,
                           FAIL_QUARANTINED, FAIL_ERROR})

#: Fixed slack the supervisor-side watchdog adds on top of
#: ``deadline × grace`` per chunk: dispatch latency, queue round-trips
#: and result pickling are not the job's fault.
WATCHDOG_SLACK_S = 1.0


class JobTimeoutError(Exception):
    """Raised *inside a governed worker* when the deadline alarm fires."""


@dataclass(frozen=True)
class ResourceLimits:
    """Per-job execution ceilings (both optional; ``None`` = unbounded).

    ``timeout_s`` bounds one job's wall clock.  ``memory_mb`` bounds
    the worker's address space while a governed job runs (the soft
    ``RLIMIT_AS`` is lowered around the call and restored after).
    ``grace`` scales the supervisor watchdog: a worker silent for
    longer than ``timeout_s × items × grace`` (+ fixed slack) is
    presumed hung beyond signal reach and killed.
    """

    timeout_s: Optional[float] = None
    memory_mb: Optional[int] = None
    grace: float = 1.5

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be > 0, got {self.timeout_s}")
        if self.memory_mb is not None and self.memory_mb < 1:
            raise ValueError(
                f"memory_mb must be >= 1, got {self.memory_mb}")
        if self.grace < 1.0:
            raise ValueError(f"grace must be >= 1.0, got {self.grace}")

    @property
    def enabled(self) -> bool:
        """Whether any ceiling is actually set."""
        return self.timeout_s is not None or self.memory_mb is not None

    @property
    def memory_bytes(self) -> Optional[int]:
        if self.memory_mb is None:
            return None
        return self.memory_mb * 1024 * 1024

    def watchdog_deadline_s(self, n_items: int) -> Optional[float]:
        """Supervisor patience for a chunk of ``n_items`` jobs.

        The in-worker alarm bounds each item at ``timeout_s``, so a
        healthy chunk finishes within ``timeout_s × n_items``; a
        worker silent past that times grace is hung where signals
        cannot reach it (a C inner loop) and must be shot.
        """
        if self.timeout_s is None:
            return None
        return (self.timeout_s * max(1, n_items) * self.grace
                + WATCHDOG_SLACK_S)

    def to_payload(self) -> Dict[str, Any]:
        """Plain JSON types (CLI plumbing, protocol frames)."""
        return {"timeout_s": self.timeout_s,
                "memory_mb": self.memory_mb,
                "grace": self.grace}

    @classmethod
    def from_payload(
            cls, payload: Optional[Dict[str, Any]],
    ) -> "Optional[ResourceLimits]":
        """Inverse of :meth:`to_payload`; ``None`` passes through."""
        if payload is None:
            return None
        return cls(
            timeout_s=payload.get("timeout_s"),
            memory_mb=payload.get("memory_mb"),
            grace=float(payload.get("grace", 1.5)),
        )


@dataclass
class GovernedFailure:
    """A typed failure value standing in for a governed job's result.

    Returned (not raised) by :func:`governed_call` so it streams back
    through the ordinary result path; the executor converts it into a
    failed :class:`~repro.runner.executor.RunOutcome` with ``kind``.
    """

    kind: str
    message: str


def _alarm(signum, frame):  # noqa: ARG001 — signal handler shape
    raise JobTimeoutError("wall-clock deadline expired")


def _lower_memory_ceiling(limit_bytes: int) -> Callable[[], None]:
    """Lower the soft ``RLIMIT_AS``; returns a restore callable.

    Best-effort by design: platforms without the ``resource`` module
    (or where the hard limit already denies the request) keep the old
    behaviour — the supervisor watchdog still bounds the damage.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX
        return lambda: None
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    target = limit_bytes if hard == resource.RLIM_INFINITY \
        else min(limit_bytes, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (target, hard))
    except (ValueError, OSError):  # pragma: no cover — denied
        return lambda: None

    def restore() -> None:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        except (ValueError, OSError):  # pragma: no cover
            pass

    return restore


def governed_call(fn: Callable, item: Any,
                  limits: ResourceLimits) -> Any:
    """``fn(item)`` under ``limits``; limit trips return typed values.

    Runs in a worker process's main thread (``SIGALRM`` delivery
    requires it).  A deadline overrun returns
    ``GovernedFailure(TIMEOUT)``, an allocation failure under the
    ceiling returns ``GovernedFailure(OOM)``; any other exception
    propagates unchanged so the pool's existing error forwarding still
    applies.  Both limits are scoped to the call: the alarm is cleared
    and the address-space limit restored on every exit path, so
    ungoverned work on the same worker runs unbounded as before.
    """
    restore: Optional[Callable[[], None]] = None
    memory_bytes = limits.memory_bytes
    if memory_bytes is not None:
        restore = _lower_memory_ceiling(memory_bytes)
    armed = limits.timeout_s is not None
    if armed:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, limits.timeout_s)
    try:
        return fn(item)
    except JobTimeoutError:
        return GovernedFailure(
            FAIL_TIMEOUT,
            f"job exceeded its {limits.timeout_s:g}s wall-clock "
            "deadline")
    except MemoryError:
        return GovernedFailure(
            FAIL_OOM,
            f"job exceeded its {limits.memory_mb}MB memory ceiling")
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        if restore is not None:
            restore()


__all__ = [
    "ResourceLimits",
    "GovernedFailure",
    "JobTimeoutError",
    "governed_call",
    "FAIL_CRASH",
    "FAIL_TIMEOUT",
    "FAIL_OOM",
    "FAIL_QUARANTINED",
    "FAIL_ERROR",
    "FAILURE_KINDS",
    "WATCHDOG_SLACK_S",
]
