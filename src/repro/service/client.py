"""Blocking client for the sweep daemon (the ``--server`` path).

:class:`ServiceClient` wraps one connection: handshake on
:meth:`connect`, then ``submit``/``stats``/``cancel``/``shutdown``
calls that mirror the protocol frames one-to-one.

:func:`execute_via_server` is the piece the CLI uses — a drop-in
sibling of :func:`repro.runner.executor.execute` that routes the same
spec list through a daemon instead of the in-process pool and returns
the same ``List[RunOutcome]`` in spec order.  Report payloads cross
the wire in exactly the cache's JSON form, so the reports a client
reassembles are byte-identical to a local run (the same round-trip
the warm-cache path has always taken).

Resumability is client-driven and dumb on purpose: if the connection
dies mid-sweep, reconnect and resubmit *only the indices still
missing*.  Everything that finished before the drop is in the
daemon's shared cache, so the resubmission streams back instant hits
and the sweep completes with zero re-execution.  Reconnects pace
themselves with :class:`RetryPolicy` — bounded exponential backoff
with jitter — so a daemon restart (or a flapping network) sees a
trickle of retries instead of a thundering herd.

Failover rides the same loop: ``--server`` accepts a comma-separated
hub list (``primary,standby``), and each reconnect attempt rotates to
the next candidate.  When a standby promotes itself after primary
loss, the very next rotation lands on it, the missing indices are
resubmitted, and the campaign finishes as if nothing happened — the
client process never restarts.  ``ServiceBusy`` deliberately does
*not* rotate: a busy hub is alive and holds the warm cache; hopping
to a cold standby would trade a short wait for recomputation.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.runner.cache import report_from_payload
from repro.runner.executor import RunOutcome
from repro.runner.spec import RunSpec
from repro.service.protocol import (
    ProtocolError,
    connect,
    hello_frame,
    parse_address_list,
    read_frame,
    write_frame,
)


class ServiceError(RuntimeError):
    """The daemon refused a request or the conversation broke down."""


class ServiceBusy(ServiceError):
    """The daemon is over its queue watermark; retry after a delay.

    Carries the server's ``retry_after_s`` hint so callers back off at
    least as long as the daemon asked — :func:`execute_via_server`
    treats it as a floor under the normal :class:`RetryPolicy` delay.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for (re)connect loops.

    Attempt ``i`` (zero-based) sleeps within
    ``[cap·(1-jitter), cap]`` where ``cap = min(max_delay_s,
    base_delay_s · 2^i)``.  The deterministic floor keeps tests and
    the chaos harness predictable; the jittered remainder decorrelates
    a fleet of clients retrying against the same reborn daemon.

    ``max_attempts`` counts *re*tries: the first try is free, so a
    policy with ``max_attempts=5`` dials at most six times.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.2
    max_delay_s: float = 10.0
    jitter: float = 0.5

    def delay_s(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        cap = min(self.max_delay_s,
                  self.base_delay_s * (2.0 ** max(0, attempt)))
        if self.jitter <= 0.0:
            return cap
        rng = rng if rng is not None else random
        spread = min(1.0, max(0.0, self.jitter)) * cap
        return (cap - spread) + rng.random() * spread

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """One delay per allowed retry, in order."""
        for attempt in range(self.max_attempts):
            yield self.delay_s(attempt, rng)


class ServiceClient:
    """One connection to a ``repro serve`` daemon."""

    def __init__(self, address: str,
                 timeout: Optional[float] = 300.0) -> None:
        self.address = address
        self.timeout = timeout
        self._sock = None
        self._submit_ids = itertools.count(1)
        self.server_info: Dict[str, Any] = {}

    # -- connection ----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Dial and handshake; raises :class:`ServiceError` on refusal.

        A handshake that fails in any way closes the socket: the
        caller never got a connected client to close.
        """
        self._sock = connect(self.address, timeout=self.timeout)
        try:
            write_frame(self._sock, hello_frame())
            reply = self._read()
            if reply.get("type") == "error":
                raise ServiceError(
                    f"server rejected handshake "
                    f"[{reply.get('code')}]: {reply.get('message')}")
            if reply.get("type") != "welcome":
                raise ServiceError(
                    f"expected welcome, got {reply.get('type')!r}")
        except BaseException:
            self.close()
            raise
        self.server_info = reply
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect() if self._sock is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read(self) -> Dict[str, Any]:
        if self._sock is None:
            raise ServiceError("client is not connected")
        frame = read_frame(self._sock)
        if frame is None:
            raise ConnectionError("server closed the connection")
        return frame

    def _send(self, frame: Dict[str, Any]) -> None:
        if self._sock is None:
            raise ServiceError("client is not connected")
        write_frame(self._sock, frame)

    # -- requests ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The daemon's live counters (a ``stats`` frame)."""
        self._send({"type": "stats"})
        reply = self._read()
        if reply.get("type") != "stats":
            raise ServiceError(f"expected stats, got "
                               f"{reply.get('type')!r}")
        return reply

    def shutdown(self, wait_bye: bool = True) -> None:
        """Ask for a graceful drain; optionally wait for ``bye``."""
        self._send({"type": "shutdown"})
        while wait_bye:
            frame = read_frame(self._sock)
            if frame is None or frame.get("type") == "bye":
                return

    def cancel(self, submit_id: str) -> int:
        """Withdraw a live submission; returns jobs detached."""
        self._send({"type": "cancel", "submit_id": submit_id})
        while True:
            reply = self._read()
            if reply.get("type") == "cancelled" \
                    and reply.get("submit_id") == submit_id:
                return int(reply.get("detached", 0))
            if reply.get("type") == "error":
                raise ServiceError(
                    f"[{reply.get('code')}]: {reply.get('message')}")
            # results racing the cancel are fine to skip here; callers
            # doing surgical cancels should drive submit_stream.

    def submit(self, specs: Sequence[RunSpec],
               submit_id: Optional[str] = None) -> str:
        """Send one SUBMIT; returns its id (results stream after)."""
        if submit_id is None:
            submit_id = f"c{os.getpid()}-{next(self._submit_ids)}"
        self._send({
            "type": "submit",
            "submit_id": submit_id,
            "specs": [spec.canonical() for spec in specs],
        })
        reply = self._read()
        if reply.get("type") == "busy":
            raise ServiceBusy(
                f"server at {self.address} is overloaded "
                f"({reply.get('queued')} queued, "
                f"{reply.get('inflight')} in flight, "
                f"max_queue={reply.get('max_queue')}); "
                f"retry after {reply.get('retry_after_s')}s",
                retry_after_s=float(reply.get("retry_after_s") or 1.0))
        if reply.get("type") == "error":
            raise ServiceError(
                f"submit refused [{reply.get('code')}]: "
                f"{reply.get('message')}")
        if reply.get("type") != "accepted":
            raise ServiceError(
                f"expected accepted, got {reply.get('type')!r}")
        return submit_id

    def submit_stream(self, specs: Sequence[RunSpec]):
        """Submit and yield ``(index, RunOutcome)`` as results land.

        Indices refer to positions in ``specs``; completion order is
        the daemon's settle order, not plan order.
        """
        specs = list(specs)
        submit_id = self.submit(specs)
        received = 0
        while received < len(specs):
            frame = self._read()
            kind = frame.get("type")
            if kind == "result" and frame.get("submit_id") == submit_id:
                index = int(frame["index"])
                outcome = RunOutcome(
                    spec=specs[index],
                    report=report_from_payload(frame["report"]),
                    cached=bool(frame.get("cached")),
                    elapsed_s=float(frame.get("elapsed_s") or 0.0),
                    error=frame.get("error"),
                    kind=frame.get("kind"),
                )
                received += 1
                yield index, outcome
            elif kind == "done":
                if received < len(specs):
                    raise ServiceError(
                        f"done after {received}/{len(specs)} results")
                return
            elif kind == "error":
                raise ServiceError(
                    f"[{frame.get('code')}]: {frame.get('message')}")
            elif kind == "bye":
                raise ConnectionError(
                    "server shut down before the sweep finished")
        # Consume the trailing done frame so the connection stays
        # aligned for the next request.
        frame = self._read()
        if frame.get("type") not in ("done", "bye"):
            raise ServiceError(
                f"expected done, got {frame.get('type')!r}")


def execute_via_server(
    address: str,
    specs: Sequence[RunSpec],
    *,
    on_outcome: Optional[Callable[[RunOutcome], None]] = None,
    retry: Optional[RetryPolicy] = None,
    rng: Optional[random.Random] = None,
) -> List[RunOutcome]:
    """Run every spec on a daemon; outcomes return in spec order.

    The server-side twin of :func:`repro.runner.executor.execute`:
    same inputs, same outputs, same ``on_outcome`` streaming contract.
    A dropped connection backs off per ``retry`` and resubmits only
    the missing indices — an idempotent merge, because specs are
    content-addressed: completed work is served from the daemon's
    cache, never re-executed.  ``rng`` pins the jitter for tests.

    ``address`` may be a comma-separated failover list; connection
    losses rotate through the candidates so a promoted standby picks
    the campaign up mid-flight.
    """
    specs = list(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    if not specs:
        return []
    candidates = parse_address_list(address)
    policy = retry if retry is not None else RetryPolicy()
    attempts_used = 0
    target = 0
    while True:
        missing = [i for i, done in enumerate(outcomes) if done is None]
        if not missing:
            return list(outcomes)  # type: ignore[return-value]
        try:
            with ServiceClient(candidates[target % len(candidates)]) \
                    as client:
                stream = client.submit_stream(
                    [specs[i] for i in missing])
                for position, outcome in stream:
                    outcomes[missing[position]] = outcome
                    if on_outcome:
                        on_outcome(outcome)
        except ServiceBusy as exc:
            # Admission control, not a failure: the daemon asked us to
            # come back later.  Honor its hint as a floor under the
            # policy's own backoff so a fleet of refused clients still
            # decorrelates, but never outwait max_delay_s.  No
            # rotation — a busy hub is alive and warm.
            if attempts_used >= policy.max_attempts:
                raise ServiceError(
                    f"server at {address} stayed busy through "
                    f"{policy.max_attempts} backoff attempts: {exc}"
                ) from exc
            delay = max(exc.retry_after_s,
                        policy.delay_s(attempts_used, rng))
            time.sleep(min(delay, policy.max_delay_s))
            attempts_used += 1
            continue
        except (ConnectionError, ProtocolError, OSError) as exc:
            if attempts_used >= policy.max_attempts:
                raise ServiceError(
                    f"lost the connection to {address} and exhausted "
                    f"{policy.max_attempts} reconnect attempts "
                    f"({attempts_used + 1} tries total): {exc}"
                ) from exc
            target += 1  # try the next hub in the failover list
            time.sleep(policy.delay_s(attempts_used, rng))
            attempts_used += 1
            continue


__all__ = ["ServiceClient", "ServiceError", "ServiceBusy", "RetryPolicy",
           "execute_via_server"]
