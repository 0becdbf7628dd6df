"""Persistent warm-worker pool: spawn once, stream jobs forever.

A fresh ``multiprocessing.Pool`` per ``execute()`` call pays process
spawn plus a full ``import repro`` every time.  For sweep workloads
(many short jobs per CLI invocation, many invocations per study) that
overhead rivals the work.  This module keeps one pool of warm workers
alive for the whole process, grown to the largest parallelism
requested (smaller ``--jobs`` values use a subset of it):

* **Warm workers** — the parent runs :func:`preload` (the entry-point
  registries and the assignment solver) before the first fork, so
  forked workers share those pages; each worker then loops on its own
  task queue.
* **Batched dispatch** — items are grouped into contiguous chunks
  (dynamic: ~4 chunks per worker, capped) so round-trips are
  amortised over several jobs; a credit scheme (at most two chunks in
  flight per worker) keeps late stragglers load-balanced.
* **One result pipe per worker** — a worker runs its chunks in the
  order it receives them and writes each result to its own pipe, from
  its main thread, before it takes the next chunk.  So the head of a
  worker's in-flight queue is always the chunk it is running, a later
  crash can neither lose nor tear an earlier result, and the parent
  waits on every pipe and every worker's death sentinel at once: a
  death is seen as it happens, not at the next poll.
* **Deterministic teardown** — workers ignore SIGINT (the parent owns
  interrupts and force-terminates the pool on ``KeyboardInterrupt``)
  and exit by themselves once their parent is gone.  Only the chunk a
  *crashed* worker was running is suspect: it is re-dispatched
  item-by-item exactly once, so a poisonous item is isolated and
  surfaced as a :class:`WorkerCrashError` carrying its index, while
  the chunks queued behind it requeue intact and every other item
  still completes.  Nothing hangs and nothing is silently dropped.
* **Resource governance** — an ``imap`` stream may carry
  :class:`~repro.runner.governance.ResourceLimits`: each job then runs
  under a wall-clock alarm and a lowered ``RLIMIT_AS`` inside the
  worker, returning typed ``GovernedFailure`` values (TIMEOUT/OOM)
  in-band instead of results.  A supervisor-side **hang watchdog**
  backstops the alarm: a worker whose running chunk is past
  ``deadline × grace`` (a job hung in a C loop where signals never
  land) is SIGKILLed and the chunk requeued through the
  crash-isolation path, with the isolated poison surfaced as a
  TIMEOUT instead of a CRASH.

Ordinary Python exceptions raised by a job do **not** kill workers:
they are pickled back and re-raised in the parent at the failing item's
position in the stream, after every result before it was yielded
(e.g. cached).
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import signal
import sys
import time
import traceback
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.runner.governance import (
    FAIL_CRASH,
    FAIL_TIMEOUT,
    ResourceLimits,
    governed_call,
)

#: ``fork`` keeps worker start cheap and — unlike ``spawn`` — does not
#: re-execute ``__main__``, so on Linux the pool is safe to start from
#: any host program (REPLs, pytest, piped scripts).  Everywhere else we
#: follow CPython's own default: macOS offers fork but is fork-unsafe
#: once BLAS/framework threads exist in the parent (the reason 3.8
#: switched darwin to spawn), and Windows has no fork.  Under
#: ``spawn``, callers need the standard ``if __name__ == "__main__"``
#: guard.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"

#: Maximum chunks in flight per worker (credit scheme).
_CREDITS_PER_WORKER = 2

#: Upper bound on items per dispatched chunk.
_MAX_CHUNK = 16

#: How long an idle worker waits for a task before it checks that its
#: parent is still alive (and exits if not).
_PARENT_CHECK_S = 1.0

#: Longest the parent waits between hang-watchdog sweeps; results and
#: worker deaths wake it at once.
_WATCHDOG_TICK_S = 0.25

#: Total teardown budget for :meth:`WarmWorkerPool.shutdown` — one
#: bounded deadline for the whole pool, not stacked per-worker joins.
SHUTDOWN_DEADLINE_S = 5.0


class WorkerCrashError(RuntimeError):
    """A worker process died executing one specific item.

    Raised only after the crash has been isolated to a single item by
    the retry protocol (chunk crash → per-item re-dispatch → second
    crash).  ``item_index`` is the position of the poisonous item in
    the ``imap`` input sequence.  ``kind`` is the failure-taxonomy tag:
    ``CRASH`` for a genuine worker death, ``TIMEOUT`` when the hang
    watchdog shot the worker for exceeding the chunk deadline.
    """

    def __init__(self, message: str, item_index: int,
                 kind: str = FAIL_CRASH) -> None:
        super().__init__(message)
        self.item_index = item_index
        self.kind = kind


def _dumps_exception(exc: BaseException) -> bytes:
    """Round-trip-checked pickle of an exception (fallback: repr)."""
    try:
        payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # some exceptions pickle but not load
        return payload
    except Exception:
        return pickle.dumps(
            RuntimeError(f"{type(exc).__name__}: {exc}"),
            protocol=pickle.HIGHEST_PROTOCOL)


def preload() -> None:
    """Import everything a job needs, once, before taking work.

    That is the experiment and scenario registries and
    ``scipy.optimize``: the MWM-family schedulers import their solver
    inside the call, so a process that never runs a job never pays for
    scipy.  :meth:`JobRunner.warm <repro.runner.executor.JobRunner.warm>`,
    the pool's parent before its first fork and each worker before its
    first task call this, so no import lands inside a job's timing or
    under a governed job's ``RLIMIT_AS`` ceiling.
    """
    import scipy.optimize  # noqa: F401

    import repro.experiments  # noqa: F401
    import repro.scenario  # noqa: F401


def _worker_main(task_queue, result_pipe) -> None:
    """Worker loop: run each chunk, send its result, take the next."""
    import multiprocessing

    # The parent owns interrupt handling; a ^C must tear the pool down
    # from one place instead of racing n KeyboardInterrupts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # fork() copies the parent's Python-level SIGTERM handler (a CLI
    # entry point like ``serve --standby`` installs one); inherited,
    # it would swallow the SIGTERM multiprocessing sends daemonic
    # children at exit and deadlock the parent's untimed join.  A
    # pool worker must stay plainly killable.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    preload()  # a no-op under fork; spawn starts from a bare interpreter
    parent = multiprocessing.parent_process()
    while True:
        try:
            task = task_queue.get(timeout=_PARENT_CHECK_S)
        except queue.Empty:
            # An orphan would keep what it inherited (a hub's listening
            # socket, a pipeline's stdout) open forever.  The parent's
            # sentinel alone is slow to tell: every later fork holds a
            # copy of it.  A new parent pid tells at once (POSIX).
            if os.getppid() != parent.pid or not parent.is_alive():
                return
            continue
        if task is None:
            return
        fn, items, limits = task
        governed = limits is not None and limits.enabled
        results: List[Any] = []
        failure = None
        for index, item in enumerate(items):
            try:
                # Under limits, TIMEOUT/OOM come back as in-band
                # GovernedFailure values — the chunk keeps going.
                results.append(governed_call(fn, item, limits)
                               if governed else fn(item))
            except BaseException as exc:  # noqa: BLE001 — forwarded
                failure = (index, _dumps_exception(exc),
                           traceback.format_exc())
                break
        # No helper thread: a governed job's SIGALRM can only land on
        # this one, and a later crash cannot lose or tear this result.
        result_pipe.send_bytes(pickle.dumps(
            (results, failure), protocol=pickle.HIGHEST_PROTOCOL))


class _Chunk:
    """Contiguous items of one stream, dispatched as one task."""

    __slots__ = ("fn", "items", "start", "attempt", "started", "stale")

    def __init__(self, fn: Callable, items: List[Any], start: int,
                 attempt: int = 0) -> None:
        self.fn = fn
        self.items = items
        self.start = start  # stream index of items[0]
        self.attempt = attempt  # 1 once split out by a crash
        #: Monotonic time the chunk became its worker's head, i.e.
        #: began to run (the hang watchdog's clock).
        self.started = 0.0
        #: Its stream was abandoned: the result is read and dropped.
        self.stale = False


class _Worker:
    """A worker process, its task queue, its result pipe, and the
    chunks it holds, in the order it runs them."""

    def __init__(self, ctx) -> None:
        # Tasks stay on a queue: its feeder thread lives in the parent,
        # where no job can kill it, and a put never blocks against a
        # worker that is itself blocked sending a large result.
        self.tasks = ctx.Queue()
        self.reader, writer = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_worker_main,
                                   args=(self.tasks, writer), daemon=True)
        self.process.start()
        # Now only the worker holds the write end: its death reads as
        # EOF, and no later fork inherits it.
        writer.close()
        self.inflight: Deque[_Chunk] = deque()
        #: The chunk the hang watchdog killed this worker for.
        self.killed_for: Optional[_Chunk] = None

    def send(self, chunk: _Chunk,
             limits: Optional[ResourceLimits]) -> None:
        if not self.inflight:
            chunk.started = time.monotonic()
        self.inflight.append(chunk)
        self.tasks.put((chunk.fn, chunk.items, limits))

    def receive(self) -> Tuple[_Chunk, bytes]:
        """The head chunk and its pickled ``(results, failure)``.

        Raises ``EOFError`` (or ``OSError`` for a message torn by the
        worker's death) once the pipe is broken.
        """
        payload = self.reader.recv_bytes()
        chunk = self.inflight.popleft()
        if self.inflight:
            self.inflight[0].started = time.monotonic()
        return chunk, payload


class WarmWorkerPool:
    """A growable pool of persistent workers (see module docstring).

    Use :func:`get_pool` rather than constructing directly: one pool
    is cached process-wide and lives until process exit, which is the
    whole point — the second sweep of a session pays zero spawn or
    import cost.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        self._ctx = multiprocessing.get_context(_START_METHOD)
        # Before the first fork, so workers inherit these imports (and
        # share their pages) instead of each paying for them.
        preload()
        self._workers: List[_Worker] = []
        self._streaming = False
        self._closed = False
        self.grow_to(workers)

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        """True while the pool is usable (a dead worker is replaced on
        the fly, so only a shutdown pool is dead)."""
        return not self._closed

    def grow_to(self, workers: int) -> None:
        """Spawn additional workers so at least ``workers`` exist."""
        while len(self._workers) < workers:
            self._workers.append(_Worker(self._ctx))

    def shutdown(self, force: bool = False,
                 deadline_s: float = SHUTDOWN_DEADLINE_S) -> None:
        """Stop the workers: join → terminate → kill under one budget.

        Teardown escalates against a single total deadline for the
        whole pool instead of stacking per-worker timeouts: the polite
        sentinel drain gets the first half of the budget, terminate
        gets the rest, and any worker still alive after that (hung in
        uninterruptible state) is SIGKILLed.  Worst case a 16-worker
        pool tears down in ~``deadline_s``, not 16 × 3s.  A stream
        still running on the pool ends with ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        start = time.monotonic()
        for worker in self._workers:
            if force:
                worker.process.terminate()
            else:
                try:
                    worker.tasks.put(None)
                except Exception:
                    worker.process.terminate()
        # Phase 1: polite join, capped at half the budget so a worker
        # mid-job cannot eat the terminate phase's share.
        self._join_until(start + deadline_s / 2)
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
        self._join_until(start + deadline_s)
        for worker in self._workers:
            if worker.process.is_alive():
                # Beyond SIGTERM's reach: SIGKILL cannot be ignored.
                worker.process.kill()
                worker.process.join(timeout=1.0)

    def _join_until(self, deadline: float) -> None:
        """Join every live worker against one shared deadline."""
        for worker in self._workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            worker.process.join(timeout=remaining)

    # -- one stream -----------------------------------------------------------

    def _dispatch(self, backlog: Deque[_Chunk], limit: int,
                  limits: Optional[ResourceLimits]) -> None:
        """Hand backlog chunks (front first) to free credits among the
        first ``limit`` workers, least loaded first."""
        while backlog:
            worker = min(self._workers[:limit],
                         key=lambda w: len(w.inflight))
            if len(worker.inflight) >= _CREDITS_PER_WORKER:
                return
            worker.send(backlog.popleft(), limits)

    def _step(self, backlog: Deque[_Chunk], results: Dict[int, Any],
              failed: Dict[int, BaseException],
              limits: Optional[ResourceLimits]) -> None:
        """Wait for results or deaths (one watchdog tick at most) and
        settle what arrived."""
        from multiprocessing.connection import wait

        workers = list(self._workers)
        ready = set(wait([w.reader for w in workers]
                         + [w.process.sentinel for w in workers],
                         timeout=_WATCHDOG_TICK_S))
        for index, worker in enumerate(workers):
            dead = worker.process.sentinel in ready
            if worker.reader in ready or dead:
                # Every complete result counts, even from the dead.
                if not self._collect(worker, results, failed) or dead:
                    self._reap(index, worker, backlog, failed)
        self._watchdog(limits)

    def _collect(self, worker: _Worker, results: Dict[int, Any],
                 failed: Dict[int, BaseException]) -> bool:
        """Settle every complete result waiting on ``worker``'s pipe.

        Returns False once the pipe is broken: EOF, or a last message
        torn by the worker's death.
        """
        while True:
            try:
                if not worker.reader.poll():
                    return True
                chunk, payload = worker.receive()
            except (EOFError, OSError):
                return False
            if chunk.stale:
                continue
            chunk_results, failure = pickle.loads(payload)
            for offset, value in enumerate(chunk_results):
                results[chunk.start + offset] = value
            if failure is not None:
                offset, exc_payload, text = failure
                exc = pickle.loads(exc_payload)
                exc.__cause__ = RuntimeError(f"worker traceback:\n{text}")
                failed[chunk.start + offset] = exc

    def _reap(self, index: int, worker: _Worker, backlog: Deque[_Chunk],
              failed: Dict[int, BaseException]) -> None:
        """Replace a dead worker and requeue the chunks it held.

        Only its head chunk ran, so only that chunk is suspect.  Its
        first crash splits it into single-item chunks at the front of
        the backlog (deterministic isolation); a crash of such a retry
        makes that item the poison, recorded in ``failed``.  A
        watchdog kill is typed TIMEOUT.  The chunks behind the head
        never started and requeue intact, with no attempt charged; so
        does the head when its predecessor's result landed after the
        watchdog's kill (the kill was not for it).
        """
        worker.process.kill()  # its pipe broke: finish it off
        worker.process.join(timeout=1.0)
        if self._closed:
            return
        self._workers[index] = _Worker(self._ctx)
        if self._closed:  # a shutdown raced the respawn
            self._workers[index].process.kill()
        if not worker.inflight:
            return
        head, *rest = worker.inflight
        for chunk in reversed(rest):
            if not chunk.stale:
                backlog.appendleft(chunk)
        if head.stale:
            return
        timed_out = head is worker.killed_for
        if worker.killed_for is not None and not timed_out:
            backlog.appendleft(head)
        elif timed_out and len(head.items) == 1:
            failed[head.start] = WorkerCrashError(
                f"watchdog killed job #{head.start}: no result past "
                "deadline × grace (job hung beyond signal reach)",
                head.start, kind=FAIL_TIMEOUT)
        elif not timed_out and head.attempt > 0:
            failed[head.start] = WorkerCrashError(
                f"worker process died twice executing job #{head.start}",
                head.start)
        else:
            attempt = head.attempt if timed_out else 1
            for offset in reversed(range(len(head.items))):
                backlog.appendleft(_Chunk(
                    head.fn, head.items[offset:offset + 1],
                    head.start + offset, attempt))

    def _watchdog(self, limits: Optional[ResourceLimits]) -> None:
        """Kill workers whose running chunk is past ``deadline × grace``.

        The in-worker alarm normally converts an overrun into an
        in-band TIMEOUT; a worker still silent past the watchdog
        deadline is hung where signals cannot reach (C inner loop,
        blocked SIGALRM) and only SIGKILL clears it.  The death routes
        the chunk through :meth:`_reap`, which types the isolated
        poison as TIMEOUT rather than CRASH.
        """
        if limits is None or limits.timeout_s is None:
            return
        now = time.monotonic()
        for worker in self._workers:
            if not worker.inflight or worker.killed_for is not None:
                continue
            head = worker.inflight[0]
            if now - head.started > limits.watchdog_deadline_s(
                    len(head.items)):
                worker.killed_for = head
                worker.process.kill()

    def imap(self, fn: Callable, items: Sequence,
             chunk_size: Optional[int] = None,
             limit: Optional[int] = None,
             limits: Optional[ResourceLimits] = None) -> Iterator[Any]:
        """Ordered, streaming parallel map over the warm workers.

        Results are yielded in item order as chunks complete.  An
        ordinary exception in ``fn`` re-raises at its item's position
        (everything before it has been yielded).  A worker crash
        re-raises :class:`WorkerCrashError` at the poisonous item's
        position after the isolation retry; items before it have been
        yielded, items after it are recoverable by re-mapping the tail.
        ``limit`` caps how many of the pool's workers this stream may
        use (``--jobs`` smaller than the pool size).  ``limits``
        enables per-job governance: deadline overruns and memory-
        ceiling hits are *yielded* as in-band ``GovernedFailure``
        values at the job's position, and the hang watchdog converts a
        silent worker into a TIMEOUT instead of letting the stream
        stall forever.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._streaming:
            raise RuntimeError("one imap stream at a time per pool")
        items = list(items)
        if not items:
            return
        limit = self.workers if limit is None \
            else max(1, min(limit, self.workers))
        if chunk_size is None:
            chunk_size = max(1, min(
                _MAX_CHUNK,
                (len(items) + 4 * limit - 1) // (4 * limit)))
        backlog: Deque[_Chunk] = deque(
            _Chunk(fn, items[start:start + chunk_size], start)
            for start in range(0, len(items), chunk_size))
        results: Dict[int, Any] = {}
        #: item index -> what the stream raises there
        failed: Dict[int, BaseException] = {}
        self._streaming = True
        try:
            next_index = 0
            while next_index < len(items):
                if next_index in results:
                    value = results.pop(next_index)
                    next_index += 1
                    yield value
                    continue
                if next_index in failed:
                    raise failed.pop(next_index)
                if self._closed:
                    raise RuntimeError("pool is shut down")
                self._dispatch(backlog, limit, limits)
                self._step(backlog, results, failed, limits)
        except KeyboardInterrupt:
            # Deterministic teardown: no orphaned workers, no hang on
            # a queue feeder thread mid-^C.
            self.shutdown(force=True)
            _forget_pool(self)
            raise
        finally:
            self._streaming = False
            # An abandoned stream's chunks still run where they were
            # sent; later streams read their results and drop them.
            for worker in self._workers:
                for chunk in worker.inflight:
                    chunk.stale = True


_POOL: Optional[WarmWorkerPool] = None


def get_pool(workers: int) -> WarmWorkerPool:
    """The process-wide warm pool, grown to ``workers`` parallelism.

    One pool serves every ``--jobs`` value: it grows to the largest
    parallelism ever requested (smaller requests are enforced by
    ``imap``'s ``limit``), so varying ``--jobs`` in one process never
    accumulates duplicate worker fleets.  A dead pool (e.g. after a
    forced shutdown) is replaced transparently.
    """
    global _POOL
    if _POOL is None or not _POOL.alive:
        _POOL = WarmWorkerPool(workers)
    else:
        _POOL.grow_to(workers)
    return _POOL


def _forget_pool(pool: WarmWorkerPool) -> None:
    global _POOL
    if _POOL is pool:
        _POOL = None


def shutdown_pools(force: bool = False) -> None:
    """Shut down the cached pool (atexit, and tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(force=force)
        _POOL = None


atexit.register(shutdown_pools, True)

__all__ = [
    "WarmWorkerPool",
    "WorkerCrashError",
    "get_pool",
    "preload",
    "shutdown_pools",
    "SHUTDOWN_DEADLINE_S",
]
