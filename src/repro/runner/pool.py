"""Persistent warm-worker pool: spawn once, stream jobs forever.

The PR-1 executor paid one ``multiprocessing.Pool`` construction —
process spawn plus a full ``import repro`` — per ``execute()`` call.
For sweep workloads (many short jobs per CLI invocation, many
invocations per study) that overhead rivals the work.  This module
keeps one pool of warm workers alive for the whole process, grown to
the largest parallelism requested (smaller ``--jobs`` values use a
subset of it):

* **Warm workers** — the parent runs :func:`preload` (the entry-point
  registries and the assignment solver) before the first fork, so
  forked workers share those pages; each worker then loops on its task
  queue.
* **Batched dispatch** — items are grouped into contiguous chunks
  (dynamic: ~4 chunks per worker, capped) so queue round-trips are
  amortised over several jobs; a credit scheme (at most two chunks in
  flight per worker) keeps late stragglers load-balanced.
* **Zero-copy result transport** — results above a size threshold
  travel through ``multiprocessing.shared_memory`` instead of the
  result pipe: the worker writes the pickle into a shared segment and
  sends only its name; the parent unpickles straight out of the mapped
  buffer and unlinks it, so large report payloads never stream through
  the pipe's chunked writes.
* **Deterministic teardown** — workers ignore SIGINT (the parent owns
  interrupts and force-terminates the pool on ``KeyboardInterrupt``); a
  *crashed* worker's in-flight chunks are re-dispatched item-by-item
  exactly once, so a poisonous item is isolated and surfaced as a
  :class:`WorkerCrashError` carrying its index while every other item
  still completes.  Nothing hangs and nothing is silently dropped.
* **Resource governance** — an ``imap`` stream may carry
  :class:`~repro.runner.governance.ResourceLimits`: each job then runs
  under a wall-clock alarm and a lowered ``RLIMIT_AS`` inside the
  worker, returning typed ``GovernedFailure`` values (TIMEOUT/OOM)
  in-band instead of results.  A supervisor-side **hang watchdog**
  backstops the alarm: a worker silent past ``deadline × grace`` for a
  chunk (a job hung in a C loop where signals never land) is SIGKILLed
  and its chunk requeued through the crash-isolation path, with the
  isolated poison surfaced as a TIMEOUT instead of a CRASH.

Ordinary Python exceptions raised by a job do **not** kill workers:
they are pickled back and re-raised in the parent at the failing item's
position in the stream, preserving the PR-1 contract that results
yielded before the raise were already consumed (e.g. cached).
"""

from __future__ import annotations

import atexit
import itertools
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
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
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

#: Pickled results at least this large travel via shared memory.
SHM_THRESHOLD_BYTES = 256 * 1024

#: Maximum chunks in flight per worker (credit scheme).
_CREDITS_PER_WORKER = 2

#: Upper bound on items per dispatched chunk.
_MAX_CHUNK = 16

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


def _worker_main(task_queue, result_queue) -> None:
    """Worker loop: preload the heavy imports once, then serve chunks."""
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

    from multiprocessing import shared_memory

    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, fn, items, limits = task
        governed = limits is not None and limits.enabled
        results: List[Any] = []
        failure: Optional[Tuple[int, bytes, str]] = None
        for index, item in enumerate(items):
            try:
                if governed:
                    # TIMEOUT/OOM come back as in-band GovernedFailure
                    # values — the chunk keeps going, one job pays.
                    results.append(governed_call(fn, item, limits))
                else:
                    results.append(fn(item))
            except BaseException as exc:  # noqa: BLE001 — forwarded
                failure = (index, _dumps_exception(exc),
                           traceback.format_exc())
                break
        payload = pickle.dumps((results, failure),
                               protocol=pickle.HIGHEST_PROTOCOL)
        # Windows destroys a named segment when its last handle closes,
        # so the close-then-attach handoff below would race the parent;
        # results take the pipe there instead.
        if (len(payload) >= SHM_THRESHOLD_BYTES
                and sys.platform != "win32"):
            segment = shared_memory.SharedMemory(create=True,
                                                 size=len(payload))
            segment.buf[:len(payload)] = payload
            segment.close()
            result_queue.put(("shm", task_id, segment.name,
                              len(payload)))
        else:
            result_queue.put(("inline", task_id, payload))


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
        # Make sure the shared-memory resource tracker exists *before*
        # workers fork, so parent and children talk to one tracker and
        # a parent-side unlink fully retires a worker-created segment.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover — tracker is best-effort
            pass
        # Before the first fork, so workers inherit these imports (and
        # share their pages) instead of each paying for them.
        preload()
        self.workers = workers
        self._result_queue = self._ctx.Queue()
        self._task_ids = itertools.count()
        self._procs: List[Any] = []
        self._task_queues: List[Any] = []
        self._outstanding: List[Set[int]] = []
        #: task_id -> (fn, items, start index, attempt)
        self._tasks: Dict[int, Tuple[Callable, List[Any], int, int]] = {}
        #: task ids whose results should be dropped (abandoned imap).
        self._discard: Set[int] = set()
        #: task_id -> monotonic dispatch time (hang-watchdog clock).
        self._task_started: Dict[int, float] = {}
        #: task ids whose worker the watchdog killed (overdue chunks).
        self._watchdog_killed: Set[int] = set()
        #: worker indices the watchdog killed — their *other* chunks
        #: are innocent bystanders and requeue with attempt preserved.
        self._watchdog_victims: Set[int] = set()
        self._streaming = False
        self._closed = False
        for __ in range(workers):
            self._spawn_worker()

    # -- worker lifecycle -------------------------------------------------------

    def _spawn_worker(self, index: Optional[int] = None) -> None:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(task_queue, self._result_queue),
            daemon=True)
        process.start()
        if index is None:
            self._procs.append(process)
            self._task_queues.append(task_queue)
            self._outstanding.append(set())
        else:
            self._procs[index] = process
            self._task_queues[index] = task_queue
            self._outstanding[index] = set()

    @property
    def alive(self) -> bool:
        """True while the pool is usable (a dead worker is replaced on
        the fly, so only a shutdown pool is dead)."""
        return not self._closed

    def shutdown(self, force: bool = False,
                 deadline_s: float = SHUTDOWN_DEADLINE_S) -> None:
        """Stop the workers: join → terminate → kill under one budget.

        Teardown escalates against a single total deadline for the
        whole pool instead of stacking per-worker timeouts: the polite
        sentinel drain gets the first half of the budget, terminate
        gets the rest, and any worker still alive after that (hung in
        uninterruptible state) is SIGKILLed.  Worst case a 16-worker
        pool tears down in ~``deadline_s``, not 16 × 3s.
        """
        if self._closed:
            return
        self._closed = True
        start = time.monotonic()
        for index, process in enumerate(self._procs):
            if force:
                process.terminate()
            else:
                try:
                    self._task_queues[index].put(None)
                except Exception:
                    process.terminate()
        # Phase 1: polite join, capped at half the budget so a worker
        # mid-job cannot eat the terminate phase's share.
        self._join_until(start + deadline_s / 2)
        stubborn = [p for p in self._procs if p.is_alive()]
        if stubborn:
            for process in stubborn:
                process.terminate()
            self._join_until(start + deadline_s)
        for process in self._procs:
            if not process.is_alive():
                continue
            # Beyond SIGTERM's reach: SIGKILL cannot be ignored.
            kill = getattr(process, "kill", process.terminate)
            kill()
            process.join(timeout=1.0)

    def _join_until(self, deadline: float) -> None:
        """Join every live worker against one shared deadline."""
        for process in self._procs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            if process.is_alive():
                process.join(timeout=remaining)

    # -- dispatch ---------------------------------------------------------------

    def grow_to(self, workers: int) -> None:
        """Spawn additional workers so at least ``workers`` exist."""
        while len(self._procs) < workers:
            self._spawn_worker()
        self.workers = len(self._procs)

    def _pick_worker(self, limit: int) -> Optional[int]:
        """Least-loaded alive worker (among the first ``limit``) with a
        free credit, or None."""
        best = None
        best_load = _CREDITS_PER_WORKER
        for index, process in enumerate(self._procs[:limit]):
            if not process.is_alive():
                continue
            load = len(self._outstanding[index])
            if load < best_load:
                best = index
                best_load = load
        return best

    def _dispatch_backlog(self, backlog: deque, active: Set[int],
                          limit: int,
                          limits: Optional[ResourceLimits] = None) -> None:
        """Hand backlog chunks to free credits (front of queue first)."""
        while backlog:
            worker = self._pick_worker(limit)
            if worker is None:
                return
            fn, items, start, attempt = backlog.popleft()
            task_id = next(self._task_ids)
            self._tasks[task_id] = (fn, items, start, attempt)
            self._outstanding[worker].add(task_id)
            active.add(task_id)
            self._task_started[task_id] = time.monotonic()
            self._task_queues[worker].put((task_id, fn, items, limits))

    def _settle(self, task_id: int) -> Tuple[Callable, List[Any], int, int]:
        for outstanding in self._outstanding:
            outstanding.discard(task_id)
        self._task_started.pop(task_id, None)
        # A result that raced the watchdog's kill still counts: drop
        # the stale kill mark so the reap doesn't mistype survivors.
        self._watchdog_killed.discard(task_id)
        return self._tasks.pop(task_id)

    def _watchdog_sweep(self, limits: Optional[ResourceLimits]) -> None:
        """Kill workers whose oldest chunk is past ``deadline × grace``.

        The in-worker alarm normally converts an overrun into an
        in-band TIMEOUT; a worker still silent past the watchdog
        deadline is hung where signals cannot reach (C inner loop,
        blocked SIGALRM) and only SIGKILL clears it.  The kill routes
        the chunk through :meth:`_reap_crashed_workers`, which types
        the isolated poison as TIMEOUT rather than CRASH.
        """
        if limits is None or limits.timeout_s is None:
            return
        now = time.monotonic()
        for index, process in enumerate(self._procs):
            if not process.is_alive():
                continue
            for task_id in self._outstanding[index]:
                started = self._task_started.get(task_id)
                task = self._tasks.get(task_id)
                if started is None or task is None:
                    continue
                deadline = limits.watchdog_deadline_s(len(task[1]))
                if now - started <= deadline:
                    continue
                self._watchdog_killed.add(task_id)
                self._watchdog_victims.add(index)
                kill = getattr(process, "kill", process.terminate)
                kill()
                break  # the worker is gone; its other chunks reap too

    def _load_payload(self, message) -> Tuple[List[Any], Optional[tuple]]:
        if message[0] == "inline":
            return pickle.loads(message[2])
        from multiprocessing import shared_memory

        name, size = message[2], message[3]
        segment = shared_memory.SharedMemory(name=name)
        try:
            # Unpickle straight from the mapped buffer — the payload
            # never travels through the result pipe.
            return pickle.loads(segment.buf[:size])
        finally:
            segment.close()
            segment.unlink()

    def _reap_crashed_workers(self, backlog: deque,
                              crashes: Dict[int, Tuple[str, str]]) -> None:
        """Requeue dead workers' chunks; record isolated poison items.

        First crash of a chunk: split into single-item chunks at the
        *front* of the backlog (deterministic isolation).  Crash of an
        isolation retry: that item is the poison — recorded in
        ``crashes`` as ``(kind, message)`` for the stream to raise at
        its position.  Watchdog kills are typed TIMEOUT; chunks that
        merely shared a watchdog-killed worker are innocent and
        requeue intact with their attempt count preserved.
        """
        for index, process in enumerate(self._procs):
            if process.is_alive():
                continue
            died = sorted(self._outstanding[index])
            victim = index in self._watchdog_victims
            self._watchdog_victims.discard(index)
            self._spawn_worker(index)
            for task_id in reversed(died):
                fn, items, start, attempt = self._tasks.pop(task_id)
                self._task_started.pop(task_id, None)
                timed_out = task_id in self._watchdog_killed
                self._watchdog_killed.discard(task_id)
                if task_id in self._discard:
                    self._discard.discard(task_id)
                    continue
                if timed_out:
                    if len(items) == 1:
                        crashes[start] = (FAIL_TIMEOUT, (
                            f"watchdog killed job #{start}: no result "
                            "past deadline × grace (job hung beyond "
                            "signal reach)"))
                        continue
                    # Isolate: one of these items is the hang.
                    for offset in reversed(range(len(items))):
                        backlog.appendleft(
                            (fn, items[offset:offset + 1],
                             start + offset, attempt))
                    continue
                if victim:
                    # Bystander chunk on a watchdog-killed worker —
                    # replay unchanged, no attempt charged.
                    backlog.appendleft((fn, items, start, attempt))
                    continue
                if attempt > 0:
                    crashes[start] = (FAIL_CRASH, (
                        "worker process died twice executing job "
                        f"#{start}"))
                    continue
                for offset in reversed(range(len(items))):
                    backlog.appendleft(
                        (fn, items[offset:offset + 1],
                         start + offset, 1))

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
        backlog: deque = deque(
            (fn, items[start:start + chunk_size], start, 0)
            for start in range(0, len(items), chunk_size))
        results: Dict[int, Any] = {}
        errors: Dict[int, Tuple[BaseException, str]] = {}
        crashes: Dict[int, Tuple[str, str]] = {}
        active: Set[int] = set()
        self._streaming = True
        try:
            self._dispatch_backlog(backlog, active, limit, limits)
            next_index = 0
            while next_index < len(items):
                if next_index in results:
                    value = results.pop(next_index)
                    next_index += 1
                    yield value
                    continue
                if next_index in crashes:
                    kind, message_text = crashes[next_index]
                    raise WorkerCrashError(message_text, next_index,
                                           kind=kind)
                if next_index in errors:
                    exc, text = errors[next_index]
                    raise exc from RuntimeError(
                        f"worker traceback:\n{text}")
                try:
                    message = self._result_queue.get(timeout=0.25)
                except queue.Empty:
                    self._watchdog_sweep(limits)
                    self._reap_crashed_workers(backlog, crashes)
                    self._dispatch_backlog(backlog, active, limit,
                                           limits)
                    continue
                task_id = message[1]
                if task_id in self._discard:
                    # Stale result of an abandoned stream: release any
                    # shared segment, free the credit, move on.
                    self._discard.discard(task_id)
                    self._settle(task_id)
                    self._load_payload(message)
                    self._dispatch_backlog(backlog, active, limit,
                                           limits)
                    continue
                __, chunk, start, __attempt = self._settle(task_id)
                active.discard(task_id)
                chunk_results, failure = self._load_payload(message)
                for offset, value in enumerate(chunk_results):
                    results[start + offset] = value
                if failure is not None:
                    fail_offset, exc_payload, text = failure
                    errors[start + fail_offset] = (
                        pickle.loads(exc_payload), text)
                self._dispatch_backlog(backlog, active, limit, limits)
        except KeyboardInterrupt:
            # Deterministic teardown: no orphaned workers, no hang on
            # a queue feeder thread mid-^C.
            self.shutdown(force=True)
            _forget_pool(self)
            raise
        finally:
            self._streaming = False
            # An abandoned generator (consumer raised or closed early)
            # leaves its in-flight results to be drained lazily by the
            # next stream.
            self._discard.update(active & set(self._tasks))


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
    "SHM_THRESHOLD_BYTES",
    "SHUTDOWN_DEADLINE_S",
]
