"""Job execution: sequential or warm-worker parallel, same bits.

The executor runs a planned list of specs and returns one
:class:`RunOutcome` per spec, in spec order.  Three properties the rest
of the system leans on:

* **Bit-identity** — a job's report depends only on its spec.  Every
  RNG an experiment touches is seeded from the spec, and both paths
  reset the one piece of process-global state the simulator owns (the
  packet-id counter) before each job, so ``--jobs N`` output is
  byte-identical to ``--jobs 1`` regardless of which worker ran what.
* **Cache short-circuit** — with a :class:`ResultCache`, hits never
  reach a worker; a fully warm run executes zero experiments.
* **Order preservation** — outcomes line up with the input specs, so
  callers can zip plans with results regardless of completion order.

Parallel execution runs on the persistent warm-worker pool
(:mod:`repro.runner.pool`): workers spawn once per process lifetime,
already holding what :func:`~repro.runner.pool.preload` imports, jobs
are dispatched in dynamically sized chunks, and each worker returns
its results through its own pipe.  A worker *crash* (process death —
distinct from an ordinary exception, which propagates as before) is
isolated to the poisonous job, surfaced as a failed outcome carrying
:attr:`RunOutcome.error`, and the remaining jobs still run; the
manifest renders the failing job id instead of the run hanging.  Only
``jobs=1`` without limits runs jobs inline, where no crash can be
isolated.

Replica batching (``replica_batch=True``) additionally groups specs
that differ only in their seed and runs each group through the
experiment's batch entry point
(``repro.experiments.BATCH_ENTRY_POINTS``), where the replica axis is
simulated in one set of vectorised operations
(:mod:`repro.fabric.replicas`).  Reports stay byte-identical to
per-spec execution; specs without a batch entry point fall back
transparently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.experiments.base import ExperimentReport
from repro.net.packet import reset_packet_ids
from repro.runner.cache import ResultCache
from repro.runner.governance import (
    FAIL_CRASH,
    GovernedFailure,
    ResourceLimits,
)
from repro.runner.pool import WorkerCrashError, get_pool, preload
from repro.runner.spec import RunSpec

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class RunOutcome:
    """One executed (or cache-served, or failed) job."""

    spec: RunSpec
    report: ExperimentReport
    cached: bool
    elapsed_s: float  # wall time of this execution; 0.0 for cache hits
    #: Failure description when the job could not produce a report
    #: (worker crash after the isolation retry); ``None`` on success.
    #: Failed outcomes are never cached.
    error: Optional[str] = None
    #: Failure-taxonomy tag (``CRASH``/``TIMEOUT``/``OOM``/
    #: ``QUARANTINED``/``ERROR``) when ``error`` is set; ``None`` on
    #: success.  See :mod:`repro.runner.governance`.
    kind: Optional[str] = None


def _run_one(spec: RunSpec) -> Tuple[ExperimentReport, float]:
    """Execute a single spec in a fresh deterministic context.

    Dispatches on the job family: ``scenario:<name>`` specs resolve
    against the scenario registry, everything else against the
    experiment entry points.  Top-level so it pickles under the
    ``spawn`` start method.
    """
    reset_packet_ids()
    start = time.perf_counter()
    scenario_name = spec.scenario_name
    if scenario_name is not None:
        from repro.scenario import get_scenario, run_scenario

        report = run_scenario(get_scenario(scenario_name),
                              spec.to_config())
    else:
        from repro.experiments import ENTRY_POINTS

        report = ENTRY_POINTS[spec.experiment_id](spec.to_config())
    return report, time.perf_counter() - start


def _run_replica_group(
        specs: Sequence[RunSpec]) -> List[Tuple[ExperimentReport, float]]:
    """Execute a seed-only replica group through the batch entry point.

    Top-level for worker pickling.  The batch entry point guarantees
    reports byte-identical to running each spec alone; elapsed time is
    attributed evenly (the batch is one fused execution).
    """
    from repro.experiments import BATCH_ENTRY_POINTS

    run_batch = BATCH_ENTRY_POINTS.get(specs[0].experiment_id)
    if run_batch is None or len(specs) == 1:
        return [_run_one(spec) for spec in specs]
    reset_packet_ids()
    start = time.perf_counter()
    reports = run_batch([spec.to_config() for spec in specs])
    if len(reports) != len(specs):
        raise RuntimeError(
            f"batch entry point for {specs[0].experiment_id!r} returned "
            f"{len(reports)} reports for {len(specs)} configs")
    elapsed = (time.perf_counter() - start) / len(specs)
    return [(report, elapsed) for report in reports]


def map_jobs(fn: Callable[[T], R], items: Sequence[T],
             jobs: int = 1) -> List[R]:
    """Order-preserving map, optionally across warm worker processes.

    The generic primitive under :func:`execute`, also used directly by
    the knob sweeps in ``tests/test_ablations.py`` to fan their per-knob
    runs out without changing result order.  ``fn`` must be a
    module-level callable when ``jobs > 1`` (task pickling).
    """
    return list(imap_jobs(fn, items, jobs=jobs))


def imap_jobs(fn: Callable[[T], R], items: Sequence[T],
              jobs: int = 1,
              limits: Optional[ResourceLimits] = None) -> Iterator[R]:
    """Like :func:`map_jobs`, but yields results as they arrive.

    Results come back in item order (workers may finish out of order;
    delivery is still ordered).  Streaming matters for failure
    behaviour: everything yielded before a job raises has already been
    consumed by the caller — e.g. stored in the result cache — rather
    than discarded with the batch.

    Items run inline, in this process, only at ``jobs=1`` with no
    ``limits``; a job that kills its process then ends the caller too.
    Otherwise every item, even a lone one, runs on the persistent warm
    pool (:func:`repro.runner.pool.get_pool`), where a crash is
    isolated to its item.  Governance needs that pool even at
    ``jobs=1``: a killable worker process whose main thread can host
    the deadline alarm.  Deadline/memory overruns stream back as
    in-band ``GovernedFailure`` values.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    governed = limits is not None and limits.enabled
    if not governed and jobs == 1:
        for item in items:
            yield fn(item)
        return
    yield from get_pool(max(1, jobs)).imap(fn, items, limit=jobs,
                                           limits=limits)


def _crash_outcome(spec: RunSpec, exc: WorkerCrashError) -> RunOutcome:
    """A failed outcome for a job whose worker died (not cacheable)."""
    message = f"{spec.key()}: {exc}"
    kind = getattr(exc, "kind", FAIL_CRASH) or FAIL_CRASH
    title = ("job failed — worker crashed" if kind == FAIL_CRASH
             else f"job failed — {kind.lower()}")
    report = ExperimentReport(
        experiment_id=spec.experiment_id,
        title=title,
        warnings=[message],
    )
    return RunOutcome(spec, report, cached=False, elapsed_s=0.0,
                      error=message, kind=kind)


def _governed_outcome(spec: RunSpec,
                      failure: GovernedFailure) -> RunOutcome:
    """A typed failed outcome for a limit trip (not cacheable)."""
    message = f"{spec.key()}: {failure.message}"
    report = ExperimentReport(
        experiment_id=spec.experiment_id,
        title=f"job failed — {failure.kind.lower()}",
        warnings=[message],
    )
    return RunOutcome(spec, report, cached=False, elapsed_s=0.0,
                      error=message, kind=failure.kind)


def _group_for_batch(specs: Sequence[RunSpec],
                     indices: Sequence[int]) -> List[List[int]]:
    """Partition pending spec indices into batchable replica groups.

    A group is a maximal set of specs identical except for ``seed``
    (and with a real seed), over an experiment that publishes a batch
    entry point.  Everything else stays a singleton.  Groups preserve
    first-appearance order, so outputs remain deterministic.
    """
    from repro.experiments import BATCH_ENTRY_POINTS
    from repro.runner.spec import canonical_json

    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for index in indices:
        spec = specs[index]
        if (spec.seed is None
                or spec.experiment_id not in BATCH_ENTRY_POINTS):
            key = f"solo:{index}"
        else:
            canonical = spec.canonical()
            canonical["seed"] = None
            key = f"group:{canonical_json(canonical)}"
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    return [groups[key] for key in order]


#: Flow-control constant shared by the sweep daemon's dispatch
#: scheduler and remote workers: an executor may hold this many times
#: its parallel width in leased-but-unsettled specs — one batch
#: running, one queued behind it, so a fast executor never idles
#: between leases while a slow one cannot hoard the queue.
CREDIT_FACTOR = 2


def credit_window(jobs: int) -> int:
    """Max specs an executor of parallel width ``jobs`` may hold."""
    return CREDIT_FACTOR * max(1, jobs)


class JobRunner:
    """The execution seam: one warm pool + cache serving many batches.

    A ``JobRunner`` binds the three execution knobs (``jobs``,
    ``cache``, ``replica_batch``) once and then runs successive spec
    batches through them.  Two job sources share it:

    * a **local sweep** — the CLI plans one batch and calls
      :meth:`run` once (this is what :func:`execute` wraps);
    * the **daemon queue** — ``repro serve`` holds one runner for its
      whole lifetime and feeds it batch after batch as submissions
      arrive, so every client shares the same warm workers and the
      same content-addressed cache.

    The warm pool admits one result stream at a time; the runner's
    lock enforces that at this seam, so concurrent callers serialise
    instead of tripping the pool's internal guard.  :meth:`warm`
    runs :func:`~repro.runner.pool.preload` and pre-spawns the workers
    so a long-lived service pays the startup cost at boot, not on the
    first submission — and, crucially for ``fork`` safety, from the
    main thread before any server threads exist.
    """

    def __init__(self, *, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 replica_batch: bool = False,
                 limits: Optional[ResourceLimits] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.replica_batch = replica_batch
        self.limits = limits
        import threading

        self._lock = threading.Lock()

    @property
    def lease_size(self) -> int:
        """Specs per dispatch batch when this runner shares a queue
        with other executors (one full-width :func:`execute` call)."""
        return max(1, self.jobs)

    @property
    def credit_window(self) -> int:
        """Max specs a scheduler should hand this runner at once."""
        return credit_window(self.jobs)

    def warm(self) -> None:
        """Import what jobs need, then spawn the worker fleet, eagerly.

        :func:`~repro.runner.pool.preload` loads the entry-point
        registries and the assignment solver here, so no job of this
        runner pays an import.  Governed runners fork the pool even at
        ``jobs=1``: enforcement lives in worker processes, and forking
        must happen from the main thread before a long-lived service
        starts its threads.  Only a process that executes jobs should
        call this: a hub that only dispatches never needs the solver.
        """
        preload()
        if self.jobs > 1 or (self.limits is not None
                             and self.limits.enabled):
            get_pool(max(1, self.jobs))

    def run(self, specs: Sequence[RunSpec],
            on_outcome: Optional[Callable[[RunOutcome], None]] = None,
            ) -> List[RunOutcome]:
        """One batch through the bound pool/cache (see :func:`execute`)."""
        with self._lock:
            return execute(specs, jobs=self.jobs, cache=self.cache,
                           on_outcome=on_outcome,
                           replica_batch=self.replica_batch,
                           limits=self.limits)


def execute(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    on_outcome: Optional[Callable[[RunOutcome], None]] = None,
    replica_batch: bool = False,
    limits: Optional[ResourceLimits] = None,
) -> List[RunOutcome]:
    """Run every spec; outcomes are returned in spec order.

    ``on_outcome`` fires once per job as results settle (cache hits
    first, then executed jobs in plan order as they stream back) —
    for progress lines, not ordering.  Executed reports are stored to
    the cache as they arrive, so a job failing late in a long run
    never discards the completed work before it.  ``replica_batch``
    fuses seed-only replica groups through experiment batch entry
    points (byte-identical reports, one fused execution per group).
    ``limits`` puts every job under resource governance
    (:mod:`repro.runner.governance`): a deadline or memory overrun
    fails that one job with a typed ``TIMEOUT``/``OOM`` outcome while
    the rest of the batch completes untouched.
    """
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)

    def settle(index: int, outcome: RunOutcome) -> None:
        outcomes[index] = outcome
        if on_outcome:
            on_outcome(outcome)

    pending: List[int] = []
    for index, spec in enumerate(specs):
        report = cache.load(spec) if cache is not None else None
        if report is not None:
            settle(index, RunOutcome(spec, report, cached=True,
                                     elapsed_s=0.0))
        else:
            pending.append(index)

    # A plain run is the replica path with one spec per group.
    groups = (_group_for_batch(specs, pending) if replica_batch
              else [[index] for index in pending])
    while groups:
        stream = imap_jobs(
            _run_replica_group,
            [tuple(specs[i] for i in group) for group in groups],
            jobs=jobs, limits=limits)
        try:
            for group, group_results in zip(groups, stream):
                if isinstance(group_results, GovernedFailure):
                    # The group tripped a limit: each member fails
                    # typed, the other groups run.
                    for index in group:
                        settle(index, _governed_outcome(specs[index],
                                                        group_results))
                    continue
                for index, (report, elapsed) in zip(group,
                                                    group_results):
                    outcome = RunOutcome(specs[index], report,
                                         cached=False, elapsed_s=elapsed)
                    if cache is not None:
                        cache.store(outcome.spec, outcome.report)
                    settle(index, outcome)
        except WorkerCrashError as exc:
            # The poisonous group is isolated: each member fails
            # visibly (the manifest shows its job id), the rest run.
            for index in groups[exc.item_index]:
                settle(index, _crash_outcome(specs[index], exc))
            groups = groups[exc.item_index + 1:]
            continue
        break
    return list(outcomes)  # type: ignore[arg-type]


__all__ = ["RunOutcome", "JobRunner", "execute", "map_jobs",
           "imap_jobs", "WorkerCrashError", "CREDIT_FACTOR",
           "credit_window"]
