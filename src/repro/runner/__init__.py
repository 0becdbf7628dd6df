"""Parallel experiment orchestration.

The runner turns the experiment suite into an embarrassingly parallel
job system while keeping the paper-reproduction guarantee: every byte
of output is a deterministic function of what was asked for.

Pipeline::

    plan_runs(...)          # sweep -> ordered List[RunSpec]
      └─ shard(...)         # optional: split across CI shards
    execute(specs,          # sequential or warm-worker parallel
            jobs=N,
            cache=ResultCache(dir),   # spec-hash -> report store
            replica_batch=True)       # fuse seed-only replica groups
      └─ merge_outcomes(...)          # back into ExperimentReport

Entry points stay pure (``repro.experiments.ENTRY_POINTS``), so the
executor can run them in worker processes and the cache can address
reports by the spec's content hash.  Parallel execution uses the
persistent warm pool (``repro.runner.pool``): workers import ``repro``
once per process lifetime and stream dynamically chunked job batches,
each returning its results through its own pipe.  ``repro run --jobs
N`` and ``repro sweep`` are thin CLI frontends over this package.
"""

from repro.runner.cache import ResultCache
from repro.runner.executor import (
    JobRunner,
    RunOutcome,
    WorkerCrashError,
    execute,
    imap_jobs,
    map_jobs,
)
from repro.runner.governance import (
    FAIL_CRASH,
    FAIL_ERROR,
    FAIL_OOM,
    FAIL_QUARANTINED,
    FAIL_TIMEOUT,
    FAILURE_KINDS,
    GovernedFailure,
    ResourceLimits,
)
from repro.runner.manifest import (
    RunManifest,
    merge_outcomes,
    write_json_report,
)
from repro.runner.plan import derive_seed, plan_runs, shard
from repro.runner.pool import WarmWorkerPool, get_pool, shutdown_pools
from repro.runner.spec import RunSpec, canonical_json, jsonable

__all__ = [
    "RunSpec",
    "ResultCache",
    "RunOutcome",
    "JobRunner",
    "RunManifest",
    "WarmWorkerPool",
    "WorkerCrashError",
    "plan_runs",
    "shard",
    "derive_seed",
    "execute",
    "map_jobs",
    "imap_jobs",
    "get_pool",
    "shutdown_pools",
    "merge_outcomes",
    "write_json_report",
    "canonical_json",
    "jsonable",
    "ResourceLimits",
    "GovernedFailure",
    "FAILURE_KINDS",
    "FAIL_CRASH",
    "FAIL_TIMEOUT",
    "FAIL_OOM",
    "FAIL_QUARANTINED",
    "FAIL_ERROR",
]
