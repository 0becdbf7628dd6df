"""Experiment implementations, one module per paper artifact.

Each experiment returns an :class:`~repro.experiments.base.ExperimentReport`
holding the same rows/series the paper's figure or claim carries.  The
``repro`` CLI, the tests and the end-to-end benchmark in
``benchmarks/e2e/`` all call these functions, so their numbers always
agree.

========  ==========================================================
E1        Figure 1 — buffering requirement vs switching time
E2        §2 — scheduler loop latency, software vs hardware
E3        §1/§2 — utilisation vs scheduling period
E4        §2 — VOIP latency/jitter under slow vs fast scheduling
E5        §3 — scheduling-algorithm study on the cell fabric
E6        §1 — OCS offload fraction vs demand skew
E7        §2 — schedule-computation scalability with port count
E8        §2 — sensitivity to host–switch clock skew
========  ==========================================================
"""

import sys
from typing import Dict

from repro.experiments import (
    e1_buffering,
    e2_latency,
    e3_utilization,
    e4_jitter,
    e5_algorithms,
    e6_offload,
    e7_scalability,
    e8_sync,
    probe,
)
from repro.experiments.base import ExperimentConfig, ExperimentReport
from repro.experiments.e1_buffering import run_e1
from repro.experiments.e2_latency import run_e2
from repro.experiments.e3_utilization import run_e3
from repro.experiments.e4_jitter import run_e4
from repro.experiments.e5_algorithms import run_e5
from repro.experiments.e6_offload import run_e6
from repro.experiments.e7_scalability import run_e7
from repro.experiments.e8_sync import run_e8

#: Historical entry points: ``fn(quick=...)``, kept for direct callers.
EXPERIMENTS = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e7": run_e7,
    "e8": run_e8,
}

#: Pure entry points: ``fn(config: ExperimentConfig)``.  These are what
#: ``repro.runner`` executes — deterministic functions of the config,
#: safe to run in worker processes and to cache by content hash.
ENTRY_POINTS = {
    "e1": e1_buffering.run,
    "e2": e2_latency.run,
    "e3": e3_utilization.run,
    "e4": e4_jitter.run,
    "e5": e5_algorithms.run,
    "e6": e6_offload.run,
    "e7": e7_scalability.run,
    "e8": e8_sync.run,
    # Fault injector for the resource-governance tests and CI drills.
    # ENTRY_POINTS only: absent from EXPERIMENTS so ``run all`` (which
    # expands from that table) never executes it by accident.
    "probe": probe.run,
}

#: Replica-batch entry points: ``fn(configs) -> [report, ...]``, one
#: report per config, **byte-identical** to calling the pure entry
#: point per config.  Configs in one call differ only in ``seed``; the
#: experiment simulates the whole replica axis in one pass
#: (``repro.fabric.replicas``).  Opt-in per experiment — the runner's
#: ``replica_batch`` mode falls back to per-spec execution for any
#: experiment not listed here.
BATCH_ENTRY_POINTS = {
    "e5": e5_algorithms.run_batch,
}


def experiment_summaries() -> Dict[str, str]:
    """``id -> one-line description`` from each module's docstring."""
    summaries = {}
    for exp_id, fn in sorted(ENTRY_POINTS.items()):
        doc = sys.modules[fn.__module__].__doc__ or ""
        summaries[exp_id] = doc.strip().splitlines()[0].rstrip(".")
    return summaries


__all__ = ["EXPERIMENTS", "ENTRY_POINTS", "BATCH_ENTRY_POINTS",
           "experiment_summaries", "ExperimentConfig",
           "ExperimentReport"] + [f"run_e{i}" for i in range(1, 9)]
