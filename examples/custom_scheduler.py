#!/usr/bin/env python3
"""Rapid prototyping: drop a *new* scheduling algorithm into the slot.

This is the paper's core pitch — §3: "users implement novel design in
the scheduling logic module" while the processing and switching
infrastructure stays fixed.  Here we prototype an "oldest-cell-first"
greedy matcher (serve the most-starved VOQs first), register it, and
evaluate it against iSLIP two ways:

1. on the slotted cell fabric (throughput under adversarial load), and
2. inside the full packet-level framework (end-to-end latency),

without touching a line of infrastructure code.

    python examples/custom_scheduler.py
"""

from typing import List, Optional

import numpy as np

from repro import (
    FrameworkConfig,
    HybridSwitchFramework,
    Matching,
    ScheduleResult,
    Scheduler,
    register_scheduler,
)
from repro.fabric.cellsim import CellFabricSim
from repro.fabric.workloads import diagonal_rates
from repro.schedulers.islip import IslipScheduler
from repro.sim.time import MICROSECONDS, MILLISECONDS, format_time
from repro.traffic.patterns import UniformDestination
from repro.traffic.sources import PoissonSource


class OldestCellFirst(Scheduler):
    """Greedy matcher on queue *age* proxied by queue depth ranking.

    Visits (input, output) pairs in decreasing backlog and matches
    greedily — like greedy MWM, but demonstrates that any policy with
    the ``compute`` signature plugs in.  State from previous epochs
    (``self._age``) shows schedulers may keep history, exactly as a
    hardware block would keep registers.
    """

    name = "oldest-cell-first"

    def __init__(self, n_ports: int) -> None:
        super().__init__(n_ports)
        self._age = np.zeros((n_ports, n_ports))

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        # Age accumulates wherever demand waits, resets when it clears.
        self._age = np.where(demand > 0, self._age + 1, 0.0)
        score = demand * (1.0 + 0.1 * self._age)
        src_idx, dst_idx = np.nonzero(score > 0)
        order = np.argsort(-score[src_idx, dst_idx], kind="stable")
        out_of: List[Optional[int]] = [None] * self.n_ports
        used = [False] * self.n_ports
        for k in order.tolist():
            i, j = int(src_idx[k]), int(dst_idx[k])
            if out_of[i] is None and not used[j]:
                out_of[i] = j
                used[j] = True
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])


def fabric_comparison() -> None:
    print("== cell fabric, diagonal load 0.9, 16 ports ==")
    rates = diagonal_rates(16, 0.9)
    for name, scheduler in [
        ("islip-1", IslipScheduler(16, iterations=1)),
        ("oldest-cell-first", OldestCellFirst(16)),
    ]:
        stats = CellFabricSim(scheduler, rates, seed=3).run(
            slots=4_000, warmup=500)
        print(f"  {name:20s} throughput={stats.throughput:.3f} "
              f"mean delay={stats.mean_delay_slots:.1f} slots")


def framework_comparison() -> None:
    print("== full framework, 8 ports, Poisson 0.4 load ==")
    for name in ("islip", "oldest-cell-first"):
        config = FrameworkConfig(
            n_ports=8, switching_time_ps=1 * MICROSECONDS,
            scheduler=name, timing_preset="netfpga_sume",
            default_slot_ps=10 * MICROSECONDS, seed=7)
        fw = HybridSwitchFramework(config)
        for host in fw.hosts:
            PoissonSource(
                fw.sim, host, rate_bps=0.4 * config.port_rate_bps,
                chooser=UniformDestination(
                    8, host.host_id,
                    fw.sim.streams.stream(f"d{host.host_id}")),
                rng=fw.sim.streams.stream(f"s{host.host_id}"))
        result = fw.run(4 * MILLISECONDS)
        latency = result.latency()
        print(f"  {name:20s} utilisation={result.utilisation():.3f} "
              f"p99={format_time(round(latency.p99_ps))}")


def main() -> None:
    # One registration makes the new algorithm available everywhere —
    # framework configs, the CLI, experiments and scenarios.
    register_scheduler("oldest-cell-first",
                       lambda n_ports, **kw: OldestCellFirst(n_ports))
    fabric_comparison()
    framework_comparison()


if __name__ == "__main__":
    main()
