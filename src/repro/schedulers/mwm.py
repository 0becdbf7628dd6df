"""Maximum-weight matching schedulers.

MWM (weight = VOQ occupancy or age) is the throughput-optimal
gold standard for input-queued switches (Tassiulas & Ephremides): it
stabilises every admissible load, at the cost of O(n³) work that is
hopeless at nanosecond cadence but fine as an upper baseline.

Two variants:

* :class:`MwmScheduler` — exact, via the Jonker-Volgenant solver in
  ``scipy.optimize.linear_sum_assignment`` on the negated weight
  matrix.  Zero-demand pairs are pruned from the result so the OCS is
  never configured for circuits nobody wants.
* :class:`GreedyMwmScheduler` — sort edges by weight, add greedily.
  A 1/2-approximation that hardware can pipeline (compare-and-sweep
  networks); the quality/cost trade-off E7 quantifies.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.schedulers.base import Scheduler, ScheduleResult
from repro.schedulers.matching import Matching


class MwmScheduler(Scheduler):
    """Exact maximum-weight matching on the demand matrix."""

    name = "mwm"

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        return self._solve(self._check_demand(demand))

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        # Feed scipy the same float64 matrix _check_demand would have
        # produced so the solver tie-breaks identically on both paths.
        return self._solve(np.asarray(demand, dtype=np.float64))

    def _solve(self, demand: np.ndarray) -> ScheduleResult:
        # Imported here, not at module top: only a process that runs a
        # solver pays for scipy (job processes load it at warm-up, see
        # repro.runner.pool.preload).
        from scipy.optimize import linear_sum_assignment

        n = self.n_ports
        # linear_sum_assignment minimises, so negate.  It also requires
        # a square matrix and produces a *full* permutation; prune pairs
        # with zero demand afterwards.
        rows, cols = linear_sum_assignment(-demand)
        out_of: List[Optional[int]] = [None] * n
        for inp, out in zip(rows.tolist(), cols.tolist()):
            if demand[inp, out] > 0:
                out_of[inp] = out
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])


class GreedyMwmScheduler(Scheduler):
    """Greedy 1/2-approximate maximum-weight matching (iLQF-style).

    Edges are visited in decreasing weight; ties break on (src, dst)
    index for determinism.
    """

    name = "greedy-mwm"

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute_trusted(self._check_demand(demand))

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        """Locally-dominant rounds; see the base-class contract.

        Sequential greedy over a *strict* total order (weight
        descending, then (src, dst) ascending) picks exactly the edges
        that are, at some stage, minimal in both their row and their
        column among the edges not yet excluded.  Each round therefore
        matches every edge whose rank is the row **and** column minimum
        simultaneously — the globally smallest remaining rank always
        qualifies, so every round makes progress, and the final matching
        is identical to the edge-at-a-time Python loop this replaces.
        """
        n = self.n_ports
        src_idx, dst_idx = np.nonzero(demand > 0)
        out_of_arr = np.full(n, -1, dtype=np.int64)
        if src_idx.size:
            weights = demand[src_idx, dst_idx]
            # Rank every edge by (weight desc, src asc, dst asc).
            order = np.lexsort((dst_idx, src_idx, -weights))
            rank = np.empty(order.size, dtype=np.int64)
            rank[order] = np.arange(order.size)
            blocked = order.size  # sentinel above every real rank
            ranks = np.full((n, n), blocked, dtype=np.int64)
            ranks[src_idx, dst_idx] = rank
            ports = np.arange(n)
            while True:
                row_best = ranks.argmin(axis=1)
                row_min = ranks[ports, row_best]
                rows = ports[row_min < blocked]
                if rows.size == 0:
                    break
                col_best = ranks.argmin(axis=0)
                cols = row_best[rows]
                mutual = col_best[cols] == rows
                rows = rows[mutual]
                cols = cols[mutual]
                out_of_arr[rows] = cols
                ranks[rows, :] = blocked
                ranks[:, cols] = blocked
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(
            matchings=[(Matching.from_output_array(out_of_arr), 0)])


__all__ = ["MwmScheduler", "GreedyMwmScheduler"]
