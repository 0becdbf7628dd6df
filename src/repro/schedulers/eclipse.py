"""Eclipse-style scheduling: jointly choose matchings *and* durations.

Solstice peels power-of-two slices; Eclipse (Bojja Venkatakrishnan et
al., 2016) improves on it by treating circuit scheduling as coverage
maximisation: each step greedily picks the (matching, duration) pair
with the best **useful-bytes per unit of occupied time**, where
occupied time includes the reconfiguration blackout ``delta``:

    value(M, tau) = sum_{(i,j) in M} min(D[i,j], rate * tau)
                    -----------------------------------------
                              tau + delta

For a fixed duration ``tau`` the numerator is maximised by a
maximum-weight matching on the capped demand ``min(D, rate * tau)`` —
so each greedy step solves one MWM per candidate duration and keeps the
best.  Candidate durations are the distinct service times of the
remaining demand entries (clipped to a candidate budget), which is
where the optimum must lie: increasing ``tau`` beyond the largest
matched entry only adds dead air.

The greedy stops when either ``max_matchings`` is reached or the next
step's value drops below ``min_value_fraction`` of the first step's —
the knee where circuits stop paying for their blackouts.  Everything
unserved goes to the EPS residue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.schedulers.base import Scheduler, ScheduleResult
from repro.schedulers.matching import Matching
from repro.sim.errors import SchedulingError
from repro.sim.time import GIGABIT, SECONDS


class EclipseScheduler(Scheduler):
    """Greedy joint (matching, duration) coverage scheduler.

    Parameters
    ----------
    n_ports:
        Port count.
    link_rate_bps:
        Circuit rate (converts bytes to service time).
    reconfig_ps:
        The blackout ``delta`` each additional matching costs.
    max_matchings:
        Hard cap on schedule length (Eclipse's k).
    max_candidate_durations:
        Candidate taus evaluated per greedy step (largest distinct
        entry-service-times of the remaining demand).
    min_value_fraction:
        Stop when a step's value falls below this fraction of the first
        step's value.
    """

    name = "eclipse"

    def __init__(self, n_ports: int, link_rate_bps: float = 10 * GIGABIT,
                 reconfig_ps: int = 0, max_matchings: int = 8,
                 max_candidate_durations: int = 6,
                 min_value_fraction: float = 0.05) -> None:
        super().__init__(n_ports)
        if link_rate_bps <= 0:
            raise SchedulingError("link rate must be positive")
        if max_matchings < 1:
            raise SchedulingError("max_matchings must be >= 1")
        if max_candidate_durations < 1:
            raise SchedulingError("need >= 1 candidate duration")
        if not 0.0 <= min_value_fraction < 1.0:
            raise SchedulingError(
                "min_value_fraction must be in [0, 1)")
        self.link_rate_bps = link_rate_bps
        self.reconfig_ps = reconfig_ps
        self.max_matchings = max_matchings
        self.max_candidate_durations = max_candidate_durations
        self.min_value_fraction = min_value_fraction

    # -- unit helpers -----------------------------------------------------------

    def _bytes_to_ps(self, nbytes: float) -> float:
        return nbytes * 8 * SECONDS / self.link_rate_bps

    def _ps_to_bytes(self, ps: float) -> float:
        return ps * self.link_rate_bps / (8 * SECONDS)

    # -- one greedy step ----------------------------------------------------------

    def _best_step(self, remaining: np.ndarray
                   ) -> Optional[Tuple[Matching, int, float]]:
        """Best (matching, hold_ps, value) for the current residue.

        The MWM solve per candidate duration stays in scipy; the pair
        filter is a mask over the assignment vectors and the served
        total is summed in the same left-to-right order as the scalar
        original (``repro.schedulers.reference``), so the greedy's
        tie-breaks — and therefore the whole plan — are bit-identical.
        """
        from scipy.optimize import linear_sum_assignment  # see mwm.py

        positive = remaining[remaining > 0]
        if positive.size == 0:
            return None
        service_ps = np.unique(
            np.ceil(self._bytes_to_ps(positive)).astype(np.int64))
        candidates = service_ps[-self.max_candidate_durations:]
        best: Optional[Tuple[Matching, int, float]] = None
        for tau in candidates.tolist():
            tau = max(1, int(tau))
            capped = np.minimum(remaining, self._ps_to_bytes(tau))
            rows, cols = linear_sum_assignment(-capped)
            real = remaining[rows, cols] > 0
            if not real.any():
                continue
            real_rows = rows[real]
            real_cols = cols[real]
            # Sequential Python sum, not np.sum: pairwise summation
            # rounds differently and could flip equal-value greedy
            # tie-breaks away from the reference implementation.
            served = sum(capped[real_rows, real_cols].tolist())
            value = served / (tau + self.reconfig_ps)
            if best is None or value > best[2]:
                out_of = np.full(self.n_ports, -1, dtype=np.int64)
                out_of[real_rows] = real_cols
                best = (Matching.from_output_array(out_of), tau, value)
        return best

    # -- Scheduler --------------------------------------------------------------------

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        return self._schedule(self._check_demand(demand))

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        """Validation-free entry; see the base-class contract."""
        return self._schedule(np.asarray(demand, dtype=np.float64))

    def _schedule(self, demand: np.ndarray) -> ScheduleResult:
        remaining = demand.copy()
        plan: List[Tuple[Matching, int]] = []
        first_value: Optional[float] = None
        steps = 0
        while len(plan) < self.max_matchings:
            step = self._best_step(remaining)
            if step is None:
                break
            matching, tau, value = step
            if first_value is None:
                first_value = value
            elif value < self.min_value_fraction * first_value:
                break
            steps += 1
            plan.append((matching, tau))
            cap = self._ps_to_bytes(tau)
            matched = matching.as_array()
            src = np.nonzero(matched >= 0)[0]
            dst = matched[src]
            vals = remaining[src, dst]
            remaining[src, dst] = np.maximum(
                0.0, vals - np.minimum(vals, cap))
        if not plan:
            plan = [(Matching.empty(self.n_ports), 0)]
        self.last_stats = {
            "iterations": steps * self.max_candidate_durations,
            "matchings": len(plan),
        }
        return ScheduleResult(matchings=plan, eps_residue=remaining)


__all__ = ["EclipseScheduler"]
