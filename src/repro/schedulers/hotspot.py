"""c-Through-style hotspot scheduling.

The software baseline the paper measures itself against: c-Through
(Wang et al., SIGCOMM 2010) estimates demand from host buffer occupancy,
computes **one** maximum-weight perfect matching per epoch, holds the
circuits for the whole epoch, and lets everything else ride the
electrical network.

We reproduce that decision procedure:

* demand below ``threshold_bytes`` is ignored for circuit purposes
  (tiny flows never justify a circuit — they go to the EPS residue),
* an exact MWM picks the circuit set,
* the whole epoch duration ``hold_ps`` is attached to the single
  matching.

Pair this scheduler with the *software* timing model in
:mod:`repro.hwmodel.software` to get the full millisecond-era baseline,
or with the hardware model to see what the same policy would do at
nanosecond cadence.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.schedulers.base import Scheduler, ScheduleResult
from repro.schedulers.matching import Matching
from repro.sim.errors import SchedulingError


class HotspotScheduler(Scheduler):
    """One MWM per epoch over thresholded demand; residue to EPS."""

    name = "hotspot"

    def __init__(self, n_ports: int, hold_ps: int = 0,
                 threshold_bytes: float = 0.0) -> None:
        super().__init__(n_ports)
        if threshold_bytes < 0:
            raise SchedulingError("threshold must be >= 0")
        self.hold_ps = hold_ps
        self.threshold_bytes = threshold_bytes

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        from scipy.optimize import linear_sum_assignment  # see mwm.py

        demand = self._check_demand(demand)
        n = self.n_ports
        eligible = np.where(demand >= max(self.threshold_bytes, 1e-12),
                            demand, 0.0)
        rows, cols = linear_sum_assignment(-eligible)
        out_of: List[Optional[int]] = [None] * n
        served = np.zeros_like(demand)
        for inp, out in zip(rows.tolist(), cols.tolist()):
            if eligible[inp, out] > 0:
                out_of[inp] = out
                served[inp, out] = demand[inp, out]
        residue = demand - served
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(
            matchings=[(Matching(out_of), self.hold_ps)],
            eps_residue=residue)


__all__ = ["HotspotScheduler"]
