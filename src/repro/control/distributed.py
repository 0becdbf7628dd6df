"""Distributed greedy scheduling on stale demand views.

A centralized scheduler sees the whole demand matrix at the instant it
computes.  A *distributed* implementation — per-port arbiters, or a
scheduler hierarchy stitched over a control network — works from views
that are **stale** (aggregated and shipped a few epochs ago) and makes
**local** decisions (one round of request/grant, no global iteration).

:class:`DistributedGreedyScheduler` models both costs:

* each input arbiter requests its locally heaviest VOQ,
* each output arbiter grants its heaviest requester,
* unresolved ports simply stay unmatched for this epoch (a second round
  would need another control RTT — exactly what distribution makes
  expensive),
* and all weights come from the demand matrix as it was
  ``staleness_epochs`` compute-calls ago.

With ``staleness_epochs=0`` this is a centralized greedy matcher (one
PIM-like round with weight ties broken deterministically), so sweeping
staleness isolates the cost of distribution itself — the ablation in
``tests/test_ablations.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.schedulers.base import Scheduler, ScheduleResult
from repro.schedulers.matching import Matching
from repro.sim.errors import ConfigurationError


class DistributedGreedyScheduler(Scheduler):
    """One-round request/grant arbitration on a stale demand view."""

    name = "distributed-greedy"

    def __init__(self, n_ports: int, staleness_epochs: int = 0) -> None:
        super().__init__(n_ports)
        if staleness_epochs < 0:
            raise ConfigurationError("staleness must be >= 0")
        self.staleness_epochs = staleness_epochs
        # Ring of past views; the oldest entry is the acting view.
        self._views: Deque[np.ndarray] = deque(maxlen=staleness_epochs + 1)

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        self._views.append(demand.copy())
        view = self._views[0]  # stale by up to `staleness_epochs` calls
        n = self.n_ports
        # Request phase: every input asks for its heaviest backlogged VOQ.
        requests: Dict[int, List[int]] = {}
        for inp in range(n):
            row = view[inp]
            best = int(np.argmax(row))
            if row[best] > 0:
                requests.setdefault(best, []).append(inp)
        # Grant phase: every output takes its heaviest requester.
        out_of: List[Optional[int]] = [None] * n
        for out, requesters in requests.items():
            winner = max(requesters,
                         key=lambda inp: (view[inp, out], -inp))
            out_of[winner] = out
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])


__all__ = ["DistributedGreedyScheduler"]
