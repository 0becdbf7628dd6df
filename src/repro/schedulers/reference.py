"""Scalar reference implementations of the vectorised schedulers.

The hot schedulers (iSLIP, greedy-MWM, Solstice — and since the sweep
overhaul also PIM, WFA, BvN and Eclipse) run numpy-vectorised inner
loops on the production path.  This module preserves the original
per-port Python loops — the seed implementations the vector code was
derived from — as executable specifications:

* the equivalence tests in ``tests/test_schedulers_vectorized.py``
  fuzz vector vs scalar and require **identical** matchings, pointer
  state and stats on every demand matrix;
* the golden tests in ``tests/test_fabric_vector.py`` run the
  reference stack (scalar fabric engine + scalar scheduler) against
  the vector stack, so the whole hot-path overhaul, not one layer, is
  held to identical results;
* anyone modifying a vectorised algorithm can diff against code that
  reads like the pseudocode in the original papers.

These classes are deliberately **not** in the scheduler registry:
experiments and scenarios should never run them by accident.  They
subclass the production classes, so constructor validation and
:attr:`last_stats` semantics stay shared, and they override
``compute_trusted`` back to the checked scalar path — a reference
scheduler must never silently fall through to vector code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.schedulers.base import ScheduleResult
from repro.schedulers.bipartite import perfect_matching_on_support
from repro.schedulers.bvn import BvnScheduler, stuff_matrix
from repro.schedulers.eclipse import EclipseScheduler
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.matching import Matching
from repro.schedulers.mwm import GreedyMwmScheduler
from repro.schedulers.pim import PimScheduler
from repro.schedulers.solstice import SolsticeScheduler
from repro.schedulers.wfa import WfaScheduler


class ReferenceIslipScheduler(IslipScheduler):
    """iSLIP with the original per-output/per-input scalar loops."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        n = self.n_ports
        matched_out: Dict[int, int] = {}
        matched_in: Dict[int, int] = {}
        rounds_used = 0
        for iteration in range(self.iterations):
            rounds_used += 1
            progress = False
            # Grant phase: each unmatched output picks the requesting
            # input nearest its pointer.
            grants: Dict[int, List[int]] = {}
            for out in range(n):
                if out in matched_in:
                    continue
                requesters = [
                    inp for inp in range(n)
                    if inp not in matched_out and demand[inp, out] > 0
                ]
                if not requesters:
                    continue
                chosen = self._round_robin_pick(
                    requesters, self.grant_ptr[out], n)
                grants.setdefault(chosen, []).append(out)
            # Accept phase: each input picks the granting output nearest
            # its pointer.
            for inp, granting in grants.items():
                accepted = self._round_robin_pick(
                    granting, self.accept_ptr[inp], n)
                matched_out[inp] = accepted
                matched_in[accepted] = inp
                progress = True
                if iteration == 0:
                    # Pointer update rule: one past the matched partner,
                    # only for first-iteration matches.
                    self.grant_ptr[accepted] = (inp + 1) % n
                    self.accept_ptr[inp] = (accepted + 1) % n
            if not progress:
                break
        out_of: List[Optional[int]] = [matched_out.get(i) for i in range(n)]
        self.last_stats = {"iterations": rounds_used, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


class ReferenceGreedyMwmScheduler(GreedyMwmScheduler):
    """Greedy MWM visiting edges one at a time in sorted order."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        n = self.n_ports
        src_idx, dst_idx = np.nonzero(demand > 0)
        weights = demand[src_idx, dst_idx]
        # Sort by weight descending, then (src, dst) ascending.
        order = np.lexsort((dst_idx, src_idx, -weights))
        out_of: List[Optional[int]] = [None] * n
        used_out = [False] * n
        added = 0
        for k in order.tolist():
            inp = int(src_idx[k])
            out = int(dst_idx[k])
            if out_of[inp] is None and not used_out[out]:
                out_of[inp] = out
                used_out[out] = True
                added += 1
                if added == n:
                    break
        self.last_stats = {"iterations": 1, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


class ReferenceSolsticeScheduler(SolsticeScheduler):
    """Solstice with per-port Python loops in the peeling step."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        n = self.n_ports
        work = stuff_matrix(demand)
        plan: List[Tuple[Matching, int]] = []
        served = np.zeros_like(demand)
        min_slice = max(self._min_slice_bytes(), 1.0)
        iterations = 0
        max_entry = float(work.max())
        if max_entry > 0:
            threshold = 2.0 ** np.floor(np.log2(max_entry))
        else:
            threshold = 0.0
        while threshold >= min_slice:
            if (self.max_matchings is not None
                    and len(plan) >= self.max_matchings):
                break
            iterations += 1
            support = work >= threshold
            match = perfect_matching_on_support(support.tolist())
            if match is None:
                threshold /= 2.0
                continue
            slice_bytes = threshold
            real_pairs = [(i, match[i]) for i in range(n)
                          if demand[i, match[i]] - served[i, match[i]] > 0]
            for i in range(n):
                work[i, match[i]] -= slice_bytes
            if real_pairs:
                hold_ps = self._bytes_to_hold_ps(slice_bytes)
                plan.append(
                    (Matching.from_pairs(n, real_pairs), hold_ps))
                for i, j in real_pairs:
                    served[i, j] += slice_bytes
        residue = np.maximum(demand - served, 0.0)
        if not plan:
            plan = [(Matching.empty(n), 0)]
        self.last_stats = {"iterations": iterations, "matchings": len(plan)}
        return ScheduleResult(matchings=plan, eps_residue=residue)

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


class ReferencePimScheduler(PimScheduler):
    """PIM with the original per-output/per-input scalar loops."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        n = self.n_ports
        matched_out: Dict[int, int] = {}   # input -> output
        matched_in: Dict[int, int] = {}    # output -> input
        rounds_used = 0
        for _round in range(self.iterations):
            rounds_used += 1
            progress = False
            # Phase 1: requests from unmatched inputs to unmatched
            # outputs.
            requests: Dict[int, List[int]] = {}
            for out in range(n):
                if out in matched_in:
                    continue
                requesters = [
                    inp for inp in range(n)
                    if inp not in matched_out and demand[inp, out] > 0
                ]
                if requesters:
                    requests[out] = requesters
            # Phase 2: each output grants one requester at random.
            grants: Dict[int, List[int]] = {}
            for out, requesters in requests.items():
                chosen = self.rng.choice(requesters)
                grants.setdefault(chosen, []).append(out)
            # Phase 3: each input accepts one grant at random.
            for inp, granted_outputs in grants.items():
                accepted = self.rng.choice(granted_outputs)
                matched_out[inp] = accepted
                matched_in[accepted] = inp
                progress = True
            if not progress:
                break
        out_of: List[Optional[int]] = [matched_out.get(i)
                                       for i in range(n)]
        self.last_stats = {"iterations": rounds_used, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


class ReferenceWfaScheduler(WfaScheduler):
    """WFA visiting wavefront cells one at a time in Python."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        n = self.n_ports
        requests = demand > 0
        row_free = [True] * n
        col_free = [True] * n
        out_of: List[Optional[int]] = [None] * n
        for wave in range(n):
            diagonal = (self._priority + wave) % n
            for i in range(n):
                j = (diagonal - i) % n
                if requests[i, j] and row_free[i] and col_free[j]:
                    out_of[i] = j
                    row_free[i] = False
                    col_free[j] = False
        self._priority = (self._priority + 1) % n
        self.last_stats = {"iterations": n, "matchings": 1}
        return ScheduleResult(matchings=[(Matching(out_of), 0)])

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


def reference_birkhoff_von_neumann(
        matrix: np.ndarray,
        tolerance: float = 1e-9,
        max_terms: Optional[int] = None) -> List[Tuple[Matching, float]]:
    """The original scalar peel of ``bvn.birkhoff_von_neumann``."""
    work = np.asarray(matrix, dtype=np.float64).copy()
    n = work.shape[0]
    terms: List[Tuple[Matching, float]] = []
    while work.max() > tolerance:
        if max_terms is not None and len(terms) >= max_terms:
            break
        support = work > tolerance
        match = perfect_matching_on_support(support)
        if match is None:
            break
        weight = float(min(work[i, match[i]] for i in range(n)))
        if weight <= tolerance:
            break
        terms.append((Matching(list(match)), weight))
        for i in range(n):
            work[i, match[i]] -= weight
    return terms


class ReferenceBvnScheduler(BvnScheduler):
    """BvN with per-port Python loops in peel and residue updates."""

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
        stuffed = stuff_matrix(demand)
        terms = reference_birkhoff_von_neumann(
            stuffed, max_terms=self.max_matchings)
        plan: List[Tuple[Matching, int]] = []
        residue = demand.copy()
        for matching, weight in terms:
            hold_ps = self._bytes_to_hold_ps(weight)
            if hold_ps < self.min_hold_ps:
                continue
            real_pairs = [(i, j) for i, j in matching.pairs()
                          if demand[i, j] > 0]
            if not real_pairs:
                continue
            plan.append((Matching.from_pairs(self.n_ports, real_pairs),
                         hold_ps))
            for i, j in real_pairs:
                residue[i, j] = max(0.0, residue[i, j] - weight)
        if not plan:
            plan = [(Matching.empty(self.n_ports), 0)]
        self.last_stats = {
            "iterations": len(terms),
            "matchings": len(plan),
        }
        return ScheduleResult(matchings=plan, eps_residue=residue)

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


class ReferenceEclipseScheduler(EclipseScheduler):
    """Eclipse with per-pair Python loops in the greedy step."""

    def _best_step(self, remaining: np.ndarray
                   ) -> Optional[Tuple[Matching, int, float]]:
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
            pairs = [(int(i), int(j)) for i, j in zip(rows, cols)
                     if remaining[i, j] > 0]
            if not pairs:
                continue
            served = sum(float(capped[i, j]) for i, j in pairs)
            value = served / (tau + self.reconfig_ps)
            if best is None or value > best[2]:
                matching = Matching.from_pairs(self.n_ports, pairs)
                best = (matching, tau, value)
        return best

    def compute(self, demand: np.ndarray) -> ScheduleResult:
        demand = self._check_demand(demand)
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
            for i, j in matching.pairs():
                remaining[i, j] = max(0.0, remaining[i, j]
                                      - min(remaining[i, j], cap))
        if not plan:
            plan = [(Matching.empty(self.n_ports), 0)]
        self.last_stats = {
            "iterations": steps * self.max_candidate_durations,
            "matchings": len(plan),
        }
        return ScheduleResult(matchings=plan, eps_residue=remaining)

    def compute_trusted(self, demand: np.ndarray) -> ScheduleResult:
        return self.compute(demand)


__all__ = [
    "ReferenceIslipScheduler",
    "ReferenceGreedyMwmScheduler",
    "ReferenceSolsticeScheduler",
    "ReferencePimScheduler",
    "ReferenceWfaScheduler",
    "ReferenceBvnScheduler",
    "ReferenceEclipseScheduler",
    "reference_birkhoff_von_neumann",
]
