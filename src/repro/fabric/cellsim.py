"""The slotted cell simulator.

Per slot:

1. **Arrivals** — Bernoulli per (input, output) pair from the rate
   matrix (at most one cell per pair per slot, the standard model).
2. **Schedule** — the scheduler sees the VOQ *cell counts* as its
   demand matrix and returns one matching.
3. **Service** — one cell departs per matched backlogged pair.

Delay is measured in slots from arrival to departure (FIFO within each
VOQ).  Throughput is departures per slot per port, normalised so 1.0
means every port was busy every slot.  Slots are numbered from the
start of the arrival stream, so a :meth:`CellFabricSim.run` that
continues from live state measures each cell's delay from the slot it
really arrived in.

The simulator is deliberately independent of :mod:`repro.sim` — cell
time is just a loop index; there is nothing event-driven about it.

Engines
-------

Two interchangeable inner loops produce **bit-identical**
:class:`FabricStats` for the same seed (the golden-equivalence tests in
``tests/test_fabric_vector.py`` hold them to that):

* ``"vector"`` (default) — the replica-stacked kernel of
  :mod:`repro.fabric.replicas` holding one replica: arrival randomness
  drawn in whole slot chunks, int32 VOQ counts, a per-VOQ delay ledger
  instead of a queue of arrival slots, and the scheduler driven
  without re-validation (batched WFA and TDMA drivers; iSLIP and
  everything else through its own
  :meth:`~repro.schedulers.base.Scheduler.compute_trusted`).
* ``"reference"`` — the original scalar loop, kept as the executable
  specification the stack is checked against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.schedulers.base import Scheduler
from repro.sim.errors import ConfigurationError


@dataclass(frozen=True)
class FabricStats:
    """Results of one cell-fabric run (measurement window only)."""

    slots: int
    n_ports: int
    arrivals: int
    departures: int
    #: Mean cell delay in slots (arrival slot → departure slot).
    mean_delay_slots: float
    #: Departures / (slots × ports): normalised throughput.
    throughput: float
    #: Offered load actually generated (arrivals / (slots × ports)).
    offered: float
    #: Cells still queued at the end of the window.
    backlog_cells: int
    #: Largest total queued cells observed.
    peak_backlog_cells: int

    @property
    def served_fraction(self) -> float:
        """Departures / arrivals within the window (≈1 when stable)."""
        return self.departures / self.arrivals if self.arrivals else 1.0


def _checked_rates(rates: np.ndarray, *shapes: tuple) -> np.ndarray:
    """``rates`` as float64: per-slot arrival probabilities with a zero
    diagonal, in one of ``shapes`` (a matrix, or one per replica)."""
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape not in shapes:
        raise ConfigurationError(
            f"rates shape {rates.shape} is not "
            + " or ".join(str(shape) for shape in shapes))
    if (rates < 0).any() or (rates > 1).any():
        raise ConfigurationError("rates must be probabilities in [0,1]")
    if np.diagonal(rates, axis1=-2, axis2=-1).any():
        raise ConfigurationError("rates must have a zero diagonal")
    return rates


def _stats(n_ports: int, slots: int, arrivals: int, departures: int,
           delay_total: int, backlog: int,
           peak_backlog: int) -> FabricStats:
    """One window's :class:`FabricStats` from its integer totals."""
    return FabricStats(
        slots=slots,
        n_ports=n_ports,
        arrivals=arrivals,
        departures=departures,
        mean_delay_slots=delay_total / departures if departures else 0.0,
        throughput=departures / (slots * n_ports),
        offered=arrivals / (slots * n_ports),
        backlog_cells=backlog,
        peak_backlog_cells=peak_backlog,
    )


class CellFabricSim:
    """Fixed-slot input-queued switch driven by any Scheduler.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.schedulers.base.Scheduler`; its demand matrix
        is the live VOQ cell-count matrix.
    rates:
        n×n per-slot arrival probabilities (see
        :mod:`repro.fabric.workloads`).
    seed:
        Arrival randomness seed.
    engine:
        ``"vector"`` (default, the one-replica stack) or
        ``"reference"`` (scalar loop).  Both produce identical stats for
        the same seed; see the module docstring.
    """

    ENGINES = ("vector", "reference")

    def __init__(self, scheduler: Scheduler, rates: np.ndarray,
                 seed: int = 0, engine: str = "vector") -> None:
        n = scheduler.n_ports
        rates = _checked_rates(rates, (n, n))
        if engine not in self.ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.scheduler = scheduler
        self.rates = rates
        self.n_ports = n
        self.engine = engine
        if engine == "vector":
            # Imported here: the stack's module imports this one.
            from repro.fabric.replicas import _ReplicaStack

            self._stack = _ReplicaStack([scheduler], rates, [seed])
            return
        self._rng = np.random.default_rng(seed)
        self._counts = np.zeros((n, n), dtype=np.int64)
        self._arrival_slots: List[List[Optional[Deque[int]]]] = [
            [deque() if i != j else None for j in range(n)]
            for i in range(n)
        ]
        #: Slots simulated so far: the number of the next run's first.
        self._slot = 0

    def run(self, slots: int, warmup: int = 0) -> FabricStats:
        """Simulate ``warmup + slots`` slots; measure the last ``slots``.

        Warmup fills queues to steady state so delay/throughput are not
        biased by the empty start.  A later call continues from the
        state this one leaves.
        """
        if slots < 1 or warmup < 0:
            raise ConfigurationError("slots >= 1, warmup >= 0 required")
        if self.engine == "vector":
            return self._stack.run(slots, warmup)[0]
        return self._run_reference(slots, warmup)

    def _run_reference(self, slots: int, warmup: int) -> FabricStats:
        """The scalar loop: the executable specification."""
        n = self.n_ports
        opens = self._slot + warmup
        arrivals = 0
        departures = 0
        delay_total = 0
        peak_backlog = 0
        for slot in range(self._slot, opens + slots):
            measuring = slot >= opens
            # Arrivals: one Bernoulli draw per pair.
            draw = self._rng.random((n, n)) < self.rates
            if draw.any():
                src_idx, dst_idx = np.nonzero(draw)
                for src, dst in zip(src_idx.tolist(), dst_idx.tolist()):
                    self._counts[src, dst] += 1
                    queue = self._arrival_slots[src][dst]
                    assert queue is not None
                    queue.append(slot)
                if measuring:
                    arrivals += int(draw.sum())
            # Schedule on current occupancy.
            result = self.scheduler.compute(self._counts)
            matching = result.first
            # Serve one cell per matched backlogged pair.
            for src, dst in matching.pairs():
                if self._counts[src, dst] >= 1:
                    self._counts[src, dst] -= 1
                    queue = self._arrival_slots[src][dst]
                    assert queue is not None
                    arrived = queue.popleft()
                    if measuring:
                        departures += 1
                        delay_total += slot - arrived
            backlog = int(self._counts.sum())
            if measuring and backlog > peak_backlog:
                peak_backlog = backlog
        self._slot = opens + slots
        return _stats(n, slots, arrivals, departures, delay_total,
                      int(self._counts.sum()), peak_backlog)


__all__ = ["CellFabricSim", "FabricStats"]
