"""Replica-batched cell-fabric kernel: R replicas in one set of numpy ops.

This is the fabric's one fast kernel.  A sweep point is *many
replicas* of a fabric configuration; this module stacks all replicas
into ``(R, n, n)`` VOQ counts and advances every replica with **one**
set of array ops per slot — plus one scheduling pass per driver group
(see :mod:`repro.schedulers.batch`: iSLIP, WFA and TDMA replicas are
batched across the stack, anything else runs its own
``compute_trusted``).  Replicas need not share anything but the port
count: each has its own scheduler, its own seed and, given an
``(R, n, n)`` rates stack, its own rate matrix — E5 runs its whole
(scheduler, workload, load, seed) grid as one stack.  A solo
:class:`~repro.fabric.cellsim.CellFabricSim` run (the default
``engine="vector"``) is the same kernel holding one replica.

Delay bookkeeping is a *ledger*, not a queue of arrival slots.  Each
VOQ is FIFO and takes at most one arrival per slot, so the cells it
serves in the measuring window are its arrivals number ``d0 + 1``
through ``d1``, where ``d0`` and ``d1`` are its departure counts when
the window opens and when it closes.  The kernel keeps one departure
count per VOQ; after the run, a second pass redraws each replica's
arrivals from its seed and sums the slots of exactly those arrivals.
The total delay is the served cells' departure slots minus that sum,
so memory does not grow with the run length or the queue lengths.

Bit-identity is the contract against the scalar reference engine:

* replica ``r`` draws its arrivals from its **own** generator seeded
  ``seeds[r]``, in whole-chunk blocks — numpy fills any chunk shape
  from the same bit stream, so both passes see the draw sequence of a
  per-slot run of the same seed even though they chunk differently;
* per-replica scheduler state evolves exactly as solo (the batched
  drivers are fuzz-proven identical; everything else goes through its
  own ``compute_trusted``);
* service and delay bookkeeping are elementwise per (replica, pair),
  in exact integer arithmetic.

``run_replicas`` therefore returns the *same* ``FabricStats`` list as
one solo run per replica — the golden tests in
``tests/test_fabric_replicas.py`` hold it to that, field for field,
against the scalar reference engine and scalar reference schedulers.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.fabric.cellsim import (
    CellFabricSim,
    FabricStats,
    _checked_rates,
    _stats,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.batch import make_replica_matcher
from repro.sim.errors import ConfigurationError

#: Memory budget for one chunk of pre-drawn arrival randomness
#: (float64), which bounds the batch size at large port counts.
_CHUNK_BYTES = 8_000_000
#: Upper bound on slots per chunk regardless of port count.
_CHUNK_SLOTS = 1024

#: A factory producing one *fresh* scheduler per replica.
SchedulerFactory = Callable[[], Scheduler]


def run_replicas_sequential(
    scheduler_factory: SchedulerFactory,
    rates: np.ndarray,
    seeds: Sequence[int],
    slots: int,
    warmup: int = 0,
    engine: str = "vector",
) -> List[FabricStats]:
    """The per-replica path: one solo fabric run per seed, in order.

    ``tests/test_fabric_replicas.py`` checks ``run_replicas`` against
    it.  With ``engine="reference"`` each run is the scalar loop.  With
    the default engine each is the stack holding one replica: a lone
    iSLIP replica runs its own ``compute_trusted`` (as does any
    scheduler without a batched driver), so an iSLIP comparison still
    checks the batched driver against the scheduler's own code; lone
    WFA and TDMA replicas keep their batched drivers.
    """
    return [
        CellFabricSim(scheduler_factory(), rates, seed=seed,
                      engine=engine).run(slots, warmup=warmup)
        for seed in seeds
    ]


def run_replicas(
    scheduler_factory: SchedulerFactory,
    rates: np.ndarray,
    seeds: Sequence[int],
    slots: int,
    warmup: int = 0,
) -> List[FabricStats]:
    """Simulate every seed at once over stacked ``(R, n, n)`` state.

    Parameters mirror :class:`CellFabricSim` plus the replica axis:
    ``scheduler_factory`` is called once per replica (schedulers are
    stateful — each replica owns an instance, and the instances may
    differ in type), ``seeds[r]`` seeds replica ``r``'s arrival
    stream, and ``rates`` is either one ``(n, n)`` matrix shared by
    every replica or an ``(R, n, n)`` stack, one matrix per replica.
    Returns one :class:`~repro.fabric.cellsim.FabricStats` per seed,
    in seed order, bit-identical to a solo run of each replica.
    """
    if not seeds:
        return []
    schedulers = [scheduler_factory() for __ in seeds]
    n = schedulers[0].n_ports
    rates = _checked_rates(rates, (n, n), (len(schedulers), n, n))
    return _ReplicaStack(schedulers, rates, seeds).run(slots, warmup)


class _ReplicaStack:
    """The live state of R replicas; each :meth:`run` continues it.

    It holds the stacked VOQ counts, the ledger's per-VOQ departure
    counts, one arrival generator per replica, the matcher (with any
    scheduler state its drivers stack) and the absolute number of the
    next slot.  The ledger numbers each VOQ's arrivals from slot 0 of
    its stream, so a resumed run needs only that offset to measure
    every delay from the cell's real arrival slot.  The cost is that
    each run's ledger pass redraws the streams from slot 0.  Nothing
    in the library resumes a stack (e5 runs its stack once); a caller
    of ``CellFabricSim.run`` may.  ``rates`` must already be checked.
    """

    def __init__(self, schedulers: Sequence[Scheduler], rates: np.ndarray,
                 seeds: Sequence[int]) -> None:
        replicas = len(schedulers)
        n = schedulers[0].n_ports
        self.rates = np.broadcast_to(rates, (replicas, n, n))
        self.seeds = list(seeds)
        self.matcher = make_replica_matcher(schedulers)
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        # Stacked VOQ counts, int32: half the memory traffic of int64,
        # which matters once R replicas share the bandwidth.
        self.counts = np.zeros((replicas, n, n), dtype=np.int32)
        # The delay ledger: departures so far, per flat VOQ index.
        self.served = np.zeros(replicas * n * n, dtype=np.int64)
        self.slot = 0

    def run(self, slots: int, warmup: int) -> List[FabricStats]:
        """Simulate ``warmup + slots`` more slots; measure the last
        ``slots``.  Returns one ``FabricStats`` per replica."""
        if slots < 1 or warmup < 0:
            raise ConfigurationError("slots >= 1, warmup >= 0 required")
        opens = self.slot + warmup
        end = opens + slots
        if end >= np.iinfo(np.int32).max:
            raise ConfigurationError(
                "replica-batched state is int32; a stream must stay "
                f"below {np.iinfo(np.int32).max} slots")
        counts = self.counts
        replicas, n = counts.shape[:2]
        cells = n * n
        rates = self.rates
        rngs = self.rngs
        # Hot fancy indexing goes through the flat view with one flat
        # index per touched VOQ — 1-D gathers and scatters beat the
        # equivalent (rep, src, dst) triple indexing.
        counts_flat = counts.reshape(-1)
        served = self.served
        # Replaced by a copy of ``served`` when the window opens.
        served_before = served
        # Flat VOQ index of (replica, input, output 0); adding an output
        # vector stack gives every matched VOQ's flat index.
        row_at = ((np.arange(replicas)[:, None] * n + np.arange(n)) * n)

        chunk = max(1, min(warmup + slots,
                           _CHUNK_BYTES // (8 * cells * replicas),
                           _CHUNK_SLOTS))
        arrivals = np.zeros(replicas, dtype=np.int64)
        departures = np.zeros(replicas, dtype=np.int64)
        served_slot_sum = np.zeros(replicas, dtype=np.int64)
        backlog = counts.sum(axis=(1, 2), dtype=np.int64)
        peak_backlog = np.zeros(replicas, dtype=np.int64)
        compute = self.matcher.compute
        nonzero = np.nonzero
        bincount = np.bincount
        draw = np.empty((chunk, replicas, n, n), dtype=bool)
        slot = self.slot
        while slot < end:
            span = min(chunk, end - slot)
            # One RNG call per replica per chunk, drawn from each
            # replica's own stream — bit-identical to per-slot draws
            # (numpy fills any chunk shape from the same bit stream).
            for replica, rng in enumerate(rngs):
                np.less(rng.random((span, n, n)), rates[replica],
                        out=draw[:span, replica])
            block = draw[:span]
            arrived_per_slot = block.sum(axis=(2, 3))
            first_measured = max(0, opens - slot)
            if first_measured < span:
                arrivals += arrived_per_slot[first_measured:].sum(axis=0)
            # Flat VOQ index of every arrival in the chunk, in slot order.
            slot_idx, pair_idx = nonzero(block.reshape(span, -1))
            bounds = np.searchsorted(slot_idx, np.arange(span + 1)).tolist()
            for k in range(span):
                if slot == opens:
                    served_before = served.copy()
                lo = bounds[k]
                hi = bounds[k + 1]
                if hi > lo:
                    # At most one arrival per (replica, pair) per slot,
                    # so plain fancy-indexed increments cannot collide.
                    counts_flat[pair_idx[lo:hi]] += 1
                    backlog += arrived_per_slot[k]
                # One scheduling decision per replica, batched per driver.
                out_of = compute(counts)
                matched = (row_at + out_of)[out_of >= 0]
                served_pairs = matched[counts_flat[matched] > 0]
                if served_pairs.size:
                    counts_flat[served_pairs] -= 1
                    served[served_pairs] += 1
                    served_per_rep = bincount(served_pairs // cells,
                                              minlength=replicas)
                    backlog -= served_per_rep
                    if slot >= opens:
                        departures += served_per_rep
                        served_slot_sum += served_per_rep * slot
                if slot >= opens:
                    np.maximum(peak_backlog, backlog, out=peak_backlog)
                slot += 1
        self.slot = end
        self.matcher.sync()
        served_before = served_before.reshape(replicas, cells)
        served_after = served.reshape(replicas, cells)
        final_backlog = counts.sum(axis=(1, 2))
        return [
            _stats(n, slots, int(arrivals[r]), int(departures[r]),
                   int(served_slot_sum[r]) - _arrival_slot_sum(
                       rates[r], self.seeds[r], end, served_before[r],
                       served_after[r]),
                   int(final_backlog[r]), int(peak_backlog[r]))
            for r in range(replicas)
        ]


def _arrival_slot_sum(rates: np.ndarray, seed: int, total: int,
                      before: np.ndarray, after: np.ndarray) -> int:
    """Σ arrival slot over each VOQ's arrivals ``before + 1 .. after``.

    Redraws the replica's arrival stream from ``seed`` in chunks (the
    same bits as the first pass) and, per chunk, takes the arrivals
    grouped by VOQ in slot order: arrival number ``k`` of VOQ ``v``
    sits at offset ``k - seen[v] - 1`` of ``v``'s run, so the wanted
    ones are one contiguous run per VOQ, summed from a prefix sum.
    ``before`` and ``after`` are flat per-VOQ departure counts.
    """
    if not (after > before).any():
        return 0
    n = rates.shape[0]
    cells = n * n
    chunk = max(1, min(total, _CHUNK_BYTES // (8 * cells), _CHUNK_SLOTS))
    rng = np.random.default_rng(seed)
    seen = np.zeros(cells, dtype=np.int64)
    slot_sum = 0
    for start in range(0, total, chunk):
        span = min(chunk, total - start)
        draw = rng.random((span, n, n)) < rates
        # VOQ-major flat indices: arrivals grouped by VOQ, slot order
        # within each group.
        pair, when = np.divmod(
            np.flatnonzero(np.ascontiguousarray(draw.reshape(span, cells).T)),
            span)
        per_pair = np.bincount(pair, minlength=cells)
        first = np.cumsum(per_pair) - per_pair
        lo = np.clip(before - seen, 0, per_pair)
        hi = np.clip(after - seen, lo, per_pair)
        prefix = np.concatenate(([0], np.cumsum(when)))
        slot_sum += int((prefix[first + hi] - prefix[first + lo]).sum()
                        + start * (hi - lo).sum())
        seen += per_pair
    return slot_sum


__all__ = ["run_replicas", "run_replicas_sequential", "SchedulerFactory"]
