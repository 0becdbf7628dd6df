"""Replica-batched cell-fabric kernel: R seeds in one set of numpy ops.

A sweep point is *many replicas* of the same fabric configuration —
same scheduler, same rate matrix, different arrival seeds.  Running
them one at a time through :class:`~repro.fabric.cellsim.CellFabricSim`
pays the per-slot numpy-call overhead ``R`` times; this module stacks
all replicas into ``(R, n, n)`` state (VOQ counts, ring-buffer FIFOs)
and advances every replica with **one** set of array ops per slot —
plus, for iSLIP, one cross-replica batched scheduling pass (see
:mod:`repro.schedulers.batch`).

Bit-identity is the contract, exactly as for the solo vector engine:

* replica ``r`` draws its arrivals from its **own** generator seeded
  ``seeds[r]``, in whole-chunk blocks — numpy fills any chunk shape
  from the same bit stream, so the draw sequence matches a solo run of
  the same seed even though the batch kernel chunks differently;
* per-replica scheduler state evolves exactly as solo (the batched
  iSLIP driver is fuzz-proven identical; everything else goes through
  its own ``compute_trusted``);
* service and delay bookkeeping are elementwise per (replica, pair).

``run_replicas`` therefore returns the *same* ``FabricStats`` list as
``run_replicas_sequential`` on the same inputs — the golden tests in
``tests/test_fabric_replicas.py`` hold it to that, field for field,
against both the solo vector engine and the scalar reference engine.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.fabric.cellsim import (
    _CHUNK_BYTES,
    _CHUNK_SLOTS,
    _RING_START,
    CellFabricSim,
    FabricStats,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.batch import make_replica_matcher
from repro.sim.errors import ConfigurationError

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

    This is the executable specification ``run_replicas`` is tested
    against in ``tests/test_fabric_replicas.py``.
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
    stateful — each replica owns an instance), ``seeds[r]`` seeds
    replica ``r``'s arrival stream.  Returns one
    :class:`~repro.fabric.cellsim.FabricStats` per seed, in seed
    order, bit-identical to :func:`run_replicas_sequential`.
    """
    if not seeds:
        return []
    if slots < 1 or warmup < 0:
        raise ConfigurationError("slots >= 1, warmup >= 0 required")
    schedulers = [scheduler_factory() for __ in seeds]
    n = schedulers[0].n_ports
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (n, n):
        raise ConfigurationError(
            f"rates shape {rates.shape} != scheduler ports ({n},{n})")
    if (rates < 0).any() or (rates > 1).any():
        raise ConfigurationError("rates must be probabilities in [0,1]")
    if np.diagonal(rates).any():
        raise ConfigurationError("rates must have a zero diagonal")
    total = warmup + slots
    if total >= np.iinfo(np.int32).max:
        raise ConfigurationError(
            "replica-batched state is int32; warmup + slots must stay "
            f"below {np.iinfo(np.int32).max}")
    matcher = make_replica_matcher(schedulers)
    replicas = len(schedulers)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    # Stacked per-VOQ state, int32 (cell counts and slot numbers both
    # fit comfortably): half the memory traffic of the solo engine's
    # int64 state, which matters once R replicas share the bandwidth.
    # All hot fancy indexing goes through flattened views with one
    # precomputed flat index per touched VOQ — 1-D gathers/scatters
    # beat the equivalent (rep, src, dst) triple indexing.
    counts = np.zeros((replicas, n, n), dtype=np.int32)
    counts_flat = counts.reshape(-1)
    ring_flat = np.zeros(replicas * n * n * _RING_START, dtype=np.int32)
    head_flat = np.zeros(replicas * n * n, dtype=np.int32)
    size_flat = np.zeros(replicas * n * n, dtype=np.int32)
    capacity = _RING_START
    ring_mask = capacity - 1

    def grow_ring(needed: int) -> None:
        nonlocal ring_flat, capacity, ring_mask
        new_capacity = capacity
        while new_capacity < needed:
            new_capacity *= 2
        ring = ring_flat.reshape(replicas * n * n, capacity)
        gather = (head_flat[:, None]
                  + np.arange(capacity, dtype=np.int32)[None, :]) % capacity
        unrolled = np.take_along_axis(ring, gather, axis=1)
        grown = np.zeros((replicas * n * n, new_capacity), dtype=np.int32)
        grown[:, :capacity] = unrolled
        ring_flat = grown.reshape(-1)
        head_flat[:] = 0
        capacity = new_capacity
        ring_mask = capacity - 1

    chunk = max(1, min(total, _CHUNK_BYTES // (8 * n * n * replicas),
                       _CHUNK_SLOTS))
    arrivals = np.zeros(replicas, dtype=np.int64)
    departures = np.zeros(replicas, dtype=np.int64)
    delay_total = np.zeros(replicas, dtype=np.int64)
    backlog = np.zeros(replicas, dtype=np.int64)
    peak_backlog = np.zeros(replicas, dtype=np.int64)
    # When the matcher consumes packed occupancy words, maintain them
    # incrementally (set a bit per arrival, clear it when a VOQ drains)
    # instead of re-deriving all R·n² occupancy bits every slot.
    packed = matcher.packed_occupancy
    if packed:
        words = np.zeros((replicas, n), dtype=np.uint64)
        words_flat = words.reshape(-1)
        one = np.uint64(1)
        compute = matcher.compute_from_words  # type: ignore[attr-defined]
    else:
        compute = matcher.compute
    nonzero = np.nonzero
    bincount = np.bincount
    draw = np.empty((chunk, replicas, n, n), dtype=bool)
    slot = 0
    while slot < total:
        span = min(chunk, total - slot)
        # One RNG call per replica per chunk, drawn from each replica's
        # own stream — bit-identical to that replica's solo run (numpy
        # fills any chunk shape from the same bit stream).
        for replica, rng in enumerate(rngs):
            np.less(rng.random((span, n, n)), rates,
                    out=draw[:span, replica])
        slot_idx, rep_idx, src_idx, dst_idx = nonzero(draw[:span])
        # Flat VOQ index of every arrival in the chunk, computed once.
        pair_idx = (rep_idx * n + src_idx) * n + dst_idx
        bounds = np.searchsorted(slot_idx, np.arange(span + 1)).tolist()
        for k in range(span):
            measuring = slot >= warmup
            lo = bounds[k]
            hi = bounds[k + 1]
            if hi > lo:
                pair = pair_idx[lo:hi]
                queued = size_flat[pair]
                if int(queued.max()) >= capacity:
                    grow_ring(capacity + 1)
                    queued = size_flat[pair]
                # At most one arrival per (replica, pair) per slot, so
                # plain fancy-indexed increments cannot collide.
                counts_flat[pair] += 1
                ring_flat[pair * capacity
                          + ((head_flat[pair] + queued) & ring_mask)] = slot
                size_flat[pair] += 1
                if packed:
                    np.bitwise_or.at(
                        words_flat,
                        rep_idx[lo:hi] * n + dst_idx[lo:hi],
                        one << src_idx[lo:hi].astype(np.uint64))
                arrived_per_rep = bincount(rep_idx[lo:hi],
                                           minlength=replicas)
                backlog += arrived_per_rep
                if measuring:
                    arrivals += arrived_per_rep
            # One scheduling decision per replica (batched where the
            # scheduler type supports it).
            out_of = compute(words if packed else counts)
            m_rep, m_in = nonzero(out_of >= 0)
            if m_rep.size:
                m_out = out_of[m_rep, m_in]
                m_pair = (m_rep * n + m_in) * n + m_out
                backlogged = counts_flat[m_pair] >= 1
                s_pair = m_pair[backlogged]
                if s_pair.size:
                    s_rep = m_rep[backlogged]
                    counts_flat[s_pair] -= 1
                    at = head_flat[s_pair]
                    arrived = ring_flat[s_pair * capacity + at]
                    head_flat[s_pair] = (at + 1) & ring_mask
                    size_flat[s_pair] -= 1
                    if packed:
                        drained = counts_flat[s_pair] == 0
                        if drained.any():
                            s_in = m_in[backlogged][drained]
                            s_out = m_out[backlogged][drained]
                            np.bitwise_and.at(
                                words_flat,
                                s_rep[drained] * n + s_out,
                                ~(one << s_in.astype(np.uint64)))
                    served_per_rep = bincount(s_rep, minlength=replicas)
                    backlog -= served_per_rep
                    if measuring:
                        departures += served_per_rep
                        arrived_sum = np.zeros(replicas, dtype=np.int64)
                        np.add.at(arrived_sum, s_rep, arrived)
                        delay_total += served_per_rep * slot - arrived_sum
            if measuring:
                np.maximum(peak_backlog, backlog, out=peak_backlog)
            slot += 1
    matcher.sync()
    final_backlog = counts.sum(axis=(1, 2))
    return [
        FabricStats(
            slots=slots,
            n_ports=n,
            arrivals=int(arrivals[r]),
            departures=int(departures[r]),
            mean_delay_slots=(int(delay_total[r]) / int(departures[r])
                              if departures[r] else 0.0),
            throughput=int(departures[r]) / (slots * n),
            offered=int(arrivals[r]) / (slots * n),
            backlog_cells=int(final_backlog[r]),
            peak_backlog_cells=int(peak_backlog[r]),
        )
        for r in range(replicas)
    ]


__all__ = ["run_replicas", "run_replicas_sequential", "SchedulerFactory"]
