"""Cross-replica scheduler drivers for the replica-batched fabric.

The replica-batched cell fabric (:mod:`repro.fabric.replicas`) holds
the VOQ state of ``R`` independent replicas stacked as one
``(R, n, n)`` array and needs, once per slot, one matching *per
replica*.  A :class:`ReplicaMatcher` produces exactly that: an
``(R, n)`` int64 stack of output vectors (``-1`` = dark input), one row
per replica, bit-identical to calling each replica's own scheduler
alone.

Drivers:

* :class:`SequentialReplicaMatcher` — the universal fallback: loops the
  replicas calling each scheduler's validation-free
  :meth:`~repro.schedulers.base.Scheduler.compute_trusted`.  Works for
  any scheduler (stateful, randomised, hybrid) because it *is* the solo
  path, just driven from stacked state.
* :class:`BatchedIslipMatcher` — iSLIP's request/grant/accept phases
  on uint64-packed request words (``n <= 64`` ports): the round-robin
  pick becomes rotate + lowest-set-bit on ``(R, n)`` words, replacing
  ``R`` separate compute calls *and* the per-replica O(n²) rank
  matrices.
* :class:`BatchedWfaMatcher` — the wrapped wavefront arbiter with one
  set of ``(R, n)`` ops per wavefront and a per-replica priority
  diagonal.
* :class:`BatchedTdmaMatcher` — round-robin TDMA (single-shift mode):
  one cyclic shift per replica.
* :class:`GroupedReplicaMatcher` — a mixed replica set, partitioned by
  driver: each group runs on its own driver over its rows of the
  stack.

Replicas are independent, so every batched driver is pure data
parallelism; the matchings and the scheduler-state evolution
(pointers, priority, shift) are **identical** to the per-replica code
(fuzz-held by ``tests/test_fabric_replicas.py``).

:func:`make_replica_matcher` picks the widest applicable driver per
replica.  The batched drivers require *exact* scheduler types
(subclasses — notably the scalar reference implementations — keep
their own compute path): iSLIP with at most 64 ports (one word per
request row) and one iteration budget per group, WFA, and TDMA with
``frame_mode=False``.  Everything else runs sequentially, and so does
a lone iSLIP replica (a solo ``CellFabricSim`` run), which is faster
on its own ``compute_trusted``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.schedulers.base import Scheduler
from repro.schedulers.fixed import RoundRobinTdma
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.wfa import WfaScheduler
from repro.sim.errors import SchedulingError


class ReplicaMatcher:
    """One scheduling decision per replica from stacked demand.

    ``compute(counts)`` consumes the fabric's ``(R, n, n)`` VOQ-count
    stack (the same trusted-caller contract as ``compute_trusted``:
    non-negative, zero diagonal, not mutated) and returns an ``(R, n)``
    int64 output-vector stack.  ``sync()`` writes any internally
    stacked scheduler state back to the wrapped instances so they can
    be inspected — or reused solo — after a batched run.
    """

    def __init__(self, schedulers: Sequence[Scheduler]) -> None:
        if not schedulers:
            raise SchedulingError("replica batch needs >= 1 scheduler")
        n = schedulers[0].n_ports
        if any(s.n_ports != n for s in schedulers):
            raise SchedulingError(
                "replica batch needs equal port counts, got "
                f"{[s.n_ports for s in schedulers]}")
        self.schedulers = list(schedulers)
        self.n_ports = n
        self.n_replicas = len(self.schedulers)

    def compute(self, counts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sync(self) -> None:
        """Write stacked state back to the scheduler instances."""


class SequentialReplicaMatcher(ReplicaMatcher):
    """Per-replica ``compute_trusted`` loop — works for any scheduler."""

    def compute(self, counts: np.ndarray) -> np.ndarray:
        out_of = np.empty((self.n_replicas, self.n_ports), dtype=np.int64)
        for replica, scheduler in enumerate(self.schedulers):
            out_of[replica] = (
                scheduler.compute_trusted(counts[replica]).first.as_array())
        return out_of


#: De Bruijn multiplier + position table: index of the (single) set bit
#: of a power-of-two uint64, branch-free and exact in integer space.
_DEBRUIJN = np.uint64(0x03F79D71B4CA8B09)
_DEBRUIJN_POS = np.zeros(64, dtype=np.int64)
with np.errstate(over="ignore"):  # the multiply wraps mod 2^64 by design
    _DEBRUIJN_POS[
        ((np.uint64(1) << np.arange(64, dtype=np.uint64)) * _DEBRUIJN)
        >> np.uint64(58)] = np.arange(64)


class BatchedIslipMatcher(ReplicaMatcher):
    """All replicas' iSLIP rounds on packed ``(R, n)`` request words.

    For ``n <= 64`` ports each output's request row fits one uint64, so
    both round-robin phases collapse to word ops: rotate the request
    word right by the pointer, isolate the lowest set bit (``x & -x``),
    and read its index from a De Bruijn table — "first requester at or
    after the pointer, cyclically", the exact pick the solo kernel's
    rank-matrix argmin makes, in O(R·n) words instead of O(R·n²)
    elements.  Grants are scattered into per-*input* words the same
    way, so the accept phase is one more rotate-and-isolate pass.

    Matched (replica, output) pairs are unique within an iteration, so
    the pointer updates are plain fancy-indexed scatters.  Pointers
    live in ``(R, n)`` arrays during a batched run; :meth:`sync` copies
    them back to the wrapped instances' lists.  The matchings and the
    pointer evolution are **identical** to the per-replica vector code.
    """

    def __init__(self, schedulers: Sequence[IslipScheduler]) -> None:
        super().__init__(schedulers)
        if any(type(s) is not IslipScheduler for s in schedulers):
            raise SchedulingError(
                "batched iSLIP drives exactly IslipScheduler instances")
        iterations = {s.iterations for s in schedulers}
        if len(iterations) != 1:
            raise SchedulingError(
                f"batched iSLIP needs equal iteration budgets, "
                f"got {sorted(iterations)}")
        if self.n_ports > 64:
            raise SchedulingError(
                "batched iSLIP packs request rows into uint64 words; "
                f"{self.n_ports} ports does not fit")
        self.iterations = iterations.pop()
        self._grant_ptr = np.array([s.grant_ptr for s in schedulers],
                                   dtype=np.uint64)
        self._accept_ptr = np.array([s.accept_ptr for s in schedulers],
                                    dtype=np.uint64)
        n = self.n_ports
        self._packed = np.zeros((self.n_replicas, n, 8), dtype=np.uint8)
        self._packed_words = self._packed.view(np.uint64)[:, :, 0] \
            if np.little_endian else None

    def sync(self) -> None:
        for replica, scheduler in enumerate(self.schedulers):
            scheduler.grant_ptr = [
                int(p) for p in self._grant_ptr[replica]]
            scheduler.accept_ptr = [
                int(p) for p in self._accept_ptr[replica]]

    def _request_words(self, counts: np.ndarray) -> np.ndarray:
        """(R, n) uint64: bit ``i`` of word ``[r, o]`` = VOQ (i, o) > 0."""
        # (R, out, in) orientation so each word collects one output's
        # requesting inputs; the transpose is a view, `> 0` materialises
        # it, packbits collapses it 8:1.
        pos = counts.transpose(0, 2, 1) > 0
        packed = np.packbits(pos, axis=2, bitorder="little")
        self._packed[:, :, :packed.shape[2]] = packed
        if self._packed_words is not None:
            return self._packed_words
        return (self._packed.astype(np.uint64)
                * (np.uint64(1) << (np.arange(8, dtype=np.uint64)
                                    * np.uint64(8)))).sum(
            axis=2, dtype=np.uint64)

    def _rotate_right(self, words: np.ndarray,
                      ptr: np.ndarray) -> np.ndarray:
        """Each n-bit word rotated right by its own pointer."""
        n = self.n_ports
        right = words >> ptr
        if n == 64:
            # `x << 64` is undefined; split the shift so ptr == 0 works.
            left = (words << (np.uint64(63) - ptr)) << np.uint64(1)
            return right | left
        left = words << (np.uint64(n) - ptr)
        return (right | left) & np.uint64((1 << n) - 1)

    def compute(self, counts: np.ndarray) -> np.ndarray:
        pos_words = self._request_words(counts)
        n = self.n_ports
        replicas = self.n_replicas
        out_of = np.full((replicas, n), -1, dtype=np.int64)
        in_unmatched = np.zeros((replicas, n), dtype=np.uint64)
        in_unmatched[:] = np.uint64(1) << np.arange(n, dtype=np.uint64)
        out_open = np.ones((replicas, n), dtype=bool)
        grant_ptr = self._grant_ptr
        accept_ptr = self._accept_ptr
        one = np.uint64(1)
        for iteration in range(self.iterations):
            if iteration == 0:
                req = pos_words
            else:
                # Matched inputs drop out of every word; matched
                # outputs drop their whole word.
                in_mask = np.bitwise_or.reduce(in_unmatched, axis=1)
                req = np.where(out_open, pos_words & in_mask[:, None],
                               np.uint64(0))
            # Grant: first requesting input at or after the grant
            # pointer, cyclically == lowest set bit of the rotated word.
            rot = self._rotate_right(req, grant_ptr)
            granted = rot != 0
            if not granted.any():
                break
            rep_idx, out_idx = np.nonzero(granted)
            rot_hit = rot[rep_idx, out_idx]
            low = rot_hit & (~rot_hit + one)
            rank = _DEBRUIJN_POS[
                ((low * _DEBRUIJN) >> np.uint64(58)).astype(np.int64)]
            grant_in = (grant_ptr[rep_idx, out_idx].astype(np.int64)
                        + rank) % n
            # Accept: scatter each grant as bit `out` of its input's
            # word (distinct outputs -> distinct bits, so duplicate
            # targets just accumulate), then pick the first granting
            # output at or after the accept pointer the same way.
            grant_words = np.zeros((replicas, n), dtype=np.uint64)
            np.bitwise_or.at(grant_words.reshape(-1),
                             rep_idx * n + grant_in,
                             one << out_idx.astype(np.uint64))
            rot2 = self._rotate_right(grant_words, accept_ptr)
            acc_rep, acc_in = np.nonzero(rot2)
            rot2_hit = rot2[acc_rep, acc_in]
            low2 = rot2_hit & (~rot2_hit + one)
            rank2 = _DEBRUIJN_POS[
                ((low2 * _DEBRUIJN) >> np.uint64(58)).astype(np.int64)]
            new_out = (accept_ptr[acc_rep, acc_in].astype(np.int64)
                       + rank2) % n
            out_of[acc_rep, acc_in] = new_out
            if iteration + 1 < self.iterations:
                in_unmatched[acc_rep, acc_in] = 0
                out_open[acc_rep, new_out] = False
            if iteration == 0:
                # Pointer update rule: one past the matched partner,
                # first-iteration matches only.  (replica, output) and
                # (replica, input) pairs are unique within an
                # iteration, so no scatter collisions.
                grant_ptr[acc_rep, new_out] = \
                    ((acc_in + 1) % n).astype(np.uint64)
                accept_ptr[acc_rep, acc_in] = \
                    ((new_out + 1) % n).astype(np.uint64)
        return out_of


class BatchedWfaMatcher(ReplicaMatcher):
    """All replicas' wrapped wavefronts, one ``(R, n)`` op set per wave.

    Wavefront ``w`` of a replica whose priority diagonal is ``p``
    visits cell ``(i, (p + w - i) mod n)`` in every row ``i`` — one
    cell per row and per column, exactly the solo kernel's order — so
    each slot's requests become one ``(R, wave, row)`` gather, and the
    ``n`` wavefronts then claim rows and columns for every replica at
    once.
    Priorities live in an ``(R,)`` array during a batched run;
    :meth:`sync` writes them back to the wrapped instances.
    """

    def __init__(self, schedulers: Sequence[WfaScheduler]) -> None:
        super().__init__(schedulers)
        if any(type(s) is not WfaScheduler for s in schedulers):
            raise SchedulingError(
                "batched WFA drives exactly WfaScheduler instances")
        n = self.n_ports
        replicas = np.arange(self.n_replicas)
        ports = np.arange(n)
        self._priority = np.array([s._priority for s in schedulers],
                                  dtype=np.int64)
        #: ``w - i`` for wavefront ``w`` and row ``i``.
        self._wave_minus_row = ports[:, None] - ports[None, :]
        # Flat offsets of cell (r, i, 0) in the count stack and of
        # column (r, 0) in the column-claim vector.
        self._cell_at = ((replicas[:, None, None] * n + ports) * n)
        self._col_at = replicas[:, None, None] * n

    def sync(self) -> None:
        for scheduler, priority in zip(self.schedulers,
                                       self._priority.tolist()):
            scheduler._priority = priority

    def compute(self, counts: np.ndarray) -> np.ndarray:
        n = self.n_ports
        replicas = self.n_replicas
        cols = (self._priority[:, None, None] + self._wave_minus_row) % n
        requests = counts.reshape(-1)[self._cell_at + cols] > 0
        col_at = self._col_at + cols
        out_of = np.full((replicas, n), -1, dtype=np.int64)
        row_free = np.ones((replicas, n), dtype=bool)
        col_free = np.ones(replicas * n, dtype=bool)
        for wave in range(n):
            wave_cols = col_at[:, wave]
            take = requests[:, wave] & row_free & col_free[wave_cols]
            if take.any():
                out_of[take] = cols[:, wave][take]
                row_free[take] = False
                col_free[wave_cols[take]] = False
        self._priority += 1
        self._priority %= n
        return out_of


class BatchedTdmaMatcher(ReplicaMatcher):
    """Round-robin TDMA for every replica: one cyclic shift each.

    Replica ``r`` sends input ``i`` to output ``(i + s_r) mod n`` and
    then advances ``s_r`` through 1..n-1, exactly as each solo
    instance's ``_next_shift`` does; demand is ignored, as TDMA
    ignores it.  :meth:`sync` writes the shifts back.
    """

    def __init__(self, schedulers: Sequence[RoundRobinTdma]) -> None:
        super().__init__(schedulers)
        if any(type(s) is not RoundRobinTdma or s.frame_mode
               for s in schedulers):
            raise SchedulingError(
                "batched TDMA drives exactly RoundRobinTdma instances "
                "with frame_mode=False")
        self._shift = np.array([s._next_shift for s in schedulers],
                               dtype=np.int64)
        self._ports = np.arange(self.n_ports)

    def sync(self) -> None:
        for scheduler, shift in zip(self.schedulers, self._shift.tolist()):
            scheduler._next_shift = shift

    def compute(self, counts: np.ndarray) -> np.ndarray:
        shift = self._shift
        out_of = (self._ports + shift[:, None]) % self.n_ports
        shift += 1
        shift[shift >= self.n_ports] = 1
        return out_of


class GroupedReplicaMatcher(ReplicaMatcher):
    """A mixed replica set: each group of replicas on its own driver.

    A group reads its rows of the count stack and writes its rows of
    the output stack — through a slice (a view) when its replicas are
    contiguous, an index array otherwise.
    """

    def __init__(self, schedulers: Sequence[Scheduler],
                 groups: Sequence[Tuple[List[int], type]]) -> None:
        super().__init__(schedulers)
        self.groups: List[Tuple[object, ReplicaMatcher]] = []
        for rows, driver in groups:
            contiguous = rows[-1] - rows[0] + 1 == len(rows)
            select = (slice(rows[0], rows[-1] + 1) if contiguous
                      else np.array(rows))
            self.groups.append(
                (select, driver([self.schedulers[r] for r in rows])))

    def compute(self, counts: np.ndarray) -> np.ndarray:
        out_of = np.empty((self.n_replicas, self.n_ports), dtype=np.int64)
        for select, matcher in self.groups:
            out_of[select] = matcher.compute(counts[select])
        return out_of

    def sync(self) -> None:
        for __, matcher in self.groups:
            matcher.sync()


def _driver_key(scheduler: Scheduler) -> Tuple:
    """Which driver runs this scheduler: the class, then what must match."""
    kind = type(scheduler)
    if kind is IslipScheduler and scheduler.n_ports <= 64:
        return (BatchedIslipMatcher, scheduler.iterations)
    if kind is WfaScheduler:
        return (BatchedWfaMatcher,)
    if kind is RoundRobinTdma and not scheduler.frame_mode:
        return (BatchedTdmaMatcher,)
    return (SequentialReplicaMatcher,)


def make_replica_matcher(
        schedulers: Sequence[Scheduler]) -> ReplicaMatcher:
    """The widest applicable driver for this replica set.

    Replicas are partitioned by driver: exact ``IslipScheduler``
    instances (one group per iteration budget, at most 64 ports),
    exact ``WfaScheduler`` instances, exact single-shift
    ``RoundRobinTdma`` instances, and everything else (subclasses,
    randomised or hybrid schedulers) on the sequential driver, which
    is bit-identical by construction.  One group gets its own driver;
    several get a :class:`GroupedReplicaMatcher`.  A lone iSLIP replica
    runs sequentially: at ``R = 1`` its own ``compute_trusted`` beats
    the packed-word driver, while lone WFA and TDMA replicas are
    faster on their batched drivers.
    """
    groups: Dict[Tuple, List[int]] = {}
    for replica, scheduler in enumerate(schedulers):
        groups.setdefault(_driver_key(scheduler), []).append(replica)
    if len(groups) > 1:
        return GroupedReplicaMatcher(
            schedulers, [(rows, key[0]) for key, rows in groups.items()])
    driver = next(iter(groups), (SequentialReplicaMatcher,))[0]
    if driver is BatchedIslipMatcher and len(schedulers) == 1:
        driver = SequentialReplicaMatcher
    return driver(schedulers)


__all__: List[str] = [
    "ReplicaMatcher",
    "SequentialReplicaMatcher",
    "BatchedIslipMatcher",
    "BatchedWfaMatcher",
    "BatchedTdmaMatcher",
    "GroupedReplicaMatcher",
    "make_replica_matcher",
]
