"""Golden-equivalence tests for the replica-batched fabric kernel.

``run_replicas`` must be *bit-identical* to running each replica alone:
same seeds → the same ``FabricStats`` list, field for field, whether
the solo runs use the vector engine or the scalar reference engine
(with scalar reference schedulers), and whether the replicas share one
scheduler type and rate matrix or each bring their own.  The batched
iSLIP, WFA and TDMA drivers must also evolve per-replica scheduler
state exactly as the solo schedulers.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.cellsim import CellFabricSim
from repro.fabric.replicas import run_replicas, run_replicas_sequential
from repro.fabric.workloads import (
    diagonal_rates,
    hotspot_rates,
    incast_rates,
    uniform_rates,
)
from repro.schedulers.batch import (
    BatchedIslipMatcher,
    BatchedTdmaMatcher,
    BatchedWfaMatcher,
    GroupedReplicaMatcher,
    SequentialReplicaMatcher,
    make_replica_matcher,
)
from repro.schedulers.fixed import RoundRobinTdma
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.mwm import GreedyMwmScheduler, MwmScheduler
from repro.schedulers.pim import PimScheduler
from repro.schedulers.reference import (
    ReferenceIslipScheduler,
    ReferenceWfaScheduler,
)
from repro.schedulers.wfa import WfaScheduler
from repro.sim.errors import ConfigurationError, SchedulingError

WORKLOADS = {
    "uniform": lambda n: uniform_rates(n, 0.7),
    "hotspot": lambda n: hotspot_rates(n, 0.8, skew=0.6),
    "incast": lambda n: incast_rates(n, 0.9),
}

SCHEDULER_FACTORIES = {
    "islip1": lambda n: (lambda: IslipScheduler(n, iterations=1)),
    "islip2": lambda n: (lambda: IslipScheduler(n, iterations=2)),
    "greedy-mwm": lambda n: (lambda: GreedyMwmScheduler(n)),
    "mwm": lambda n: (lambda: MwmScheduler(n)),
    "tdma": lambda n: (lambda: RoundRobinTdma(n)),
    "pim": lambda n: (lambda: PimScheduler(n, iterations=2,
                                           rng=random.Random(13))),
}

SEEDS = [11, 22, 33]


class TestGoldenEquivalence:
    """batch == R independent vector runs == R reference runs."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("sched", sorted(SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("n", [4, 16])
    def test_batch_matches_independent_vector_runs(self, n, sched,
                                                   workload):
        factory = SCHEDULER_FACTORIES[sched](n)
        rates = WORKLOADS[workload](n)
        batch = run_replicas(factory, rates, SEEDS, 200, warmup=30)
        solo = run_replicas_sequential(factory, rates, SEEDS, 200,
                                       warmup=30)
        assert batch == solo

    def test_batch_matches_64_port_vector_runs(self):
        rates = uniform_rates(64, 0.8)
        factory = SCHEDULER_FACTORIES["islip1"](64)
        batch = run_replicas(factory, rates, SEEDS, 120, warmup=20)
        solo = run_replicas_sequential(factory, rates, SEEDS, 120,
                                       warmup=20)
        assert batch == solo
        assert all(stats.departures > 0 for stats in solo)

    def test_batch_matches_reference_engine(self):
        # The full cross-stack golden: batched kernel + batched iSLIP
        # vs scalar engine + scalar reference iSLIP, per replica.
        rates = hotspot_rates(8, 0.8, skew=0.5)
        batch = run_replicas(lambda: IslipScheduler(8, iterations=2),
                             rates, SEEDS, 180, warmup=25)
        reference = run_replicas_sequential(
            lambda: ReferenceIslipScheduler(8, iterations=2), rates,
            SEEDS, 180, warmup=25, engine="reference")
        assert batch == reference

    def test_single_replica_matches_solo_sim(self):
        rates = uniform_rates(16, 0.6)
        (batch,) = run_replicas(lambda: IslipScheduler(16), rates, [9],
                                250, warmup=40)
        solo = CellFabricSim(IslipScheduler(16), rates, seed=9,
                             engine="reference").run(250, warmup=40)
        assert batch == solo

    def test_deep_queue_growth_matches(self):
        # Full-load incast builds queues hundreds of cells deep; the
        # delay ledger must still charge each departure its own
        # arrival slot, in FIFO order.
        rates = incast_rates(8, 1.0)
        batch = run_replicas(lambda: RoundRobinTdma(8), rates, SEEDS,
                             600)
        solo = run_replicas_sequential(lambda: RoundRobinTdma(8),
                                       rates, SEEDS, 600)
        assert batch == solo
        assert all(stats.backlog_cells > 8 for stats in batch)

    def test_identical_across_chunk_boundaries(self, monkeypatch):
        import repro.fabric.replicas as replicas

        monkeypatch.setattr(replicas, "_CHUNK_SLOTS", 7)
        rates = hotspot_rates(8, 0.8, skew=0.5)
        batch = run_replicas(lambda: IslipScheduler(8, iterations=2),
                             rates, SEEDS, 250, warmup=33)
        solo = run_replicas_sequential(
            lambda: IslipScheduler(8, iterations=2), rates, SEEDS, 250,
            warmup=33)
        assert batch == solo

    @given(load=st.floats(0.1, 0.95), seed0=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_property_batch_equals_solo(self, load, seed0):
        rates = uniform_rates(6, load)
        seeds = [seed0, seed0 + 1, seed0 + 7]
        factory = SCHEDULER_FACTORIES["islip2"](6)
        assert run_replicas(factory, rates, seeds, 100, warmup=10) \
            == run_replicas_sequential(factory, rates, seeds, 100,
                                       warmup=10)


class TestValidation:
    def test_empty_seed_list(self):
        assert run_replicas(lambda: IslipScheduler(4),
                            uniform_rates(4, 0.5), [], 100) == []

    def test_run_parameter_validation(self):
        factory = SCHEDULER_FACTORIES["islip1"](4)
        rates = uniform_rates(4, 0.5)
        with pytest.raises(ConfigurationError):
            run_replicas(factory, rates, [1], 0)
        with pytest.raises(ConfigurationError):
            run_replicas(factory, rates, [1], 10, warmup=-1)

    def test_rates_validation(self):
        factory = SCHEDULER_FACTORIES["islip1"](4)
        with pytest.raises(ConfigurationError):
            run_replicas(factory, np.zeros((3, 3)), [1], 10)
        bad = uniform_rates(4, 0.5)
        bad[0, 0] = 0.1
        with pytest.raises(ConfigurationError):
            run_replicas(factory, bad, [1], 10)
        # A rates stack needs one matrix per seed...
        stack = np.stack([uniform_rates(4, 0.5)] * 2)
        with pytest.raises(ConfigurationError):
            run_replicas(factory, stack, [1, 2, 3], 10)
        # ...and a zero diagonal in every one of them.
        stack[1, 2, 2] = 0.1
        with pytest.raises(ConfigurationError):
            run_replicas(factory, stack, [1, 2], 10)


class TestBatchedIslipMatcher:
    def test_matcher_selection(self):
        batched = make_replica_matcher(
            [IslipScheduler(8) for __ in range(3)])
        assert isinstance(batched, BatchedIslipMatcher)
        # Mixed iteration budgets make one batched group per budget.
        grouped = make_replica_matcher(
            [IslipScheduler(8, iterations=1),
             IslipScheduler(8, iterations=2)])
        assert isinstance(grouped, GroupedReplicaMatcher)
        assert [type(matcher) for __, matcher in grouped.groups] \
            == [BatchedIslipMatcher, BatchedIslipMatcher]
        # Subclasses, other types and > 64 ports fall back to the
        # sequential driver.
        assert isinstance(make_replica_matcher(
            [ReferenceIslipScheduler(8) for __ in range(2)]),
            SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [GreedyMwmScheduler(8)]), SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [IslipScheduler(80) for __ in range(2)]),
            SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [WfaScheduler(8) for __ in range(2)]), BatchedWfaMatcher)
        assert isinstance(make_replica_matcher(
            [RoundRobinTdma(8) for __ in range(2)]), BatchedTdmaMatcher)
        assert isinstance(make_replica_matcher(
            [RoundRobinTdma(8, frame_mode=True) for __ in range(2)]),
            SequentialReplicaMatcher)
        # A lone iSLIP replica runs its own compute_trusted; lone WFA
        # and TDMA replicas keep their batched drivers.
        assert isinstance(make_replica_matcher([IslipScheduler(8)]),
                          SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher([WfaScheduler(8)]),
                          BatchedWfaMatcher)
        assert isinstance(make_replica_matcher([RoundRobinTdma(8)]),
                          BatchedTdmaMatcher)

    def test_mixed_port_counts_rejected(self):
        with pytest.raises(SchedulingError):
            make_replica_matcher([IslipScheduler(4), IslipScheduler(8)])

    def test_empty_replica_set_rejected(self):
        with pytest.raises(SchedulingError):
            SequentialReplicaMatcher([])

    @given(n=st.integers(2, 10), iterations=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_matchings_and_pointers_track_solo_over_sequences(
            self, n, iterations, seed):
        # Drive batched and solo schedulers through the same demand
        # sequence; matchings and pointer state must agree exactly at
        # every step (pointers persist across calls).
        rng = np.random.default_rng(seed)
        replicas = 3
        solo = [IslipScheduler(n, iterations=iterations)
                for __ in range(replicas)]
        batched_schedulers = [IslipScheduler(n, iterations=iterations)
                              for __ in range(replicas)]
        matcher = make_replica_matcher(batched_schedulers)
        assert isinstance(matcher, BatchedIslipMatcher)
        for __ in range(8):
            demands = rng.integers(0, 3, (replicas, n, n))
            np.fill_diagonal(demands[0], 0)  # diagonal allowed elsewhere
            out_of = matcher.compute(demands)
            matcher.sync()
            for replica in range(replicas):
                expected = solo[replica].compute_trusted(
                    demands[replica]).first.as_array()
                assert out_of[replica].tolist() == expected.tolist()
                assert batched_schedulers[replica].grant_ptr \
                    == solo[replica].grant_ptr
                assert batched_schedulers[replica].accept_ptr \
                    == solo[replica].accept_ptr

    def test_n64_words_with_pointer_zero(self):
        # n == 64 exercises the split-shift rotate (a << 64 would be
        # undefined); pointer 0 is the edge case it protects.
        demands = np.ones((2, 64, 64), dtype=np.int64)
        for demand in demands:
            np.fill_diagonal(demand, 0)
        solo = [IslipScheduler(64) for __ in range(2)]
        matcher = make_replica_matcher(
            [IslipScheduler(64) for __ in range(2)])
        out_of = matcher.compute(demands)
        for replica in range(2):
            expected = solo[replica].compute_trusted(
                demands[replica]).first.as_array()
            assert out_of[replica].tolist() == expected.tolist()


class TestBatchedWfaAndTdma:
    @pytest.mark.parametrize("make, driver, state", [
        (WfaScheduler, BatchedWfaMatcher, "_priority"),
        (RoundRobinTdma, BatchedTdmaMatcher, "_next_shift"),
    ])
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_matchings_and_state_track_solo_over_sequences(
            self, make, driver, state, n, seed):
        rng = np.random.default_rng(seed)
        replicas = 3
        solo = [make(n) for __ in range(replicas)]
        batched_schedulers = [make(n) for __ in range(replicas)]
        # Replicas start from different states: advance each pair of
        # twins by its own number of calls on the same demand.
        offset = int(rng.integers(0, 2 * n))
        for replica in range(replicas):
            for __ in range(offset + replica):
                demand = rng.integers(0, 3, (n, n))
                solo[replica].compute_trusted(demand)
                batched_schedulers[replica].compute_trusted(demand)
        matcher = make_replica_matcher(batched_schedulers)
        assert isinstance(matcher, driver)
        for __ in range(8):
            demands = rng.integers(0, 3, (replicas, n, n))
            np.fill_diagonal(demands[0], 0)  # diagonal allowed elsewhere
            out_of = matcher.compute(demands)
            matcher.sync()
            for replica in range(replicas):
                expected = solo[replica].compute_trusted(
                    demands[replica]).first.as_array()
                assert out_of[replica].tolist() == expected.tolist()
                assert getattr(batched_schedulers[replica], state) \
                    == getattr(solo[replica], state)


#: E5's six schedulers, then three that must run sequentially.
STACK_MAKERS = (
    lambda n: RoundRobinTdma(n),
    lambda n: PimScheduler(n, iterations=1, rng=random.Random(5)),
    lambda n: IslipScheduler(n, iterations=1),
    lambda n: IslipScheduler(n, iterations=4),
    lambda n: WfaScheduler(n),
    lambda n: MwmScheduler(n),
    lambda n: ReferenceWfaScheduler(n),
    lambda n: ReferenceIslipScheduler(n, iterations=2),
    lambda n: GreedyMwmScheduler(n),
)


def _solo_runs(makers, n, rates, seeds, slots, warmup):
    return [CellFabricSim(make(n), rates[r], seed=seeds[r],
                          engine="reference").run(slots, warmup=warmup)
            for r, make in enumerate(makers)]


def _stacked_run(makers, n, rates, seeds, slots, warmup):
    instances = iter([make(n) for make in makers])
    return run_replicas(lambda: next(instances), rates, seeds, slots,
                        warmup=warmup)


class TestHeterogeneousStack:
    """One stack of mixed schedulers, rates and seeds == solo runs."""

    def test_reference_and_greedy_schedulers_run_sequentially(self):
        matcher = make_replica_matcher([make(8) for make in STACK_MAKERS])
        assert isinstance(matcher, GroupedReplicaMatcher)
        driver_of = {type(scheduler).__name__: type(group)
                     for __, group in matcher.groups
                     for scheduler in group.schedulers}
        for name in ("ReferenceWfaScheduler", "ReferenceIslipScheduler",
                     "GreedyMwmScheduler", "PimScheduler", "MwmScheduler"):
            assert driver_of[name] is SequentialReplicaMatcher
        assert driver_of["WfaScheduler"] is BatchedWfaMatcher
        assert driver_of["RoundRobinTdma"] is BatchedTdmaMatcher
        assert driver_of["IslipScheduler"] is BatchedIslipMatcher

    @pytest.mark.parametrize("n, slots, warmup", [
        (4, 1, 0), (4, 150, 0), (4, 120, 35),
        (16, 1, 3), (16, 100, 0), (16, 80, 30),
        (64, 30, 0), (64, 25, 10),
    ])
    def test_stack_matches_solo_runs(self, n, slots, warmup):
        # Every scheduler twice — once uniform, once diagonal — plus a
        # zero-rate replica and an unstable one (TDMA on diagonal load
        # 0.9 builds queues without bound), each with its own seed.
        makers = list(STACK_MAKERS) * 2 + [STACK_MAKERS[2],
                                           STACK_MAKERS[0]]
        rates = np.stack(
            [uniform_rates(n, 0.3 + 0.07 * i)
             for i in range(len(STACK_MAKERS))]
            + [diagonal_rates(n, 0.95 - 0.05 * i)
               for i in range(len(STACK_MAKERS))]
            + [np.zeros((n, n)), diagonal_rates(n, 0.9)])
        seeds = [1000 * n + 7 * r for r in range(len(makers))]
        stacked = _stacked_run(makers, n, rates, seeds, slots, warmup)
        assert stacked == _solo_runs(makers, n, rates, seeds, slots,
                                     warmup)
        assert stacked[-2].arrivals == 0 and stacked[-2].departures == 0
        if slots > 50:
            assert stacked[-1].throughput < stacked[-1].offered - 0.1

    @given(n=st.integers(3, 8), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_stacks_match_solo_runs(self, n, data):
        picks = data.draw(st.lists(
            st.integers(0, len(STACK_MAKERS) - 1), min_size=1, max_size=7))
        makers = [STACK_MAKERS[i] for i in picks]
        patterns = {"uniform": uniform_rates, "diagonal": diagonal_rates,
                    "zero": lambda n, load: np.zeros((n, n))}
        rates = np.stack([
            patterns[data.draw(st.sampled_from(sorted(patterns)))](
                n, data.draw(st.floats(0.05, 1.0)))
            for __ in picks])
        seeds = data.draw(st.lists(st.integers(0, 2**31), min_size=len(picks),
                                   max_size=len(picks)))
        slots = data.draw(st.integers(1, 60))
        warmup = data.draw(st.integers(0, 30))
        assert _stacked_run(makers, n, rates, seeds, slots, warmup) \
            == _solo_runs(makers, n, rates, seeds, slots, warmup)


class TestMemory:
    def test_unstable_stack_memory_does_not_grow_with_queues(self):
        # TDMA on diagonal load 0.9 serves each busy VOQ once every
        # n - 1 slots, so its queues grow by about 12 cells a slot.  A
        # stored arrival slot per queued cell would grow with them; the
        # delay ledger keeps one departure count per VOQ.
        rates = diagonal_rates(16, 0.9)
        tracemalloc.start()
        try:
            stats = run_replicas(lambda: RoundRobinTdma(16), rates,
                                 list(range(8)), 1200)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(s.backlog_cells > 10_000 for s in stats)
        assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
