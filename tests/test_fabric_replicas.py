"""Golden-equivalence tests for the replica-batched fabric kernel.

``run_replicas`` must be *bit-identical* to running each replica alone:
same seeds → the same ``FabricStats`` list, field for field, whether
the solo runs use the vector engine or the scalar reference engine
(with scalar reference schedulers).  The batched iSLIP driver must
also evolve per-replica pointer state exactly as the solo scheduler.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.cellsim import CellFabricSim
from repro.fabric.replicas import run_replicas, run_replicas_sequential
from repro.fabric.workloads import (
    hotspot_rates,
    incast_rates,
    uniform_rates,
)
from repro.schedulers.batch import (
    BatchedIslipMatcher,
    SequentialReplicaMatcher,
    make_replica_matcher,
)
from repro.schedulers.fixed import RoundRobinTdma
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.mwm import GreedyMwmScheduler, MwmScheduler
from repro.schedulers.pim import PimScheduler
from repro.schedulers.reference import ReferenceIslipScheduler
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
                             engine="vector").run(250, warmup=40)
        assert batch == solo

    def test_deep_queue_growth_matches(self):
        # Full-load incast overflows the initial ring capacity many
        # times; the batched growth path must not perturb FIFO order.
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


class TestBatchedIslipMatcher:
    def test_matcher_selection(self):
        batched = make_replica_matcher(
            [IslipScheduler(8) for __ in range(3)])
        assert isinstance(batched, BatchedIslipMatcher)
        # Mixed iteration budgets, subclasses, other types and > 64
        # ports all fall back to the sequential driver.
        assert isinstance(make_replica_matcher(
            [IslipScheduler(8, iterations=1),
             IslipScheduler(8, iterations=2)]), SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [ReferenceIslipScheduler(8) for __ in range(2)]),
            SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [GreedyMwmScheduler(8)]), SequentialReplicaMatcher)
        assert isinstance(make_replica_matcher(
            [IslipScheduler(80) for __ in range(2)]),
            SequentialReplicaMatcher)

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
