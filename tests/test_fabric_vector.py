"""Golden-equivalence and invariant tests for the vectorised fabric.

The vector engine (the replica stack holding one replica) must be
*bit-identical* to the scalar reference engine: same seed → same
:class:`FabricStats`, field for field, on a fresh run and on a run
that continues from live state.  The golden tests below hold the
whole stack to that (vector kernel + vectorised schedulers vs scalar
kernel + scalar reference schedulers), and the property tests check
the physical invariants at n ∈ {4, 16, 64}.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.cellsim import CellFabricSim
from repro.fabric.workloads import (
    hotspot_rates,
    incast_rates,
    uniform_rates,
)
from repro.schedulers.fixed import RoundRobinTdma
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.mwm import GreedyMwmScheduler, MwmScheduler
from repro.schedulers.reference import (
    ReferenceGreedyMwmScheduler,
    ReferenceIslipScheduler,
)
from repro.sim.errors import ConfigurationError

WORKLOADS = {
    "uniform": lambda n: uniform_rates(n, 0.7),
    "hotspot": lambda n: hotspot_rates(n, 0.8, skew=0.6),
    "incast": lambda n: incast_rates(n, 0.9),
}

# (vector scheduler factory, scalar reference counterpart)
SCHEDULER_PAIRS = {
    "islip": (lambda n: IslipScheduler(n, iterations=2),
              lambda n: ReferenceIslipScheduler(n, iterations=2)),
    "greedy-mwm": (lambda n: GreedyMwmScheduler(n),
                   lambda n: ReferenceGreedyMwmScheduler(n)),
    "mwm": (lambda n: MwmScheduler(n), lambda n: MwmScheduler(n)),
    "tdma": (lambda n: RoundRobinTdma(n), lambda n: RoundRobinTdma(n)),
}


class TestGoldenEquivalence:
    """engine="vector" == engine="reference", field for field."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("sched", sorted(SCHEDULER_PAIRS))
    @pytest.mark.parametrize("n", [4, 16])
    def test_identical_stats_small_configs(self, n, sched, workload):
        make_vector, make_reference = SCHEDULER_PAIRS[sched]
        rates = WORKLOADS[workload](n)
        seed = hash((n, sched, workload)) % 10_000
        reference = CellFabricSim(make_reference(n), rates, seed=seed,
                                  engine="reference").run(300, warmup=40)
        vector = CellFabricSim(make_vector(n), rates, seed=seed,
                               engine="vector").run(300, warmup=40)
        assert reference == vector
        assert vector.departures > 0  # two idle runs would prove nothing

    def test_identical_stats_64_ports_across_chunks(self):
        # At n=64 the memory budget bounds chunks to 244 slots, so 300
        # total slots forces a chunk boundary mid-run — the 64-port
        # acceptance path *and* the boundary carry are both covered.
        rates = uniform_rates(64, 0.8)
        reference = CellFabricSim(
            ReferenceIslipScheduler(64, iterations=1), rates, seed=3,
            engine="reference").run(280, warmup=20)
        vector = CellFabricSim(
            IslipScheduler(64, iterations=1), rates, seed=3,
            engine="vector").run(280, warmup=20)
        assert reference == vector
        assert vector.departures > 0

    def test_identical_across_many_chunk_boundaries(self, monkeypatch):
        # Shrink the chunk cap so a cheap run crosses dozens of chunk
        # boundaries (including a warmup→measuring flip mid-chunk and a
        # final partial chunk): any carry bug in the slot counter, RNG
        # stream, or delay ledger between chunks diverges from the
        # scalar reference here.  The patch targets the module the
        # kernel reads the cap from.
        import repro.fabric.replicas as replicas

        monkeypatch.setattr(replicas, "_CHUNK_SLOTS", 7)
        rates = hotspot_rates(8, 0.8, skew=0.5)
        reference = CellFabricSim(
            ReferenceIslipScheduler(8, iterations=2), rates, seed=9,
            engine="reference").run(250, warmup=33)
        vector = CellFabricSim(
            IslipScheduler(8, iterations=2), rates, seed=9,
            engine="vector").run(250, warmup=33)
        assert reference == vector

    def test_identical_across_repeated_runs(self):
        # run() continues from live state; both engines must agree on
        # the continuation too, not just on a fresh start.
        rates = hotspot_rates(8, 0.8, skew=0.5)
        a = CellFabricSim(ReferenceIslipScheduler(8), rates, seed=5,
                          engine="reference")
        b = CellFabricSim(IslipScheduler(8), rates, seed=5,
                          engine="vector")
        for __ in range(3):
            assert a.run(150) == b.run(150)

    @pytest.mark.parametrize("engine", CellFabricSim.ENGINES)
    @pytest.mark.parametrize("make, rates, seed, runs", [
        (lambda: IslipScheduler(8), hotspot_rates(8, 0.8, skew=0.5), 5,
         [150, 150]),
        (lambda: RoundRobinTdma(8), incast_rates(8, 1.0), 11,
         [200, 200, 200]),
    ], ids=["islip-hotspot", "tdma-incast"])
    def test_resumed_run_equals_fresh_run_with_warmup(
            self, engine, make, rates, seed, runs):
        # A resumed run measures delay from each cell's real arrival
        # slot: run(a) then run(b) is the window of run(b, warmup=a).
        resumed = CellFabricSim(make(), rates, seed=seed, engine=engine)
        done = 0
        for slots in runs:
            stats = resumed.run(slots)
            fresh = CellFabricSim(make(), rates, seed=seed,
                                  engine=engine).run(slots, warmup=done)
            assert stats == fresh
            assert stats.mean_delay_slots > 0
            done += slots

    def test_deep_queue_growth_matches(self):
        # Incast at full load builds queues hundreds of cells deep; the
        # delay ledger must still charge each departure its own arrival
        # slot, in FIFO order.
        rates = incast_rates(8, 1.0)
        reference = CellFabricSim(RoundRobinTdma(8), rates, seed=11,
                                  engine="reference").run(600)
        vector = CellFabricSim(RoundRobinTdma(8), rates, seed=11,
                               engine="vector").run(600)
        assert reference == vector
        assert vector.backlog_cells > 8  # queues really built up


class TestVectorEngineBasics:
    def test_vector_is_the_default(self):
        sim = CellFabricSim(IslipScheduler(4), uniform_rates(4, 0.5))
        assert sim.engine == "vector"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            CellFabricSim(IslipScheduler(4), uniform_rates(4, 0.5),
                          engine="turbo")

    @pytest.mark.parametrize("engine", CellFabricSim.ENGINES)
    def test_counts_are_integer(self, engine):
        sim = CellFabricSim(IslipScheduler(4), uniform_rates(4, 0.5),
                            seed=1, engine=engine)
        sim.run(slots=50)
        counts = sim._stack.counts if engine == "vector" else sim._counts
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts.sum() > 0

    def test_run_parameter_validation(self):
        sim = CellFabricSim(IslipScheduler(4), uniform_rates(4, 0.5))
        with pytest.raises(ConfigurationError):
            sim.run(slots=0)
        with pytest.raises(ConfigurationError):
            sim.run(slots=10, warmup=-1)


class TestInvariants:
    """Physical invariants of the vector engine at n in {4, 16, 64}."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_conservation_and_bounds(self, n):
        slots = 200 if n == 64 else 400
        stats = CellFabricSim(IslipScheduler(n), uniform_rates(n, 0.6),
                              seed=n, engine="vector").run(slots)
        # No warmup: everything that arrived is either out or queued.
        assert stats.departures + stats.backlog_cells == stats.arrivals
        assert 0.0 <= stats.throughput <= stats.offered + 1e-12
        assert stats.offered <= 1.0 + 1e-12
        assert stats.backlog_cells <= stats.peak_backlog_cells
        assert stats.mean_delay_slots >= 0.0

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_light_load_fully_served(self, n):
        stats = CellFabricSim(
            IslipScheduler(n, iterations=2), uniform_rates(n, 0.2),
            seed=n + 1, engine="vector").run(500, warmup=100)
        assert stats.served_fraction > 0.9
        assert stats.mean_delay_slots < 5

    @given(n=st.sampled_from([4, 16]), load=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_property_invariants_hold(self, n, load, seed):
        stats = CellFabricSim(IslipScheduler(n), uniform_rates(n, load),
                              seed=seed, engine="vector").run(120)
        assert stats.departures + stats.backlog_cells == stats.arrivals
        assert stats.throughput <= stats.offered + 1e-12

    @given(seed=st.integers(0, 2**16), warmup=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_property_engines_agree(self, seed, warmup):
        rates = hotspot_rates(6, 0.75, skew=0.4)
        reference = CellFabricSim(
            ReferenceGreedyMwmScheduler(6), rates, seed=seed,
            engine="reference").run(100, warmup=warmup)
        vector = CellFabricSim(
            GreedyMwmScheduler(6), rates, seed=seed,
            engine="vector").run(100, warmup=warmup)
        assert reference == vector


class TestIncastWorkload:
    def test_admissible(self):
        rates = incast_rates(8, 0.9)
        assert (rates >= 0).all()
        assert (np.diagonal(rates) == 0).all()
        assert (rates.sum(axis=0) <= 0.9 + 1e-9).all()
        assert rates.sum() == pytest.approx(0.9)

    def test_hot_column_gets_everything(self):
        rates = incast_rates(4, 0.6, hot=2)
        assert rates[:, 2].sum() == pytest.approx(0.6)
        assert rates[2, 2] == 0.0
        other = np.delete(rates, 2, axis=1)
        assert (other == 0).all()

    def test_hot_validation(self):
        with pytest.raises(ConfigurationError):
            incast_rates(4, 0.5, hot=4)
