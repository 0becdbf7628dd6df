"""Ablations of four design choices of the hybrid switch framework.

Each ablation isolates one knob of the framework:

* **iSLIP iteration count** — matching quality vs hardware cost.
* **Demand estimator** (instant / EWMA / sketch) inside the full
  framework — does estimation error reach end-to-end utilisation?
* **EPS residual capacity** — how thin can the electrical path be
  before residue backs up?
* **Distributed scheduling staleness** — what decentralising the
  scheduler costs in matching weight as its demand view ages.

Each knob sweep is routed through the runner's order-preserving
:func:`repro.runner.map_jobs`: every point is a module-level pure
function of its knob value, so the sweep could fan out across worker
processes with results identical to the sequential run used here.
Run with ``-s`` to see each ablation's table.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.control.distributed import DistributedGreedyScheduler
from repro.core.config import FrameworkConfig
from repro.core.framework import HybridSwitchFramework
from repro.fabric.cellsim import CellFabricSim
from repro.fabric.workloads import diagonal_rates
from repro.runner import map_jobs
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.mwm import MwmScheduler
from repro.sim.time import GIGABIT, MICROSECONDS, MILLISECONDS
from repro.traffic.patterns import HotspotDestination
from repro.traffic.sources import OnOffSource


def _hotspot_framework(estimator="instant", eps_rate=2.5 * GIGABIT,
                       seed=17):
    config = FrameworkConfig(
        n_ports=8,
        switching_time_ps=20 * MICROSECONDS,
        scheduler="hotspot",
        scheduler_kwargs={"threshold_bytes": 20_000.0},
        timing_preset="netfpga_sume",
        estimator=estimator,
        epoch_ps=200 * MICROSECONDS,
        default_slot_ps=160 * MICROSECONDS,
        eps_rate_bps=eps_rate,
        seed=seed,
    )
    fw = HybridSwitchFramework(config)
    for host in fw.hosts:
        OnOffSource(
            fw.sim, host,
            burst_rate_bps=0.6 * config.port_rate_bps,
            mean_on_ps=200 * MICROSECONDS,
            mean_off_ps=250 * MICROSECONDS,
            chooser=HotspotDestination(
                8, host.host_id, skew=0.7,
                rng=fw.sim.streams.stream(f"d{host.host_id}")),
            rng=fw.sim.streams.stream(f"s{host.host_id}"))
    return fw


def _islip_point(iterations):
    """(iterations, throughput, mean delay) on adversarial load."""
    sched = IslipScheduler(16, iterations=iterations)
    stats = CellFabricSim(sched, diagonal_rates(16, 0.9),
                          seed=6).run(3_000, warmup=500)
    return iterations, stats.throughput, stats.mean_delay_slots


def _estimator_point(estimator):
    """(estimator, OCS fraction, utilisation) in the full framework."""
    fw = _hotspot_framework(estimator=estimator)
    result = fw.run(6 * MILLISECONDS)
    return estimator, result.ocs_fraction, result.utilisation()


def _eps_point(eps_gbps):
    """(rate, utilisation, peak queue, drops) for one EPS provisioning."""
    fw = _hotspot_framework(eps_rate=eps_gbps * GIGABIT)
    result = fw.run(6 * MILLISECONDS)
    return (eps_gbps, result.utilisation(),
            result.eps_peak_buffer_bytes, result.drops["eps_tail"])


def _staleness_point(staleness):
    """(staleness, weight ratio vs centralized MWM) on drifting demand."""
    rng = np.random.default_rng(11)
    # A drifting demand sequence: hotspots move every few epochs.
    demands = []
    base = rng.exponential(50_000, (8, 8))
    np.fill_diagonal(base, 0.0)
    for epoch in range(40):
        drift = np.roll(base, epoch // 4, axis=1).copy()
        np.fill_diagonal(drift, 0.0)
        demands.append(drift)
    central = MwmScheduler(8)
    distributed = DistributedGreedyScheduler(
        8, staleness_epochs=staleness)
    got = 0.0
    best = 0.0
    for demand in demands:
        got += distributed.compute(demand).first.weight(demand)
        best += central.compute(demand).first.weight(demand)
    return staleness, got / best


def test_ablation_islip_iterations():
    """Throughput vs iteration count on adversarial load."""
    points = map_jobs(_islip_point, (1, 2, 4, 8))
    rows = [[str(i), f"{throughput:.3f}", f"{delay:.1f}"]
            for i, throughput, delay in points]
    print()
    print(render_table(
        ["iSLIP iterations", "throughput", "mean delay (slots)"],
        rows, title="ablation: iSLIP iterations, diagonal 0.9"))
    series = {i: throughput for i, throughput, __ in points}
    assert series[4] >= series[1] - 0.02


def test_ablation_demand_estimator():
    """Does estimator choice reach end-to-end OCS offload?"""
    points = map_jobs(_estimator_point, ("instant", "ewma", "sketch"))
    rows = [[name, f"{fraction:.3f}", f"{util:.3f}"]
            for name, fraction, util in points]
    print()
    print(render_table(
        ["estimator", "OCS byte fraction", "utilisation"],
        rows, title="ablation: demand estimator in the framework"))
    fractions = {name: fraction for name, fraction, __ in points}
    assert all(0.0 <= f <= 1.0 for f in fractions.values())


def test_ablation_eps_capacity():
    """Residual-path provisioning: EPS rate from 10G down to 0.5G."""
    points = map_jobs(_eps_point, (10.0, 2.5, 1.0, 0.5))
    rows = [[f"{gbps:.1f}G", f"{util:.3f}", str(peak), str(drops)]
            for gbps, util, peak, drops in points]
    print()
    print(render_table(
        ["EPS rate", "utilisation", "peak EPS queue (B)", "EPS drops"],
        rows, title="ablation: residual electrical capacity"))
    peaks = {gbps: peak for gbps, __, peak, __d in points}
    # A thinner residual path must queue at least as much residue.
    assert peaks[0.5] >= peaks[10.0]


def test_ablation_distributed_staleness():
    """Matching weight lost to stale demand views (decentralisation)."""
    points = map_jobs(_staleness_point, (0, 1, 2, 4, 8))
    rows = [[str(staleness), f"{ratio:.3f}"]
            for staleness, ratio in points]
    print()
    print(render_table(
        ["staleness (epochs)", "weight vs centralized MWM"],
        rows, title="ablation: distributed scheduling staleness"))
    ratios = dict(points)
    assert ratios[8] <= ratios[0] + 1e-9  # staleness never helps
