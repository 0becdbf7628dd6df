"""E5 — scheduling-algorithm study on the cell fabric.

§3 positions the framework as an enabler for "rapid prototyping,
exploration and evaluation of novel hybrid schedulers".  This experiment
is the evaluation such a user would run first: the textbook crossbar
curves, throughput and mean delay vs offered load, for the algorithm
library, under uniform and adversarial (diagonal) traffic.

Expected shapes (the literature's, which our implementations must hit):

* Under uniform traffic iSLIP reaches ~100 % throughput; PIM-1
  saturates near 63 % (the 1 − 1/e limit); TDMA also serves uniform
  load perfectly (it *is* the uniform schedule).
* Under diagonal traffic TDMA collapses (it wastes slots on pairs with
  no demand), PIM/iSLIP-1 degrade, iSLIP-4 recovers much of it, and
  MWM stays near the admissible bound.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import random

import numpy as np

from repro.analysis.charts import line_chart
from repro.analysis.tables import render_table
from repro.experiments.base import ExperimentConfig, ExperimentReport
from repro.fabric.replicas import run_replicas
from repro.fabric.workloads import diagonal_rates, uniform_rates
from repro.schedulers.fixed import RoundRobinTdma
from repro.schedulers.islip import IslipScheduler
from repro.schedulers.mwm import MwmScheduler
from repro.schedulers.pim import PimScheduler
from repro.schedulers.wfa import WfaScheduler
from repro.sim.errors import ConfigurationError

N_PORTS = 16

#: Overrides this experiment honours (``repro run e5 --set ...``).
KNOWN_OVERRIDES = frozenset({"loads", "slots", "warmup", "n_ports"})

#: (name, constructor(n_ports, pim_seed)) per algorithm, in table order.
SCHEDULERS = (
    ("tdma", lambda n, pim_seed: RoundRobinTdma(n)),
    ("pim-1", lambda n, pim_seed: PimScheduler(
        n, iterations=1, rng=random.Random(pim_seed))),
    ("islip-1", lambda n, pim_seed: IslipScheduler(n, iterations=1)),
    ("islip-4", lambda n, pim_seed: IslipScheduler(n, iterations=4)),
    ("wfa", lambda n, pim_seed: WfaScheduler(n)),
    ("mwm", lambda n, pim_seed: MwmScheduler(n)),
)

#: The two traffic patterns, in report order.
WORKLOADS = (("uniform", uniform_rates), ("diagonal", diagonal_rates))


def _table_for(curves, loads, metric_index: int, metric: str,
               title: str) -> str:
    names = list(curves)
    rows = []
    for i, load in enumerate(loads):
        row = [f"{load:.2f}"]
        for name in names:
            row.append(f"{curves[name][i][metric_index]:.3f}")
        rows.append(row)
    return render_table(["load"] + names, rows, title=f"{title} — {metric}")


def _sizes(config: ExperimentConfig):
    """(loads, slots, warmup, n_ports) for one config."""
    loads = list(config.get(
        "loads", [0.3, 0.6, 0.9] if config.quick
        else [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95]))
    slots = config.get("slots", 1_500 if config.quick else 8_000)
    warmup = config.get("warmup", 300 if config.quick else 1_500)
    n_ports = config.get("n_ports", N_PORTS)
    return loads, slots, warmup, n_ports


def run(config: ExperimentConfig) -> ExperimentReport:
    """Throughput & delay vs load, uniform and diagonal workloads.

    The one-config case of :func:`run_batch`: a solo run is one
    stacked fabric pass too, of 36 replicas in the quick sweep.
    """
    return run_batch([config])[0]


def run_batch(configs) -> List[ExperimentReport]:
    """Replica-batched entry: one report per config, byte-identical.

    The configs must agree on everything but ``seed`` (the runner's
    replica-batch grouping guarantees this).  Every (scheduler,
    workload, load, config) point is one replica of a single
    :func:`repro.fabric.replicas.run_replicas` pass — ``36 × len(configs)``
    replicas in the quick sweep — with a fresh scheduler per point and
    the config's arrival seed, so each point's stats equal a solo
    fabric run of it.  Points are stacked scheduler by scheduler, so
    each batched driver reads a contiguous slice of the stack.
    """
    configs = list(configs)
    if not configs:
        return []
    head = configs[0]
    for config in configs[1:]:
        if (config.quick, config.scheduler, config.measure_wallclock,
                dict(config.overrides)) != (
                head.quick, head.scheduler, head.measure_wallclock,
                dict(head.overrides)):
            raise ConfigurationError(
                "e5 replica batch needs configs identical except seed")
    loads, slots, warmup, n_ports = _sizes(head)
    seeds = [config.derive_seed(2) for config in configs]
    pim_seeds = [config.derive_seed(5) for config in configs]
    points: List[Tuple[int, str, str, float]] = []
    schedulers, rates, point_seeds = [], [], []
    for name, make in SCHEDULERS:
        for workload, make_rates in WORKLOADS:
            for load in loads:
                point_rates = make_rates(n_ports, load)
                for replica in range(len(configs)):
                    points.append((replica, name, workload, load))
                    schedulers.append(make(n_ports, pim_seeds[replica]))
                    rates.append(point_rates)
                    point_seeds.append(seeds[replica])
    instances = iter(schedulers)
    stats = run_replicas(lambda: next(instances), np.stack(rates),
                         point_seeds, slots, warmup=warmup)
    curves: List[Dict[str, Dict[str, List[Tuple[float, float, float]]]]] = [
        {workload: {} for workload, __ in WORKLOADS} for __ in configs]
    for (replica, name, workload, load), point in zip(points, stats):
        curves[replica][workload].setdefault(name, []).append(
            (load, point.throughput, point.mean_delay_slots))
    return [
        _build_report(config, loads, n_ports, curve["uniform"],
                      curve["diagonal"])
        for config, curve in zip(configs, curves)
    ]


def _build_report(config: ExperimentConfig, loads, n_ports,
                  uniform_curves, diagonal_curves) -> ExperimentReport:
    """Tables, chart, data and paper-shape checks for one run."""
    report = ExperimentReport(
        experiment_id="e5",
        title="scheduler-algorithm study (the framework's purpose)",
    )
    report.check_overrides(config, KNOWN_OVERRIDES)
    report.tables.append(_table_for(
        uniform_curves, loads, 1, "throughput",
        f"uniform traffic, {n_ports} ports"))
    report.tables.append(_table_for(
        uniform_curves, loads, 2, "mean delay (slots)",
        f"uniform traffic, {n_ports} ports"))
    report.tables.append(_table_for(
        diagonal_curves, loads, 1, "throughput",
        f"diagonal traffic, {n_ports} ports"))
    report.tables.append(_table_for(
        diagonal_curves, loads, 2, "mean delay (slots)",
        f"diagonal traffic, {n_ports} ports"))
    report.tables.append(line_chart(
        loads,
        {name: [point[1] for point in series]
         for name, series in diagonal_curves.items()},
        width=48, height=12,
        x_label="offered load", y_label="throughput",
        title="diagonal traffic — throughput vs load (figure form)"))
    report.data["uniform"] = uniform_curves
    report.data["diagonal"] = diagonal_curves
    # Paper-shape checks at the heaviest common load.
    last = len(loads) - 1
    islip_uniform = uniform_curves["islip-1"][last][1]
    pim_uniform = uniform_curves["pim-1"][last][1]
    if islip_uniform > pim_uniform:
        report.expectations.append(
            f"uniform@{loads[last]:.2f}: iSLIP-1 throughput "
            f"{islip_uniform:.3f} > PIM-1 {pim_uniform:.3f} "
            "(pointer desynchronisation beats random)")
    mwm_diag = diagonal_curves["mwm"][last][1]
    tdma_diag = diagonal_curves["tdma"][last][1]
    if mwm_diag > tdma_diag:
        report.expectations.append(
            f"diagonal@{loads[last]:.2f}: MWM throughput {mwm_diag:.3f} "
            f"> TDMA {tdma_diag:.3f} (demand-aware beats oblivious on "
            "skew)")
    islip4_diag = diagonal_curves["islip-4"][last][1]
    islip1_diag = diagonal_curves["islip-1"][last][1]
    if islip4_diag >= islip1_diag:
        report.expectations.append(
            f"diagonal@{loads[last]:.2f}: iSLIP-4 ({islip4_diag:.3f}) "
            f">= iSLIP-1 ({islip1_diag:.3f}) — iterations help on skew")
    return report


def run_e5(quick: bool = False) -> ExperimentReport:
    """Historical entry point; see :func:`run`."""
    return run(ExperimentConfig(quick=quick))


__all__ = ["run", "run_batch", "run_e5", "N_PORTS", "KNOWN_OVERRIDES"]
