"""repro — hybrid electrical/optical data-center switch scheduling.

A full software reproduction of the framework proposed in *"Extreme
data-rate scheduling for the Data Center"* (Manihatty-Bojan, Zilberman,
Antichi, Moore — SIGCOMM 2015): a hybrid EPS/OCS top-of-rack switch
with pluggable scheduling logic, hardware and software scheduler timing
models, a library of scheduling algorithms, traffic generators, and the
analysis tooling to reproduce every quantitative claim in the paper.

Quickstart::

    from repro import FrameworkConfig, HybridSwitchFramework
    from repro.sim.time import MILLISECONDS, MICROSECONDS
    from repro.traffic import PoissonSource, UniformDestination

    config = FrameworkConfig(n_ports=8, scheduler="islip",
                             switching_time_ps=1 * MICROSECONDS)
    fw = HybridSwitchFramework(config)
    for host in fw.hosts:
        PoissonSource(fw.sim, host, rate_bps=4e9, n_ports=fw.n_ports,
                      rng=fw.sim.streams.stream(f"src{host.host_id}"))
    result = fw.run(2 * MILLISECONDS)
    print(result.latency().row(), result.utilisation())

See the README's Architecture section for the system inventory and
the :mod:`repro.experiments` docstring for the paper claim each
experiment reproduces.
"""

from repro.core.config import FrameworkConfig
from repro.core.framework import HybridSwitchFramework
from repro.core.results import RunResult
from repro.net.host import HostBufferMode
from repro.schedulers import (
    Matching,
    Scheduler,
    ScheduleResult,
    available_schedulers,
    create_scheduler,
    register_scheduler,
)
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "FrameworkConfig",
    "HybridSwitchFramework",
    "RunResult",
    "HostBufferMode",
    "Simulator",
    "Scheduler",
    "ScheduleResult",
    "Matching",
    "available_schedulers",
    "create_scheduler",
    "register_scheduler",
    "__version__",
]
