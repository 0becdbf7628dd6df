"""The benchmark's four workloads, executed inside a child process.

``run.py`` starts this file as a fresh interpreter for every
measurement, so each one pays its own imports and nothing leaks
between workloads::

    python benchmarks/e2e/workloads.py --mode setup  --workload NAME ...
    python benchmarks/e2e/workloads.py --mode timed  --workload NAME ...
    python benchmarks/e2e/workloads.py --mode traced --workload NAME ...

``setup`` times ``import repro`` through the specs being planned;
``timed`` runs an untimed smoke-scale warm-up pass and then timed passes
until ``--seconds`` is spent; ``traced`` installs the span tracer before
anything imports ``repro`` and then does the same, alternating traced
and untraced passes.  The child prints one JSON object as its last
stdout line; ``run.py`` turns those into metrics and checks the report
digests.

The workloads call only public APIs: ``plan_runs``, ``RunSpec``,
``execute`` and ``ServiceClient``, plus the ``repro serve`` and
``repro worker`` commands for the fleet.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Timed passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Fleet jobs per pass, and how often the same batch is resubmitted.
FLEET_JOBS = 480
FLEET_RESUBMITS = 3
#: Replicas in one fabric-sweep batch: two keep the batch kernel's
#: replica axis while three passes fit the run budget.
FABRIC_REPLICAS = 2
#: Seconds a hub or worker gets to boot, drain or exit.
PROCESS_DEADLINE_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The seed a run uses when none is given; pinned digests hold here.
    pinned_seed: Optional[int]
    #: Layers that must record at least one call on this workload.
    layers: Tuple[str, ...]
    fleet: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-quick",
        "e1-e8 quick through execute(jobs=1): what a user runs first; "
        "mixes schedulers, the event engine and the solo fabric kernel",
        None,
        ("sim", "net", "core.processing", "switches", "schedulers",
         "fabric", "analysis", "core.framework", "scenario", "runner")),
    Workload(
        "packet-path",
        "the 9 library scenarios at full length: the event-driven packet "
        "path; schedulers and the fabric kernel stay nearly idle",
        None,
        ("sim", "net", "core.processing", "switches", "analysis",
         "core.framework", "scenario", "experiments.scenario", "runner")),
    Workload(
        "fabric-sweep",
        "e5 x2 replicas through the replica-batched (R,n,n) kernel and "
        "batch schedulers; the event engine does no work",
        7,
        ("schedulers", "schedulers.batch", "fabric", "runner")),
    Workload(
        "fleet-sweep",
        "480 cheap e7 jobs through a hub and one worker, then 3 cached "
        "resubmits: the service hop, journal and cache paths",
        31,
        ("service.protocol", "service.journal", "service.client",
         "runner", "runner.cache"),
        fleet=True),
)}

#: Smoke-scale paper-quick: one cheap run of each kind of machinery.
_SMOKE_PAPER = (
    ("e2", {}),
    ("e3", {"epochs_ps": [100_000_000], "duration_ps": 1_000_000_000}),
    ("e5", {"loads": [0.5], "slots": 100, "warmup": 20}),
    ("e7", {}),
)
_SMOKE_SCENARIOS = ("incast", "datacenter-mix", "failure-storm")

Item = Tuple[str, list, bool]  # (label, specs, replica_batch)


def plan(name: str, seed: Optional[int], smoke: bool) -> List[Item]:
    """The workload's jobs, grouped into the items one pass executes."""
    from repro.runner import RunSpec, plan_runs
    from repro.scenario import available_scenarios

    if name == "paper-quick":
        if smoke:
            return [(exp, [RunSpec(exp, quick=True, seed=seed,
                                   overrides=overrides).validate()], False)
                    for exp, overrides in _SMOKE_PAPER]
        return [(f"e{i}", [RunSpec(f"e{i}", quick=True, seed=seed)
                           .validate()], False) for i in range(1, 9)]
    if name == "packet-path":
        names = _SMOKE_SCENARIOS if smoke else sorted(available_scenarios())
        return [(f"scenario:{n}", [RunSpec(f"scenario:{n}", quick=smoke,
                                           seed=seed).validate()], False)
                for n in names]
    if name == "fabric-sweep":
        specs = plan_runs(["e5"], quick=True, base_seed=seed,
                          replicas=2 if smoke else FABRIC_REPLICAS,
                          grid={"loads": [[0.5]], "slots": [100],
                                "warmup": [20]} if smoke else None)
        return [(f"e5x{len(specs)}", specs, True)]
    if name == "fleet-sweep":
        specs = plan_runs(["e7"], quick=True, base_seed=seed,
                          replicas=8 if smoke else FLEET_JOBS)
        return [(f"e7x{len(specs)}", specs, False)]
    raise KeyError(name)


def digest(report) -> Tuple[str, int]:
    """sha256 and length of a report's canonical payload."""
    from repro.runner.cache import report_to_payload
    from repro.runner.spec import canonical_json

    payload = canonical_json(report_to_payload(report)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest(), len(payload)


def outcome_digests(outcomes) -> Tuple[Dict[str, list], int]:
    """({spec key: [sha256, bytes]}, failed count) over run outcomes."""
    digests = {}
    failed = 0
    for outcome in outcomes:
        if outcome.error is not None:
            failed += 1
        else:
            digests[outcome.spec.key()] = list(digest(outcome.report))
    return digests, failed


def _root(tracer, label: str):
    """The tracer's root span for one job, or nothing when untraced."""
    return contextlib.nullcontext() if tracer is None \
        else tracer.item(label)


# -- in-process workloads ----------------------------------------------------

def local_pass(items: List[Item], tracer=None) -> Dict[str, Any]:
    """Execute every item once; digests are taken after the clock stops."""
    from repro.runner import execute

    walls = {}
    outcomes = []
    start = time.perf_counter()
    for label, specs, batch in items:
        began = time.perf_counter()
        with _root(tracer, label):
            outcomes += execute(specs, jobs=1, replica_batch=batch)
        walls[label] = time.perf_counter() - began
    wall = time.perf_counter() - start
    digests, failed = outcome_digests(outcomes)
    return {"wall_s": wall, "jobs": len(outcomes), "items": walls,
            "elapsed_s": sum(o.elapsed_s for o in outcomes),
            "attempted": len(outcomes), "failed": failed,
            "digests": digests}


# -- the fleet ---------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _read_banner(proc: subprocess.Popen, deadline: float) -> dict:
    """The hub's one-line ``serve-ready`` JSON banner."""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            return json.loads(line)
        if proc.poll() is not None:
            break
    raise RuntimeError(f"hub exited or stayed silent (code {proc.poll()})")


def _proc_status(pid: int) -> Tuple[float, float]:
    """(peak RSS in MiB, CPU seconds) of a live process, from /proc."""
    hwm_kb = 0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return hwm_kb / 1024.0, ticks / os.sysconf("SC_CLK_TCK")


def _tree_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern))


def fleet_pass(specs: list, workdir: Path, resubmits: int,
               tracer=None) -> Dict[str, Any]:
    """Boot a hub and a worker, run the campaign, drain, and measure.

    With ``tracer`` set, the hub and worker start through
    ``traced_cli.py`` and their span tables come back in the result.
    """
    from repro.service import ServiceClient

    workdir.mkdir(parents=True)
    cache = workdir / "cache"
    # Relative to the root, so the socket path stays short.
    sock = os.path.relpath(workdir / "hub.sock", ROOT)
    if tracer is None:
        launcher = [sys.executable, "-m", "repro.cli"]
        tables = {}
    else:
        tables = {role: workdir / f"{role}-spans.json"
                  for role in ("hub", "worker")}
    procs: Dict[str, subprocess.Popen] = {}
    logs = {}
    result: Dict[str, Any] = {"attempted": 0, "failed": 0}

    def spawn(role: str, args: List[str]) -> subprocess.Popen:
        command = (launcher if tracer is None else
                   [sys.executable, str(HERE / "traced_cli.py"),
                    str(tables[role])]) + args
        logs[role] = open(workdir / f"{role}.log", "wb")
        procs[role] = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if role == "hub" else logs[role],
            stderr=logs[role])
        return procs[role]

    try:
        start = time.perf_counter()
        deadline = time.monotonic() + PROCESS_DEADLINE_S
        hub = spawn("hub", ["serve", "--socket", sock, "--no-local",
                            "--jobs", "1", "--cache-dir",
                            os.path.relpath(cache, ROOT), "--quiet"])
        _read_banner(hub, deadline)
        worker = spawn("worker", ["worker", "--connect", sock,
                                  "--jobs", "1", "--quiet"])
        client = ServiceClient(sock, timeout=PROCESS_DEADLINE_S).connect()
        try:
            while client.stats().get("workers_registered", 0) < 1:
                if time.monotonic() > deadline or worker.poll() is not None:
                    raise RuntimeError("worker never registered")
                # Poll gently: the hub answers every poll while the
                # worker boots beside it on the same two cores.
                time.sleep(0.02)
            result["setup_s"] = time.perf_counter() - start
            if tracer is not None:
                for proc in procs.values():
                    proc.send_signal(signal.SIGUSR1)  # see traced_cli.py

            def submit(label: str):
                outcomes: List[Any] = [None] * len(specs)
                began = time.perf_counter()
                with _root(tracer, label):
                    for index, outcome in client.submit_stream(specs):
                        outcomes[index] = outcome
                result["attempted"] += len(specs)
                return time.perf_counter() - began, outcomes

            result["cold_s"], cold = submit("cold")
            result["resubmit_s"] = []
            warm = []
            for __ in range(resubmits):
                seconds, outcomes = submit("resubmit")
                result["resubmit_s"].append(seconds)
                warm.append(outcomes)
            result["digests"], failed = outcome_digests(cold)
            result["failed"] += failed
            result["elapsed_s"] = sum(o.elapsed_s for o in cold)
            for outcomes in warm:
                # A resubmitted job must come back, unchanged, from the
                # hub's cache.
                digests, failed = outcome_digests(outcomes)
                result["failed"] += failed + sum(
                    not o.cached or digests.get(o.spec.key())
                    != result["digests"].get(o.spec.key())
                    for o in outcomes)
            stats = client.stats()
            result["stats"] = {name: stats.get(name, 0) for name in (
                "executed", "cache_hits", "cache_lookup_misses",
                "results_streamed")}
            for role, proc in procs.items():
                result[f"{role}_rss_mb"], result[f"{role}_cpu_s"] = \
                    _proc_status(proc.pid)
            result["journal_bytes"] = _tree_bytes(cache, "*.jsonl")
            result["cache_bytes"] = _tree_bytes(cache, "*/*.json")
            client.shutdown(wait_bye=True)
        finally:
            client.close()
        result["exit_codes"] = {
            role: proc.wait(timeout=PROCESS_DEADLINE_S)
            for role, proc in procs.items()}
        result["failed"] += sum(code != 0
                                for code in result["exit_codes"].values())
        result["wall_s"] = result["cold_s"] + sum(result["resubmit_s"])
        result["jobs"] = len(specs)
        if tracer is not None:
            result["tables"] = {role: json.loads(path.read_text())
                                for role, path in tables.items()}
        return result
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        for handle in logs.values():
            handle.close()
        shutil.rmtree(workdir, ignore_errors=True)


# -- modes -------------------------------------------------------------------

def _pass(workload: Workload, items: List[Item], workdir: Path,
          index: int, smoke: bool, tracer=None) -> Dict[str, Any]:
    if workload.fleet:
        return fleet_pass(items[0][1], workdir / f"pass{index}",
                          1 if smoke else FLEET_RESUBMITS, tracer)
    return local_pass(items, tracer)


def _warm_up(workload: Workload, seed: Optional[int], smoke: bool,
             workdir: Path, tracer=None) -> None:
    """One untimed pass, so lazy imports and caches settle.

    Smoke-scale, except under the tracer: the first full-size pass of a
    process runs up to a fifth slower on the fabric kernels, and would
    bias the first traced pass against the untraced ones.  Skipped when
    the measured passes are themselves smoke-scale.
    """
    if not smoke:
        small = tracer is None
        _pass(workload, plan(workload.name, seed, small), workdir, 0,
              small, tracer)


def measure(workload: Workload, seed: Optional[int], seconds: float,
            smoke: bool, workdir: Path, tracer=None) -> Dict[str, Any]:
    """Warm up at smoke scale, then run passes for ``seconds``.

    With ``tracer`` (already installed) the passes alternate traced and
    untraced, starting traced, so the tracing overhead compares passes
    run moments apart in one process; the span table is the first
    traced pass's.
    """
    import spans
    from repro.runner import execute

    _warm_up(workload, seed, smoke, workdir, tracer)
    items = plan(workload.name, seed, smoke)
    passes: List[Dict[str, Any]] = []
    out: Dict[str, Any] = {"passes": passes}
    minimum = 2 if smoke or tracer is not None else MIN_PASSES
    began = time.perf_counter()
    spent = 0.0
    # Stop before a pass that would, at the mean pass length so far,
    # overrun the budget.
    while len(passes) < minimum or (
            not smoke and spent * (len(passes) + 1) / len(passes)
            <= seconds):
        traced = tracer is not None and len(passes) % 2 == 0
        if tracer is not None:
            if traced:
                tracer.install()
                tracer.reset()
            else:
                tracer.uninstall()
        wrapped = spans.count_wrapped()
        result = _pass(workload, items, workdir, len(passes) + 1, smoke,
                       tracer if traced else None)
        result.update(traced=traced, wrapped=wrapped)
        if traced and "table" not in out:
            out["table"] = tracer.table()
        passes.append(result)
        spent = time.perf_counter() - began
    if tracer is not None:
        tracer.uninstall()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.fleet:
        # Local execution of the same specs, outside the timed passes.
        out["reference_digests"], __ = outcome_digests(
            execute(items[0][1], jobs=1))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.pinned_seed if args.seed is None else args.seed
    sys.path.insert(0, str(SRC))
    if args.mode == "setup":
        plan(workload.name, seed, args.smoke)
        out: Dict[str, Any] = {"setup_s": time.perf_counter() - START}
    elif args.mode == "timed":
        out = measure(workload, seed, args.seconds, args.smoke,
                      args.workdir)
    else:
        import spans

        tracer = spans.Tracer().install()
        out = measure(workload, seed, args.seconds, args.smoke,
                      args.workdir, tracer)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
