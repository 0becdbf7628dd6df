"""Command-line entry point: ``repro``.

Run paper experiments by id, in parallel, against a result cache; run
declarative scenarios from the library; or expand parameter sweeps
into job plans::

    repro list                       # experiments + schedulers + presets
    repro run e1                     # full-size experiment
    repro run e5 --quick             # reduced-size for smoke checks
    repro run all --quick --jobs 4   # the suite, 4 worker processes
    repro run all --cache-dir .repro-cache   # warm reruns are instant
    repro sweep e5 --replicas 3 --base-seed 1 --set n_ports=8,16 --jobs 4
    repro scenario list              # the named workload library
    repro scenario show incast       # canonical JSON of one scenario
    repro scenario run incast --quick --jobs 2 --set n_ports=16
    repro serve --jobs 4             # always-on sweep daemon + cache
    repro run all --quick --server   # route a run through the daemon
    repro worker --connect host:7461 # join a daemon's worker fleet
    repro service stats --json       # live daemon counters
    repro service workers            # the registered worker fleet
    repro service shutdown           # drain in-flight work, then stop
    repro run e5 --job-timeout 60 --job-memory-mb 2048   # governed run
    repro cache stats --cache-dir .repro-cache   # footprint + headroom
    repro cache verify               # fsck: digest + key re-check
    repro cache gc --target-mb 512   # evict coldest down to 512 MiB

``run``, ``sweep`` and ``scenario run`` are thin frontends over
``repro.runner``: they plan deterministic job lists, execute them
(optionally across worker processes and against a content-addressed
cache) and print the familiar per-experiment reports plus a run
manifest.  Scenario jobs (``scenario:<name>``) share the whole
pipeline, so caching, sharding and ``--jobs`` behave identically.

With ``--server [ADDR]`` the same commands route their job plans to a
running ``repro serve`` daemon instead of executing locally: the
daemon owns the worker pool and the shared result cache, deduplicates
identical jobs across clients (including concurrent in-flight ones),
and streams back the exact reports a local run would have produced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import signal
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments import ENTRY_POINTS, EXPERIMENTS, experiment_summaries
from repro.hwmodel.presets import TIMING_PRESETS
from repro.runner import (
    ResourceLimits,
    ResultCache,
    RunSpec,
    execute,
    merge_outcomes,
    plan_runs,
    shard,
    write_json_report,
)
from repro.runner.manifest import RunManifest
from repro.runner.spec import SCENARIO_PREFIX
from repro.scenario import (
    available_scenarios,
    configure,
    get_scenario,
    scenario_summaries,
)
from repro.schedulers.registry import (
    available_schedulers,
    scheduler_summaries,
)
from repro.sim.errors import ConfigurationError


def _resolve_experiments(requested: Sequence[str]) -> Optional[List[str]]:
    """Expand ``all`` and validate ids; ``None`` (+stderr) on error.

    ``scenario:<name>`` ids are accepted alongside experiment ids, so
    ``repro run``/``repro sweep`` mix both job families freely.  Any
    registered entry point is runnable by explicit id (that admits the
    ``probe`` diagnostic), but ``all`` expands to the paper suite only.
    """
    ids: List[str] = []
    for name in requested:
        if name == "all":
            ids.extend(exp_id for exp_id in sorted(EXPERIMENTS)
                       if exp_id not in ids)
            continue
        if name.startswith(SCENARIO_PREFIX):
            try:
                get_scenario(name[len(SCENARIO_PREFIX):])
            except ConfigurationError as exc:
                print(str(exc), file=sys.stderr)
                return None
        elif name not in ENTRY_POINTS:
            print(f"unknown experiment {name!r}; "
                  f"try: {', '.join(sorted(EXPERIMENTS))} or "
                  f"{SCENARIO_PREFIX}<name>",
                  file=sys.stderr)
            return None
        if name not in ids:
            ids.append(name)
    return ids


def _parse_value(text: str) -> Any:
    """A ``--set`` value: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_overrides(pairs: Sequence[str]) -> Optional[Dict[str, Any]]:
    """``k=v`` pairs for ``run``; ``None`` (+stderr) on a bad pair."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            print(f"bad --set {pair!r}; expected key=value",
                  file=sys.stderr)
            return None
        overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(pairs: Sequence[str]) -> Optional[Dict[str, List[Any]]]:
    """``k=v1,v2,...`` pairs for ``sweep``: each key is a grid axis.

    A value that parses as a JSON list *is* the axis (so
    ``--set "loads=[0.1, 0.5]"`` sweeps two scalar loads, and a
    list-of-lists sweeps list-valued overrides); otherwise the value is
    split on commas and each piece parsed individually.
    """
    grid: Dict[str, List[Any]] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            print(f"bad --set {pair!r}; expected key=v1,v2,...",
                  file=sys.stderr)
            return None
        parsed = _parse_value(value)
        if isinstance(parsed, list):
            grid[key] = parsed
        else:
            grid[key] = [_parse_value(piece)
                         for piece in value.split(",")]
    return grid


#: Default daemon address shared by ``repro serve`` and the service
#: subcommands, so the common single-machine setup needs no flags.
DEFAULT_SERVICE_SOCKET = ".repro-serve.sock"


def _make_limits(args: argparse.Namespace):
    """``(ok, limits)`` from the governance flags (None when unset)."""
    timeout_s = getattr(args, "job_timeout", None)
    memory_mb = getattr(args, "job_memory_mb", None)
    if timeout_s is None and memory_mb is None:
        return True, None
    try:
        return True, ResourceLimits(timeout_s=timeout_s,
                                    memory_mb=memory_mb)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return False, None


def _run_specs(args: argparse.Namespace, specs, on_outcome=None):
    """Execute ``specs`` locally or via ``--server``.

    Returns the outcome list, or ``None`` after printing a one-line
    error (callers exit 2).  With ``--server``, execution settings are
    the daemon's own — the local ``--jobs``/``--cache-dir``/
    ``--replica-batch``/``--job-timeout``/``--job-memory-mb`` flags
    are noted as ignored rather than silently dropped.
    """
    if getattr(args, "server", None):
        from repro.service import ServiceError, execute_via_server

        ignored = [flag for flag, on in (
            ("--jobs", args.jobs > 1),
            ("--cache-dir", bool(args.cache_dir)),
            ("--replica-batch", args.replica_batch),
            ("--job-timeout",
             getattr(args, "job_timeout", None) is not None),
            ("--job-memory-mb",
             getattr(args, "job_memory_mb", None) is not None),
        ) if on]
        if ignored:
            print(f"note: {', '.join(ignored)} are daemon-side "
                  "settings; ignored with --server", file=sys.stderr)
        from repro.service import RetryPolicy

        retry = RetryPolicy(
            max_attempts=max(0, getattr(args, "retry_max", 5)),
            base_delay_s=max(0.0, getattr(args, "retry_base", 0.2)))
        try:
            return execute_via_server(args.server, specs,
                                      on_outcome=on_outcome,
                                      retry=retry)
        except (ServiceError, ValueError, OSError) as exc:
            # ValueError: a malformed --server failover list.
            print(f"--server {args.server}: {exc}", file=sys.stderr)
            return None
    ok, cache = _make_cache(args)
    if not ok:
        return None
    ok, limits = _make_limits(args)
    if not ok:
        return None
    return execute(specs, jobs=args.jobs, cache=cache,
                   on_outcome=on_outcome,
                   replica_batch=args.replica_batch,
                   limits=limits)


def _make_cache(args: argparse.Namespace):
    """``(ok, cache)``; complains on stderr when the path is unusable."""
    if not args.cache_dir:
        return True, None
    path = pathlib.Path(args.cache_dir)
    if path.exists() and not path.is_dir():
        print(f"--cache-dir {args.cache_dir!r} exists and is not a "
              "directory", file=sys.stderr)
        return False, None
    return True, ResultCache(path)


def _finish(outcomes, args: argparse.Namespace,
            show_manifest: bool) -> int:
    """Render/persist a run's outcomes; the exit code to return.

    Crash-failed jobs (``RunOutcome.error``) are already FAIL rows in
    the manifest, but automation reads exit codes: any failed job makes
    the whole invocation exit 1.
    """
    if show_manifest:
        print(RunManifest.from_outcomes(outcomes).render())
        print()
    if args.json_out:
        write_json_report(outcomes, args.json_out)
    failed = [o for o in outcomes if o.error is not None]
    if failed:
        print(f"{len(failed)} job(s) failed; see the manifest FAIL "
              "rows", file=sys.stderr)
        return 1
    return 0


def _print_catalogue(header: str, summaries: Dict[str, str]) -> None:
    print(f"{header}:")
    width = max((len(name) for name in summaries), default=0)
    for name, doc in summaries.items():
        line = f"  {name:<{width}}"
        print(f"{line}  {doc}" if doc else line)


def _cmd_list(_args: argparse.Namespace) -> int:
    _print_catalogue("experiments", experiment_summaries())
    _print_catalogue("schedulers", scheduler_summaries())
    _print_catalogue("scenarios", scenario_summaries())
    print("timing presets:")
    for name in sorted(TIMING_PRESETS):
        print(f"  {name}")
    return 0


def _check_scheduler(args: argparse.Namespace) -> bool:
    """Validate --scheduler against the registry before any job runs."""
    if args.scheduler and args.scheduler not in available_schedulers():
        print(f"unknown scheduler {args.scheduler!r}; "
              f"try: {', '.join(available_schedulers())}",
              file=sys.stderr)
        return False
    return True


def _check_scenario_specs(specs) -> bool:
    """Dry-run the derivation of every scenario-backed spec.

    A bad ``--set`` path (or any spec-level inconsistency) must fail
    here with a one-line stderr message, not traceback inside a worker
    process mid-plan.
    """
    for spec in specs:
        name = spec.scenario_name
        if name is None:
            continue
        try:
            configure(get_scenario(name), spec.to_config())
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return False
    return True


def _check_counts(args: argparse.Namespace) -> bool:
    """Validate count-type options; prints to stderr on error."""
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return False
    replicas = getattr(args, "replicas", 1)
    if replicas < 1:
        print(f"--replicas must be >= 1, got {replicas}", file=sys.stderr)
        return False
    shards = getattr(args, "shards", 1)
    shard_index = getattr(args, "shard_index", 0)
    if shards < 1:
        print(f"--shards must be >= 1, got {shards}", file=sys.stderr)
        return False
    if not 0 <= shard_index < shards:
        print(f"--shard-index must be in [0, {shards}), "
              f"got {shard_index}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    if not _check_counts(args) or not _check_scheduler(args):
        return 2
    experiment_ids = _resolve_experiments(args.experiment)
    if experiment_ids is None:
        return 2
    overrides = _parse_overrides(args.set or [])
    if overrides is None:
        return 2
    specs = [
        RunSpec(experiment_id=exp_id, quick=args.quick, seed=args.seed,
                scheduler=args.scheduler, overrides=overrides,
                measure_wallclock=args.wallclock).validate()
        for exp_id in experiment_ids
    ]
    if not _check_scenario_specs(specs):
        return 2
    # Stream reports in plan order as jobs settle: a full-size `run
    # all` prints each experiment as soon as it (and its predecessors)
    # finish, rather than staying silent until the slowest job ends.
    key_order = [spec.key() for spec in specs]
    settled: Dict[str, Any] = {}
    next_to_print = [0]

    def _print_ready(outcome) -> None:
        settled[outcome.spec.key()] = outcome
        while (next_to_print[0] < len(key_order)
               and key_order[next_to_print[0]] in settled):
            print(settled[key_order[next_to_print[0]]].report.render())
            print()
            next_to_print[0] += 1

    outcomes = _run_specs(args, specs, on_outcome=_print_ready)
    if outcomes is None:
        return 2
    return _finish(outcomes, args,
                   show_manifest=(len(specs) > 1 or args.jobs > 1
                                  or args.cache_dir is not None
                                  or args.server is not None))


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not _check_counts(args) or not _check_scheduler(args):
        return 2
    experiment_ids = _resolve_experiments(args.experiment)
    if experiment_ids is None:
        return 2
    grid = _parse_grid(args.set or [])
    if grid is None:
        return 2
    specs = plan_runs(
        experiment_ids,
        quick=args.quick,
        scheduler=args.scheduler,
        base_seed=args.base_seed,
        replicas=args.replicas,
        grid=grid,
    )
    if args.shards > 1:
        specs = shard(specs, args.shards, args.shard_index)
    if not specs:
        print("empty plan (shard with no jobs?)", file=sys.stderr)
        return 0
    if not _check_scenario_specs(specs):
        return 2
    outcomes = _run_specs(args, specs)
    if outcomes is None:
        return 2
    merged = merge_outcomes(
        outcomes, title=f"sweep over {', '.join(experiment_ids)}")
    print(merged.render())
    print()
    return _finish(outcomes, args,
                   show_manifest=False)  # render() included it


def _cmd_scenario_list(_args: argparse.Namespace) -> int:
    _print_catalogue("scenarios", scenario_summaries())
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    from repro.experiments.base import ExperimentConfig

    overrides = _parse_overrides(args.set or [])
    if overrides is None:
        return 2
    try:
        scenario = configure(
            get_scenario(args.name),
            ExperimentConfig(quick=args.quick, seed=args.seed,
                             scheduler=args.scheduler,
                             overrides=overrides))
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(scenario.to_json(indent=1))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    if not _check_counts(args) or not _check_scheduler(args):
        return 2
    overrides = _parse_overrides(args.set or [])
    if overrides is None:
        return 2
    try:
        specs = [
            RunSpec(experiment_id=f"{SCENARIO_PREFIX}{name}",
                    quick=args.quick, seed=args.seed,
                    scheduler=args.scheduler,
                    overrides=overrides).validate()
            for name in args.name
        ]
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not _check_scenario_specs(specs):
        return 2
    outcomes = _run_specs(args, specs)
    if outcomes is None:
        return 2
    for outcome in outcomes:
        print(outcome.report.render())
        print()
    return _finish(outcomes, args,
                   show_manifest=(len(specs) > 1 or args.jobs > 1
                                  or args.cache_dir is not None
                                  or args.server is not None))


@contextlib.contextmanager
def _signal_handlers(handler, *signums: int):
    """Install ``handler`` for ``signums``; put the old ones back on exit.

    A command run in-process through :func:`main` (tests, embedding
    programs) must leave the caller's handlers as it found them.  Off
    the main thread ``signal.signal`` raises and nothing is installed.
    """
    previous = {}
    for signum in signums:
        with contextlib.suppress(ValueError, OSError):
            previous[signum] = signal.signal(signum, handler)
    try:
        yield
    finally:
        for signum, old in previous.items():
            # None: the old handler was not installed from Python and
            # cannot be reinstated from here.
            if old is not None:
                signal.signal(signum, old)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ReproDaemon
    from repro.service.protocol import parse_address

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        parse_address(args.socket)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.lease_timeout <= 0:
        print(f"--lease-timeout must be > 0, got {args.lease_timeout}",
              file=sys.stderr)
        return 2
    ok, limits = _make_limits(args)
    if not ok:
        return 2
    if args.standby or args.follow:
        return _serve_standby(args, limits)
    try:
        daemon = ReproDaemon(
            args.socket,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            replica_batch=args.replica_batch,
            lease_timeout_s=args.lease_timeout,
            local_execution=not args.no_local,
            resume=args.resume,
            limits=limits,
            max_queue=args.max_queue,
            busy_retry_s=args.busy_retry,
            min_free_mb=args.min_free_mb,
            quiet=args.quiet,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return daemon.run()


def _serve_standby(args: argparse.Namespace, limits) -> int:
    """The ``repro serve --standby --follow ADDR`` path."""
    from repro.service import RetryPolicy
    from repro.service.protocol import parse_address
    from repro.service.standby import StandbyError, StandbyHub

    if not args.follow:
        print("--standby needs --follow ADDR (the primary to tail)",
              file=sys.stderr)
        return 2
    try:
        parse_address(args.follow)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        hub = StandbyHub(
            args.socket,
            args.follow,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            replica_batch=args.replica_batch,
            lease_timeout_s=args.lease_timeout,
            local_execution=not args.no_local,
            limits=limits,
            max_queue=args.max_queue,
            busy_retry_s=args.busy_retry,
            min_free_mb=args.min_free_mb,
            retry=RetryPolicy(max_attempts=max(0, args.retry_max),
                              base_delay_s=max(0.0, args.retry_base),
                              max_delay_s=2.0),
            quiet=args.quiet,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def _stand_down(signum, frame):  # noqa: ARG001
        hub.stop()

    with _signal_handlers(_stand_down, signal.SIGTERM, signal.SIGINT):
        try:
            return hub.run()
        except StandbyError as exc:
            print(f"--standby: {exc}", file=sys.stderr)
            return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service import RetryPolicy
    from repro.service.protocol import ProtocolError, parse_address_list
    from repro.service.worker import ReproWorker, WorkerError

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        parse_address_list(args.connect)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.heartbeat is not None and args.heartbeat <= 0:
        print(f"--heartbeat must be > 0 seconds, got {args.heartbeat}",
              file=sys.stderr)
        return 2
    ok, limits = _make_limits(args)
    if not ok:
        return 2
    worker = ReproWorker(
        args.connect,
        jobs=args.jobs,
        replica_batch=args.replica_batch,
        name=args.name,
        timeout=args.timeout,
        cache_dir=args.cache_dir or None,
        retry=RetryPolicy(max_attempts=max(0, args.retry_max),
                          base_delay_s=max(0.0, args.retry_base),
                          max_delay_s=5.0),
        limits=limits,
        heartbeat_s=args.heartbeat,
        quiet=args.quiet,
    )

    def _drain_on_sigterm(signum, frame):  # noqa: ARG001
        # stop() closes the socket (popping the serve loop out of its
        # blocking read and suppressing reconnects); the SystemExit
        # interrupts an in-process lease execution so the process is
        # gone within seconds, not at the end of a long batch.  The
        # daemon parks our leases for reconnect, then reassigns them
        # at the lease timeout.
        worker.stop()
        raise SystemExit(128 + signum)

    with _signal_handlers(_drain_on_sigterm, signal.SIGTERM):
        try:
            return worker.run()
        except (WorkerError, ProtocolError, OSError) as exc:
            # Mirrors the client failure contract: an unreachable or
            # incompatible daemon — or one whose registration reply is
            # garbled (ProtocolError) — is one line on stderr and exit
            # code 2.
            print(f"--connect {args.connect}: {exc}", file=sys.stderr)
            return 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.service.chaos import ChaosConfig, ChaosProxy
    from repro.service.protocol import parse_address

    try:
        parse_address(args.upstream)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for flag, p in (("--p-disconnect", args.p_disconnect),
                    ("--p-truncate", args.p_truncate),
                    ("--p-delay", args.p_delay)):
        if not 0.0 <= p <= 1.0:
            print(f"{flag} must be in [0, 1], got {p}",
                  file=sys.stderr)
            return 2
    try:
        proxy = ChaosProxy(
            args.upstream,
            listen=args.listen,
            seed=args.seed,
            config=ChaosConfig(
                p_disconnect=args.p_disconnect,
                p_truncate=args.p_truncate,
                p_delay=args.p_delay,
                delay_s=args.delay,
                min_frames=args.min_frames,
            ),
            quiet=args.quiet,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    stop = threading.Event()
    with _signal_handlers(lambda *_: stop.set(), signal.SIGTERM,
                          signal.SIGINT):
        try:
            proxy.start()
        except OSError as exc:
            print(f"--listen {args.listen}: {exc}", file=sys.stderr)
            return 2
        print(f"chaos proxy on {proxy.bound_address} -> "
              f"{args.upstream} (seed={args.seed})", flush=True)
        # --duration: self-terminating runs for CI (no pid
        # bookkeeping); a signal still stops the proxy early either way.
        stop.wait(args.duration if args.duration else None)
        proxy.stop()
    counters = proxy.counters.snapshot()
    print(f"chaos proxy stopped: "
          f"{json.dumps(counters, sort_keys=True)}")
    if args.json_out:
        # Machine-readable fault tally for CI assertions ("did this
        # chaos run actually inject anything?").
        pathlib.Path(args.json_out).write_text(
            json.dumps({"seed": args.seed,
                        "upstream": args.upstream,
                        "counters": counters},
                       sort_keys=True, indent=1) + "\n",
            encoding="utf-8")
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    from repro.service.protocol import parse_address_list
    from repro.service.supervisor import Supervisor, SupervisorError

    try:
        candidates = parse_address_list(args.server)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    hub_argv = None
    if not args.attach:
        # Supervised hubs get --resume (they are expected to be
        # restarted) and --quiet off so crashes leave a trace.
        hub_argv = [sys.executable, "-m", "repro.cli", "serve",
                    "--socket", candidates[0],
                    "--jobs", str(args.hub_jobs)]
        if args.cache_dir:
            hub_argv += ["--cache-dir", args.cache_dir]

    def worker_argv(index: int) -> list:
        argv = [sys.executable, "-m", "repro.cli", "worker",
                "--connect", args.server,
                "--jobs", str(args.worker_jobs),
                "--name", f"sup-{os.getpid()}-{index}"]
        if args.worker_cache_dir:
            argv += ["--cache-dir",
                     f"{args.worker_cache_dir}-{index}"]
        return argv

    try:
        supervisor = Supervisor(
            hub_argv=hub_argv,
            worker_argv=worker_argv,
            probe_address=args.server,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            scale_up_depth=args.scale_up_depth,
            interval_s=args.interval,
            restart_budget=args.restart_budget,
            status_path=args.status_json or None,
            quiet=args.quiet,
        )
    except SupervisorError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def _wind_down(signum, frame):  # noqa: ARG001
        supervisor.request_stop()

    with _signal_handlers(_wind_down, signal.SIGTERM, signal.SIGINT):
        return supervisor.run()


def _cache_for_args(args: argparse.Namespace):
    """``(ok, cache)`` for the ``repro cache`` subcommands."""
    path = pathlib.Path(args.cache_dir)
    if path.exists() and not path.is_dir():
        print(f"--cache-dir {args.cache_dir!r} exists and is not a "
              "directory", file=sys.stderr)
        return False, None
    budget_mb = getattr(args, "budget_mb", None)
    budget = None if budget_mb is None else budget_mb * 1024 * 1024
    try:
        return True, ResultCache(path, budget_bytes=budget)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return False, None


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.runner.cache import free_disk_bytes

    ok, cache = _cache_for_args(args)
    if not ok:
        return 2
    entries = cache.index()
    total = sum(entry.size_bytes for entry in entries)
    payload = {
        "root": str(cache.root),
        "entries": len(entries),
        "total_bytes": total,
        "budget_bytes": cache.budget_bytes,
        "over_budget_bytes": (max(0, total - cache.budget_bytes)
                              if cache.budget_bytes is not None
                              else 0),
        "free_disk_bytes": free_disk_bytes(cache.root),
        "coldest_mtime": entries[0].mtime if entries else None,
        "warmest_mtime": entries[-1].mtime if entries else None,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=1))
        return 0
    for name in ("root", "entries", "total_bytes", "budget_bytes",
                 "over_budget_bytes", "free_disk_bytes"):
        print(f"  {name:<18} {payload[name]}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    ok, cache = _cache_for_args(args)
    if not ok:
        return 2
    valid, evicted = cache.verify()
    if args.json:
        print(json.dumps({"valid": valid, "evicted": evicted},
                         sort_keys=True))
    else:
        print(f"verified {valid + evicted} entr(ies): {valid} valid, "
              f"{evicted} corrupt (evicted)")
    return 1 if evicted else 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    ok, cache = _cache_for_args(args)
    if not ok:
        return 2
    target_mb = getattr(args, "target_mb", None)
    target = None if target_mb is None else target_mb * 1024 * 1024
    if target is None and cache.budget_bytes is None:
        print("cache gc needs a target: pass --target-mb or "
              "--budget-mb", file=sys.stderr)
        return 2
    try:
        evicted, freed = cache.gc(target_bytes=target)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    remaining = cache.total_bytes()
    if args.json:
        print(json.dumps({"evicted": evicted, "freed_bytes": freed,
                          "remaining_bytes": remaining},
                         sort_keys=True))
    else:
        print(f"evicted {evicted} cold entr(ies), freed {freed} bytes "
              f"({remaining} bytes remain)")
    return 0


def _with_service_client(args: argparse.Namespace, action):
    """Run ``action(client)`` against ``--server``; exit-code result.

    ``--server`` may be a comma-separated failover list; candidates
    are tried in order and the first reachable daemon answers.
    """
    from repro.service import ServiceClient, ServiceError
    from repro.service.protocol import parse_address_list

    try:
        candidates = parse_address_list(args.server)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    last_error: Exception = OSError("no address candidates")
    for address in candidates:
        try:
            with ServiceClient(address,
                               timeout=args.timeout) as client:
                return action(client)
        except (ServiceError, OSError) as exc:
            last_error = exc
    print(f"--server {args.server}: {last_error}", file=sys.stderr)
    return 2


_WORKER_COLUMNS = ("id", "name", "status", "address", "jobs", "leased",
                   "completed", "failed", "heartbeat_age_s")


def _print_worker_rows(workers) -> None:
    widths = {col: len(col) for col in _WORKER_COLUMNS}
    rows = []
    for worker in workers:
        row = {col: str(worker.get(col, "")) for col in _WORKER_COLUMNS}
        for col, text in row.items():
            widths[col] = max(widths[col], len(text))
        rows.append(row)
    header = "  ".join(col.ljust(widths[col])
                       for col in _WORKER_COLUMNS)
    print(f"  {header}")
    for row in rows:
        line = "  ".join(row[col].ljust(widths[col])
                         for col in _WORKER_COLUMNS)
        print(f"  {line}")


def _cmd_service_stats(args: argparse.Namespace) -> int:
    def action(client) -> int:
        stats = client.stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True, indent=1))
            return 0
        workers = stats.get("workers") or []
        for name in sorted(stats):
            if name not in ("type", "workers"):
                print(f"  {name:<18} {stats[name]}")
        print(f"  {'workers':<18} {len(workers)}")
        if workers:
            _print_worker_rows(workers)
        return 0

    return _with_service_client(args, action)


def _cmd_service_workers(args: argparse.Namespace) -> int:
    def action(client) -> int:
        workers = client.stats().get("workers") or []
        if args.json:
            print(json.dumps(workers, sort_keys=True, indent=1))
            return 0
        if not workers:
            print("no workers registered")
            return 0
        _print_worker_rows(workers)
        return 0

    return _with_service_client(args, action)


def _cmd_service_shutdown(args: argparse.Namespace) -> int:
    def action(client) -> int:
        client.shutdown(wait_bye=True)
        print("daemon drained and stopped")
        return 0

    return _with_service_client(args, action)


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes (CI/smoke)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1; results are "
                             "bit-identical at any value)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed report cache; reruns of "
                             "an unchanged spec are served from disk")
    parser.add_argument("--replica-batch", action="store_true",
                        help="fuse replica jobs that differ only in "
                             "seed through the vectorised replica-batch "
                             "kernel (byte-identical reports, one fused "
                             "execution per sweep point)")
    parser.add_argument("--scheduler", metavar="NAME",
                        help="override the framework scheduler where "
                             "the experiment supports one")
    parser.add_argument("--server", metavar="ADDR", default=None,
                        const=DEFAULT_SERVICE_SOCKET, nargs="?",
                        help="route jobs through a `repro serve` "
                             "daemon at ADDR (socket path or "
                             "host:port; bare --server uses "
                             f"{DEFAULT_SERVICE_SOCKET!r}); a "
                             "comma-separated list (primary,standby) "
                             "fails over between hubs on reconnect; "
                             "reports are byte-identical to local "
                             "execution")
    parser.add_argument("--retry-max", type=int, default=5, metavar="N",
                        help="with --server: reconnect attempts after "
                             "a lost connection, exponential backoff "
                             "with jitter (default 5; exit 2 only "
                             "after all are exhausted)")
    parser.add_argument("--retry-base", type=float, default=0.2,
                        metavar="S",
                        help="with --server: base backoff delay; "
                             "attempt i waits ~min(10, S*2^i) seconds "
                             "(default 0.2)")
    parser.add_argument("--json-out", metavar="PATH",
                        help="write manifest + all reports as JSON")
    _add_governance_options(parser)


def _add_governance_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="S", dest="job_timeout",
                        help="per-job wall-clock deadline in seconds; "
                             "a job past it becomes a typed TIMEOUT "
                             "FAIL row instead of hanging the sweep")
    parser.add_argument("--job-memory-mb", type=int, default=None,
                        metavar="MB", dest="job_memory_mb",
                        help="per-job address-space ceiling; a job "
                             "allocating past it becomes a typed OOM "
                             "FAIL row instead of taking the host down")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid EPS/OCS scheduling framework — paper "
                    "experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments, schedulers, presets"
                   ).set_defaults(func=_cmd_list)

    run = sub.add_parser(
        "run", help="run experiments (e1..e8 or all), optionally in "
                    "parallel and against a cache")
    run.add_argument("experiment", nargs="+",
                     help="experiment ids, or 'all'")
    _add_common_run_options(run)
    run.add_argument("--seed", type=int,
                     help="base seed (default: each experiment's "
                          "historical seeds)")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="experiment config override (repeatable)")
    run.add_argument("--wallclock", action="store_true",
                     help="include non-deterministic wall-clock series "
                          "(e7); such reports are not reproducible")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="expand a parameter sweep into independent jobs "
                      "and run them")
    sweep.add_argument("experiment", nargs="+",
                       help="experiment ids, or 'all'")
    _add_common_run_options(sweep)
    sweep.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="seed-derived repetitions per grid point")
    sweep.add_argument("--base-seed", type=int, metavar="S",
                       help="base for per-replica seed derivation")
    sweep.add_argument("--set", action="append", metavar="KEY=V1,V2",
                       help="grid axis: sweep KEY over the listed "
                            "values (repeatable)")
    sweep.add_argument("--shards", type=int, default=1, metavar="N",
                       help="split the plan into N deterministic shards")
    sweep.add_argument("--shard-index", type=int, default=0, metavar="I",
                       help="which shard to run (0-based)")
    sweep.set_defaults(func=_cmd_sweep)

    scenario = sub.add_parser(
        "scenario", help="declarative workload scenarios: list the "
                         "library, inspect a spec, run by name")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scenario_sub.add_parser(
        "list", help="named scenarios with one-line descriptions"
    ).set_defaults(func=_cmd_scenario_list)

    show = scenario_sub.add_parser(
        "show", help="print one scenario's canonical JSON (after "
                     "--set/--quick derivations)")
    show.add_argument("name", help=f"scenario name; one of: "
                                   f"{', '.join(available_scenarios())}")
    show.add_argument("--quick", action="store_true",
                      help="show the quickened (smoke-size) rendition")
    show.add_argument("--seed", type=int,
                      help="replace the scenario seed")
    show.add_argument("--scheduler", metavar="NAME",
                      help="swap the scheduler axis")
    show.add_argument("--set", action="append", metavar="PATH=VALUE",
                      help="dotted-path scenario override, e.g. "
                           "traffic.0.load=0.8 (repeatable)")
    show.set_defaults(func=_cmd_scenario_show)

    scenario_run = scenario_sub.add_parser(
        "run", help="run scenarios by name through the job runner "
                    "(parallel, cached, deterministic)")
    scenario_run.add_argument("name", nargs="+",
                              help="scenario names (see 'scenario "
                                   "list')")
    _add_common_run_options(scenario_run)
    scenario_run.add_argument("--seed", type=int,
                              help="replace the scenario seed")
    scenario_run.add_argument("--set", action="append",
                              metavar="PATH=VALUE",
                              help="dotted-path scenario override, "
                                   "e.g. n_ports=16 or traffic.0.load="
                                   "0.8 (repeatable)")
    scenario_run.set_defaults(func=_cmd_scenario_run)

    serve = sub.add_parser(
        "serve", help="run the always-on sweep daemon: owns the shared "
                      "result cache and warm worker pool, accepts jobs "
                      "over a local socket with cross-client dedup")
    serve.add_argument("--socket", metavar="ADDR",
                       default=DEFAULT_SERVICE_SOCKET,
                       help="listen address: unix-socket path or "
                            "host:port (default "
                            f"{DEFAULT_SERVICE_SOCKET!r})")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="warm worker processes serving the job "
                            "queue (default 1)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       default=".repro-cache",
                       help="shared content-addressed report cache "
                            "(default .repro-cache; '' disables)")
    serve.add_argument("--replica-batch", action="store_true",
                       help="fuse seed-only replica groups through the "
                            "vectorised replica-batch kernel")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       metavar="S",
                       help="expel a remote worker whose heartbeats "
                            "stop for S seconds and reassign its "
                            "leased jobs (default 30)")
    serve.add_argument("--no-local", action="store_true",
                       help="dispatch only to registered remote "
                            "workers; the daemon's own pool runs "
                            "nothing (jobs queue until a worker "
                            "connects)")
    serve.add_argument("--resume", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="replay the write-ahead journal under the "
                            "cache dir on startup, requeueing jobs a "
                            "previous daemon accepted but never "
                            "settled (default on; --no-resume starts "
                            "with a clean journal)")
    serve.add_argument("--max-queue", type=int, default=4096,
                       metavar="N",
                       help="admission-control watermark: refuse new "
                            "submissions (a busy frame with a retry "
                            "hint) once this many jobs are queued "
                            "(default 4096)")
    serve.add_argument("--busy-retry", type=float, default=1.0,
                       metavar="S",
                       help="retry_after_s hint sent with busy "
                            "refusals (default 1.0)")
    serve.add_argument("--min-free-mb", type=int, default=64,
                       metavar="MB",
                       help="refuse new work when the cache volume "
                            "has less free space than this — the "
                            "journal must never hit a full disk "
                            "(default 64)")
    serve.add_argument("--standby", action="store_true",
                       help="run as a warm spare: follow the primary "
                            "named by --follow, mirror its journal, "
                            "and promote to a serving hub (on "
                            "--socket) if the primary stays gone "
                            "through the re-dial policy")
    serve.add_argument("--follow", metavar="ADDR", default=None,
                       help="primary daemon to tail in --standby "
                            "mode; the standby's --cache-dir must be "
                            "its own (never the primary's)")
    serve.add_argument("--retry-max", type=int, default=3, metavar="N",
                       help="standby mode: re-dial attempts after "
                            "losing the primary before promoting "
                            "(default 3)")
    serve.add_argument("--retry-base", type=float, default=0.2,
                       metavar="S",
                       help="standby mode: base delay for re-dial "
                            "backoff (default 0.2; doubles per "
                            "attempt, jittered, capped at 2s)")
    _add_governance_options(serve)
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the per-event log lines on "
                            "stderr")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="run a remote worker node: register into a "
                       "`repro serve` daemon's pool and execute the "
                       "sweep jobs it leases out")
    worker.add_argument("--connect", metavar="ADDR",
                        default=DEFAULT_SERVICE_SOCKET,
                        help="daemon address: unix-socket path or "
                             "host:port, optionally a comma-separated "
                             "failover list (primary,standby) rotated "
                             "through on reconnect (default "
                             f"{DEFAULT_SERVICE_SOCKET!r})")
    worker.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel worker processes on this node "
                             "(default 1); the daemon leases batches "
                             "sized to this width")
    worker.add_argument("--replica-batch", action="store_true",
                        help="fuse seed-only replica groups in leased "
                             "batches through the vectorised "
                             "replica-batch kernel")
    worker.add_argument("--name", metavar="NAME", default=None,
                        help="worker name shown in `repro service "
                             "workers` (default host-pid)")
    worker.add_argument("--timeout", type=float, default=30.0,
                        metavar="S",
                        help="dial/handshake timeout in seconds "
                             "(default 30)")
    worker.add_argument("--cache-dir", metavar="DIR", default="",
                        help="local content-addressed report cache on "
                             "this node (default: none); the hub cache "
                             "is consulted over the wire regardless")
    worker.add_argument("--retry-max", type=int, default=8, metavar="N",
                        help="reconnect attempts after losing the "
                             "daemon before giving up (default 8)")
    worker.add_argument("--retry-base", type=float, default=0.25,
                        metavar="S",
                        help="base delay for reconnect backoff "
                             "(default 0.25; doubles per attempt, "
                             "jittered, capped at 5s)")
    worker.add_argument("--heartbeat", type=float, default=None,
                        metavar="S",
                        help="liveness heartbeat interval override; "
                             "validated at registration (must be at "
                             "most half the daemon's lease timeout); "
                             "default: the daemon picks a third of "
                             "its lease timeout")
    _add_governance_options(worker)
    worker.add_argument("--quiet", action="store_true",
                        help="suppress the per-event log lines on "
                             "stderr")
    worker.set_defaults(func=_cmd_worker)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injecting proxy between service "
                      "peers and a `repro serve` daemon: drops, "
                      "truncates and delays protocol frames on a "
                      "seeded schedule")
    chaos.add_argument("--listen", metavar="HOST:PORT",
                       default="127.0.0.1:0",
                       help="proxy listen address; port 0 picks a "
                            "free port (default 127.0.0.1:0)")
    chaos.add_argument("--upstream", metavar="ADDR", required=True,
                       help="daemon address to forward to: "
                            "unix-socket path or host:port")
    chaos.add_argument("--seed", type=int, default=0, metavar="N",
                       help="fault schedule seed; the same seed "
                            "replays the same schedule (default 0)")
    chaos.add_argument("--p-disconnect", type=float, default=0.0,
                       metavar="P",
                       help="per-frame probability of swallowing the "
                            "frame and killing the connection")
    chaos.add_argument("--p-truncate", type=float, default=0.0,
                       metavar="P",
                       help="per-frame probability of forwarding half "
                            "a frame, then killing the connection")
    chaos.add_argument("--p-delay", type=float, default=0.0,
                       metavar="P",
                       help="per-frame probability of delaying the "
                            "frame by up to --delay seconds")
    chaos.add_argument("--delay", type=float, default=0.05,
                       metavar="S",
                       help="max injected delay per delayed frame "
                            "(default 0.05)")
    chaos.add_argument("--min-frames", type=int, default=0,
                       metavar="N",
                       help="per-direction frames forwarded untouched "
                            "before faults start (2 keeps handshakes "
                            "clean; default 0)")
    chaos.add_argument("--duration", type=float, default=None,
                       metavar="S",
                       help="stop the proxy after S seconds instead "
                            "of waiting for a signal (CI drills need "
                            "no pid bookkeeping)")
    chaos.add_argument("--json-out", metavar="PATH",
                       help="on shutdown, write the fault counters "
                            "(drops, truncations, delays) as JSON")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress the per-connection log lines on "
                            "stderr")
    chaos.set_defaults(func=_cmd_chaos)

    supervise = sub.add_parser(
        "supervise", help="self-healing fleet supervision: launch and "
                          "health-probe a hub plus a worker fleet, "
                          "restart crashed or hung components under a "
                          "backoff budget, autoscale workers against "
                          "queue depth")
    supervise.add_argument("--server", metavar="ADDR",
                           default=DEFAULT_SERVICE_SOCKET,
                           help="hub address to launch and/or probe; "
                                "a comma-separated failover list "
                                "probes whichever hub answers "
                                f"(default {DEFAULT_SERVICE_SOCKET!r})")
    supervise.add_argument("--attach", action="store_true",
                           help="do not launch a hub; supervise only "
                                "the worker fleet against an "
                                "externally managed hub (or a "
                                "primary/standby pair)")
    supervise.add_argument("--hub-jobs", type=int, default=1,
                           metavar="N",
                           help="--jobs for the launched hub "
                                "(default 1)")
    supervise.add_argument("--cache-dir", metavar="DIR",
                           default=".repro-cache",
                           help="--cache-dir for the launched hub "
                                "(default .repro-cache)")
    supervise.add_argument("--worker-jobs", type=int, default=1,
                           metavar="N",
                           help="--jobs for each supervised worker "
                                "(default 1)")
    supervise.add_argument("--worker-cache-dir", metavar="DIR",
                           default="",
                           help="per-worker local cache prefix; "
                                "worker i gets DIR-i (default: no "
                                "local worker caches)")
    supervise.add_argument("--min-workers", type=int, default=1,
                           metavar="N",
                           help="never run fewer live workers "
                                "(default 1)")
    supervise.add_argument("--max-workers", type=int, default=4,
                           metavar="N",
                           help="never run more live workers "
                                "(default 4)")
    supervise.add_argument("--scale-up-depth", type=int, default=8,
                           metavar="N",
                           help="add one worker per tick while the "
                                "hub's queue depth is at least this "
                                "(default 8)")
    supervise.add_argument("--interval", type=float, default=2.0,
                           metavar="S",
                           help="control-loop tick interval "
                                "(default 2.0)")
    supervise.add_argument("--restart-budget", type=int,
                           default=5, metavar="N",
                           help="consecutive fast failures before a "
                                "component is quarantined instead of "
                                "restarted (default 5)")
    supervise.add_argument("--status-json", metavar="PATH", default="",
                           help="atomically rewrite PATH each tick "
                                "with machine-readable fleet state "
                                "(pids, restart counters, "
                                "quarantines)")
    supervise.add_argument("--quiet", action="store_true",
                           help="suppress the per-event log lines on "
                                "stderr")
    supervise.set_defaults(func=_cmd_supervise)

    cache_cmd = sub.add_parser(
        "cache", help="inspect and govern a result-cache directory: "
                      "size stats, integrity fsck, LRU garbage "
                      "collection")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    for name, func, doc in (
            ("stats", _cmd_cache_stats,
             "entry count, footprint, budget headroom and free disk"),
            ("verify", _cmd_cache_verify,
             "re-check every entry's payload digest and spec key, "
             "evicting corrupt ones (exit 1 if any were)"),
            ("gc", _cmd_cache_gc,
             "evict coldest entries until the cache fits the target "
             "size")):
        sub_cmd = cache_sub.add_parser(name, help=doc)
        sub_cmd.add_argument("--cache-dir", metavar="DIR",
                             default=".repro-cache",
                             help="cache root (default .repro-cache)")
        sub_cmd.add_argument("--budget-mb", type=int, default=None,
                             metavar="MB",
                             help="size budget; stats reports overage "
                                  "against it and gc uses it as the "
                                  "default target")
        sub_cmd.add_argument("--json", action="store_true",
                             help="machine-readable output")
        if name == "gc":
            sub_cmd.add_argument("--target-mb", type=int, default=None,
                                 metavar="MB",
                                 help="gc down to this size "
                                      "(defaults to --budget-mb)")
        sub_cmd.set_defaults(func=func)

    service = sub.add_parser(
        "service", help="talk to a running `repro serve` daemon")
    service_sub = service.add_subparsers(dest="service_command",
                                         required=True)
    for name, func, doc in (
            ("stats", _cmd_service_stats,
             "print the daemon's live counters and worker fleet"),
            ("workers", _cmd_service_workers,
             "list the registered remote workers"),
            ("shutdown", _cmd_service_shutdown,
             "gracefully drain and stop the daemon")):
        sub_cmd = service_sub.add_parser(name, help=doc)
        sub_cmd.add_argument("--server", metavar="ADDR",
                             default=DEFAULT_SERVICE_SOCKET,
                             help="daemon address (default "
                                  f"{DEFAULT_SERVICE_SOCKET!r})")
        sub_cmd.add_argument("--timeout", type=float, default=60.0,
                             metavar="S",
                             help="socket timeout in seconds")
        if name in ("stats", "workers"):
            sub_cmd.add_argument("--json", action="store_true",
                                 help="machine-readable output")
        sub_cmd.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
