"""Resource governance and self-healing execution, end to end.

The claims under test (the README's reliability matrix rows):

* a job past its wall-clock deadline becomes a typed TIMEOUT row,
  even when it blocks SIGALRM (the supervisor watchdog path);
* a job allocating past its memory ceiling becomes a typed OOM row;
* healthy jobs sharing the sweep are byte-identical to an ungoverned
  run — governance punishes one job, never the batch;
* the taxonomy survives the manifest JSON round-trip and drives the
  sweep exit code;
* the result cache enforces its budget (LRU index, gc, fsck);
* the daemon quarantines specs that fail the same way twice (durably,
  across restarts), sheds load past its queue watermark with a busy
  frame clients back off on, and refuses work on a nearly-full disk.

The probe entry point (``repro.experiments.probe``) exists for these
tests: a diagnostic job whose failure mode is chosen by override.
"""

import collections
import json
import os
import shutil
import threading
import time

import pytest

from repro import experiments
from repro.experiments.base import ExperimentReport
from repro.runner import (
    FAIL_ERROR,
    FAIL_OOM,
    FAIL_QUARANTINED,
    FAIL_TIMEOUT,
    GovernedFailure,
    ResourceLimits,
    ResultCache,
    RunSpec,
    execute,
    get_pool,
    shutdown_pools,
)
from repro.runner.cache import report_to_payload
from repro.runner.executor import RunOutcome
from repro.runner.manifest import RunManifest
from repro.service import (
    ReproDaemon,
    RetryPolicy,
    ServiceBusy,
    ServiceClient,
    ServiceError,
    execute_via_server,
)
from repro.service.journal import JOURNAL_NAME, replay_full


def probe_spec(behavior="ok", seed=0, **overrides):
    overrides = dict(overrides)
    if behavior != "ok":
        overrides["behavior"] = behavior
    return RunSpec("probe", quick=True, seed=seed,
                   overrides=overrides).validate()


def _sleep_forever(_item):
    time.sleep(300)
    return None


@pytest.fixture
def fresh_pools():
    shutdown_pools(force=True)
    yield
    shutdown_pools(force=True)


class TestResourceLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceLimits(timeout_s=0)
        with pytest.raises(ValueError):
            ResourceLimits(memory_mb=-1)
        with pytest.raises(ValueError):
            ResourceLimits(timeout_s=1.0, grace=0.5)
        assert not ResourceLimits().enabled
        assert ResourceLimits(timeout_s=1.0).enabled
        assert ResourceLimits(memory_mb=64).memory_bytes \
            == 64 * 1024 * 1024

    def test_payload_round_trip(self):
        limits = ResourceLimits(timeout_s=2.5, memory_mb=128,
                                grace=2.0)
        assert ResourceLimits.from_payload(limits.to_payload()) \
            == limits
        assert ResourceLimits.from_payload(None) is None


class TestGovernedExecution:
    def test_timeout_becomes_typed_row(self, fresh_pools):
        (outcome,) = execute([probe_spec("hang")],
                             limits=ResourceLimits(timeout_s=0.5))
        assert outcome.kind == FAIL_TIMEOUT
        assert "deadline" in outcome.error

    def test_oom_becomes_typed_row(self, fresh_pools):
        (outcome,) = execute([probe_spec("alloc")],
                             limits=ResourceLimits(memory_mb=256))
        assert outcome.kind == FAIL_OOM
        assert "memory" in outcome.error

    def test_healthy_jobs_are_byte_identical(self, fresh_pools):
        baseline = execute([probe_spec("ok")])
        shutdown_pools(force=True)
        governed = execute(
            [probe_spec("ok"), probe_spec("hang"),
             probe_spec("alloc")],
            jobs=2,
            limits=ResourceLimits(timeout_s=0.5, memory_mb=256))
        by_key = {o.spec.key(): o for o in governed}
        ok = by_key[probe_spec("ok").key()]
        assert ok.error is None and ok.kind is None
        assert report_to_payload(ok.report) \
            == report_to_payload(baseline[0].report)
        kinds = {o.kind for o in governed if o.error}
        assert kinds == {FAIL_TIMEOUT, FAIL_OOM}

    @pytest.mark.parametrize("worker", ["fresh", "warm"])
    def test_watchdog_kills_signal_blocking_job(self, fresh_pools,
                                                worker):
        # hang-hard blocks SIGALRM, so the in-worker alarm can never
        # fire; only the supervisor-side watchdog can reclaim it.  A
        # warm worker (one that already returned a result) must have
        # no second thread for the alarm to land on instead.
        limits = ResourceLimits(timeout_s=0.5)
        if worker == "warm":
            (warmup,) = execute([probe_spec("ok")], limits=limits)
            assert warmup.error is None
        started = time.monotonic()
        (outcome,) = execute([probe_spec("hang-hard")], limits=limits)
        elapsed = time.monotonic() - started
        assert outcome.kind == FAIL_TIMEOUT
        assert "watchdog" in outcome.error
        assert elapsed < 20.0

    def test_governed_failure_is_a_value(self):
        failure = GovernedFailure(kind=FAIL_TIMEOUT, message="late")
        assert failure.kind == FAIL_TIMEOUT


class TestTaxonomyRoundTrip:
    def test_manifest_json_round_trip(self, fresh_pools):
        outcomes = execute(
            [probe_spec("ok"), probe_spec("hang"),
             probe_spec("alloc")],
            limits=ResourceLimits(timeout_s=0.5, memory_mb=256))
        manifest = RunManifest.from_outcomes(outcomes)
        rendered = manifest.render()
        assert "TIMEOUT" in rendered and "OOM" in rendered
        rebuilt = RunManifest.from_payload(
            json.loads(json.dumps(manifest.to_payload())))
        assert [e.kind for e in rebuilt.entries] \
            == [e.kind for e in manifest.entries]
        assert rebuilt.n_failed == 2

    def test_quarantined_kind_round_trips(self):
        report = ExperimentReport(experiment_id="probe",
                                  title="quarantined")
        outcome = RunOutcome(probe_spec("raise"), report,
                             cached=False, elapsed_s=0.0,
                             error="poison", kind=FAIL_QUARANTINED)
        manifest = RunManifest.from_outcomes([outcome])
        rebuilt = RunManifest.from_payload(manifest.to_payload())
        assert rebuilt.entries[0].kind == FAIL_QUARANTINED
        assert "QUARANTINED" in manifest.render()

    def test_crash_kind_round_trips(self, fresh_pools):
        # jobs=2 runs the batch on the pool (ungoverned jobs=1 runs
        # in-process, where a crash is fatal).
        outcomes = execute([probe_spec("ok"), probe_spec("crash")],
                           jobs=2)
        crashed = outcomes[1]
        assert crashed.error is not None
        assert crashed.kind is not None  # CRASH from the pool
        rebuilt = RunManifest.from_payload(
            RunManifest.from_outcomes(outcomes).to_payload())
        assert rebuilt.entries[1].kind == crashed.kind

    def test_sweep_exit_code_and_json_out(self, fresh_pools,
                                          tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main(["sweep", "probe", "--quick",
                     "--job-timeout", "0.5",
                     "--set", "behavior=ok,hang",
                     "--json-out", str(out)])
        assert code == 1  # a typed failure still fails the invocation
        payload = json.loads(out.read_text())
        manifest = RunManifest.from_payload(payload["manifest"])
        kinds = [e.kind for e in manifest.entries]
        assert kinds.count(FAIL_TIMEOUT) == 1
        assert kinds.count(None) == 1
        capsys.readouterr()


class TestCacheGovernance:
    def _fill(self, tmp_path, n=4):
        cache = ResultCache(tmp_path / "cache")
        specs = [probe_spec("ok", seed=seed) for seed in range(n)]
        paths = []
        for position, spec in enumerate(specs):
            report = ExperimentReport(
                experiment_id="probe", title=f"r{position}",
                data={"seed": spec.seed})
            path = cache.store(spec, report)
            # Deterministic, well-separated LRU ages.
            age = (position + 1) * 100
            os.utime(path, (age, age))
            paths.append(path)
        return cache, specs, paths

    def test_index_is_coldest_first(self, tmp_path):
        cache, _, paths = self._fill(tmp_path)
        assert [e.path for e in cache.index()] == paths

    def test_hit_rewarms_entry(self, tmp_path):
        cache, specs, paths = self._fill(tmp_path)
        assert cache.load(specs[0]) is not None
        # The hit bumped entry 0's mtime past the others.
        assert cache.index()[-1].path == paths[0]

    def test_gc_evicts_cold_keeps_warm(self, tmp_path):
        cache, specs, paths = self._fill(tmp_path)
        sizes = [e.size_bytes for e in cache.index()]
        target = sum(sizes[2:])  # room for exactly the 2 warmest
        evicted, freed = cache.gc(target_bytes=target)
        assert evicted == 2 and freed == sum(sizes[:2])
        assert {e.path for e in cache.index()} == set(paths[2:])
        # The survivors are digest-valid warm entries, all served.
        for spec in specs[2:]:
            assert cache.load(spec) is not None

    def test_gc_under_target_is_a_noop(self, tmp_path):
        cache, _, _ = self._fill(tmp_path)
        assert cache.gc(target_bytes=cache.total_bytes()) == (0, 0)

    def test_gc_requires_a_target(self, tmp_path):
        cache, _, _ = self._fill(tmp_path)
        with pytest.raises(ValueError):
            cache.gc()

    def test_budget_accounting(self, tmp_path):
        cache, _, _ = self._fill(tmp_path)
        total = cache.total_bytes()
        budgeted = ResultCache(cache.root, budget_bytes=total - 1)
        assert budgeted.over_budget() == 1
        budgeted.gc()
        assert budgeted.over_budget() == 0

    def test_verify_evicts_corruption(self, tmp_path):
        cache, specs, paths = self._fill(tmp_path)
        # Bit-flip one payload and copy another into a wrong slot.
        corrupt = paths[0]
        corrupt.write_text(
            corrupt.read_text().replace('"r0"', '"rX"'))
        misplaced = paths[1].with_name("0" * 24 + ".json")
        misplaced.write_text(paths[1].read_text())
        valid, evicted = cache.verify()
        assert valid == 3 and evicted == 2
        assert not corrupt.exists() and not misplaced.exists()

    def test_cache_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache, _, _ = self._fill(tmp_path)
        root = str(cache.root)
        assert main(["cache", "stats", "--cache-dir", root,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        assert stats["total_bytes"] == cache.total_bytes()
        assert main(["cache", "verify", "--cache-dir", root,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) \
            == {"valid": 4, "evicted": 0}
        assert main(["cache", "gc", "--cache-dir", root,
                     "--target-mb", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["evicted"] == 4
        assert main(["cache", "gc", "--cache-dir", root]) == 2
        capsys.readouterr()


@pytest.fixture
def start_daemon(tmp_path):
    """Factory: a live daemon thread on an ephemeral TCP port."""
    running = []

    def start(**kwargs):
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        kwargs.setdefault("quiet", True)
        daemon = ReproDaemon("127.0.0.1:0", **kwargs)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.wait_ready(10), "daemon never bound"
        running.append((daemon, thread))
        return daemon

    yield start
    for daemon, thread in running:
        daemon.request_shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive(), "daemon failed to drain"


@pytest.fixture
def failing_experiment(monkeypatch):
    """A gated entry point that raises until told otherwise
    (in-process, so the jobs=1 daemon shares its state)."""

    class Failing:
        def __init__(self):
            self.calls = collections.Counter()
            self.healthy = False
            self.gate = threading.Event()
            self.gate.set()
            self.entered = threading.Event()

        def __call__(self, config):
            self.calls[config.seed] += 1
            self.entered.set()
            assert self.gate.wait(timeout=30), "test forgot the gate"
            if not self.healthy:
                raise RuntimeError("kaboom")
            return ExperimentReport(experiment_id="epoison",
                                    title="recovered",
                                    data={"seed": config.seed})

        def spec(self, seed=0):
            return RunSpec("epoison", seed=seed)

    fake = Failing()
    monkeypatch.setitem(experiments.ENTRY_POINTS, "epoison", fake)
    return fake


def _outcome(address, spec):
    with ServiceClient(address) as client:
        for _, outcome in client.submit_stream([spec]):
            return outcome


class TestQuarantine:
    def test_same_failure_twice_quarantines(self, start_daemon,
                                            failing_experiment):
        daemon = start_daemon()
        spec = failing_experiment.spec()
        first = _outcome(daemon.bound_address, spec)
        assert first.error and first.kind == FAIL_ERROR
        second = _outcome(daemon.bound_address, spec)
        assert second.error and second.kind == FAIL_ERROR
        # A third submission never reaches the entry point.
        third = _outcome(daemon.bound_address, spec)
        assert third.kind == FAIL_QUARANTINED
        assert "quarantined" in third.error
        assert failing_experiment.calls[0] == 2
        with ServiceClient(daemon.bound_address) as client:
            stats = client.stats()
        assert stats["quarantined"] == 1
        assert stats["quarantine_hits"] == 1
        assert stats["quarantined_keys"] == 1

    def test_quarantine_survives_restart(self, start_daemon,
                                         failing_experiment,
                                         tmp_path):
        cache_dir = tmp_path / "cache"
        daemon = start_daemon(cache_dir=str(cache_dir))
        spec = failing_experiment.spec()
        for _ in range(2):
            _outcome(daemon.bound_address, spec)
        # The quarantine record is fsync'd at quarantine time, before
        # any drain: a crashed daemon's journal already carries it.
        live, quarantined = replay_full(cache_dir / JOURNAL_NAME)
        assert spec.key() in quarantined
        # Simulate the crash: a fresh daemon resuming from a copy of
        # the journal as it stands right now (a *clean* drain is
        # campaign-scoped and would wipe the quarantine on purpose).
        crashed = tmp_path / "crashed-cache"
        shutil.copytree(cache_dir, crashed)
        reborn = start_daemon(cache_dir=str(crashed))
        verdict = _outcome(reborn.bound_address, spec)
        assert verdict.kind == FAIL_QUARANTINED
        assert failing_experiment.calls[0] == 2  # never re-ran

    def test_success_clears_failure_history(self, start_daemon,
                                            failing_experiment):
        daemon = start_daemon(cache_dir="")
        spec = failing_experiment.spec()
        assert _outcome(daemon.bound_address, spec).error
        failing_experiment.healthy = True
        assert _outcome(daemon.bound_address, spec).error is None
        failing_experiment.healthy = False
        # The counter reset: one more failure is strike one, not two.
        assert _outcome(daemon.bound_address, spec).kind \
            == FAIL_ERROR


class TestRaisingJobFailsOnlyItsRow:
    """An entry-point exception fails its own row and nothing else:
    its healthy batch-mates run, and only the raising spec is ever
    quarantined."""

    @pytest.mark.parametrize("setup", ["local-jobs-1", "local-jobs-2",
                                       "one-worker"])
    def test_hub_batch_mates_run_and_stay_clear(self, setup, tmp_path,
                                                start_daemon,
                                                fresh_pools):
        from repro.service import ReproWorker

        if setup == "one-worker":
            daemon = start_daemon(local_execution=False)
            # Width 2: both specs share one lease, as they share one
            # local batch in the other two setups.
            worker = ReproWorker(daemon.bound_address, jobs=2,
                                 quiet=True)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            assert worker.wait_registered(10)
        else:
            worker = None
            daemon = start_daemon(jobs=int(setup[-1]))
        specs = [probe_spec("raise"), probe_spec("ok")]
        try:
            runs = [execute_via_server(daemon.bound_address, specs)
                    for _ in range(3)]
        finally:
            if worker is not None:
                worker.stop()
                thread.join(timeout=15)
        assert [bad.kind for bad, _ in runs] == \
            [FAIL_ERROR, FAIL_ERROR, FAIL_QUARANTINED]
        assert "probe raised on request" in runs[0][0].error
        assert [ok.error for _, ok in runs] == [None, None, None]
        assert [ok.cached for _, ok in runs] == [False, True, True]
        with ServiceClient(daemon.bound_address) as client:
            assert client.stats()["quarantined_keys"] == 1

    def test_cli_sweep_without_hub(self, fresh_pools, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main(["sweep", "probe", "--quick",
                     "--set", "behavior=raise,ok",
                     "--json-out", str(out)])
        assert code == 1
        manifest = RunManifest.from_payload(
            json.loads(out.read_text())["manifest"])
        assert [e.kind for e in manifest.entries] == [FAIL_ERROR, None]
        assert "Traceback" not in capsys.readouterr().err


class TestAdmissionControl:
    def test_busy_frame_past_watermark(self, start_daemon,
                                       failing_experiment):
        daemon = start_daemon(max_queue=1, busy_retry_s=0.25)
        failing_experiment.healthy = True
        failing_experiment.gate.clear()
        try:
            with ServiceClient(daemon.bound_address) as holder:
                holder.submit([failing_experiment.spec(seed=0)])
                assert failing_experiment.entered.wait(10)
                # An in-flight resubmit coalesces — never refused.
                with ServiceClient(daemon.bound_address) as twin:
                    twin.submit([failing_experiment.spec(seed=0)])
                # A genuinely new key exceeds max_queue=1.
                with ServiceClient(daemon.bound_address) as extra:
                    with pytest.raises(ServiceBusy) as excinfo:
                        extra.submit(
                            [failing_experiment.spec(seed=9)])
                assert excinfo.value.retry_after_s == 0.25
        finally:
            failing_experiment.gate.set()
        with ServiceClient(daemon.bound_address) as client:
            assert client.stats()["busy_rejections"] == 1

    def test_execute_via_server_backs_off_then_errors(
            self, start_daemon, failing_experiment):
        daemon = start_daemon(max_queue=1, busy_retry_s=0.05)
        failing_experiment.healthy = True
        failing_experiment.gate.clear()
        try:
            with ServiceClient(daemon.bound_address) as holder:
                holder.submit([failing_experiment.spec(seed=0)])
                assert failing_experiment.entered.wait(10)
                policy = RetryPolicy(max_attempts=2,
                                     base_delay_s=0.01,
                                     max_delay_s=0.1, jitter=0.0)
                started = time.monotonic()
                with pytest.raises(ServiceError,
                                   match="stayed busy"):
                    execute_via_server(
                        daemon.bound_address,
                        [failing_experiment.spec(seed=7)],
                        retry=policy)
                # It backed off between attempts: two sleeps of at
                # least the daemon's retry_after_s hint each.
                assert time.monotonic() - started >= 0.1
        finally:
            failing_experiment.gate.set()

    def test_disk_full_refusal(self, start_daemon,
                               failing_experiment):
        daemon = start_daemon(min_free_mb=10 ** 9)
        failing_experiment.healthy = True
        with ServiceClient(daemon.bound_address) as client:
            with pytest.raises(ServiceError, match="cache-full"):
                client.submit([failing_experiment.spec()])
            assert client.stats()["disk_refusals"] == 1

    def test_stats_surface_governance_config(self, start_daemon):
        daemon = start_daemon(
            limits=ResourceLimits(timeout_s=30.0), max_queue=7,
            min_free_mb=0)
        with ServiceClient(daemon.bound_address) as client:
            stats = client.stats()
        assert stats["max_queue"] == 7
        assert stats["governed"] is True
        assert stats["quarantined_keys"] == 0


class TestGovernedViaServer:
    def test_typed_rows_cross_the_wire(self, start_daemon,
                                       fresh_pools):
        # A governed daemon: hang and alloc probes settle as typed
        # rows, the healthy probe's report is byte-identical to a
        # local ungoverned run.
        daemon = start_daemon(
            limits=ResourceLimits(timeout_s=0.5, memory_mb=256))
        specs = [probe_spec("ok"), probe_spec("hang"),
                 probe_spec("alloc")]
        outcomes = execute_via_server(daemon.bound_address, specs)
        by_behavior = dict(zip(["ok", "hang", "alloc"], outcomes))
        assert by_behavior["hang"].kind == FAIL_TIMEOUT
        assert by_behavior["alloc"].kind == FAIL_OOM
        shutdown_pools(force=True)
        baseline = execute([probe_spec("ok")])
        assert report_to_payload(by_behavior["ok"].report) \
            == report_to_payload(baseline[0].report)


class TestBoundedShutdown:
    def test_shutdown_with_hung_worker_is_bounded(self, fresh_pools):
        pool = get_pool(2)
        raised = []

        def consume():
            try:
                list(pool.imap(_sleep_forever, [0, 1], chunk_size=1))
            except RuntimeError as exc:
                raised.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(w.inflight for w in pool._workers):  # dispatched
                break
            time.sleep(0.02)
        started = time.monotonic()
        pool.shutdown(force=True)
        assert time.monotonic() - started < 12.0
        # The live stream ends, and the closed pool respawns nothing.
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert [str(exc) for exc in raised] == ["pool is shut down"]
        assert all(not w.process.is_alive() for w in pool._workers)
