"""Tests for the persistent warm-worker pool (``repro.runner.pool``).

Covers the load-bearing properties: ordered streaming over chunked
dispatch, worker reuse across calls (the "warm" in warm pool), ordinary
exceptions propagating at their item's position, results larger than a
pipe buffer, and crash isolation — a job that kills its worker is
retried once in isolation, surfaced with its index, and never hangs
the run or costs an earlier job its result.  Workers also leave with a
parent that is killed, and a lone crashing job at ``--jobs N`` fails
its own row instead of the process that ran it.

All job callables are module-level: tasks travel through queues and
must pickle.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import ResourceLimits, RunSpec, execute
from repro.runner.manifest import RunManifest
from repro.runner.pool import (
    WorkerCrashError,
    get_pool,
    shutdown_pools,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _square(value):
    return value * value


def _boom_on_seven(value):
    if value == 7:
        raise ValueError("seven is right out")
    return value


def _exit_on_three(value):
    if value == 3:
        os._exit(13)  # hard crash: no exception, no result
    return value + 100


def _big_payload(value):
    return bytes([value % 251]) * (512 * 1024)


def _sized_or_crash(item):
    index, size, crash = item
    if crash == "exit":
        os._exit(13)
    if crash == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return index, bytes(size)


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


def _wait_for_file(path, proc, timeout=60.0):
    """Wait for ``path`` to appear while ``proc`` keeps running."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        assert proc.poll() is None, f"exited with {proc.returncode}"
        assert time.monotonic() < deadline, f"no {path} in {timeout}s"
        time.sleep(0.05)


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang of this (main) thread into a test failure."""
    def expired(signum, frame):
        raise AssertionError(f"no verdict within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fresh_pools():
    """Isolate pool state: fresh workers before, teardown after.

    Teardown matters for the tests that fork workers with patched
    module state — later tests must not inherit them.
    """
    shutdown_pools(force=True)
    yield
    shutdown_pools(force=True)


class TestWarmPool:
    def test_ordered_results_across_chunks(self, fresh_pools):
        pool = get_pool(3)
        items = list(range(53))
        assert list(pool.imap(_square, items)) \
            == [x * x for x in items]

    def test_workers_are_reused_across_calls(self, fresh_pools):
        pool = get_pool(2)
        pids_before = [w.process.pid for w in pool._workers]
        list(pool.imap(_square, range(10)))
        list(pool.imap(_square, range(10)))
        assert get_pool(2) is pool
        assert [w.process.pid for w in pool._workers] == pids_before
        assert all(w.process.is_alive() for w in pool._workers)

    def test_exception_raises_at_position_after_prior_yields(
            self, fresh_pools):
        pool = get_pool(2)
        seen = []
        with pytest.raises(ValueError, match="seven"):
            for value in pool.imap(_boom_on_seven, [1, 5, 7, 9],
                                   chunk_size=1):
                seen.append(value)
        assert seen == [1, 5]
        # The pool survives an exception and keeps serving.
        assert list(pool.imap(_square, [2, 3])) == [4, 9]

    def test_large_results_cross_the_pipe(self, fresh_pools):
        # 512 KiB per result: several times a pipe buffer.
        pool = get_pool(2)
        results = list(pool.imap(_big_payload, [1, 2, 3]))
        assert results == [_big_payload(v) for v in [1, 2, 3]]

    def test_crash_isolated_to_item_with_index(self, fresh_pools):
        pool = get_pool(2)
        seen = []
        with pytest.raises(WorkerCrashError) as info:
            for value in pool.imap(_exit_on_three, [0, 1, 2, 3, 4, 5]):
                seen.append(value)
        assert info.value.item_index == 3
        assert seen == [100, 101, 102]
        # Replacement workers serve subsequent calls.
        assert list(pool.imap(_square, [4])) == [16]

    def test_empty_items(self, fresh_pools):
        assert list(get_pool(2).imap(_square, [])) == []

    def test_pool_replaced_after_shutdown(self, fresh_pools):
        pool = get_pool(2)
        pool.shutdown(force=True)
        replacement = get_pool(2)
        assert replacement is not pool
        assert list(replacement.imap(_square, [3])) == [9]


class TestExecutorCrashHandling:
    def test_crashed_job_fails_visibly_and_rest_complete(
            self, fresh_pools, monkeypatch):
        # Poison one experiment entry point so its worker dies; forked
        # workers inherit the patched table.
        import repro.experiments as experiments

        def _poisoned(config):
            os._exit(13)

        monkeypatch.setitem(experiments.ENTRY_POINTS, "e7", _poisoned)
        good = RunSpec("e2", quick=True,
                       overrides={"port_counts": [16]})
        bad = RunSpec("e7", quick=True)
        outcomes = execute([good, bad, good], jobs=2)
        assert outcomes[0].error is None
        assert outcomes[2].error is None
        assert outcomes[1].error is not None
        assert bad.key() in outcomes[1].error
        manifest = RunManifest.from_outcomes(outcomes)
        assert manifest.n_failed == 1
        rendered = manifest.render()
        assert "FAIL" in rendered
        assert bad.key() in rendered

    def test_replica_batch_crash_fails_group_and_continues(
            self, fresh_pools, monkeypatch):
        import repro.experiments as experiments

        def _poisoned_batch(configs):
            os._exit(13)

        monkeypatch.setitem(experiments.BATCH_ENTRY_POINTS, "e5",
                            _poisoned_batch)
        replicas = [RunSpec("e5", quick=True, seed=s,
                            overrides={"loads": [0.5], "slots": 60,
                                       "warmup": 10, "n_ports": 4})
                    for s in (1, 2)]
        good = RunSpec("e7", quick=True,
                       overrides={"port_counts": [8]})
        outcomes = execute(replicas + [good], jobs=2,
                           replica_batch=True)
        assert outcomes[0].error is not None
        assert outcomes[1].error is not None
        assert outcomes[2].error is None
        manifest = RunManifest.from_outcomes(outcomes)
        assert manifest.n_failed == 2

    def test_cli_exits_nonzero_on_failed_jobs(self, fresh_pools,
                                              monkeypatch, capsys):
        import repro.experiments as experiments
        from repro.cli import main

        def _poisoned(config):
            os._exit(13)

        monkeypatch.setitem(experiments.ENTRY_POINTS, "e7", _poisoned)
        code = main(["run", "e7", "e2", "--quick", "--jobs", "2",
                     "--set", "port_counts=[16]"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        assert "job(s) failed" in captured.err


#: One warm worker runs job 0, which returns ``size`` bytes, then job
#: 1, which kills the worker.  Job 0's result must survive the crash
#: and the crash must be blamed on job 1 alone.
_RESULT_THEN_CRASH = textwrap.dedent("""
    import json, os, signal, sys, time
    from repro.runner.pool import WarmWorkerPool, WorkerCrashError

    size, how = int(sys.argv[1]), sys.argv[2]

    def job(item):
        if item == 1:
            if how == "exit":
                os._exit(13)
            os.kill(os.getpid(), signal.SIGKILL)
        return bytes(size)

    pool = WarmWorkerPool(2)
    seen, index = [], None
    started = time.monotonic()
    try:
        for value in pool.imap(job, [0, 1], chunk_size=1, limit=1):
            seen.append(len(value))
    except WorkerCrashError as exc:
        index = exc.item_index
    print(json.dumps({"seen": seen, "index": index,
                      "elapsed_s": time.monotonic() - started}))
    pool.shutdown(force=True)
""")


class TestCrashIsolation:
    @pytest.mark.parametrize("how", ["exit", "kill"])
    @pytest.mark.parametrize("size", [200 * 1024, 1024 * 1024],
                             ids=["200KiB", "1MiB"])
    def test_result_before_a_crash_survives_it(self, size, how):
        # In a child with its own deadline: a lost result can also
        # hang the parent, and a hang must fail, not stall the suite.
        proc = subprocess.run(
            [sys.executable, "-c", _RESULT_THEN_CRASH, str(size), how],
            env=_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)
        assert verdict["seen"] == [size]
        assert verdict["index"] == 1
        # A death wakes the parent at once; no poll interval is paid.
        assert verdict["elapsed_s"] < 0.4

    def test_yields_everything_before_the_first_crash(self, fresh_pools):
        job = st.tuples(st.sampled_from([0, 1024, 200 * 1024]),
                        st.sampled_from([None, None, None, "exit",
                                         "kill"]))

        @settings(max_examples=30, deadline=None)
        @given(jobs=st.lists(job, min_size=1, max_size=10),
               limit=st.integers(1, 3),
               chunk_size=st.one_of(st.none(), st.integers(1, 4)))
        def check(jobs, limit, chunk_size):
            items = [(index, size, crash)
                     for index, (size, crash) in enumerate(jobs)]
            crashes = [index for index, __, crash in items if crash]
            first = crashes[0] if crashes else len(items)
            seen = []
            # One pool across examples: each stream also starts with
            # the leftovers of the one before it.
            stream = get_pool(3).imap(_sized_or_crash, items,
                                      chunk_size=chunk_size, limit=limit)
            with _deadline(20):
                if crashes:
                    with pytest.raises(WorkerCrashError) as info:
                        for value in stream:
                            seen.append(value)
                    assert info.value.item_index == first
                else:
                    seen = list(stream)
            assert seen == [(index, bytes(size))
                            for index, size, __ in items[:first]]

        check()

    def test_queued_chunk_is_timed_from_its_start(self, fresh_pools):
        # One worker; the watchdog allows 2.0 × 1.0 + 1.0 = 3.0 s per
        # one-item chunk.  The second job waits 1.7 s behind the first
        # and then runs for 1.7 s: healthy, not hung.
        limits = ResourceLimits(timeout_s=2.0, grace=1.0)
        assert list(get_pool(1).imap(_nap, [1.7, 1.7], chunk_size=1,
                                     limits=limits)) == [1.7, 1.7]


#: A pool whose workers include one respawned after a crash; the pids
#: land in ``argv[1]`` and the parent then waits to be killed.
_POOL_THEN_WAIT = textwrap.dedent("""
    import os, sys, time
    from repro.runner.pool import WarmWorkerPool, WorkerCrashError

    def job(item):
        if item:
            os._exit(13)
        return item

    pool = WarmWorkerPool(2)
    try:
        list(pool.imap(job, [0, 1], chunk_size=1))
    except WorkerCrashError:
        pass
    with open(sys.argv[1] + ".tmp", "w") as handle:
        handle.write(" ".join(str(w.process.pid) for w in pool._workers))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(300)
""")


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestParentDeath:
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="needs /proc/<pid>/stat")
    def test_workers_exit_with_their_parent(self, tmp_path):
        pid_file = tmp_path / "pids"
        parent = subprocess.Popen(
            [sys.executable, "-c", _POOL_THEN_WAIT, str(pid_file)],
            env=_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        pids = []
        try:
            _wait_for_file(pid_file, parent)
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 2 and all(map(_running, pids))
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_running, pids)) \
                    and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            parent.kill()
            parent.wait(timeout=10)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestLoneCrashingJob:
    """A lone job at ``--jobs N`` runs on the pool, not inline: its
    crash is one failed row, not the death of the process."""

    def _repro(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args], env=_env(),
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120)

    def test_run_fails_one_row(self):
        proc = self._repro("run", "probe", "--set", "behavior=crash",
                           "--jobs", "2")
        assert proc.returncode == 1, proc.stderr
        assert "1 FAILED" in proc.stdout
        assert "CRASH" in proc.stdout

    def test_hub_keeps_serving(self, tmp_path):
        with open(tmp_path / "hub.log", "wb") as log, \
                tempfile.TemporaryDirectory(dir="/tmp") as sock_dir:
            sock = f"{sock_dir}/hub.sock"
            hub = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket",
                 sock, "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--quiet"],
                env=_env(), stdin=subprocess.DEVNULL, stdout=log,
                stderr=log)
            try:
                _wait_for_file(sock, hub)
                crashed = self._repro("run", "probe", "--set",
                                      "behavior=crash", "--server", sock)
                assert crashed.returncode == 1, crashed.stderr
                assert "CRASH" in crashed.stdout
                assert hub.poll() is None, "the hub died with the job"
                healthy = self._repro("run", "probe", "--server", sock)
                assert healthy.returncode == 0, healthy.stderr
            finally:
                hub.terminate()
                hub.wait(timeout=30)
