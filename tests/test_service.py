"""Tests for the sweep service: framing, daemon, client, dedup.

The daemon under test runs in a background thread inside this process
(``jobs=1``, so execution happens in the daemon's worker thread too).
That keeps every test hermetic *and* lets a monkeypatched entry point
(``esvc``) gate execution on threading events, which is what makes
the concurrency-sensitive assertions — in-flight dedup, reconnect
resume, cancellation, backpressure — deterministic instead of racy.
"""

import collections
import json
import os
import pathlib
import random
import signal
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import experiments
from repro.experiments.base import ExperimentReport
from repro.runner import JobRunner, ResultCache, RunSpec, execute
from repro.runner.cache import report_to_payload
from repro.service import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ReproDaemon,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceJournal,
    execute_via_server,
    journal_path,
    parse_address,
)
from repro.service.journal import replay
from repro.service import client as client_module
from repro.service import worker as worker_module
from repro.service.protocol import (
    connect,
    decode_payload,
    encode_frame,
    error_frame,
    hello_frame,
    read_frame,
    register_frame,
    write_frame,
)
from repro.service.worker import ReproWorker, WorkerError


class TestFraming:
    def test_round_trip(self):
        message = {"type": "stats", "nested": {"a": [1, 2, {"b": None}]}}
        frame = encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == message

    def test_payload_must_be_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_payload(b"[1, 2, 3]")
        assert excinfo.value.code == "bad-message"

    def test_payload_must_be_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_payload(b"\xff\x00 not json")
        assert excinfo.value.code == "bad-json"

    def test_payload_needs_string_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_payload(b'{"no_type": 1}')
        assert excinfo.value.code == "bad-message"

    def test_parse_address_forms(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix",
                                                  "relative.sock")
        assert parse_address("unix:whatever") == ("unix", "whatever")
        assert parse_address("127.0.0.1:9000") == \
            ("tcp", ("127.0.0.1", 9000))
        with pytest.raises(ValueError):
            parse_address("no-port-no-path")
        with pytest.raises(ValueError):
            parse_address("host:notaport")


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
def fake_experiment(monkeypatch):
    """A gated in-process entry point registered as ``esvc``.

    ``gate`` starts open; tests close it to hold executions in
    flight, and ``entered`` signals that a job reached the entry
    point.  ``calls`` counts executions per seed, which is how the
    dedup/resume tests assert "exactly once".
    """

    class Fake:
        def __init__(self):
            self.calls = collections.Counter()
            self.lock = threading.Lock()
            self.gate = threading.Event()
            self.gate.set()
            self.entered = threading.Event()

        def __call__(self, config):
            with self.lock:
                self.calls[config.seed] += 1
            self.entered.set()
            assert self.gate.wait(timeout=30), "test forgot the gate"
            return ExperimentReport(
                experiment_id="esvc", title="service test",
                data={"seed": config.seed},
                expectations=[f"seed {config.seed} ok"])

        def spec(self, seed=0):
            return RunSpec("esvc", seed=seed)

    fake = Fake()
    monkeypatch.setitem(experiments.ENTRY_POINTS, "esvc", fake)
    return fake


def _handshake(address, timeout=10.0):
    sock = connect(address, timeout=timeout)
    write_frame(sock, hello_frame())
    reply = read_frame(sock)
    assert reply["type"] == "welcome"
    return sock


class TestHandshake:
    def test_hello_welcome(self, start_daemon):
        daemon = start_daemon()
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "stats"})
        stats = read_frame(sock)
        assert stats["type"] == "stats"
        assert stats["version"] == PROTOCOL_VERSION
        assert stats["sessions"] == 1
        sock.close()

    def test_version_mismatch_rejected(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        write_frame(sock, {"type": "hello", "version": 999})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "version-mismatch"
        sock.close()

    def test_frame_before_hello_rejected(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        write_frame(sock, {"type": "stats"})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-handshake"
        sock.close()

    def test_client_class_raises_on_mismatch(self, start_daemon,
                                             monkeypatch):
        daemon = start_daemon()
        monkeypatch.setattr("repro.service.client.hello_frame",
                            lambda: {"type": "hello", "version": -1})
        with pytest.raises(ServiceError, match="version-mismatch"):
            ServiceClient(daemon.bound_address, timeout=10.0).connect()


class TestHostileFrames:
    """Framing abuse must never take the daemon down."""

    def _daemon_survives(self, daemon):
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "stats"})
        assert read_frame(sock)["type"] == "stats"
        sock.close()

    def test_oversized_frame(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "frame-too-large"
        # ... and the connection is closed after a framing violation.
        assert read_frame(sock) is None
        sock.close()
        self._daemon_survives(daemon)

    def test_zero_length_frame(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        sock.sendall(struct.pack(">I", 0))
        reply = read_frame(sock)
        sock.close()
        assert reply["code"] == "bad-frame"
        self._daemon_survives(daemon)

    def test_malformed_json_frame(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        garbage = b"\x00{]this is not json"
        sock.sendall(struct.pack(">I", len(garbage)) + garbage)
        reply = read_frame(sock)
        sock.close()
        assert reply["type"] == "error"
        assert reply["code"] == "bad-json"
        self._daemon_survives(daemon)

    def test_truncated_frame_then_disconnect(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        sock.sendall(struct.pack(">I", 100) + b"only a few bytes")
        sock.close()
        self._daemon_survives(daemon)

    def test_unknown_frame_type_keeps_connection(self, start_daemon):
        daemon = start_daemon()
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "frobnicate"})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "unknown-type"
        write_frame(sock, {"type": "stats"})
        assert read_frame(sock)["type"] == "stats"
        sock.close()


class TestSubmitValidation:
    def test_unknown_experiment_rejected(self, start_daemon):
        daemon = start_daemon()
        sock = _handshake(daemon.bound_address)
        bogus = RunSpec("e1").canonical()
        bogus["experiment_id"] = "not-an-experiment"
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": [bogus]})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-spec"
        sock.close()

    def test_submit_needs_specs(self, start_daemon):
        daemon = start_daemon()
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": []})
        assert read_frame(sock)["code"] == "bad-submit"
        sock.close()

    def test_submit_cap(self, start_daemon, fake_experiment):
        daemon = start_daemon(max_submit=2)
        sock = _handshake(daemon.bound_address)
        specs = [fake_experiment.spec(seed).canonical()
                 for seed in range(3)]
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": specs})
        assert read_frame(sock)["code"] == "submit-too-large"
        sock.close()

    def test_duplicate_submit_id(self, start_daemon, fake_experiment):
        fake_experiment.gate.clear()  # keep s1 live
        daemon = start_daemon()
        sock = _handshake(daemon.bound_address)
        payload = [fake_experiment.spec(0).canonical()]
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": payload})
        assert read_frame(sock)["type"] == "accepted"
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": payload})
        assert read_frame(sock)["code"] == "duplicate-submit"
        fake_experiment.gate.set()
        sock.close()


class TestExecution:
    def test_submit_roundtrip_and_cache(self, start_daemon,
                                        fake_experiment):
        daemon = start_daemon()
        specs = [fake_experiment.spec(seed) for seed in range(3)]
        outcomes = execute_via_server(daemon.bound_address, specs)
        assert [o.spec for o in outcomes] == specs
        assert all(o.error is None and not o.cached for o in outcomes)
        assert [o.report.data["seed"] for o in outcomes] == [0, 1, 2]
        # Resubmission is served from the shared cache: zero re-runs.
        again = execute_via_server(daemon.bound_address, specs)
        assert all(o.cached for o in again)
        assert sum(fake_experiment.calls.values()) == 3
        assert [report_to_payload(o.report) for o in outcomes] == \
            [report_to_payload(o.report) for o in again]

    def test_streaming_on_outcome(self, start_daemon, fake_experiment):
        daemon = start_daemon()
        seen = []
        execute_via_server(daemon.bound_address,
                           [fake_experiment.spec(7)],
                           on_outcome=seen.append)
        assert len(seen) == 1 and seen[0].report.data["seed"] == 7

    def test_concurrent_clients_one_execution(self, start_daemon,
                                              fake_experiment):
        daemon = start_daemon()
        fake_experiment.gate.clear()
        spec = fake_experiment.spec(seed=42)
        client_a = ServiceClient(daemon.bound_address,
                                 timeout=30.0).connect()
        client_b = ServiceClient(daemon.bound_address,
                                 timeout=30.0).connect()
        try:
            id_a = client_a.submit([spec])
            # The job is now *in flight* (the entry point has been
            # entered and is blocked on the gate)...
            assert fake_experiment.entered.wait(10)
            # ... so a second client's identical submission must
            # coalesce onto it, not queue a second execution.
            id_b = client_b.submit([spec])
            fake_experiment.gate.set()
            frame_a = client_a._read()
            frame_b = client_b._read()
            assert frame_a["type"] == frame_b["type"] == "result"
            assert frame_a["submit_id"] == id_a
            assert frame_b["submit_id"] == id_b
            assert frame_a["report"] == frame_b["report"]
            assert frame_a["coalesced"] and frame_b["coalesced"]
        finally:
            client_a.close()
            client_b.close()
        assert fake_experiment.calls[42] == 1
        with ServiceClient(daemon.bound_address, timeout=10.0) as c:
            stats = c.stats()
        assert stats["executed"] == 1
        assert stats["coalesced"] == 1
        assert stats["results_streamed"] == 2

    def test_reconnect_resumes_via_cache(self, start_daemon,
                                         fake_experiment):
        daemon = start_daemon()
        specs = [fake_experiment.spec(seed) for seed in range(4)]
        # First client: submit the sweep, read one result, vanish.
        client = ServiceClient(daemon.bound_address,
                               timeout=30.0).connect()
        stream = client.submit_stream(specs)
        next(stream)
        client.close()  # dropped mid-sweep
        # Second attempt resubmits everything; whatever already ran
        # (all of it — the batch had started) comes from the cache.
        outcomes = execute_via_server(daemon.bound_address, specs)
        assert [o.report.data["seed"] for o in outcomes] == [0, 1, 2, 3]
        assert all(o.error is None for o in outcomes)
        # The resume property: nothing ever executed twice.
        assert sum(fake_experiment.calls.values()) == 4
        assert all(count == 1
                   for count in fake_experiment.calls.values())

    def test_cancel_detaches_submission(self, start_daemon,
                                        fake_experiment):
        daemon = start_daemon()
        fake_experiment.gate.clear()
        spec = fake_experiment.spec(seed=9)
        client = ServiceClient(daemon.bound_address,
                               timeout=30.0).connect()
        try:
            submit_id = client.submit([spec])
            assert fake_experiment.entered.wait(10)
            assert client.cancel(submit_id) == 1
            fake_experiment.gate.set()
            # No result frame may arrive for the cancelled submit:
            # the next reply on this ordered connection is the stats
            # answer, not a stale result.
            stats = client.stats()
            assert stats["type"] == "stats"
        finally:
            fake_experiment.gate.set()
            client.close()

    def test_job_exception_fails_visibly_daemon_survives(
            self, start_daemon, monkeypatch):
        def explode(config):
            raise RuntimeError("boom from the entry point")

        monkeypatch.setitem(experiments.ENTRY_POINTS, "esvc", explode)
        daemon = start_daemon()
        outcomes = execute_via_server(daemon.bound_address,
                                      [RunSpec("esvc")])
        assert outcomes[0].error is not None
        assert "boom" in outcomes[0].error
        # The daemon must outlive a poisonous job.
        with ServiceClient(daemon.bound_address, timeout=10.0) as c:
            assert c.stats()["failed"] == 1


class TestBackpressure:
    def test_reader_pauses_over_watermark(self, start_daemon,
                                          fake_experiment):
        daemon = start_daemon(high_watermark=2, low_watermark=1)
        fake_experiment.gate.clear()
        sock = _handshake(daemon.bound_address)
        specs = [fake_experiment.spec(seed).canonical()
                 for seed in range(4)]
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": specs})
        assert read_frame(sock)["type"] == "accepted"
        # 4 outstanding > high watermark 2: the daemon stops reading
        # this connection, so a stats request goes unanswered...
        write_frame(sock, {"type": "stats"})
        sock.settimeout(0.8)
        with pytest.raises(socket.timeout):
            sock.recv(1)
        # ... until results drain the session below the low mark.
        fake_experiment.gate.set()
        sock.settimeout(30.0)
        kinds = collections.Counter(
            read_frame(sock)["type"] for _ in range(6))
        assert kinds == {"result": 4, "done": 1, "stats": 1}
        sock.close()


class TestShutdown:
    def test_graceful_drain_streams_inflight_results(
            self, start_daemon, fake_experiment):
        daemon = start_daemon()
        fake_experiment.gate.clear()
        client = ServiceClient(daemon.bound_address,
                               timeout=30.0).connect()
        client.submit([fake_experiment.spec(seed=5)])
        assert fake_experiment.entered.wait(10)
        # Ask for shutdown while the job is mid-execution; the drain
        # must finish it, stream the result, then say bye.
        daemon.request_shutdown()
        fake_experiment.gate.set()
        frames = []
        while True:
            frame = read_frame(client._sock)
            if frame is None:
                break
            frames.append(frame["type"])
            if frame["type"] == "bye":
                break
        assert frames == ["result", "done", "bye"]
        client.close()

    def test_draining_daemon_rejects_new_submits(self, start_daemon,
                                                 fake_experiment):
        daemon = start_daemon()
        fake_experiment.gate.clear()
        client = ServiceClient(daemon.bound_address,
                               timeout=30.0).connect()
        client.submit([fake_experiment.spec(seed=1)])
        assert fake_experiment.entered.wait(10)
        daemon.request_shutdown()
        with pytest.raises(ServiceError, match="draining"):
            client.submit([fake_experiment.spec(seed=2)])
        fake_experiment.gate.set()
        client.close()

    def test_shutdown_frame(self, start_daemon):
        daemon = start_daemon()
        with ServiceClient(daemon.bound_address, timeout=30.0) as c:
            c.shutdown(wait_bye=True)
        assert daemon.wait_ready(0.01) is False  # no longer listening


class TestByteIdentity:
    """The acceptance property: --server output == local output."""

    def test_real_experiment_identical_reports(self, start_daemon,
                                               tmp_path):
        daemon = start_daemon(cache_dir=str(tmp_path / "svc-cache"))
        specs = [RunSpec("e4", quick=True)]
        via_server = execute_via_server(daemon.bound_address, specs)
        local = execute(specs, jobs=1)
        assert report_to_payload(via_server[0].report) == \
            report_to_payload(local[0].report)

    def test_unix_socket_transport(self, start_daemon, tmp_path,
                                   fake_experiment):
        # Everything else runs over TCP; prove the unix path works
        # end to end too (it is the CLI default).
        import tempfile

        with tempfile.TemporaryDirectory(dir="/tmp") as short_dir:
            path = f"{short_dir}/svc.sock"
            daemon = ReproDaemon(path, jobs=1, quiet=True,
                                 cache_dir=str(tmp_path / "c"))
            thread = threading.Thread(target=daemon.run, daemon=True)
            thread.start()
            try:
                assert daemon.wait_ready(10)
                outcomes = execute_via_server(
                    path, [fake_experiment.spec(3)])
                assert outcomes[0].report.data["seed"] == 3
            finally:
                daemon.request_shutdown()
                thread.join(timeout=15)
            assert not thread.is_alive()


class TestJobRunnerSeam:
    def test_runner_serves_successive_batches(self, tmp_path):
        cache = ResultCache(tmp_path / "jr-cache")
        runner = JobRunner(jobs=1, cache=cache)
        first = runner.run([RunSpec("e4", quick=True)])
        second = runner.run([RunSpec("e4", quick=True)])
        assert not first[0].cached and second[0].cached
        assert report_to_payload(first[0].report) == \
            report_to_payload(second[0].report)

    def test_runner_validates_jobs(self):
        with pytest.raises(ValueError):
            JobRunner(jobs=0)

    def test_runner_serialises_concurrent_callers(self,
                                                  fake_experiment):
        runner = JobRunner(jobs=1)
        results = []
        threads = [
            threading.Thread(target=lambda seed=seed: results.append(
                runner.run([fake_experiment.spec(seed)])))
            for seed in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 3
        assert sum(fake_experiment.calls.values()) == 3


class _WorkerHandle:
    """A ReproWorker on a thread, with its exit code captured."""

    def __init__(self, worker: ReproWorker):
        self.worker = worker
        self.exit_codes = []
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_codes.append(self.worker.run())

    def kill(self):
        """Abrupt death: the socket just closes mid-conversation,
        exactly what the daemon sees from a SIGKILLed process."""
        self.worker.stop()


@pytest.fixture
def start_worker():
    """Factory: a live in-process worker thread dialed at an address
    (in-process so it shares monkeypatched entry points)."""
    running = []

    def start(address, **kwargs):
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("quiet", True)
        handle = _WorkerHandle(ReproWorker(address, **kwargs))
        handle.thread.start()
        assert handle.worker.wait_registered(10), \
            "worker never registered"
        running.append(handle)
        return handle

    yield start
    for handle in running:
        handle.worker.stop()
        handle.thread.join(timeout=15)
        assert not handle.thread.is_alive(), "worker failed to stop"


def _wait_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestWorkerFleet:
    def test_register_and_stats_rows(self, start_daemon,
                                     start_worker):
        daemon = start_daemon()
        start_worker(daemon.bound_address, jobs=2, name="nodeA")
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "stats"})
        stats = read_frame(sock)
        assert stats["workers_registered"] == 1
        (row,) = stats["workers"]
        assert row["name"] == "nodeA"
        assert row["jobs"] == 2
        assert row["leased"] == 0
        assert row["completed"] == 0
        assert row["heartbeat_age_s"] >= 0.0
        assert row["address"]
        sock.close()

    def test_remote_only_execution(self, start_daemon, start_worker,
                                   fake_experiment):
        daemon = start_daemon(local_execution=False)
        start_worker(daemon.bound_address)
        specs = [fake_experiment.spec(seed) for seed in range(4)]
        outcomes = execute_via_server(daemon.bound_address, specs)
        assert [o.report.data["seed"] for o in outcomes] == [0, 1, 2, 3]
        assert all(o.error is None and not o.cached for o in outcomes)
        assert daemon.stats.remote_executed == 4
        assert daemon.stats.executed == 4
        assert sum(fake_experiment.calls.values()) == 4

    def test_remote_byte_identity_real_experiment(
            self, start_daemon, start_worker, tmp_path):
        # The acceptance property with the fleet in the path: a spec
        # executed on a remote worker produces the byte-identical
        # canonical report payload of local execute().
        daemon = start_daemon(local_execution=False,
                              cache_dir=str(tmp_path / "fleet"))
        start_worker(daemon.bound_address)
        specs = [RunSpec("e4", quick=True)]
        via_fleet = execute_via_server(daemon.bound_address, specs)
        local = execute(specs, jobs=1)
        assert report_to_payload(via_fleet[0].report) == \
            report_to_payload(local[0].report)
        assert daemon.stats.remote_executed == 1
        # ... and the upload landed in the daemon's shared cache.
        again = execute_via_server(daemon.bound_address, specs)
        assert again[0].cached

    def test_worker_death_mid_lease_reassigned(
            self, start_daemon, start_worker, fake_experiment):
        fake_experiment.gate.clear()
        # A short lease timeout: the flap-parking grace must expire
        # before the daemon declares the worker gone and reassigns.
        daemon = start_daemon(local_execution=False,
                              lease_timeout_s=0.5)
        first = start_worker(daemon.bound_address)
        specs = [fake_experiment.spec(seed) for seed in range(2)]
        results = []
        client = threading.Thread(
            target=lambda: results.append(
                execute_via_server(daemon.bound_address, specs)),
            daemon=True)
        client.start()
        assert fake_experiment.entered.wait(10), \
            "first worker never started executing"
        first.kill()  # dies holding both leases, mid-execution
        _wait_until(lambda: daemon.stats.workers_lost == 1,
                    what="the daemon to notice the death")
        start_worker(daemon.bound_address)
        fake_experiment.gate.set()
        client.join(timeout=30)
        assert not client.is_alive(), "client never got its results"
        (outcomes,) = results
        # The client saw no gap: every spec has a clean result.
        assert [o.report.data["seed"] for o in outcomes] == [0, 1]
        assert all(o.error is None for o in outcomes)
        assert daemon.stats.leases_reassigned >= 1

    def test_partitioned_worker_reaped_by_lease_timeout(
            self, start_daemon, fake_experiment):
        # A worker that registers, absorbs leases, then goes silent
        # (no heartbeats, no uploads — the network-partition case).
        daemon = start_daemon(lease_timeout_s=0.5)
        sock = connect(daemon.bound_address, timeout=10.0)
        write_frame(sock, register_frame(jobs=8, replica_batch=False,
                                         name="zombie"))
        assert read_frame(sock)["type"] == "registered"
        # jobs=8 out-bids the daemon's own pool for leases, so the
        # zombie wins the specs... and sits on them.
        specs = [fake_experiment.spec(seed) for seed in range(2)]
        outcomes = execute_via_server(daemon.bound_address, specs)
        assert [o.report.data["seed"] for o in outcomes] == [0, 1]
        assert all(o.error is None for o in outcomes)
        assert daemon.stats.workers_lost == 1
        assert daemon.stats.leases_reassigned == 2
        assert sum(fake_experiment.calls.values()) == 2
        with ServiceClient(daemon.bound_address, timeout=10.0) as c:
            assert c.stats()["workers"] == []
        sock.close()

    def test_drain_sends_bye_to_workers(self, start_daemon,
                                        start_worker,
                                        fake_experiment):
        daemon = start_daemon(local_execution=False)
        handle = start_worker(daemon.bound_address)
        outcomes = execute_via_server(daemon.bound_address,
                                      [fake_experiment.spec(5)])
        assert outcomes[0].report.data["seed"] == 5
        daemon.request_shutdown()
        handle.thread.join(timeout=15)
        assert handle.exit_codes == [0]

    def test_register_while_draining_refused(self, start_daemon,
                                             fake_experiment):
        fake_experiment.gate.clear()
        daemon = start_daemon()
        results = []
        client = threading.Thread(
            target=lambda: results.append(execute_via_server(
                daemon.bound_address, [fake_experiment.spec(0)])),
            daemon=True)
        client.start()
        assert fake_experiment.entered.wait(10)
        daemon.request_shutdown()
        _wait_until(lambda: daemon.core.draining, what="the drain flag")
        worker = ReproWorker(daemon.bound_address, jobs=1, quiet=True,
                             timeout=10.0)
        with pytest.raises(WorkerError, match="draining"):
            worker.run()
        fake_experiment.gate.set()
        client.join(timeout=15)
        assert results and results[0][0].error is None

    def test_drain_fails_stranded_jobs_without_executor(
            self, start_daemon, fake_experiment):
        # --no-local with an empty fleet: queued jobs can never run,
        # and a draining daemon refuses new worker registrations —
        # the drain must fail the stranded jobs to their subscribers
        # instead of hanging the shutdown on an empty-queue wait.
        daemon = start_daemon(local_execution=False)
        results = []
        client = threading.Thread(
            target=lambda: results.append(execute_via_server(
                daemon.bound_address,
                [fake_experiment.spec(seed) for seed in range(2)])),
            daemon=True)
        client.start()
        _wait_until(lambda: daemon.stats.submitted == 2,
                    what="the submit to land")
        daemon.request_shutdown()
        client.join(timeout=15)
        assert not client.is_alive(), "client hung on stranded jobs"
        (outcomes,) = results
        assert len(outcomes) == 2
        assert all("no eligible executor" in o.error
                   for o in outcomes)
        assert daemon.stats.failed == 2
        assert sum(fake_experiment.calls.values()) == 0

    def test_drain_fails_leases_of_worker_lost_mid_drain(
            self, start_daemon, start_worker, fake_experiment):
        # Leases requeued off a worker that dies *during* the drain
        # have no executor left (--no-local, fleet now empty); the
        # drain fails them visibly instead of waiting forever.  The
        # short lease timeout bounds the flap-parking window the
        # drain honours before giving the worker up for gone.
        fake_experiment.gate.clear()
        daemon = start_daemon(local_execution=False,
                              lease_timeout_s=0.5)
        handle = start_worker(daemon.bound_address)
        results = []
        client = threading.Thread(
            target=lambda: results.append(execute_via_server(
                daemon.bound_address, [fake_experiment.spec(3)])),
            daemon=True)
        client.start()
        assert fake_experiment.entered.wait(10), \
            "the worker never started executing"
        daemon.request_shutdown()
        _wait_until(lambda: daemon.core.draining, what="the drain flag")
        handle.kill()  # dies holding its lease, mid-drain
        client.join(timeout=15)
        fake_experiment.gate.set()  # release the dead worker's runner
        assert not client.is_alive(), "client hung on the lost lease"
        (outcomes,) = results
        assert outcomes[0].error is not None
        assert "no eligible executor" in outcomes[0].error
        assert daemon.stats.workers_lost == 1
        assert daemon.stats.leases_reassigned == 1

    def test_cancel_wakes_scheduler_to_drop_orphans(
            self, start_daemon, fake_experiment):
        # A queued job whose last subscriber cancels must be dropped
        # on a prompt dispatch pass, not whenever unrelated traffic
        # happens to wake the scheduler (during a drain that wait
        # could be indefinite).
        daemon = start_daemon(local_execution=False)
        spec = fake_experiment.spec(seed=11)
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "submit", "submit_id": "s1",
                           "specs": [spec.canonical()]})
        assert read_frame(sock)["type"] == "accepted"
        write_frame(sock, {"type": "cancel", "submit_id": "s1"})
        assert read_frame(sock)["type"] == "cancelled"
        _wait_until(lambda: daemon.stats.dropped == 1,
                    what="the orphaned job to be dropped")
        assert sum(fake_experiment.calls.values()) == 0
        sock.close()


class TestHostileWorkers:
    """Fleet abuse fails only the abuser's leases, never the daemon
    and never the submitting client."""

    def _daemon_alive(self, daemon):
        sock = _handshake(daemon.bound_address)
        write_frame(sock, {"type": "stats"})
        assert read_frame(sock)["type"] == "stats"
        sock.close()

    def _register_hostile(self, daemon, jobs=8):
        """A raw socket registered as a worker wide enough to out-bid
        the daemon's local pool for every lease."""
        sock = connect(daemon.bound_address, timeout=10.0)
        write_frame(sock, register_frame(jobs=jobs,
                                         replica_batch=False,
                                         name="hostile"))
        reply = read_frame(sock)
        assert reply["type"] == "registered"
        return sock

    def _submit_in_background(self, daemon, spec):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(execute_via_server(
                daemon.bound_address, [spec])),
            daemon=True)
        thread.start()
        return thread, results

    def test_register_version_mismatch_names_both(self,
                                                  start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        frame = register_frame(jobs=1, replica_batch=False,
                               name="old-node")
        frame["version"] = 999
        write_frame(sock, frame)
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "version-mismatch"
        assert "999" in reply["message"]
        assert str(PROTOCOL_VERSION) in reply["message"]
        sock.close()
        self._daemon_alive(daemon)

    def test_register_bad_jobs_rejected(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10.0)
        frame = register_frame(jobs=1, replica_batch=False, name="x")
        frame["jobs"] = "lots"
        write_frame(sock, frame)
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-register"
        sock.close()
        self._daemon_alive(daemon)

    def test_malformed_upload_expels_and_reassigns(
            self, start_daemon, fake_experiment):
        daemon = start_daemon()
        sock = self._register_hostile(daemon)
        thread, results = self._submit_in_background(
            daemon, fake_experiment.spec(0))
        lease = read_frame(sock)
        assert lease["type"] == "lease"
        key = RunSpec.from_canonical(lease["specs"][0]).key()
        write_frame(sock, {"type": "upload",
                           "lease_id": lease["lease_id"],
                           "key": key, "elapsed_s": 0.0,
                           "error": None,
                           "report": "not an object"})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-upload"
        # The spec re-ran on the local pool; the client never knew.
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results[0][0].error is None
        assert results[0][0].report.data["seed"] == 0
        assert daemon.stats.workers_lost == 1
        assert daemon.stats.leases_reassigned >= 1
        sock.close()
        self._daemon_alive(daemon)

    def test_upload_for_unheld_key_expels(self, start_daemon,
                                          fake_experiment):
        daemon = start_daemon()
        sock = self._register_hostile(daemon)
        thread, results = self._submit_in_background(
            daemon, fake_experiment.spec(1))
        lease = read_frame(sock)
        assert lease["type"] == "lease"
        write_frame(sock, {"type": "upload",
                           "lease_id": lease["lease_id"],
                           "key": "never-leased-to-me",
                           "elapsed_s": 0.0, "error": None,
                           "report": {}})
        reply = read_frame(sock)
        assert reply["code"] == "bad-upload"
        thread.join(timeout=30)
        assert results[0][0].error is None
        sock.close()
        self._daemon_alive(daemon)

    def test_oversized_frame_from_worker(self, start_daemon,
                                         fake_experiment):
        daemon = start_daemon()
        sock = self._register_hostile(daemon)
        thread, results = self._submit_in_background(
            daemon, fake_experiment.spec(2))
        assert read_frame(sock)["type"] == "lease"
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        reply = read_frame(sock)
        assert reply["code"] == "frame-too-large"
        assert read_frame(sock) is None  # connection closed
        thread.join(timeout=30)
        assert results[0][0].error is None
        assert daemon.stats.leases_reassigned >= 1
        sock.close()
        self._daemon_alive(daemon)

    def test_truncated_frame_from_worker_mid_lease(
            self, start_daemon, fake_experiment):
        daemon = start_daemon()
        sock = self._register_hostile(daemon)
        thread, results = self._submit_in_background(
            daemon, fake_experiment.spec(3))
        assert read_frame(sock)["type"] == "lease"
        sock.sendall(struct.pack(">I", 100) + b"only a few bytes")
        sock.close()
        thread.join(timeout=30)
        assert results[0][0].error is None
        assert daemon.stats.leases_reassigned >= 1
        self._daemon_alive(daemon)


class TestRetryPolicy:
    def test_delays_bounded_by_exponential_cap(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1,
                             max_delay_s=0.4, jitter=0.5)
        delays = list(policy.delays(random.Random(7)))
        assert len(delays) == 6
        for attempt, delay in enumerate(delays):
            cap = min(0.4, 0.1 * (2 ** attempt))
            assert cap * 0.5 <= delay <= cap

    def test_deterministic_given_seeded_rng(self):
        policy = RetryPolicy(max_attempts=4)
        assert list(policy.delays(random.Random(3))) == \
            list(policy.delays(random.Random(3)))

    def test_zero_attempts_means_no_delays(self):
        assert list(RetryPolicy(max_attempts=0)
                    .delays(random.Random(0))) == []

    def test_jitter_bounds_hold_across_seeded_policies(self):
        # Property-style: for a grid of policies and many seeded
        # draws, every delay lands in [cap·(1-jitter), cap] and the
        # deterministic floor never collapses to zero.  No sleeps —
        # delays are computed, not waited on.
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            policy = RetryPolicy(
                max_attempts=rng.randrange(1, 9),
                base_delay_s=rng.uniform(0.01, 2.0),
                max_delay_s=rng.uniform(2.0, 20.0),
                jitter=rng.uniform(0.0, 1.0))
            draw = random.Random(rng.randrange(1 << 30))
            delays = list(policy.delays(draw))
            assert len(delays) == policy.max_attempts
            for attempt, delay in enumerate(delays):
                cap = min(policy.max_delay_s,
                          policy.base_delay_s * (2.0 ** attempt))
                floor = cap * (1.0 - min(1.0, policy.jitter))
                assert floor - 1e-9 <= delay <= cap + 1e-9
                assert delay > 0.0

    def test_no_jitter_is_exactly_the_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.5,
                             max_delay_s=3.0, jitter=0.0)
        assert list(policy.delays(random.Random(1))) == \
            [0.5, 1.0, 2.0, 3.0, 3.0]


class TestReconnectClient:
    def test_client_retries_connection_refused(self, tmp_path):
        # Nothing is listening: the client must retry with backoff,
        # then raise a ServiceError (not a bare socket error) that
        # names how many tries it burned.
        started = time.monotonic()
        with pytest.raises(ServiceError, match="reconnect") as excinfo:
            execute_via_server(
                str(tmp_path / "nobody-home.sock"),
                [RunSpec("e4", quick=True)],
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.05,
                                  max_delay_s=0.1))
        assert "3 tries total" in str(excinfo.value)
        assert time.monotonic() - started < 30


@pytest.fixture
def scripted_server():
    """Factory: a TCP listener answering connection ``i`` with
    ``replies[i]`` (after reading one frame), or, for ``None``,
    closing it at once."""
    servers = []

    def start(replies):
        server = socket.create_server(("127.0.0.1", 0))
        servers.append(server)

        def serve():
            for reply in replies:
                conn, __ = server.accept()
                with conn:
                    if reply is not None:
                        read_frame(conn)
                        write_frame(conn, reply)
                        read_frame(conn)  # until the peer hangs up

        threading.Thread(target=serve, daemon=True).start()
        return "127.0.0.1:%d" % server.getsockname()[1]

    yield start
    for server in servers:
        server.close()


def _record_dials(monkeypatch, module):
    """Every socket ``module.connect`` dials, in order."""
    dialed = []

    def dial(*args, **kwargs):
        dialed.append(connect(*args, **kwargs))
        return dialed[-1]

    monkeypatch.setattr(module, "connect", dial)
    return dialed


class TestSocketsClosedOnFailure:
    def test_client_closes_socket_when_handshake_raises(
            self, scripted_server, monkeypatch):
        # The server hangs up before the welcome: __enter__ raises, so
        # no __exit__ would ever close what connect() dialed.
        address = scripted_server([None])
        dialed = _record_dials(monkeypatch, client_module)
        with pytest.raises(OSError):
            ServiceClient(address, timeout=10).connect()
        assert dialed[0].fileno() == -1

    def test_worker_closes_socket_when_registration_refused(
            self, scripted_server, monkeypatch):
        address = scripted_server([error_frame("refused", "no")])
        dialed = _record_dials(monkeypatch, worker_module)
        worker = ReproWorker(address, jobs=1, quiet=True)
        with pytest.raises(WorkerError, match="refused"):
            worker._connect()
        assert dialed[0].fileno() == -1

    def test_worker_reconnect_closes_the_lost_socket(
            self, scripted_server, monkeypatch):
        registered = {"type": "registered", "worker_id": "w1"}
        address = scripted_server([registered, registered])
        dialed = _record_dials(monkeypatch, worker_module)
        worker = ReproWorker(address, jobs=1, quiet=True)
        worker._connect()
        worker._connect()
        assert [sock.fileno() == -1 for sock in dialed] == [True, False]
        worker.stop()
        assert dialed[1].fileno() == -1


class TestJournal:
    """The write-ahead journal as a data structure."""

    def test_replay_is_queued_minus_settled(self, tmp_path):
        path = journal_path(tmp_path)
        journal = ServiceJournal(path)
        spec_a = RunSpec("e4", quick=True)
        spec_b = RunSpec("e4", quick=True, seed=1)
        journal.record_queued(spec_a.key(), spec_a.canonical())
        journal.record_queued(spec_b.key(), spec_b.canonical())
        journal.record_settled(spec_a.key(), None)
        journal.close()
        debt = replay(path)
        assert set(debt) == {spec_b.key()}
        assert debt[spec_b.key()] == spec_b.canonical()

    def test_old_leased_lines_replay_to_the_same_debt(self, tmp_path):
        # Journals from before the leased record was dropped still
        # hold its lines; replay must read past them unchanged.
        spec_a = RunSpec("e4", quick=True)
        spec_b = RunSpec("e4", quick=True, seed=1)
        debts = []
        for old in (True, False):
            path = journal_path(tmp_path / str(old))
            journal = ServiceJournal(path)
            journal.record_queued(spec_a.key(), spec_a.canonical())
            journal.record_queued(spec_b.key(), spec_b.canonical())
            journal.close()
            with open(path, "a", encoding="utf-8") as f:
                if old:
                    for spec in (spec_a, spec_b):
                        f.write(json.dumps({"op": "leased",
                                            "key": spec.key(),
                                            "executor": "local"}) + "\n")
                f.write(json.dumps({"op": "settled", "key": spec_a.key(),
                                    "error": None}) + "\n")
            debts.append(replay(path))
        assert debts[0] == debts[1] == {spec_b.key(): spec_b.canonical()}

    def test_drained_marker_wipes_the_slate(self, tmp_path):
        path = journal_path(tmp_path)
        journal = ServiceJournal(path)
        spec = RunSpec("e4", quick=True)
        journal.record_queued(spec.key(), spec.canonical())
        journal.record_drained()
        journal.close()
        assert replay(path) == {}

    def test_torn_tail_keeps_everything_before_the_tear(self,
                                                        tmp_path):
        path = journal_path(tmp_path)
        journal = ServiceJournal(path)
        spec = RunSpec("e4", quick=True)
        journal.record_queued(spec.key(), spec.canonical())
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"op": "settled", "key": "' + spec.key())
        # The settled record was torn mid-write: it must not count,
        # and the queued record before the tear must survive.
        assert set(replay(path)) == {spec.key()}

    def test_recover_compacts_to_the_live_set(self, tmp_path):
        path = journal_path(tmp_path)
        journal = ServiceJournal(path)
        live = RunSpec("e4", quick=True)
        dead = RunSpec("e4", quick=True, seed=9)
        journal.record_queued(dead.key(), dead.canonical())
        journal.record_settled(dead.key(), None)
        journal.record_queued(live.key(), live.canonical())
        journal.close()
        reopened, debt = ServiceJournal.recover(tmp_path)
        reopened.close()
        assert set(debt) == {live.key()}
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # compacted: the dead pair is gone
        assert json.loads(lines[0])["key"] == live.key()

    def test_compaction_interleaved_with_quarantines(self, tmp_path):
        # Quarantine records interleaved with queue/settle churn must
        # survive every compaction — compaction rewrites the file and
        # a lost quarantine would let a restart re-run a poison spec.
        from repro.service.journal import replay_full

        path = journal_path(tmp_path)
        journal = ServiceJournal(path)
        live = {}
        for round_no in range(3):
            for i in range(4):
                spec = RunSpec("e4", quick=True,
                               seed=round_no * 10 + i)
                journal.record_queued(spec.key(), spec.canonical())
                live[spec.key()] = spec.canonical()
                if i % 2 == 0:
                    journal.record_settled(spec.key(), None)
                    live.pop(spec.key())
            poison = RunSpec("e4", quick=True,
                             seed=1000 + round_no)
            journal.record_queued(poison.key(), poison.canonical())
            journal.record_quarantined(poison.key(), "TIMEOUT",
                                       f"round {round_no}")
            journal.quarantined[poison.key()] = {
                "kind": "TIMEOUT", "error": f"round {round_no}"}
            # Compact mid-campaign, exactly as a long-lived daemon
            # would once the dead-record count crosses the threshold.
            journal.compact(live)
        journal.close()
        recovered_live, recovered_quarantined = replay_full(path)
        assert recovered_live == live
        assert set(recovered_quarantined) == {
            RunSpec("e4", quick=True, seed=1000 + r).key()
            for r in range(3)}
        assert recovered_quarantined[
            RunSpec("e4", quick=True, seed=1002).key()]["error"] == \
            "round 2"
        # Quarantine lines are written ahead of live ones, so a torn
        # compaction can only ever lose runnable work, never a lock.
        first = json.loads(path.read_text().splitlines()[0])
        assert first["op"] == "quarantined"

    def test_mirror_matches_record_methods(self, tmp_path):
        # The standby's mirror() path and the primary's record_*
        # methods must produce byte-identical journals for the same
        # stream of operations — that is what makes promotion exactly
        # --resume.
        spec = RunSpec("e4", quick=True)
        primary_path = journal_path(tmp_path / "primary")
        mirror_path = journal_path(tmp_path / "mirror")
        primary = ServiceJournal(primary_path)
        mirror = ServiceJournal(mirror_path)
        primary.on_append = mirror.mirror
        primary.record_queued(spec.key(), spec.canonical())
        primary.record_quarantined(spec.key(), "OOM", "boom")
        primary.record_drained()
        primary.close()
        mirror.close()
        assert primary_path.read_bytes() == mirror_path.read_bytes()
        assert mirror.quarantined[spec.key()]["kind"] == "OOM"


class TestDaemonRecovery:
    """Crash recovery: ``--resume`` replays the journal's debt."""

    def test_resume_requeues_and_runs_journal_debt(
            self, start_daemon, fake_experiment, tmp_path):
        cache_root = tmp_path / "recover-cache"
        specs = [fake_experiment.spec(seed) for seed in range(2)]
        journal = ServiceJournal(journal_path(cache_root))
        for spec in specs:
            journal.record_queued(spec.key(), spec.canonical())
        journal.close()
        # The restarted daemon owes these specs to clients that have
        # not reconnected yet: they must run with zero subscribers.
        daemon = start_daemon(cache_dir=str(cache_root))
        assert daemon.stats.recovered_jobs == 2
        _wait_until(lambda: daemon.stats.executed == 2,
                    what="recovered jobs to execute")
        # A reconnecting client resubmits and reads pure cache hits:
        # zero client-visible loss, nothing ran twice.
        outcomes = execute_via_server(daemon.bound_address, specs)
        assert all(o.cached and o.error is None for o in outcomes)
        assert [o.report.data["seed"] for o in outcomes] == [0, 1]
        assert all(count == 1
                   for count in fake_experiment.calls.values())

    def test_no_resume_forgets_the_journal(self, start_daemon,
                                           fake_experiment, tmp_path):
        cache_root = tmp_path / "fresh-cache"
        spec = fake_experiment.spec(7)
        journal = ServiceJournal(journal_path(cache_root))
        journal.record_queued(spec.key(), spec.canonical())
        journal.close()
        daemon = start_daemon(cache_dir=str(cache_root), resume=False)
        assert daemon.stats.recovered_jobs == 0
        assert replay(journal_path(cache_root)) == {}  # wiped
        assert sum(fake_experiment.calls.values()) == 0

    def test_garbage_in_journal_is_skipped(self, start_daemon,
                                           tmp_path):
        cache_root = tmp_path / "garbage-cache"
        journal = ServiceJournal(journal_path(cache_root))
        journal.record_queued("bogus-key", {"not": "a spec"})
        journal.close()
        daemon = start_daemon(cache_dir=str(cache_root))
        assert daemon.stats.recovered_jobs == 0
        assert daemon.wait_ready(1)  # the daemon survived the replay

    def test_clean_drain_leaves_no_debt(self, tmp_path,
                                        fake_experiment):
        cache_root = tmp_path / "drain-cache"
        daemon = ReproDaemon("127.0.0.1:0", jobs=1, quiet=True,
                             cache_dir=str(cache_root))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            assert daemon.wait_ready(10)
            outcomes = execute_via_server(daemon.bound_address,
                                          [fake_experiment.spec(4)])
            assert outcomes[0].error is None
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)
        assert not thread.is_alive()
        assert replay(journal_path(cache_root)) == {}

    def test_journal_retires_settled_keys_live(self, start_daemon,
                                               fake_experiment,
                                               tmp_path):
        cache_root = tmp_path / "live-cache"
        daemon = start_daemon(cache_dir=str(cache_root))
        execute_via_server(daemon.bound_address,
                           [fake_experiment.spec(2)])
        # Crash *now* and nothing would be owed: the settle record
        # followed the queued record into the journal.
        assert replay(journal_path(cache_root)) == {}


class TestWorkerReconnect:
    """Reconnect-without-requeue: a flap costs zero re-executions."""

    def test_flap_reclaims_leases_and_flushes_results(
            self, start_daemon, start_worker, fake_experiment):
        fake_experiment.gate.clear()
        daemon = start_daemon(local_execution=False,
                              lease_timeout_s=10.0)
        handle = start_worker(
            daemon.bound_address,
            retry=RetryPolicy(max_attempts=40, base_delay_s=0.05,
                              max_delay_s=0.1))
        specs = [fake_experiment.spec(seed) for seed in range(2)]
        results = []
        client = threading.Thread(
            target=lambda: results.append(
                execute_via_server(daemon.bound_address, specs)),
            daemon=True)
        client.start()
        assert fake_experiment.entered.wait(10), \
            "the worker never started executing"
        # Sever the connection out from under the worker — the
        # network flap, not a death: execution keeps running.
        sock = handle.worker._sock
        sock.shutdown(socket.SHUT_RDWR)
        _wait_until(lambda: daemon.stats.workers_flapped == 1,
                    what="the daemon to park the flapped worker")
        assert daemon.stats.leases_reassigned == 0
        fake_experiment.gate.set()
        client.join(timeout=30)
        assert not client.is_alive(), "client never got its results"
        (outcomes,) = results
        assert [o.report.data["seed"] for o in outcomes] == [0, 1]
        assert all(o.error is None for o in outcomes)
        # The reclaim did all the work: nothing was requeued, nothing
        # ran twice, and the flap-finished result arrived hub-ward as
        # a cache-push.
        assert daemon.stats.workers_reconnected == 1
        assert daemon.stats.leases_reclaimed >= 1
        assert daemon.stats.leases_reassigned == 0
        assert daemon.stats.cache_pushes >= 1
        assert handle.worker.reconnects == 1
        assert all(count == 1
                   for count in fake_experiment.calls.values())

    def test_stats_row_flags_flapping_worker(self, start_daemon,
                                             start_worker,
                                             fake_experiment):
        fake_experiment.gate.clear()
        daemon = start_daemon(local_execution=False,
                              lease_timeout_s=10.0)
        handle = start_worker(
            daemon.bound_address,
            retry=RetryPolicy(max_attempts=40, base_delay_s=0.2,
                              max_delay_s=0.3))
        results = []
        client = threading.Thread(
            target=lambda: results.append(
                execute_via_server(daemon.bound_address,
                                   [fake_experiment.spec(6)])),
            daemon=True)
        client.start()
        assert fake_experiment.entered.wait(10)
        handle.worker._sock.shutdown(socket.SHUT_RDWR)
        _wait_until(lambda: daemon.stats.workers_flapped == 1,
                    what="the flap to be parked")
        with ServiceClient(daemon.bound_address, timeout=10.0) as c:
            rows = c.stats()["workers"]
        if rows:  # the worker may already have reconnected
            assert rows[0]["status"] in ("up", "flapping")
        fake_experiment.gate.set()
        client.join(timeout=30)
        assert not client.is_alive()
        assert results[0][0].error is None

    def test_worker_exhausts_reconnects_exit_1(self):
        # A one-shot fake daemon: registers the worker, then dies for
        # good.  The worker must retry per policy, then give up with
        # exit code 1 (not 0, not a traceback).
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def serve_once():
            conn, _ = listener.accept()
            assert read_frame(conn)["type"] == "register"
            write_frame(conn, {"type": "registered", "worker_id": 1,
                               "reclaimed": 0,
                               "heartbeat_interval_s": 5.0,
                               "lease_timeout_s": 30.0,
                               "credit_window": 2})
            conn.close()
            listener.close()

        fake = threading.Thread(target=serve_once, daemon=True)
        fake.start()
        worker = ReproWorker(
            f"{host}:{port}", jobs=1, quiet=True,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.02,
                              max_delay_s=0.05))
        assert worker.run() == 1
        fake.join(timeout=5)


class TestCacheTransport:
    """The fleet cache rides the protocol: lookups settle hub-side,
    pushes merge worker results in, corruption is caught in transit."""

    def test_midcampaign_worker_executes_zero_warm_specs(
            self, start_daemon, start_worker, fake_experiment):
        daemon = start_daemon()
        specs = [fake_experiment.spec(seed) for seed in range(4)]
        first = execute_via_server(daemon.bound_address, specs)
        assert sum(fake_experiment.calls.values()) == 4
        # A worker joining mid-campaign: wide enough to win every
        # lease, but the cache-lookup must drop the whole batch.
        handle = start_worker(daemon.bound_address, jobs=8)
        again = execute_via_server(daemon.bound_address, specs)
        assert all(o.cached and o.error is None for o in again)
        assert [report_to_payload(o.report) for o in first] == \
            [report_to_payload(o.report) for o in again]
        assert daemon.stats.cache_lookup_hits == 4
        # The same counter must surface over the wire (what
        # `repro service stats --json` prints).
        with ServiceClient(daemon.bound_address) as client:
            assert client.stats()["cache_lookup_hits"] == 4
        # The daemon settles hits before the worker even reads the
        # cache-result, so the client can finish first — wait for the
        # worker's side of the story.
        _wait_until(lambda: handle.worker.specs_skipped_warm == 4,
                    what="the worker to drop the warm batch")
        # The acceptance criterion: zero executions anywhere.
        assert sum(fake_experiment.calls.values()) == 4

    def test_corrupted_cache_payload_evicted_and_reexecuted(
            self, start_daemon, start_worker, fake_experiment):
        # Every execution on one in-process jobs=1 worker, so the
        # fake's call counter sees each of them.
        daemon = start_daemon(local_execution=False)
        handle = start_worker(daemon.bound_address, jobs=1)
        spec = fake_experiment.spec(33)
        execute_via_server(daemon.bound_address, [spec])
        assert fake_experiment.calls[33] == 1
        # Bit-rot the stored report payload without touching the spec
        # half, so the digest check (not the spec check) must fire.
        path = daemon.cache.path_for(spec)
        entry = json.loads(path.read_text())
        entry["report"]["data"]["seed"] = 9999
        path.write_text(json.dumps(entry))
        outcomes = execute_via_server(daemon.bound_address, [spec])
        # The corrupt entry was caught at cache-lookup time, evicted,
        # and the spec transparently re-executed on the worker.
        assert outcomes[0].error is None
        assert outcomes[0].report.data["seed"] == 33
        assert not outcomes[0].cached
        assert daemon.cache.stats.evictions >= 1
        assert daemon.stats.cache_lookup_misses >= 1
        assert fake_experiment.calls[33] == 2
        assert handle.worker.specs_completed >= 1
        # ... and the re-executed result healed the cache.
        healed = execute_via_server(daemon.bound_address, [spec])
        assert healed[0].cached
        assert healed[0].report.data["seed"] == 33

    def test_worker_local_cache_pushes_hub_ward(
            self, start_daemon, start_worker, fake_experiment,
            tmp_path):
        # A worker with a private cache full of history ships hits
        # into the hub as `cached` uploads (remote_cache_hits).
        spec = fake_experiment.spec(21)
        worker_cache = ResultCache(tmp_path / "worker-cache")
        runner = JobRunner(jobs=1, cache=worker_cache)
        runner.run([spec])
        assert fake_experiment.calls[21] == 1
        daemon = start_daemon(local_execution=False,
                              cache_dir=str(tmp_path / "hub-cache"))
        start_worker(daemon.bound_address,
                     cache_dir=str(tmp_path / "worker-cache"))
        outcomes = execute_via_server(daemon.bound_address, [spec])
        assert outcomes[0].error is None
        assert outcomes[0].report.data["seed"] == 21
        assert fake_experiment.calls[21] == 1  # served from the cache
        assert daemon.stats.remote_cache_hits == 1
        # The hub now owns the payload too: a fleetless resubmit hits.
        assert daemon.cache.load(spec) is not None


class TestWorkerSigterm:
    """Satellite: SIGTERM mid-lease exits fast; the daemon reassigns."""

    def test_sigterm_mid_lease_exits_within_5s(
            self, start_daemon, start_worker, fake_experiment,
            tmp_path):
        daemon = start_daemon(local_execution=False,
                              lease_timeout_s=1.0)
        address = daemon.bound_address
        script = textwrap.dedent("""
            import sys, time
            import repro.experiments as experiments
            from repro.experiments.base import ExperimentReport

            def slow(config):
                time.sleep(60)
                return ExperimentReport(experiment_id="esvc",
                                        title="slow", data={})

            experiments.ENTRY_POINTS["esvc"] = slow
            from repro.cli import main
            sys.exit(main(["worker", "--connect", sys.argv[1],
                           "--quiet"]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, address],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            _wait_until(
                lambda: daemon.stats.workers_registered == 1,
                timeout=30, what="the subprocess worker to register")
            results = []
            client = threading.Thread(
                target=lambda: results.append(execute_via_server(
                    address, [fake_experiment.spec(0)])),
                daemon=True)
            client.start()
            _wait_until(
                lambda: any(w.leased
                            for w in daemon.core.workers.values()),
                what="the lease to land on the subprocess worker")
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=5)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, \
                f"worker took {elapsed:.1f}s to die on SIGTERM"
            assert code == 143, proc.stderr.read()
            # The daemon parks, times the flap out, and reassigns.
            _wait_until(
                lambda: daemon.stats.leases_reassigned >= 1,
                timeout=10, what="the lease to be reassigned")
            # An in-process worker (sharing the fixture's fast entry
            # point) picks the requeued spec up end-to-end.
            start_worker(address)
            client.join(timeout=30)
            assert not client.is_alive(), "client never completed"
            assert results[0][0].error is None
            assert results[0][0].report.data["seed"] == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()
