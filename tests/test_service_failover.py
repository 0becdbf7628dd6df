"""Tests for hub failover and fleet supervision.

Three layers, mirroring the subsystems:

* the ``peer``/``journal-sync`` conversation against a live daemon
  (socket level — digests, snapshots, refusals);
* :class:`StandbyHub` against both a real primary (mirror fidelity,
  clean stand-down) and a scripted fake primary (loss → promotion,
  which a thread-hosted real daemon cannot simulate because it cannot
  be SIGKILLed);
* :class:`Supervisor` with injected spawn/clock/probe so restart
  backoff, quarantine, hung-hub detection and autoscaling are stepped
  tick by tick — no test here ever sleeps on the control loop.
"""

import collections
import json
import os
import socket
import threading

import pytest

from repro import experiments
from repro.experiments.base import ExperimentReport
from repro.runner import RunSpec
from repro.service import (
    PROTOCOL_VERSION,
    ReproDaemon,
    RetryPolicy,
    ServiceClient,
    StandbyError,
    StandbyHub,
    Supervisor,
    SupervisorError,
    execute_via_server,
    journal_path,
    parse_address_list,
)
from repro.service.journal import replay, replay_full
from repro.service.protocol import (
    connect,
    peer_frame,
    read_frame,
    register_frame,
    sync_digest,
    write_frame,
)
from repro.service.worker import ReproWorker


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
    """A gated in-process entry point registered as ``esvc``."""

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


#: A retry policy fast enough for tests but still >= 1 attempt.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                         max_delay_s=0.05, jitter=0.0)


class TestAddressList:
    def test_splits_and_strips(self):
        assert parse_address_list("127.0.0.1:1, 127.0.0.1:2") == \
            ["127.0.0.1:1", "127.0.0.1:2"]

    def test_single_address_passes_through(self):
        assert parse_address_list("x.sock") == ["x.sock"]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            parse_address_list(" , ,")

    def test_each_entry_validated(self):
        with pytest.raises(ValueError):
            parse_address_list("127.0.0.1:1,host:notaport")


class TestPeerConversation:
    def test_welcome_snapshot_digest_and_live_relay(
            self, start_daemon, fake_experiment):
        daemon = start_daemon()
        fake_experiment.gate.clear()  # hold the job in flight
        spec = fake_experiment.spec(seed=1)
        client_done = threading.Event()

        def submit():
            execute_via_server(daemon.bound_address, [spec])
            client_done.set()

        threading.Thread(target=submit, daemon=True).start()
        assert fake_experiment.entered.wait(10)
        sock = connect(daemon.bound_address, timeout=10)
        try:
            write_frame(sock, peer_frame("test-standby"))
            welcome = read_frame(sock)
            assert welcome["type"] == "peer-welcome"
            snapshot = welcome["snapshot"]
            assert sync_digest(snapshot) == welcome["digest"]
            assert spec.key() in snapshot["live"]
            assert welcome["lease_timeout_s"] == \
                pytest.approx(daemon.lease_timeout_s)
            # Release the job; its settle must arrive as a relayed
            # journal-sync with a verifiable digest.
            fake_experiment.gate.set()
            saw_settled = False
            sock.settimeout(10)
            while not saw_settled:
                frame = read_frame(sock)
                assert frame is not None
                if frame["type"] != "journal-sync":
                    continue
                assert sync_digest(frame["records"]) == frame["digest"]
                for record in frame["records"]:
                    if record["op"] == "settled" \
                            and record["key"] == spec.key():
                        saw_settled = True
            assert daemon.stats.peers_connected == 1
            assert daemon.stats.sync_records_relayed >= 1
        finally:
            sock.close()
        assert client_done.wait(10)

    def test_peer_needs_journal(self, start_daemon):
        daemon = start_daemon(cache_dir=None)
        sock = connect(daemon.bound_address, timeout=10)
        try:
            write_frame(sock, peer_frame("test-standby"))
            reply = read_frame(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "no-journal"
        finally:
            sock.close()

    def test_peer_version_mismatch(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10)
        try:
            write_frame(sock, {"type": "peer", "version": 999,
                               "name": "future"})
            reply = read_frame(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "version-mismatch"
        finally:
            sock.close()

    def test_stats_count_peers(self, start_daemon):
        daemon = start_daemon()
        sock = connect(daemon.bound_address, timeout=10)
        try:
            write_frame(sock, peer_frame("counted"))
            assert read_frame(sock)["type"] == "peer-welcome"
            with ServiceClient(daemon.bound_address) as client:
                assert client.stats()["peers"] == 1
        finally:
            sock.close()


class _FakePrimary:
    """A scripted 'daemon' speaking just the peer conversation.

    Lets tests exercise standby behaviour a thread-hosted real daemon
    cannot produce: abrupt death (no bye) followed by refused
    re-dials, which is the promotion trigger.
    """

    def __init__(self, sessions):
        #: list of session scripts; each is a list of frames to send
        #: after the peer-welcome, or the string "bye"/"drop" marker.
        self.sessions = sessions
        self.listener = socket.socket(socket.AF_INET,
                                      socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        host, port = self.listener.getsockname()[:2]
        self.address = f"{host}:{port}"
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def start(self):
        self.thread.start()
        return self

    def _serve(self):
        for script in self.sessions:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            try:
                hello = read_frame(conn)
                assert hello["type"] == "peer"
                snapshot = script["snapshot"]
                write_frame(conn, {
                    "type": "peer-welcome",
                    "snapshot": snapshot,
                    "digest": script.get("digest",
                                         sync_digest(snapshot)),
                    "lease_timeout_s": 2.0,
                })
                for frame in script.get("frames", ()):
                    write_frame(conn, frame)
                if script.get("bye"):
                    write_frame(conn, {"type": "bye"})
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        # Script exhausted: the "primary" is dead for good.
        try:
            self.listener.close()
        except OSError:
            pass

    def close(self):
        try:
            self.listener.close()
        except OSError:
            pass


def _sync_frame(records):
    return {"type": "journal-sync", "seq": 1, "records": records,
            "digest": sync_digest(records)}


class TestStandbyHub:
    def test_requires_cache_dir(self):
        with pytest.raises(ValueError):
            StandbyHub("127.0.0.1:0", "127.0.0.1:1", cache_dir="")

    def test_never_synced_refuses_promotion(self, tmp_path):
        # Nothing ever listens here: dial fails, policy exhausts, and
        # promoting from an empty mirror must be refused (a typo'd
        # --follow would otherwise become a fresh empty hub).
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = "{}:{}".format(*probe.getsockname()[:2])
        probe.close()
        hub = StandbyHub("127.0.0.1:0", dead,
                         cache_dir=str(tmp_path / "standby"),
                         retry=FAST_RETRY, quiet=True)
        with pytest.raises(StandbyError):
            hub.run()
        assert hub.promoted_daemon is None

    def test_clean_bye_stands_down(self, tmp_path):
        spec = RunSpec("esvc", seed=5)
        primary = _FakePrimary([{
            "snapshot": {"live": {}, "quarantined": {}},
            "frames": [_sync_frame([
                {"op": "queued", "key": spec.key(),
                 "spec": spec.canonical()}])],
            "bye": True,
        }]).start()
        cache_dir = tmp_path / "standby"
        hub = StandbyHub("127.0.0.1:0", primary.address,
                         cache_dir=str(cache_dir),
                         retry=FAST_RETRY, quiet=True)
        assert hub.run() == 0
        assert hub.promoted_daemon is None
        assert hub.records_mirrored == 1
        # The mirrored drain wipes the debt: a later --resume of the
        # standby's cache dir must find nothing owed.
        assert replay(journal_path(cache_dir)) == {}
        primary.close()

    def test_digest_mismatch_is_rejected(self, tmp_path):
        primary = _FakePrimary([{
            "snapshot": {"live": {}, "quarantined": {}},
            "digest": "0" * 64,  # wrong on purpose
        }]).start()
        hub = StandbyHub("127.0.0.1:0", primary.address,
                         cache_dir=str(tmp_path / "standby"),
                         retry=FAST_RETRY, quiet=True)
        # Never synced (the one session was rejected) + exhausted
        # re-dials = refusal, not promotion from corrupt state.
        with pytest.raises(StandbyError):
            hub.run()
        primary.close()

    def test_promotes_and_reruns_mirrored_debt(
            self, tmp_path, fake_experiment):
        spec = fake_experiment.spec(seed=9)
        quarantined_key = "poisoned-key"
        primary = _FakePrimary([{
            "snapshot": {"live": {}, "quarantined": {}},
            "frames": [
                _sync_frame([{"op": "queued", "key": spec.key(),
                              "spec": spec.canonical()}]),
                _sync_frame([{"op": "quarantined",
                              "key": quarantined_key,
                              "kind": "TIMEOUT", "error": "boom"}]),
            ],
            # no bye: the connection just dies, then re-dials fail
        }]).start()
        cache_dir = tmp_path / "standby"
        hub = StandbyHub("127.0.0.1:0", primary.address,
                         cache_dir=str(cache_dir),
                         retry=FAST_RETRY, quiet=True)
        result = {}

        def run():
            result["exit"] = hub.run()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert hub.wait_synced(10)
        # Promotion: the mirrored queued record replays as recovered
        # debt and executes on the promoted hub's own pool.
        deadline = threading.Event()
        for _ in range(400):
            if hub.promoted_daemon is not None:
                break
            deadline.wait(0.025)
        assert hub.promoted_daemon is not None, "never promoted"
        daemon = hub.promoted_daemon
        assert daemon.wait_ready(10)
        assert fake_experiment.entered.wait(10)
        with ServiceClient(daemon.bound_address) as client:
            assert client.stats()["promotions"] == 1
        # The poison record survived the failover too.
        assert daemon.ready_banner()["quarantined_keys"] == 1
        # The recovered spec ran exactly once on the promoted hub.
        outcomes = execute_via_server(daemon.bound_address, [spec])
        assert outcomes[0].error is None
        assert fake_experiment.calls[9] == 1
        hub.stop()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert result["exit"] == 0
        primary.close()

    def test_tails_a_real_primary_and_stands_down_on_drain(
            self, tmp_path, start_daemon, fake_experiment):
        daemon = start_daemon(
            cache_dir=str(tmp_path / "primary-cache"))
        cache_dir = tmp_path / "standby-cache"
        hub = StandbyHub("127.0.0.1:0", daemon.bound_address,
                         cache_dir=str(cache_dir),
                         retry=FAST_RETRY, quiet=True)
        result = {}

        def run():
            result["exit"] = hub.run()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert hub.wait_synced(10)
        spec = fake_experiment.spec(seed=3)
        outcomes = execute_via_server(daemon.bound_address, [spec])
        assert outcomes[0].error is None
        # queued + settled both cross the wire.
        for _ in range(400):
            if hub.records_mirrored >= 2:
                break
            threading.Event().wait(0.025)
        assert hub.records_mirrored == 2
        live, _quarantined = replay_full(journal_path(cache_dir))
        assert live == {}  # settled debt mirrors as settled
        daemon.request_shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive(), "standby missed the drain"
        assert result["exit"] == 0


class TestMultiAddressFailover:
    @staticmethod
    def _dead_address():
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        address = "{}:{}".format(*probe.getsockname()[:2])
        probe.close()
        return address

    def test_client_rotates_to_the_live_hub(
            self, start_daemon, fake_experiment):
        daemon = start_daemon()
        dead = self._dead_address()
        outcomes = execute_via_server(
            f"{dead},{daemon.bound_address}",
            [fake_experiment.spec(seed=1)],
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                              max_delay_s=0.05, jitter=0.0))
        assert outcomes[0].error is None

    def test_worker_first_dial_falls_through_to_live_hub(
            self, start_daemon, fake_experiment):
        daemon = start_daemon(local_execution=False)
        dead = self._dead_address()
        worker = ReproWorker(f"{dead},{daemon.bound_address}",
                             jobs=1, retry=FAST_RETRY, quiet=True)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            assert worker.wait_registered(10)
            assert worker.address == daemon.bound_address
            outcomes = execute_via_server(
                daemon.bound_address, [fake_experiment.spec(seed=2)])
            assert outcomes[0].error is None
        finally:
            worker.stop()
            thread.join(timeout=10)

    def test_bad_list_raises_before_any_dial(self):
        with pytest.raises(ValueError):
            execute_via_server("host:notaport,127.0.0.1:1",
                               [RunSpec("esvc", seed=1)])

    def test_supervisor_probe_falls_through_to_live_hub(
            self, start_daemon):
        from repro.service.supervisor import _default_probe

        daemon = start_daemon()
        dead = self._dead_address()
        stats = _default_probe(f"{dead},{daemon.bound_address}", 5.0)
        assert stats["queued"] == 0

    def test_supervisor_probe_raises_when_every_hub_is_dead(self):
        from repro.service.supervisor import _default_probe

        with pytest.raises(Exception):
            _default_probe(self._dead_address(), 0.5)


class TestHeartbeatOverride:
    def _register(self, daemon, **kwargs):
        sock = connect(daemon.bound_address, timeout=10)
        try:
            write_frame(sock, register_frame(
                jobs=1, replica_batch=False, name="hb-test", **kwargs))
            return read_frame(sock)
        finally:
            sock.close()

    def test_override_is_echoed(self, start_daemon):
        daemon = start_daemon(lease_timeout_s=30.0)
        reply = self._register(daemon, heartbeat_s=2.5)
        assert reply["type"] == "registered"
        assert reply["heartbeat_interval_s"] == pytest.approx(2.5)

    def test_default_is_a_third_of_the_lease(self, start_daemon):
        daemon = start_daemon(lease_timeout_s=30.0)
        reply = self._register(daemon)
        assert reply["type"] == "registered"
        assert reply["heartbeat_interval_s"] == pytest.approx(10.0)

    def test_too_slow_for_the_lease_is_refused(self, start_daemon):
        daemon = start_daemon(lease_timeout_s=10.0)
        reply = self._register(daemon, heartbeat_s=6.0)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-heartbeat"
        assert "6.0" in reply["message"]
        assert "10.0" in reply["message"]

    def test_garbage_override_is_refused(self, start_daemon):
        daemon = start_daemon()
        reply = self._register(daemon, heartbeat_s=-1)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-register"

    def test_worker_constructor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ReproWorker("127.0.0.1:1", heartbeat_s=0)


class _FakeProc:
    """A Popen stand-in whose death is test-controlled."""

    _pids = iter(range(1000, 100000))

    def __init__(self, argv):
        self.argv = argv
        self.pid = next(self._pids)
        self.returncode = None
        self.signals = []

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):
        self.signals.append("KILL")
        self.returncode = -9

    def send_signal(self, signum):
        self.signals.append(signum)
        # SIGTERM is a drain request; the fake dies cleanly at once.
        self.returncode = 0


class _Harness:
    """Supervisor with fake spawn/clock/probe, stepped tick by tick."""

    def __init__(self, **kwargs):
        self.now = 1000.0
        self.spawned = []
        self.probe_result = {"queued": 0}
        self.probe_error = None

        def spawn(argv):
            proc = _FakeProc(argv)
            self.spawned.append(proc)
            return proc

        def probe(address, timeout):
            if self.probe_error is not None:
                raise self.probe_error
            return dict(self.probe_result)

        kwargs.setdefault("hub_argv", None)
        kwargs.setdefault("worker_argv",
                          lambda i: ["worker", str(i)])
        kwargs.setdefault("probe_address", "127.0.0.1:1")
        kwargs.setdefault("retry", RetryPolicy(
            max_attempts=8, base_delay_s=1.0, max_delay_s=60.0,
            jitter=0.0))
        kwargs.setdefault("healthy_after_s", 5.0)
        self.sup = Supervisor(spawn=spawn, probe=probe,
                              clock=lambda: self.now,
                              sleep=lambda s: False,
                              quiet=True, **kwargs)

    def advance(self, seconds):
        self.now += seconds


class TestSupervisor:
    def test_rejects_bad_watermarks(self):
        with pytest.raises(SupervisorError):
            _Harness(min_workers=-1)
        with pytest.raises(SupervisorError):
            _Harness(min_workers=4, max_workers=2)
        with pytest.raises(SupervisorError):
            _Harness(scale_up_depth=0)

    def test_respawns_crashed_worker_with_backoff(self):
        h = _Harness(min_workers=1, max_workers=2)
        h.sup.start_fleet()
        assert len(h.spawned) == 1
        worker = h.sup.workers[0]
        h.advance(30.0)  # it served honestly for a while
        h.spawned[0].returncode = 1  # then crashed
        h.sup.tick()
        assert worker.restarts == 1
        assert worker.restart_at is not None
        assert worker.restart_at > h.now  # backoff, not instant
        h.sup.tick()  # before the backoff elapses: nothing respawns
        assert len(h.spawned) == 1
        h.advance(worker.restart_at - h.now + 0.1)
        h.sup.tick()
        assert len(h.spawned) == 2  # respawned
        assert worker.live

    def test_backoff_grows_per_consecutive_failure(self):
        h = _Harness(min_workers=1, max_workers=2)
        h.sup.start_fleet()
        worker = h.sup.workers[0]
        delays = []
        for _ in range(3):
            h.spawned[-1].returncode = 1
            h.sup.tick()
            delays.append(worker.restart_at - h.now)
            h.advance(delays[-1] + 0.1)
            h.sup.tick()
        assert delays == sorted(delays)
        assert delays[2] > delays[0]

    def test_quarantine_after_restart_budget(self):
        h = _Harness(min_workers=1, max_workers=2, restart_budget=2)
        h.sup.start_fleet()
        worker = h.sup.workers[0]
        for _ in range(3):
            h.spawned[-1].returncode = 1  # dies young every time
            h.sup.tick()
            if worker.quarantined:
                break
            h.advance(worker.restart_at - h.now + 0.1)
            h.sup.tick()
        assert worker.quarantined
        assert "consecutive" in worker.quarantine_reason
        spawned_before = len(h.spawned)
        h.advance(1000.0)
        h.sup.tick()
        # Benched means benched: no respawn, and no fresh component
        # laundering the budget either.
        assert len(h.spawned) == spawned_before
        assert h.sup.all_quarantined

    def test_healthy_stretch_resets_the_budget(self):
        h = _Harness(min_workers=1, max_workers=2, restart_budget=2)
        h.sup.start_fleet()
        worker = h.sup.workers[0]
        for _ in range(5):  # more deaths than the budget...
            h.advance(30.0)  # ...but each after a healthy stretch
            h.spawned[-1].returncode = 1
            h.sup.tick()
            assert not worker.quarantined
            h.advance(worker.restart_at - h.now + 0.1)
            h.sup.tick()
        assert worker.live

    def test_scale_up_on_queue_depth(self):
        h = _Harness(min_workers=1, max_workers=3, scale_up_depth=8)
        h.sup.start_fleet()
        h.probe_result = {"queued": 20}
        h.sup.tick()
        assert len(h.sup.workers) == 2
        h.sup.tick()
        assert len(h.sup.workers) == 3
        h.sup.tick()  # at max: no further growth
        assert len(h.sup.workers) == 3

    def test_scale_down_retires_newest_after_idle_ticks(self):
        h = _Harness(min_workers=1, max_workers=3, scale_up_depth=8,
                     scale_idle_ticks=2)
        h.sup.start_fleet()
        h.probe_result = {"queued": 20}
        h.sup.tick()
        assert len(h.sup.workers) == 2
        newest = h.sup.workers[-1].process
        h.probe_result = {"queued": 0}
        h.sup.tick()
        h.sup.tick()  # second idle tick: retire
        assert 15 in newest.signals or "SIGTERM" in str(newest.signals)
        h.sup.tick()  # the retired exit is reaped, slot freed
        assert len(h.sup.workers) == 1
        assert h.sup.workers_retired == 1

    def test_hung_hub_is_killed_then_restarted(self):
        h = _Harness(hub_argv=["hub"], min_workers=0, max_workers=1,
                     probe_failures_before_kill=3)
        h.sup.start_fleet()
        hub_proc = h.spawned[0]
        h.advance(30.0)  # well past the boot grace
        h.probe_error = OSError("probe timed out")
        h.sup.tick()
        h.sup.tick()
        assert "KILL" not in hub_proc.signals  # not yet
        h.sup.tick()  # third consecutive failure: presumed hung
        assert "KILL" in hub_proc.signals
        h.sup.tick()  # the kill surfaced as an exit -> restart path
        hub = h.sup.hub
        assert hub.restarts == 1

    def test_boot_grace_protects_a_starting_hub(self):
        h = _Harness(hub_argv=["hub"], min_workers=0, max_workers=1,
                     probe_failures_before_kill=1,
                     healthy_after_s=5.0)
        h.sup.start_fleet()
        h.probe_error = OSError("not listening yet")
        h.sup.tick()  # within the grace window: no kill
        assert "KILL" not in h.spawned[0].signals

    def test_status_json_is_written_atomically(self, tmp_path):
        status_path = tmp_path / "fleet.json"
        h = _Harness(min_workers=1, max_workers=2,
                     status_path=str(status_path))
        h.sup.start_fleet()
        h.sup.tick()
        payload = json.loads(status_path.read_text())
        assert payload["ticks"] == 1
        assert payload["workers"][0]["live"] is True
        assert payload["workers"][0]["pid"] == h.spawned[0].pid

    def test_shutdown_terminates_fleet(self):
        h = _Harness(hub_argv=["hub"], min_workers=2, max_workers=4)
        h.sup.start_fleet()
        h.sup.shutdown_fleet()
        assert all(proc.returncode is not None for proc in h.spawned)


class TestServeBanner:
    def test_ready_banner_is_one_parseable_stdout_line(
            self, start_daemon, capfd):
        daemon = start_daemon()
        out = capfd.readouterr().out
        lines = [line for line in out.splitlines()
                 if '"serve-ready"' in line]
        assert lines, f"no serve-ready banner in stdout: {out!r}"
        payload = json.loads(lines[-1])
        assert payload["address"] == daemon.bound_address
        assert payload["pid"] == os.getpid()
        assert payload["jobs"] == 1
        assert payload["resume"] is True
        assert payload["promotions"] == 0

    def test_banner_reports_recovery_state(self, start_daemon,
                                           tmp_path, fake_experiment):
        cache_dir = tmp_path / "banner-cache"
        first = start_daemon(cache_dir=str(cache_dir))
        fake_experiment.gate.clear()
        spec = fake_experiment.spec(seed=4)
        threading.Thread(
            target=lambda: execute_via_server(
                first.bound_address, [spec]),
            daemon=True).start()
        assert fake_experiment.entered.wait(10)
        # The journal now owes one spec; a resuming daemon's banner
        # must say so (that is what a supervisor's readiness loop
        # reads instead of scraping logs).
        fake_experiment.gate.set()
        banner = first.ready_banner()
        assert banner["cache"] == str(cache_dir)
        assert banner["lease_timeout_s"] == first.lease_timeout_s


class TestVersionPin:
    def test_peer_frame_carries_protocol_version(self):
        frame = peer_frame("x")
        assert frame["version"] == PROTOCOL_VERSION
