"""Tests for the ``repro`` CLI."""

import json
import signal

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_quick(self):
        args = build_parser().parse_args(["run", "e2", "--quick"])
        assert args.experiment == ["e2"]
        assert args.quick
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_run_accepts_multiple_experiments(self):
        args = build_parser().parse_args(
            ["run", "e1", "e3", "--jobs", "4"])
        assert args.experiment == ["e1", "e3"]
        assert args.jobs == 4

    def test_sweep_command(self):
        args = build_parser().parse_args(
            ["sweep", "e5", "--replicas", "3", "--base-seed", "7",
             "--set", "n_ports=8,16"])
        assert args.experiment == ["e5"]
        assert args.replicas == 3
        assert args.base_seed == 7
        assert args.set == ["n_ports=8,16"]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out
        assert "islip" in out
        assert "netfpga_sume" in out

    def test_list_shows_one_line_docs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Experiments and schedulers both carry descriptions now.
        assert "Figure 1" in out
        assert "iSLIP" in out
        assert "incast" in out

    def test_run_e2_quick(self, capsys):
        assert main(["run", "e2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out
        assert "cpu_helios" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_override_surfaces_as_warning(self, capsys):
        assert main(["run", "e2", "--quick",
                     "--set", "port_countz=[8]"]) == 0
        out = capsys.readouterr().out
        assert "Warnings:" in out
        assert "port_countz" in out

    def test_known_override_warns_nothing(self, capsys):
        assert main(["run", "e2", "--quick",
                     "--set", "port_counts=[8]"]) == 0
        assert "Warnings:" not in capsys.readouterr().out


class TestScenarioCommands:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "incast", "failure-storm", "diurnal"):
            assert name in out

    def test_scenario_show_is_canonical_json(self, capsys):
        assert main(["scenario", "show", "incast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "incast"
        assert payload["traffic"][0]["pattern"] == "incast"

    def test_scenario_show_applies_overrides(self, capsys):
        assert main(["scenario", "show", "uniform", "--quick",
                     "--set", "n_ports=4",
                     "--set", "traffic.0.load=0.9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ports"] == 4
        assert payload["traffic"][0]["load"] == 0.9
        assert payload["duration_ps"] == payload["quick_duration_ps"]

    def test_scenario_show_unknown_name(self, capsys):
        assert main(["scenario", "show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_show_bad_override_path(self, capsys):
        assert main(["scenario", "show", "uniform",
                     "--set", "n_portz=4"]) == 2
        assert "n_portz" in capsys.readouterr().err

    def test_scenario_run_quick(self, capsys):
        assert main(["scenario", "run", "uniform", "--quick",
                     "--set", "duration_ps=600000000"]) == 0
        out = capsys.readouterr().out
        assert "SCENARIO:UNIFORM" in out
        assert "utilisation" in out

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_run_bad_override_path_exits_cleanly(self, capsys):
        assert main(["scenario", "run", "uniform",
                     "--set", "n_portz=4"]) == 2
        err = capsys.readouterr().err
        assert "n_portz" in err
        assert "Traceback" not in err

    def test_sweep_accepts_scenario_ids(self, capsys):
        assert main(["sweep", "scenario:uniform", "--quick",
                     "--replicas", "2", "--base-seed", "5",
                     "--set", "traffic.0.load=0.2,0.4",
                     "--set", "duration_ps=400000000"]) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert "scenario:uniform" in out

    def test_run_rejects_unknown_scenario_id(self, capsys):
        assert main(["run", "scenario:nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_scenario_id_bad_override_exits_cleanly(self, capsys):
        assert main(["run", "scenario:uniform",
                     "--set", "n_portz=4"]) == 2
        assert "n_portz" in capsys.readouterr().err

    def test_sweep_scenario_id_bad_override_exits_cleanly(self, capsys):
        assert main(["sweep", "scenario:uniform",
                     "--set", "n_portz=4,8"]) == 2
        assert "n_portz" in capsys.readouterr().err

    def test_scenario_run_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "scenario.json"
        assert main(["scenario", "run", "uniform", "--quick",
                     "--set", "duration_ps=600000000",
                     "--json-out", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["manifest"]["jobs"] == 1
        (report,) = payload["reports"].values()
        assert report["spec"]["experiment_id"] == "scenario:uniform"


def _record_client_sleeps(monkeypatch):
    """Swap the client's backoff sleep for a recorder of its delays."""
    import types

    from repro.service import client

    delays = []
    monkeypatch.setattr(client, "time", types.SimpleNamespace(
        sleep=delays.append))
    return delays


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.socket == ".repro-serve.sock"
        assert args.jobs == 1
        assert args.cache_dir == ".repro-cache"

    def test_run_accepts_server_flag(self):
        args = build_parser().parse_args(
            ["run", "e4", "--quick", "--server", "127.0.0.1:7777"])
        assert args.server == "127.0.0.1:7777"
        bare = build_parser().parse_args(["run", "e4", "--server"])
        assert bare.server == ".repro-serve.sock"
        default = build_parser().parse_args(["run", "e4"])
        assert default.server is None

    def test_serve_rejects_bad_address(self, capsys):
        assert main(["serve", "--socket", "not-an-address"]) == 2
        assert "bad service address" in capsys.readouterr().err

    def test_serve_rejects_bad_jobs(self, capsys):
        assert main(["serve", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_service_stats_unreachable_daemon(self, tmp_path, capsys):
        assert main(["service", "stats", "--server",
                     str(tmp_path / "nobody.sock")]) == 2
        assert "--server" in capsys.readouterr().err

    def test_run_unreachable_server_exits_cleanly(self, tmp_path,
                                                  capsys, monkeypatch):
        delays = _record_client_sleeps(monkeypatch)
        code = main(["run", "e4", "--quick", "--server",
                     str(tmp_path / "nobody.sock")])
        assert code == 2
        assert "--server" in capsys.readouterr().err
        assert len(delays) == 5  # the default --retry-max 5

    def test_run_via_server_matches_direct(self, tmp_path, capsys):
        import threading

        from repro.service import ReproDaemon

        daemon = ReproDaemon("127.0.0.1:0", jobs=1, quiet=True,
                             cache_dir=str(tmp_path / "cache"))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            assert daemon.wait_ready(10)
            server_json = tmp_path / "server.json"
            direct_json = tmp_path / "direct.json"
            assert main(["run", "e4", "--quick",
                         "--server", daemon.bound_address,
                         "--json-out", str(server_json)]) == 0
            assert main(["run", "e4", "--quick",
                         "--json-out", str(direct_json)]) == 0
            capsys.readouterr()
            via_server = json.loads(server_json.read_text())
            direct = json.loads(direct_json.read_text())
            assert via_server["reports"] == direct["reports"]
            # Second submission of the same spec: pure cache, zero
            # re-execution daemon-side.
            warm_json = tmp_path / "warm.json"
            assert main(["run", "e4", "--quick",
                         "--server", daemon.bound_address,
                         "--json-out", str(warm_json)]) == 0
            capsys.readouterr()
            warm = json.loads(warm_json.read_text())
            assert warm["reports"] == direct["reports"]
            assert warm["manifest"]["entries"][0]["cached"] is True
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)
        assert not thread.is_alive()

    def test_server_flag_notes_ignored_local_settings(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        delays = _record_client_sleeps(monkeypatch)
        code = main(["run", "e4", "--quick", "--jobs", "4",
                     "--cache-dir", str(tmp_path / "c"),
                     "--server", str(tmp_path / "nobody.sock")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "--cache-dir" in err
        assert "daemon-side" in err
        assert len(delays) == 5  # the default --retry-max 5


class TestWorkerCommand:
    def test_worker_parser_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.connect == ".repro-serve.sock"
        assert args.jobs == 1
        assert args.replica_batch is False
        assert args.name is None

    def test_serve_fleet_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.lease_timeout == 30.0
        assert args.no_local is False

    def test_worker_rejects_bad_jobs(self, capsys):
        assert main(["worker", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_worker_rejects_bad_address(self, capsys):
        assert main(["worker", "--connect", "not-an-address"]) == 2
        assert "bad service address" in capsys.readouterr().err

    def test_worker_unreachable_daemon_exits_2(self, tmp_path,
                                               capsys):
        code = main(["worker", "--connect",
                     str(tmp_path / "nobody.sock"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--connect" in err
        assert len(err.strip().splitlines()) == 1

    def test_worker_garbled_handshake_exits_2(self, capsys):
        # A daemon whose registration reply is not a valid frame
        # (here: a length prefix past MAX_FRAME_BYTES) raises
        # ProtocolError out of the handshake, which must map to the
        # same one-line exit-2 contract as an unreachable daemon.
        import socket
        import struct
        import threading

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()

        def serve():
            conn, _ = server.accept()
            conn.recv(1 << 16)  # swallow the register frame
            conn.sendall(struct.pack(">I", 1 << 31))
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            code = main(["worker", "--connect", f"{host}:{port}",
                         "--quiet"])
        finally:
            thread.join(timeout=10)
            server.close()
        assert code == 2
        err = capsys.readouterr().err
        assert f"--connect {host}:{port}" in err
        assert len(err.strip().splitlines()) == 1

    def _daemon(self, tmp_path, **kwargs):
        import threading

        from repro.service import ReproDaemon

        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("quiet", True)
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        daemon = ReproDaemon("127.0.0.1:0", **kwargs)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.wait_ready(10)
        return daemon, thread

    def test_worker_version_mismatch_exits_2_with_both_versions(
            self, tmp_path, capsys, monkeypatch):
        from repro.service.protocol import PROTOCOL_VERSION

        daemon, thread = self._daemon(tmp_path)
        try:
            monkeypatch.setattr(
                "repro.service.protocol.PROTOCOL_VERSION", 999)
            code = main(["worker", "--connect",
                         daemon.bound_address, "--quiet"])
            assert code == 2
            err = capsys.readouterr().err
            assert "999" in err
            assert str(PROTOCOL_VERSION) in err
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)
        assert not thread.is_alive()

    def test_service_workers_lists_fleet(self, tmp_path, capsys):
        import threading

        from repro.service.worker import ReproWorker

        daemon, thread = self._daemon(tmp_path)
        worker = ReproWorker(daemon.bound_address, jobs=2,
                             name="cli-node", quiet=True)
        wthread = threading.Thread(target=worker.run, daemon=True)
        wthread.start()
        try:
            assert worker.wait_registered(10)
            assert main(["service", "workers", "--server",
                         daemon.bound_address]) == 0
            out = capsys.readouterr().out
            assert "cli-node" in out
            assert main(["service", "workers", "--server",
                         daemon.bound_address, "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows[0]["name"] == "cli-node"
            assert rows[0]["jobs"] == 2
            assert main(["service", "stats", "--server",
                         daemon.bound_address]) == 0
            stats_out = capsys.readouterr().out
            assert "cli-node" in stats_out
            assert "workers_registered" in stats_out
        finally:
            daemon.request_shutdown()
            wthread.join(timeout=15)
            thread.join(timeout=15)
        assert not thread.is_alive() and not wthread.is_alive()

    def test_service_workers_empty_fleet(self, tmp_path, capsys):
        daemon, thread = self._daemon(tmp_path)
        try:
            assert main(["service", "workers", "--server",
                         daemon.bound_address]) == 0
            assert "no workers registered" in capsys.readouterr().out
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)
        assert not thread.is_alive()

    def test_sweep_via_fleet_matches_direct(self, tmp_path, capsys):
        import threading

        from repro.service.worker import ReproWorker

        # The CLI-level acceptance path: a sweep routed through a
        # daemon whose only executors are two remote TCP workers is
        # byte-identical to direct local execution.
        daemon, thread = self._daemon(tmp_path, local_execution=False)
        workers = []
        for _ in range(2):
            worker = ReproWorker(daemon.bound_address, jobs=1,
                                 quiet=True)
            wthread = threading.Thread(target=worker.run, daemon=True)
            wthread.start()
            assert worker.wait_registered(10)
            workers.append((worker, wthread))
        try:
            fleet_json = tmp_path / "fleet.json"
            direct_json = tmp_path / "direct.json"
            assert main(["sweep", "e4", "--quick", "--replicas", "3",
                         "--server", daemon.bound_address,
                         "--json-out", str(fleet_json)]) == 0
            assert main(["sweep", "e4", "--quick", "--replicas", "3",
                         "--json-out", str(direct_json)]) == 0
            capsys.readouterr()
            fleet = json.loads(fleet_json.read_text())
            direct = json.loads(direct_json.read_text())
            assert fleet["reports"] == direct["reports"]
            assert fleet["manifest"]["executed"] == 3
            assert all(entry["error"] is None
                       for entry in fleet["manifest"]["entries"])
        finally:
            daemon.request_shutdown()
            for worker, wthread in workers:
                wthread.join(timeout=15)
            thread.join(timeout=15)
        assert not thread.is_alive()


class TestDurabilityFlags:
    def test_serve_resume_defaults_on(self):
        args = build_parser().parse_args(["serve"])
        assert args.resume is True
        args = build_parser().parse_args(["serve", "--no-resume"])
        assert args.resume is False

    def test_worker_durability_flags(self):
        args = build_parser().parse_args(["worker"])
        assert args.cache_dir == ""
        assert args.retry_max == 8
        assert args.retry_base == 0.25
        args = build_parser().parse_args(
            ["worker", "--cache-dir", "/tmp/wc",
             "--retry-max", "3", "--retry-base", "0.5"])
        assert args.cache_dir == "/tmp/wc"
        assert args.retry_max == 3
        assert args.retry_base == 0.5

    def test_run_retry_flags(self):
        args = build_parser().parse_args(
            ["run", "e4", "--server", "--retry-max", "5",
             "--retry-base", "0.1"])
        assert args.retry_max == 5
        assert args.retry_base == 0.1
        defaults = build_parser().parse_args(["run", "e4"])
        assert defaults.retry_max == 5
        assert defaults.retry_base == 0.2

    def test_chaos_requires_upstream(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])
        assert "--upstream" in capsys.readouterr().err

    def test_chaos_rejects_bad_probability(self, capsys):
        assert main(["chaos", "--upstream", "127.0.0.1:1",
                     "--p-disconnect", "1.5"]) == 2
        assert "--p-disconnect" in capsys.readouterr().err

    def test_chaos_rejects_bad_upstream(self, capsys):
        assert main(["chaos", "--upstream", "not-an-address"]) == 2
        assert "bad service address" in capsys.readouterr().err


class TestSignalHandlersRestored:
    """A command run in-process through ``main`` leaves the caller's
    SIGTERM and SIGINT handlers as it found them."""

    @staticmethod
    def _handlers():
        return {signum: signal.getsignal(signum)
                for signum in (signal.SIGTERM, signal.SIGINT)}

    def test_worker(self, tmp_path, capsys):
        before = self._handlers()
        assert main(["worker", "--connect",
                     str(tmp_path / "none.sock"), "--quiet"]) == 2
        assert self._handlers() == before

    def test_chaos(self, capsys):
        before = self._handlers()
        assert main(["chaos", "--listen", "127.0.0.1:0",
                     "--upstream", "127.0.0.1:9",
                     "--duration", "0.2", "--quiet"]) == 0
        assert "chaos proxy stopped" in capsys.readouterr().out
        assert self._handlers() == before


class TestFailoverFlags:
    def test_serve_standby_flags(self):
        args = build_parser().parse_args(
            ["serve", "--standby", "--follow", "127.0.0.1:7461",
             "--socket", "127.0.0.1:7462"])
        assert args.standby is True
        assert args.follow == "127.0.0.1:7461"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.standby is False
        assert defaults.follow is None
        assert defaults.retry_max == 3
        assert defaults.retry_base == 0.2

    def test_standby_needs_follow(self, capsys):
        assert main(["serve", "--standby"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_standby_needs_cache_dir(self, capsys):
        assert main(["serve", "--standby", "--follow", "127.0.0.1:1",
                     "--cache-dir", ""]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_standby_rejects_bad_follow(self, capsys):
        assert main(["serve", "--standby",
                     "--follow", "host:notaport"]) == 2
        assert "bad service address" in capsys.readouterr().err

    def test_worker_heartbeat_flag(self):
        args = build_parser().parse_args(
            ["worker", "--heartbeat", "2.5"])
        assert args.heartbeat == 2.5
        assert build_parser().parse_args(["worker"]).heartbeat is None

    def test_worker_rejects_nonpositive_heartbeat(self, capsys):
        assert main(["worker", "--heartbeat", "0"]) == 2
        assert "--heartbeat" in capsys.readouterr().err

    def test_worker_accepts_address_list(self, capsys):
        # Parse-level validation of the failover list: one bad entry
        # fails the whole thing before any dial.
        assert main(["worker", "--connect",
                     "127.0.0.1:1,host:notaport"]) == 2
        assert "bad service address" in capsys.readouterr().err

    def test_chaos_duration_flag(self):
        args = build_parser().parse_args(
            ["chaos", "--upstream", "127.0.0.1:1",
             "--duration", "5"])
        assert args.duration == 5.0
        bare = build_parser().parse_args(
            ["chaos", "--upstream", "127.0.0.1:1"])
        assert bare.duration is None

    def test_supervise_parser_defaults(self):
        args = build_parser().parse_args(["supervise"])
        assert args.server == ".repro-serve.sock"
        assert args.attach is False
        assert args.min_workers == 1
        assert args.max_workers == 4
        assert args.scale_up_depth == 8
        assert args.restart_budget == 5
        assert args.status_json == ""

    def test_supervise_rejects_bad_watermarks(self, capsys):
        assert main(["supervise", "--min-workers", "4",
                     "--max-workers", "2"]) == 2
        assert "--max-workers" in capsys.readouterr().err

    def test_supervise_rejects_bad_server_list(self, capsys):
        assert main(["supervise", "--server", "a,host:notaport"]) == 2
        assert "bad service address" in capsys.readouterr().err
