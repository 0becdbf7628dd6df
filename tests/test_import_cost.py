"""Import-cost guards: a process pays only for the layers it runs.

scipy costs about a second and 70 MiB to import.  Only the MWM-family
schedulers need it (``linear_sum_assignment``), so they import it inside
the call, and the warm-up step of a job-executing process
(:func:`repro.runner.pool.preload`) loads it before the first job.
These tests hold both halves: a process that only parses, plans or
dispatches never loads scipy, and a warmed runner already holds
everything its jobs import.

Each check runs in a fresh interpreter: the pytest process running this
file has long since imported everything.
"""

import importlib.util
import json
import os
import pathlib
import select
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Seconds a child interpreter, hub or worker gets to boot or finish.
DEADLINE_S = 60.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(script: str):
    """Run ``script`` in a fresh interpreter; return its last stdout
    line parsed as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=_env(),
        capture_output=True, text=True, timeout=DEADLINE_S)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_parse_plan_and_validate_never_load_scipy():
    loaded = _python("""
        import json, sys
        import repro.cli, repro.runner, repro.service.daemon
        from repro.runner import plan_runs

        repro.cli.build_parser()
        for spec in plan_runs([f"e{i}" for i in range(1, 9)], quick=True):
            spec.validate()
        print(json.dumps(sorted(name for name in sys.modules
                                if name.split(".")[0] == "scipy")))
    """)
    assert loaded == []


def test_warm_runner_holds_solver_and_every_entry_point():
    result = _python("""
        import json, sys
        from repro.runner import JobRunner

        before = "scipy" in sys.modules
        JobRunner(jobs=1).warm()
        from repro.experiments import ENTRY_POINTS

        wanted = ["scipy.optimize", "repro.scenario"] + sorted(
            {fn.__module__ for fn in ENTRY_POINTS.values()})
        print(json.dumps({"before": before,
                          "missing": [name for name in wanted
                                      if name not in sys.modules]}))
    """)
    assert result == {"before": False, "missing": []}


def _scipy_mappings(pid: int, scipy_dir: str):
    """Files under the scipy package mapped into process ``pid``.

    Matched on the package directory itself: numpy's bundled
    ``numpy.libs/libscipy_openblas*.so`` is mapped in every numpy
    process and must not count.
    """
    with open(f"/proc/{pid}/maps", encoding="utf-8") as handle:
        return sorted({line.split()[-1] for line in handle
                       if scipy_dir in line})


def _read_banner(proc: subprocess.Popen) -> dict:
    """The hub's one-line ``serve-ready`` JSON banner on stdout."""
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            return json.loads(proc.stdout.readline())
        assert proc.poll() is None, f"hub exited with {proc.returncode}"
    raise AssertionError("hub printed no serve-ready banner")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
def test_dispatch_only_hub_never_maps_scipy(tmp_path):
    from repro.runner import RunSpec
    from repro.service.client import ServiceClient

    scipy_dir = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "")
    procs = []

    def spawn(*args, stdout=None):
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args], env=_env(),
            stdin=subprocess.DEVNULL, stdout=stdout or log, stderr=log))
        return procs[-1]

    # Unix socket paths are length-limited; keep this one short.
    with open(tmp_path / "fleet.log", "wb") as log, \
            tempfile.TemporaryDirectory(dir="/tmp") as sock_dir:
        sock = f"{sock_dir}/hub.sock"
        try:
            hub = spawn("serve", "--socket", sock, "--no-local",
                        "--jobs", "1", "--cache-dir",
                        str(tmp_path / "cache"), "--quiet",
                        stdout=subprocess.PIPE)
            assert _read_banner(hub)["local_execution"] is False
            assert _scipy_mappings(hub.pid, scipy_dir) == []

            spawn("worker", "--connect", sock, "--jobs", "1", "--quiet")
            client = ServiceClient(sock, timeout=DEADLINE_S).connect()
            try:
                outcomes = [outcome for __, outcome in client.submit_stream(
                    [RunSpec("e7", quick=True, seed=1).validate()])]
                assert outcomes[0].error is None
                assert client.stats()["remote_executed"] == 1
                assert _scipy_mappings(hub.pid, scipy_dir) == []
                client.shutdown(wait_bye=True)
            finally:
                client.close()
            assert [proc.wait(timeout=DEADLINE_S) for proc in procs] \
                == [0, 0]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
