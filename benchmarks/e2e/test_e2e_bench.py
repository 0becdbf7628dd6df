"""Tests of the end-to-end benchmark itself, at smoke scale.

The tracer only ever runs in child processes here, so no wrapper can
leak into the rest of the test session.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

#: Installs the tracer, then runs every in-process workload's smoke
#: pass twice under it and prints the span tables as JSON.
TRACED_SMOKE = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import spans
tracer = spans.Tracer().install()
import workloads
from repro.scenario import report
installed = spans.count_wrapped()
rebound = spans.is_wrapped(report.render_table)
out = {{}}
for name, workload in workloads.WORKLOADS.items():
    if workload.fleet:
        continue
    items = workloads.plan(name, workload.pinned_seed, True)
    tables = []
    for __ in range(2):
        tracer.reset()
        workloads.local_pass(items, tracer)
        tables.append(tracer.table())
    out[name] = tables
tracer.uninstall()
print(json.dumps({{"tables": out, "installed": installed,
                  "rebound": rebound, "left": spans.count_wrapped()}}))
"""


def _python(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.stdout.strip(), proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_children(tmp_path_factory):
    """Three independent smoke subprocesses, run side by side."""
    tmp = tmp_path_factory.mktemp("e2e")
    commands = {
        "traced": ["-c", TRACED_SMOKE.format(here=str(HERE),
                                             src=str(ROOT / "src"))],
        "fleet": [str(HERE / "workloads.py"), "--mode", "traced",
                  "--workload", "fleet-sweep", "--smoke",
                  "--workdir", str(tmp / "fleet")],
        "record": [str(HERE / "run.py"), "--workload", "packet-path",
                   "--smoke", "--json-out", str(tmp / "record.json")],
    }
    procs = {}
    try:
        for name, args in commands.items():
            with open(tmp / f"{name}.out", "w") as out, \
                    open(tmp / f"{name}.err", "w") as err:
                procs[name] = subprocess.Popen(
                    [sys.executable] + args, cwd=ROOT, stdout=out,
                    stderr=err)
        for name, proc in procs.items():
            assert proc.wait(timeout=TIMEOUT_S) == 0, \
                (tmp / f"{name}.err").read_text()
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = {name: json.loads((tmp / f"{name}.out").read_text()
                                .strip().splitlines()[-1])
               for name in commands}
    results["record_file"] = json.loads((tmp / "record.json").read_text())
    return results


@pytest.fixture(scope="module")
def traced_smoke(smoke_children):
    return smoke_children["traced"]


@pytest.fixture(scope="module")
def fleet_traced(smoke_children):
    return smoke_children["fleet"]


@pytest.fixture(scope="module")
def smoke_record(smoke_children):
    return smoke_children["record"], smoke_children["record_file"]


def _layer_calls(tables) -> dict:
    calls: dict = {}
    for table in tables:
        for item, layer, __, __, count, __ in table["spans"]:
            calls[layer] = calls.get(layer, 0) + count
    return calls


def test_every_declared_layer_records_calls(traced_smoke, fleet_traced):
    for name, workload in workloads.WORKLOADS.items():
        if workload.fleet:
            tables = [fleet_traced["table"],
                      *fleet_traced["passes"][0]["tables"].values()]
        else:
            tables = [traced_smoke["tables"][name][0]]
        calls = _layer_calls(tables)
        missing = [layer for layer in workload.layers
                   if calls.get(layer, 0) < 1]
        assert not missing, f"{name}: no calls recorded in {missing}"


def test_install_rebinds_every_reference_and_uninstall_restores(
        traced_smoke):
    assert traced_smoke["installed"] > len(workloads.WORKLOADS)
    assert traced_smoke["rebound"], "from-imported name kept the original"
    assert traced_smoke["left"] == 0


def test_item_self_times_sum_to_item_wall(traced_smoke):
    for name, (table, __) in traced_smoke["tables"].items():
        for item, wall in table["items"].items():
            total = sum(row[2] for row in table["spans"] if row[0] == item)
            assert abs(total - wall) <= 0.01 * wall, (name, item)


def test_counts_repeat_exactly_across_passes(traced_smoke):
    for name, (first, second) in traced_smoke["tables"].items():
        def counts(table):
            return [(item, layer, calls, work)
                    for item, layer, __, __, calls, work in table["spans"]]
        assert counts(first) == counts(second), name


def test_untraced_passes_run_the_original_functions(smoke_record):
    __, record = smoke_record
    run = record["workloads"]["packet-path"]
    passes = run["timed"]["passes"] + run["traced"]["passes"]
    assert [p["traced"] for p in run["traced"]["passes"]] == [True, False]
    for one in passes:
        assert (one["wrapped"] > 0) == one["traced"]


def test_smoke_run_is_correct_and_emits_the_declared_metrics(
        smoke_record):
    line, record = smoke_record
    assert line["correct"] and line["failed"] == 0 and line["attempted"]
    declared = json.loads(BENCHMARK.read_text())
    run = record["workloads"]["packet-path"]
    for section in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in declared[section]}
        got = {name: m["unit"] for name, m in run[section].items()}
        assert got == want, section
    assert set(line["metrics"]) == {m["name"] for section in (
        "end_to_end", "per_layer") for m in declared[section]}


def test_tampered_digest_fails_the_run(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(HERE, checkout / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, checkout)
    (checkout / "src").symlink_to(ROOT / "src")
    digests_path = checkout / "benchmarks" / "e2e" / "expected_digests.json"
    digests = json.loads(digests_path.read_text())
    key = next(k for k in digests if k.startswith("scenario-incast"))
    digests[key][0] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    proc = _python([str(checkout / "benchmarks" / "e2e" / "run.py"),
                    "--workload", "packet-path", "--smoke", "--trace", "0"],
                   cwd=checkout)
    line = _last_json(proc)
    assert proc.returncode != 0
    assert not line["correct"] and line["failed"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path)
    proc = _python([str(tmp_path / "benchmarks" / "e2e" / "run.py"),
                    "--workload", "paper-quick"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_meets_the_limits():
    declared = json.loads(BENCHMARK.read_text())
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 1 <= declared["run_seconds"] <= 60
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    e2e, layers = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for metric in e2e + layers:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", "worse"),
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", "better"),
    ([10, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "unchanged"),
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "higher", "worse"),
    ([10, 14, 6], [10, 13, 7], "lower", "unresolved"),
    ([10, 14, 6], [20, 24, 16], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, expected):
    assert bench.verdict(bench.summary(a), bench.summary(b), better,
                         0.1) == expected


def test_compare_exits_one_on_a_regression(tmp_path, capsys):
    def record(samples):
        return {"workloads": {"paper-quick": {"end_to_end": {
            "wall_s": bench.summary(samples)}}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record([10, 10.1, 9.9])))
    b.write_text(json.dumps(record([15, 15.1, 14.9])))
    assert bench.compare(str(a), str(b)) == 1
    assert bench.compare(str(a), str(a)) == 0
    assert "worse" in capsys.readouterr().out
