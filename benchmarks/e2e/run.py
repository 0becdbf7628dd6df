"""The end-to-end benchmark of record: four workloads, checked outputs.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds N] [--trace 0|1] [--json-out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --regen-digests

For each workload, ``--trace 0`` boots ``repro`` several times to time
set-up, then runs smoke-scale warm-up plus timed passes for ``--seconds``
in one fresh child process and reports the end-to-end metrics.
``--trace 1`` instead runs a child with the span tracer installed,
alternating traced and untraced passes for ``--seconds``, and reports
the per-layer metrics.  Without ``--trace`` it does both.  Every
report of every pass is checked against an expected digest (see
README.md); the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "tests" / "golden" / "quick_report_hashes.json"
EXPECTED = HERE / "expected_digests.json"
WORKDIR = ROOT / ".bench_run"

#: Fresh interpreter boots whose median is ``setup_s``.
SETUP_BOOTS = 5
#: Every child must finish this long after the command started.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload, child_env  # noqa: E402

#: The layers a span is charged to, in table order.  ``experiments``
#: sums every entry point; ``other`` is root time in no layer.
LAYERS = ("sim", "net", "core.processing", "switches", "schedulers",
          "schedulers.batch", "fabric", "analysis", "core.framework",
          "scenario", "experiments", "runner", "runner.cache",
          "service.protocol", "service.journal", "service.client", "other")
#: Layers whose call counts are reported.
COUNTED = ("net", "core.processing", "switches", "schedulers",
           "schedulers.batch", "analysis", "runner.cache",
           "service.protocol", "service.journal")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "jobs_per_s": "jobs/s"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


# -- children ----------------------------------------------------------------

def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """One ``workloads.py`` child; its last stdout line is the result.

    The child leads its own process group, so a timeout also stops
    any hub or worker it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py")] + args, cwd=ROOT,
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workloads.py {' '.join(args)} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"workloads.py {' '.join(args)} exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


# -- statistics --------------------------------------------------------------

def summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and every sample.

    Quartiles interpolate linearly between samples (numpy's default);
    the exclusive method would report the extremes of three samples.
    """
    values = [float(v) for v in samples]
    if len(values) > 1:
        q1, mid, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = mid = q3 = values[0]
    return {"value": mid, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


# -- checks ------------------------------------------------------------------

def expected_digests(workload: Workload, specs_seed_pinned: bool,
                     smoke: bool) -> Optional[Dict[str, list]]:
    """Pinned digests keyed by spec key, or None off the pinned seed."""
    if not specs_seed_pinned:
        return None
    if workload.name == "paper-quick" and not smoke:
        golden = json.loads(GOLDEN.read_text())
        return {exp: [golden[f"exp:{exp}"]["sha256"],
                      golden[f"exp:{exp}"]["bytes"]]
                for exp in (f"e{i}" for i in range(1, 9))}
    return json.loads(EXPECTED.read_text())


def check(workload: Workload, record: Dict[str, Any], pinned: bool,
          smoke: bool) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every pass of the record."""
    outputs = [record[mode] for mode in ("timed", "traced")
               if mode in record]
    passes = [one for out in outputs for one in out["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = []
    if failed:
        problems.append(f"{failed} failed job(s) or process exit(s)")
    reference = passes[0]["digests"]
    expected = expected_digests(workload, pinned, smoke)
    for out in outputs if workload.fleet else ():
        local = out["reference_digests"]
        bad = sum(local.get(k) != v for k, v in reference.items())
        bad += len(set(local) ^ set(reference))
        if bad:
            problems.append(f"{bad} fleet report(s) differ from local "
                            f"execution")
            failed += bad
    for index, one in enumerate(passes):
        digests = one["digests"]
        if expected is None:
            bad = sum(reference.get(k) != v for k, v in digests.items())
            bad += len(set(reference) ^ set(digests))
            what = "differ from pass 1"
        else:
            if workload.name == "paper-quick" and not smoke:
                digests = {key.split("-", 1)[0]: value
                           for key, value in digests.items()}
            bad = sum(expected.get(k) != v for k, v in digests.items())
            what = "miss their expected digest"
        if bad:
            problems.append(f"pass {index + 1}: {bad} report(s) {what}")
            failed += bad
        if (one["wrapped"] > 0) != one["traced"]:
            problems.append(f"pass {index + 1}: traced={one['traced']} "
                            f"but {one['wrapped']} boundaries wrapped")
            failed += 1
    return attempted, failed, problems


# -- metrics -----------------------------------------------------------------

def end_to_end(workload: Workload, record: Dict[str, Any]) -> Dict:
    passes = record["timed"]["passes"]
    if workload.fleet:
        setup = [p["setup_s"] for p in passes]
        rss = [p["hub_rss_mb"] + p["worker_rss_mb"] for p in passes]
        rate = [p["jobs"] / p["cold_s"] for p in passes]
    else:
        setup = record["setup"]
        rss = [record["timed"]["rss_mb"]]
        rate = [p["jobs"] / p["wall_s"] for p in passes]
    values = {"wall_s": [p["wall_s"] for p in passes], "setup_s": setup,
              "peak_rss_mb": rss, "jobs_per_s": rate}
    return {name: dict(summary(values[name]), unit=unit)
            for name, unit in END_TO_END_UNITS.items()}


def traced_passes(record: Dict[str, Any]) -> Tuple[list, list]:
    """The traced child's (traced, untraced) passes."""
    passes = record["traced"]["passes"]
    return ([p for p in passes if p["traced"]],
            [p for p in passes if not p["traced"]])


def _add(into: Dict[str, list], layer: str, cell: Sequence[int]) -> None:
    acc = into.setdefault(layer, [0, 0, 0, 0])
    for index, value in enumerate(cell):
        acc[index] += value


def process_layers(record: Dict[str, Any]) -> Dict[str, Dict[str, list]]:
    """Per-process, per-layer [self_ns, incl_ns, calls, work].

    From the first traced pass.  The benchmark's own process counts
    only spans under a job's root; a fleet's hub and worker count every
    span, since their work has no root in this process.
    """
    out: Dict[str, Dict[str, list]] = {"client": {}}
    for item, layer, *cell in record["traced"]["table"]["spans"]:
        if item != "-":
            _add(out["client"], layer, cell)
    first = traced_passes(record)[0][0]
    for role, table in first.get("tables", {}).items():
        out[role] = {}
        for __, layer, *cell in table["spans"]:
            _add(out[role], layer, cell)
    return out


def layer_totals(record: Dict[str, Any]) -> Tuple[Dict[str, list], float]:
    """Per-layer totals over every process, and the traced wall (ns)."""
    totals: Dict[str, list] = {}
    for layers in process_layers(record).values():
        for layer, cell in layers.items():
            _add(totals, "experiments" if layer.startswith("experiments.")
                 else layer, cell)
    return totals, float(sum(record["traced"]["table"]["items"].values()))


def per_layer(workload: Workload, record: Dict[str, Any]) -> Dict:
    """The per-layer metrics, each as {"value", "unit"}.

    Span shares and counts come from the first traced pass; the
    overhead compares the traced passes with the untraced ones between
    them, and the rest is measured on those untraced passes.
    """
    totals, wall_ns = layer_totals(record)
    traced, passes = traced_passes(record)
    zero = [0, 0, 0, 0]
    out: Dict[str, Tuple[float, str]] = {
        "trace.wall_s": (traced[0]["wall_s"], "s"),
        "trace_overhead_pct": (
            100.0 * (median([p["wall_s"] for p in traced])
                     / median([p["wall_s"] for p in passes]) - 1.0), "%"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (
            100.0 * totals.get(layer, zero)[0] / wall_ns, "%")
    for layer in COUNTED:
        out[f"{layer}.calls"] = (totals.get(layer, zero)[2], "count")
    sim = totals.get("sim", zero)
    fabric = totals.get("fabric", zero)
    schedulers = totals.get("schedulers", zero)
    out["sim.events"] = (sim[3], "count")
    out["sim.events_per_s"] = (sim[3] / (sim[0] / 1e9) if sim[0] else 0.0,
                               "1/s")
    out["fabric.slots"] = (fabric[3], "count")
    out["fabric.slots_per_s"] = (
        fabric[3] / (fabric[0] / 1e9) if fabric[0] else 0.0, "1/s")
    out["schedulers.us_per_call"] = (
        schedulers[0] / 1e3 / schedulers[2] if schedulers[2] else 0.0,
        "us")
    out["runner.job_exec_s"] = (median([p["elapsed_s"] for p in passes]),
                                "s")
    out["runner.dispatch_ms_per_job"] = (median(
        [1e3 * ((p["cold_s"] if workload.fleet else p["wall_s"])
                - p["elapsed_s"]) / p["jobs"] for p in passes]), "ms")
    fleet = passes if workload.fleet else []

    def fleet_median(fn) -> float:
        return median([fn(p) for p in fleet]) if fleet else 0.0

    out["service.resubmit_jobs_per_s"] = (fleet_median(
        lambda p: p["jobs"] / median(p["resubmit_s"])), "jobs/s")
    out["hub.rss_mb"] = (fleet_median(lambda p: p["hub_rss_mb"]), "MiB")
    out["worker.rss_mb"] = (fleet_median(lambda p: p["worker_rss_mb"]),
                            "MiB")
    for name in ("executed", "cache_hits", "cache_lookup_misses",
                 "results_streamed"):
        out[f"service.{name}"] = (
            fleet_median(lambda p, n=name: p["stats"][n]), "count")
    out["service.journal_bytes_per_job"] = (
        fleet_median(lambda p: p["journal_bytes"] / p["jobs"]), "B")
    out["runner.cache_bytes_per_job"] = (
        fleet_median(lambda p: p["cache_bytes"] / p["jobs"]), "B")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}


def _row(cell: Sequence[int]) -> Dict[str, Any]:
    return {"self_s": cell[0] / 1e9, "incl_s": cell[1] / 1e9,
            "calls": cell[2], "work": cell[3]}


def layer_table(record: Dict[str, Any]) -> Dict[str, Any]:
    """Seconds, shares and counts per layer, per item and per process."""
    totals, wall_ns = layer_totals(record)
    traced = record["traced"]["table"]
    table: Dict[str, Any] = {
        "traced_wall_s": wall_ns / 1e9,
        "layers": {layer: dict(_row(cell),
                               share_pct=100.0 * cell[0] / wall_ns)
                   for layer, cell in sorted(totals.items())},
        "items": {item: {"wall_s": wall / 1e9,
                         "layers": {layer: _row(cell) for it, layer, *cell
                                    in traced["spans"] if it == item}}
                  for item, wall in traced["items"].items()},
    }
    processes = process_layers(record)
    if len(processes) > 1:
        table["processes"] = {
            role: {layer: _row(cell) for layer, cell in sorted(rows.items())}
            for role, rows in processes.items()}
    return table


def slim(record: Dict[str, Any]) -> None:
    """Drop per-report digests and raw span rows once they are used."""
    for out in (record.get("timed"), record.get("traced")):
        if out is None:
            continue
        out.pop("reference_digests", None)
        out.pop("table", None)
        for one in out["passes"]:
            one["reports"] = len(one.pop("digests"))
            one.pop("tables", None)


# -- one workload -------------------------------------------------------------

def run_workload(workload: Workload, seed: Optional[int], seconds: float,
                 trace: Optional[int], smoke: bool, workdir: Path,
                 deadline: float, boots: int) -> Dict[str, Any]:
    effective = workload.pinned_seed if seed is None else seed
    common = ["--workload", workload.name, "--workdir", str(workdir),
              "--seconds", repr(seconds)]
    if effective is not None:
        common += ["--seed", str(effective)]
    if smoke:
        common.append("--smoke")
    record: Dict[str, Any] = {"workload": workload.name, "seed": effective,
                              "smoke": smoke}
    if trace != 1 and not workload.fleet:
        record["setup"] = [
            run_child(["--mode", "setup"] + common, deadline)["setup_s"]
            for __ in range(boots)]
    if trace != 1:
        record["timed"] = run_child(["--mode", "timed"] + common, deadline)
    if trace != 0:
        record["traced"] = run_child(["--mode", "traced"] + common,
                                     deadline)
    pinned = effective == workload.pinned_seed
    record["attempted"], record["failed"], record["problems"] = check(
        workload, record, pinned, smoke)
    if trace != 1:
        record["end_to_end"] = end_to_end(workload, record)
    if trace != 0:
        record["per_layer"] = per_layer(workload, record)
        record["layer_table"] = layer_table(record)
    slim(record)
    return record


def print_record(record: Dict[str, Any]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}): "
          f"{record['attempted']} jobs attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"   FAILED CHECK: {problem}")
    for name, metric in record.get("end_to_end", {}).items():
        print(f"   {name:<14} {metric['value']:>14.6g} {metric['unit']:<7}"
              f" q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  "
              f"n={metric['n']}")
    table = record.get("layer_table")
    if table:
        print(f"   layer table, traced wall {table['traced_wall_s']:.3f} s:")
        print(f"   {'layer':<20} {'self s':>9} {'share':>7} {'calls':>9} "
              f"{'work':>10}")
        for layer, row in sorted(table["layers"].items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            print(f"   {layer:<20} {row['self_s']:>9.4f} "
                  f"{row['share_pct']:>6.1f}% {row['calls']:>9} "
                  f"{row['work']:>10}")
        for name in ("trace_overhead_pct", "other.self_pct"):
            print(f"   {name} = {record['per_layer'][name]['value']:.2f}")


# -- compare -------------------------------------------------------------------

def load_record(spec: str) -> Dict[str, Any]:
    """A ``--json-out`` record; ``FILE@N`` picks set N of a baseline."""
    path, _, index = spec.partition("@")
    data = json.loads(Path(path).read_text())
    if "sets" in data:
        data = data["sets"][int(index or -1)]
    return data


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a["samples"]
               for y in b["samples"]):
            return "better"
        if all(sign * (y - x) > 0 for x in a["samples"]
               for y in b["samples"]):
            return "worse"
        return "unresolved"
    # Runs drift against each other by more than passes within a run,
    # so a move inside the bound is never read as a gain either.
    if change > bound:
        return "worse"
    if -change > bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    a, b = load_record(path_a), load_record(path_b)
    worse = 0
    print(f"{'workload':<13} {'metric':<12} {'A median':>11} "
          f"{'A q1..q3':>21} {'B median':>11} {'B q1..q3':>21}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        ra = a["workloads"][name].get("end_to_end", {})
        rb = b["workloads"][name].get("end_to_end", {})
        for metric in metrics:
            if metric["name"] not in ra or metric["name"] not in rb:
                continue
            ma, mb = ra[metric["name"]], rb[metric["name"]]
            result = verdict(ma, mb, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{name:<13} {metric['name']:<12} {ma['value']:>11.5g} "
                  f"{ma['q1']:>10.5g}..{ma['q3']:<10.5g}"
                  f"{mb['value']:>11.5g} {mb['q1']:>10.5g}.."
                  f"{mb['q3']:<10.5g} {result}")
    return 1 if worse else 0


# -- digests -------------------------------------------------------------------

def regen_digests() -> int:
    """Rewrite expected_digests.json after proving the outputs agree.

    Refuses to write unless every fabric-sweep report equals the
    unbatched execution and every fleet report equals local execution.
    """
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.runner import execute

    out: Dict[str, list] = {}
    workdir = WORKDIR / f"regen-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            for smoke in (True, False):
                if name == "paper-quick" and not smoke:
                    continue  # pinned by tests/golden
                items = workloads.plan(name, workload.pinned_seed, smoke)
                what = "the planned specs"
                if workload.fleet:
                    specs = items[0][1]
                    got = workloads.fleet_pass(
                        specs, workdir / f"fleet-{smoke}", 0)["digests"]
                    want, __ = workloads.outcome_digests(
                        execute(specs, jobs=1))
                    what = "local execution"
                else:
                    got = workloads.local_pass(items)["digests"]
                    want = got
                    if name == "fabric-sweep":
                        want, __ = workloads.outcome_digests(
                            execute(items[0][1], jobs=1))
                        what = "replica_batch=False"
                if got != want or len(got) != sum(len(i[1]) for i in items):
                    print(f"refusing to write: {name} (smoke={smoke}) "
                          f"reports differ from {what}", file=sys.stderr)
                    return 1
                out.update(got)
                print(f"{name} smoke={smoke}: {len(got)} digests",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED} ({len(out)} digests)")
    return 0


# -- command line --------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of record (see README.md).")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace every pinned seed (no pinned "
                             "digests then: passes must agree)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-pass budget per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default both")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the full record (all samples, layer "
                             "and item tables)")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-scale inputs, one set-up boot, two "
                             "passes (tests)")
    parser.add_argument("--regen-digests", action="store_true",
                        help="rewrite expected_digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.regen_digests:
        return regen_digests()
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    names = args.workload or list(WORKLOADS)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    workdir = WORKDIR / str(os.getpid())
    records: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            print(f"running {name} ...", file=sys.stderr, flush=True)
            records[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace,
                args.smoke, workdir, deadline, 1 if args.smoke
                else SETUP_BOOTS)
            print_record(records[name])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
             "trace": args.trace, "workloads": records}, indent=1,
            sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {}
    for name, record in records.items():
        for section in ("end_to_end", "per_layer"):
            for metric, value in record.get(section, {}).items():
                key = metric if len(records) == 1 else f"{name}:{metric}"
                metrics[key] = {"value": value["value"],
                                "unit": value["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
