"""Tests for the ``repro.runner`` orchestration subsystem.

The load-bearing guarantees: plans are deterministic, parallel
execution is bit-identical to sequential, and the cache never serves a
wrong report (worst case it re-executes).  Executor tests run e7/e2
specs — the cheapest experiments — with small override grids.
"""

import json

import pytest

from repro.experiments.base import ExperimentConfig
from repro.runner import (
    ResultCache,
    RunSpec,
    canonical_json,
    derive_seed,
    execute,
    map_jobs,
    merge_outcomes,
    plan_runs,
    shard,
    write_json_report,
)
from repro.sim.errors import ConfigurationError

#: Cheap specs for executor tests (e7 pure mode is model-only, ~ms).
FAST_SPEC = RunSpec("e7", quick=True, overrides={"port_counts": [8, 16]})


class TestRunSpec:
    def test_key_is_stable_and_content_addressed(self):
        a = RunSpec("e1", quick=True)
        b = RunSpec("e1", quick=True)
        assert a.key() == b.key()
        assert a.key().startswith("e1-")
        assert a.key() != RunSpec("e1", quick=False).key()
        assert a.key() != RunSpec("e1", quick=True, seed=1).key()
        assert a.key() != RunSpec(
            "e1", quick=True, overrides={"n_ports": 4}).key()

    def test_overrides_order_does_not_change_key(self):
        a = RunSpec("e5", overrides={"n_ports": 8, "slots": 100})
        b = RunSpec("e5", overrides={"slots": 100, "n_ports": 8})
        assert a.key() == b.key()

    def test_canonical_round_trip(self):
        spec = RunSpec("e3", quick=True, seed=9, scheduler="islip",
                       overrides={"load": 0.5})
        again = RunSpec.from_canonical(spec.canonical())
        assert again == spec
        assert again.key() == spec.key()

    def test_validate_rejects_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="e1"):
            RunSpec("e99").validate()

    def test_to_config_is_pure(self):
        config = RunSpec("e7", quick=True, seed=5).to_config()
        assert config == ExperimentConfig(
            quick=True, seed=5, scheduler=None,
            measure_wallclock=False, overrides={})
        assert not config.measure_wallclock  # purity is non-negotiable


class TestPlan:
    def test_plain_run_keeps_historical_seeds(self):
        (spec,) = plan_runs(["e1"], quick=True)
        assert spec.seed is None

    def test_replicas_get_distinct_stable_seeds(self):
        first = plan_runs(["e5"], base_seed=7, replicas=3)
        again = plan_runs(["e5"], base_seed=7, replicas=3)
        assert first == again
        seeds = [s.seed for s in first]
        assert len(set(seeds)) == 3
        assert all(s is not None for s in seeds)
        # Derivation is positional, not sequential-draw: replica 2's
        # seed does not depend on how many replicas were planned.
        assert plan_runs(["e5"], base_seed=7, replicas=5)[2].seed \
            == seeds[2]

    def test_seed_derivation_decorrelates_experiments(self):
        assert derive_seed(1, "e1", 0) != derive_seed(1, "e2", 0)
        assert derive_seed(1, "e1", 0) != derive_seed(2, "e1", 0)

    def test_grid_expansion_is_deterministic_product(self):
        specs = plan_runs(["e5"], grid={"n_ports": [8, 16],
                                        "slots": [100, 200]})
        assert len(specs) == 4
        assert [s.overrides for s in specs] == [
            {"n_ports": 8, "slots": 100},
            {"n_ports": 8, "slots": 200},
            {"n_ports": 16, "slots": 100},
            {"n_ports": 16, "slots": 200},
        ]

    def test_shard_partitions_the_plan(self):
        specs = plan_runs(["e1", "e2", "e3", "e4", "e5"], quick=True)
        shards = [shard(specs, 2, i) for i in range(2)]
        assert sorted(s.key() for part in shards for s in part) \
            == sorted(s.key() for s in specs)
        assert shards[0] == specs[0::2]
        with pytest.raises(ValueError):
            shard(specs, 2, 2)


class TestExecutor:
    def test_parallel_bit_identical_to_sequential(self):
        specs = [FAST_SPEC,
                 RunSpec("e7", quick=True, seed=3,
                         overrides={"port_counts": [8, 16]}),
                 RunSpec("e2", quick=True,
                         overrides={"port_counts": [16]})]
        sequential = execute(specs, jobs=1)
        parallel = execute(specs, jobs=2)
        for seq, par in zip(sequential, parallel):
            assert seq.spec == par.spec
            assert canonical_json(seq.report.data) \
                == canonical_json(par.report.data)
            assert seq.report.tables == par.report.tables

    def test_outcomes_preserve_spec_order(self):
        specs = [RunSpec("e7", quick=True, seed=s,
                         overrides={"port_counts": [8]})
                 for s in (5, 1, 9)]
        outcomes = execute(specs, jobs=2)
        assert [o.spec for o in outcomes] == specs

    def test_map_jobs_preserves_order(self):
        assert map_jobs(abs, [-3, 2, -1], jobs=2) == [3, 2, 1]
        with pytest.raises(ValueError):
            map_jobs(abs, [1], jobs=0)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(FAST_SPEC) is None
        (cold,) = execute([FAST_SPEC], cache=cache)
        assert not cold.cached
        assert len(cache) == 1
        (warm,) = execute([FAST_SPEC], cache=cache)
        assert warm.cached
        assert canonical_json(warm.report.data) \
            == canonical_json(cold.report.data)
        assert warm.report.tables == cold.report.tables
        assert cache.stats.hits == 1

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        other = RunSpec("e7", quick=True, seed=1,
                        overrides={"port_counts": [8, 16]})
        assert cache.load(other) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        path = cache.path_for(FAST_SPEC)
        path.write_text("{not json", encoding="utf-8")
        assert cache.load(FAST_SPEC) is None
        # And the executor recovers by re-running.
        (outcome,) = execute([FAST_SPEC], cache=cache)
        assert not outcome.cached
        assert cache.load(FAST_SPEC) is not None

    def test_failure_does_not_discard_completed_work(self, tmp_path):
        # A job failing late must not lose the finished jobs before
        # it: reports stream into the cache as they complete.
        cache = ResultCache(tmp_path)
        bad = RunSpec("e7", quick=True,
                      overrides={"port_counts": "bogus"})
        for jobs in (1, 2):
            good, failed = execute([FAST_SPEC, bad], jobs=jobs,
                                   cache=cache)
            assert good.error is None
            assert failed.kind == "ERROR" and failed.error is not None
            assert cache.load(FAST_SPEC) is not None

    def test_foreign_payload_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        path = cache.path_for(FAST_SPEC)
        payload = json.loads(path.read_text())
        payload["spec"]["seed"] = 12345  # key no longer matches body
        path.write_text(json.dumps(payload))
        assert cache.load(FAST_SPEC) is None

    def test_bitflipped_report_evicted_and_reexecuted(self, tmp_path):
        # Entries travel (rsync, cache-lookup frames): a payload whose
        # digest no longer matches must never be served.
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        path = cache.path_for(FAST_SPEC)
        payload = json.loads(path.read_text())
        payload["report"]["title"] = "tampered"  # spec half untouched
        path.write_text(json.dumps(payload))
        assert cache.load(FAST_SPEC) is None
        assert cache.stats.evictions == 1
        assert not path.exists()
        (outcome,) = execute([FAST_SPEC], cache=cache)
        assert not outcome.cached
        assert cache.load(FAST_SPEC) is not None

    def test_pre_digest_entry_reads_as_miss(self, tmp_path):
        # Entries written before the digest field existed must be
        # treated as unverifiable, not trusted.
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        path = cache.path_for(FAST_SPEC)
        payload = json.loads(path.read_text())
        del payload["digest"]
        path.write_text(json.dumps(payload))
        assert cache.load(FAST_SPEC) is None
        assert cache.stats.evictions == 1

    def test_truncated_file_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([FAST_SPEC], cache=cache)
        path = cache.path_for(FAST_SPEC)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert cache.load(FAST_SPEC) is None
        assert cache.stats.evictions == 1
        assert not path.exists()

    def test_digest_is_stable_across_roundtrip(self, tmp_path):
        from repro.runner.cache import (payload_digest,
                                        report_to_payload)

        cache = ResultCache(tmp_path)
        (outcome,) = execute([FAST_SPEC], cache=cache)
        stored = json.loads(cache.path_for(FAST_SPEC).read_text())
        assert stored["digest"] \
            == payload_digest(report_to_payload(outcome.report))


class TestManifest:
    def test_merge_outcomes_keeps_report_shape(self):
        outcomes = execute([FAST_SPEC], jobs=1)
        merged = merge_outcomes(outcomes, title="unit sweep")
        assert merged.experiment_id == "sweep"
        assert merged.title == "unit sweep"
        key = FAST_SPEC.key()
        assert merged.data[key]["spec"] == FAST_SPEC.canonical()
        assert merged.data[key]["data"]
        assert "run manifest" in merged.tables[0]
        assert merged.render()  # the familiar renderer still works

    def test_json_report_is_deterministic(self, tmp_path):
        outcomes = execute([FAST_SPEC], jobs=1)
        write_json_report(outcomes, tmp_path / "a.json")
        write_json_report(outcomes, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["manifest"]["jobs"] == 1
        assert FAST_SPEC.key() in payload["reports"]


class TestCli:
    def test_run_quick_parallel_round_trip(self, capsys):
        from repro.cli import main

        assert main(["run", "e1", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "Figure 1" in out

    def test_run_with_cache_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        args = ["run", "e7", "--quick", "--jobs", "2",
                "--cache-dir", str(tmp_path),
                "--set", "port_counts=[8, 16]"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 executed, 0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 1 cached" in second

    def test_sweep_round_trip(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "e7", "--quick", "--replicas", "2",
                     "--base-seed", "3", "--set", "port_counts=[[8]]",
                     "--json-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: 2 jobs" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["reports"]) == 2

    def test_bad_set_pair_errors(self, capsys):
        from repro.cli import main

        assert main(["run", "e1", "--quick", "--set", "nonsense"]) == 2
        assert "bad --set" in capsys.readouterr().err

    def test_bad_counts_error_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run", "e1", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["sweep", "e7", "--quick", "--shards", "2",
                     "--shard-index", "5"]) == 2
        assert "--shard-index" in capsys.readouterr().err

    def test_unknown_scheduler_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run", "e3", "--quick",
                     "--scheduler", "bogus"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_wallclock_flag_restores_e7_series(self, capsys):
        from repro.cli import main

        assert main(["run", "e7", "--quick"]) == 0
        assert "wall-clock" not in capsys.readouterr().out
        assert main(["run", "e7", "--quick", "--wallclock"]) == 0
        assert "wall-clock" in capsys.readouterr().out

    def test_cache_dir_collides_with_file(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "occupied"
        bogus.write_text("not a directory")
        assert main(["run", "e7", "--quick",
                     "--cache-dir", str(bogus)]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestReplicaBatch:
    """--jobs 1 vs --jobs 4 vs --replica-batch: same bytes, same cache."""

    E5_OVERRIDES = {"loads": [0.5, 0.9], "slots": 120, "warmup": 20,
                    "n_ports": 8}

    def _plan(self):
        return plan_runs(["e5"], quick=True, base_seed=5, replicas=3,
                         grid={key: [value] for key, value
                               in self.E5_OVERRIDES.items()})

    @staticmethod
    def _payloads(outcomes):
        from repro.runner.cache import report_to_payload

        return [canonical_json(report_to_payload(o.report))
                for o in outcomes]

    def test_byte_identical_across_execution_modes(self):
        specs = self._plan()
        sequential = execute(specs, jobs=1)
        parallel = execute(specs, jobs=4)
        batched = execute(specs, jobs=1, replica_batch=True)
        batched_parallel = execute(specs, jobs=4, replica_batch=True)
        reference = self._payloads(sequential)
        assert self._payloads(parallel) == reference
        assert self._payloads(batched) == reference
        assert self._payloads(batched_parallel) == reference

    def test_replica_batch_fills_cache_for_plain_runs(self, tmp_path):
        specs = self._plan()
        cache = ResultCache(tmp_path)
        cold = execute(specs, jobs=1, cache=cache, replica_batch=True)
        assert all(not o.cached for o in cold)
        # Warm pass — any mode — re-executes nothing.
        warm = execute(specs, jobs=4, cache=cache)
        assert all(o.cached for o in warm)
        warm_batch = execute(specs, jobs=1, cache=cache,
                             replica_batch=True)
        assert all(o.cached for o in warm_batch)
        assert self._payloads(warm) == self._payloads(cold)
        assert self._payloads(warm_batch) == self._payloads(cold)

    def test_mixed_plan_batches_only_eligible_groups(self):
        # e5 replicas batch; e7 (no batch entry point) and a seedless
        # e5 run fall back to per-spec execution — outputs unchanged.
        specs = self._plan() + [
            RunSpec("e7", quick=True, overrides={"port_counts": [8]}),
            RunSpec("e5", quick=True, overrides=self.E5_OVERRIDES),
        ]
        plain = execute(specs, jobs=1)
        batched = execute(specs, jobs=1, replica_batch=True)
        assert self._payloads(batched) == self._payloads(plain)

    def test_cli_replica_batch_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        plain_out = tmp_path / "plain.json"
        batch_out = tmp_path / "batch.json"
        base = ["sweep", "e5", "--quick", "--replicas", "2",
                "--base-seed", "3",
                "--set", "loads=[[0.5]]", "--set", "slots=100",
                "--set", "warmup=10", "--set", "n_ports=8"]
        assert main(base + ["--json-out", str(plain_out)]) == 0
        assert main(base + ["--replica-batch",
                            "--json-out", str(batch_out)]) == 0
        capsys.readouterr()
        plain = json.loads(plain_out.read_text())["reports"]
        batch = json.loads(batch_out.read_text())["reports"]
        assert plain == batch
