"""Run manifests: merge shard outputs back into report shape.

After the executor finishes, the manifest is the durable record of what
ran: one row per job (spec key, what it was, cache hit or executed,
wall time, how many paper-shape checks passed).  ``merge_outcomes``
folds a whole sweep back into the existing
:class:`~repro.experiments.base.ExperimentReport` shape, so everything
downstream that knows how to render, assert on or persist a report
(the CLI, ``--json-out``, tests) works unchanged on sweep output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.tables import render_table
from repro.experiments.base import ExperimentReport
from repro.runner.executor import RunOutcome
from repro.runner.spec import jsonable


@dataclass
class ManifestEntry:
    key: str
    label: str
    cached: bool
    elapsed_s: float
    n_expectations: int
    #: Failure description for jobs that produced no real report
    #: (worker crash); ``None`` on success.
    error: "str | None" = None
    #: Failure-taxonomy tag (``CRASH``/``TIMEOUT``/``OOM``/
    #: ``QUARANTINED``/``ERROR``) when ``error`` is set, so automation
    #: can tell a governor kill from an entry-point exception.
    kind: "str | None" = None


class RunManifest:
    """Summary of one executor invocation."""

    def __init__(self, entries: List[ManifestEntry]) -> None:
        self.entries = entries

    @classmethod
    def from_outcomes(cls,
                      outcomes: Sequence[RunOutcome]) -> "RunManifest":
        return cls([
            ManifestEntry(
                key=o.spec.key(),
                label=o.spec.describe(),
                cached=o.cached,
                elapsed_s=o.elapsed_s,
                n_expectations=len(o.report.expectations),
                error=o.error,
                kind=o.kind,
            )
            for o in outcomes
        ])

    @classmethod
    def from_payload(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_payload` JSON.

        The inverse half of the taxonomy round-trip: CI and tests read
        a ``--json-out`` artifact back and assert on typed rows.
        Unknown fields are ignored; ``error``/``kind`` default to
        ``None`` for payloads written before the taxonomy existed.
        """
        entries = [
            ManifestEntry(
                key=str(raw["key"]),
                label=str(raw["label"]),
                cached=bool(raw["cached"]),
                elapsed_s=float(raw["elapsed_s"]),
                n_expectations=int(raw["n_expectations"]),
                error=raw.get("error"),
                kind=raw.get("kind"),
            )
            for raw in payload.get("entries", [])
        ]
        return cls(entries)

    @property
    def n_cached(self) -> int:
        return sum(1 for e in self.entries if e.cached)

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.entries if e.error is not None)

    @property
    def n_executed(self) -> int:
        return len(self.entries) - self.n_cached - self.n_failed

    def render(self) -> str:
        rows = [[e.key, e.label,
                 (e.kind or "FAIL") if e.error
                 else ("hit" if e.cached else "run"),
                 f"{e.elapsed_s:.2f}s", str(e.n_expectations)]
                for e in self.entries]
        failed = f", {self.n_failed} FAILED" if self.n_failed else ""
        table = render_table(
            ["spec", "job", "cache", "wall", "checks"], rows,
            title=f"run manifest: {len(self.entries)} jobs, "
                  f"{self.n_executed} executed, {self.n_cached} cached"
                  f"{failed}")
        if self.n_failed:
            lines = [table, ""]
            lines.extend(f"  [FAIL] {e.key}: {e.error}"
                         for e in self.entries if e.error)
            return "\n".join(lines)
        return table

    def to_payload(self) -> dict:
        return {
            "jobs": len(self.entries),
            "executed": self.n_executed,
            "cached": self.n_cached,
            "entries": [vars(e) for e in self.entries],
        }


def merge_outcomes(outcomes: Sequence[RunOutcome],
                   title: str = "sweep") -> ExperimentReport:
    """Shard outputs merged into one :class:`ExperimentReport`.

    ``data`` maps each spec key to ``{"spec", "data", "expectations"}``
    — the full per-job record, content-addressed like the cache.
    ``tables`` carries the manifest summary, and ``expectations``
    aggregates one line per job so ``report.render()`` reads as the
    sweep's checklist.
    """
    manifest = RunManifest.from_outcomes(outcomes)
    data: Dict[str, dict] = {}
    expectations: List[str] = []
    for outcome in outcomes:
        data[outcome.spec.key()] = {
            "spec": outcome.spec.canonical(),
            "data": outcome.report.data,
            "expectations": list(outcome.report.expectations),
        }
        expectations.append(
            f"{outcome.spec.describe()}: "
            f"{len(outcome.report.expectations)} checks satisfied")
    return ExperimentReport(
        experiment_id="sweep",
        title=title,
        tables=[manifest.render()],
        data=data,
        expectations=expectations,
    )


def write_json_report(outcomes: Sequence[RunOutcome], path) -> None:
    """Canonical JSON of a run: manifest + every report, spec-keyed.

    This is the machine-readable artifact CI uploads.  The
    ``"reports"`` section is deterministic — two runs of the same plan
    produce identical report payloads, which is what CI diffs.  The
    ``"manifest"`` section records *this* run (wall times, cache
    hit/run per job) and naturally differs between runs.
    """
    from repro.runner.cache import report_to_payload

    payload = {
        "manifest": RunManifest.from_outcomes(outcomes).to_payload(),
        "reports": {
            o.spec.key(): {
                "spec": o.spec.canonical(),
                "report": report_to_payload(o.report),
            }
            for o in outcomes
        },
    }
    Path(path).write_text(
        json.dumps(jsonable(payload), sort_keys=True, indent=1) + "\n",
        encoding="utf-8")


__all__ = ["RunManifest", "ManifestEntry", "merge_outcomes",
           "write_json_report"]
