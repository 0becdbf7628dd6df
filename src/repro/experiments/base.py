"""Shared experiment types: the run configuration and the report.

Every experiment module exposes a *pure* entry point::

    def run(config: ExperimentConfig) -> ExperimentReport

Pure means: the report is a deterministic function of ``config`` alone
— no wall-clock measurements, no module-level counters, no ambient RNG.
That contract is what lets ``repro.runner`` execute experiments in
worker processes and cache their reports content-addressed by spec.
The historical ``run_eN(quick=...)`` wrappers remain for direct calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on.

    Attributes
    ----------
    quick:
        Reduced problem sizes (CI/smoke), same shapes.
    seed:
        Base seed for every RNG the experiment owns.  ``None`` keeps
        each experiment's historical default seeds, so existing numbers
        stay stable.
    scheduler:
        Registry-name override for experiments that sweep a single
        framework scheduler (e1, e3, e6, e8).  ``None`` keeps each
        experiment's default.
    measure_wallclock:
        Allow non-deterministic extras (e7's Python wall-clock sanity
        series).  Off by default: a pure run must be bit-reproducible.
    overrides:
        Experiment-specific knobs (``n_ports``, ``duration_ps``,
        ``loads`` ...).  Experiments that declare a ``KNOWN_OVERRIDES``
        set surface unknown keys as report warnings (see
        :meth:`unknown_overrides`); keys outside any declaration are
        ignored.
    """

    quick: bool = False
    seed: Optional[int] = None
    scheduler: Optional[str] = None
    measure_wallclock: bool = False
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any) -> Any:
        """An override value, or ``default`` when not overridden."""
        return self.overrides.get(name, default)

    def unknown_overrides(self, known: Iterable[str]) -> List[str]:
        """Override keys outside an experiment's declared set, sorted."""
        return sorted(set(self.overrides) - set(known))

    def derive_seed(self, default: int) -> int:
        """A per-stream seed.

        Experiments own several independent RNG streams (traffic,
        demand matrices, estimator noise ...), each with a historical
        default seed.  With no base seed configured the default is
        returned unchanged — bit-compatible with the seed repo.  With a
        base seed, every stream moves together but streams stay
        distinct (1009 is prime, so distinct defaults never collide
        for base seeds below it).
        """
        if self.seed is None:
            return default
        return self.seed * 1009 + default


@dataclass
class ExperimentReport:
    """One experiment's output: printable tables plus raw data.

    Attributes
    ----------
    experiment_id:
        "e1".."e8".
    title:
        Which paper artifact this reproduces.
    tables:
        Rendered ASCII tables (what ``repro run`` prints).
    data:
        Raw series keyed by name, for tests' assertions (each value
        is whatever the experiment found natural: lists, dicts,
        floats).
    expectations:
        Human-readable statements of the paper-shape checks this run
        satisfied (filled by the experiment itself after verifying).
    warnings:
        Configuration smells the run survived but the caller should
        see — e.g. override keys the experiment does not define.
    """

    experiment_id: str
    title: str
    tables: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)
    expectations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def check_overrides(self, config: ExperimentConfig,
                        known: Iterable[str]) -> None:
        """Collect a warning for every override key outside ``known``.

        This is the opt-in strict validation of
        ``ExperimentConfig.overrides``: experiments declare their
        ``KNOWN_OVERRIDES`` and call this first, so a typo like
        ``--set durration_ps=...`` surfaces in the report instead of
        silently running the defaults.
        """
        known = sorted(set(known))
        for key in config.unknown_overrides(known):
            self.warnings.append(
                f"unknown override {key!r} ignored by "
                f"{self.experiment_id} (known: {', '.join(known)})")

    def render(self) -> str:
        """Full printable report."""
        parts = [f"== {self.experiment_id.upper()}: {self.title} =="]
        parts.extend(self.tables)
        if self.warnings:
            parts.append("Warnings:")
            parts.extend(f"  [!!] {line}" for line in self.warnings)
        if self.expectations:
            parts.append("Checks:")
            parts.extend(f"  [ok] {line}" for line in self.expectations)
        return "\n\n".join(parts)


__all__ = ["ExperimentConfig", "ExperimentReport"]
