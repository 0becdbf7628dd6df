"""Run statistics: confidence intervals and steady-state handling.

Simulation results without error bars invite over-reading.  This module
provides the two standard tools:

* :func:`batch_means_ci` — the method of batch means: chop a
  (correlated) output series into batches, treat batch averages as
  approximately independent, and build a Student-t confidence interval.
* :func:`truncate_warmup` — initial-transient deletion by the
  simple-and-robust MSER-lite rule: drop the prefix that minimises the
  standard error of the remainder.

Used by experiment code that reports a mean of anything measured over
simulated time (delays, occupancies, per-epoch utilisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.errors import ConfigurationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n_batches: int

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    @property
    def relative_precision(self) -> float:
        """half_width / |mean| (inf when the mean is zero)."""
        if self.mean == 0:
            return float("inf")
        return self.half_width / abs(self.mean)

    def __str__(self) -> str:
        return (f"{self.mean:.6g} ± {self.half_width:.3g} "
                f"({self.confidence:.0%}, {self.n_batches} batches)")


def batch_means_ci(values: Sequence[float], n_batches: int = 10,
                   confidence: float = 0.95) -> ConfidenceInterval:
    """Batch-means confidence interval for a correlated series.

    ``values`` must be at least ``2 * n_batches`` long so every batch
    carries some information; trailing remainder samples are dropped.
    ``values`` may be any sequence or ndarray (a float64 array — e.g. a
    PacketLog-derived column — passes through without copying).
    """
    if n_batches < 2:
        raise ConfigurationError("need >= 2 batches")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    data = np.asarray(values, dtype=np.float64)
    if data.size < 2 * n_batches:
        raise ConfigurationError(
            f"need >= {2 * n_batches} samples for {n_batches} batches, "
            f"got {data.size}")
    batch_size = data.size // n_batches
    trimmed = data[:batch_size * n_batches]
    batches = trimmed.reshape(n_batches, batch_size).mean(axis=1)
    mean = float(batches.mean())
    if n_batches > 1:
        std_err = float(batches.std(ddof=1)) / np.sqrt(n_batches)
    else:
        std_err = 0.0
    # Imported here, not at module top: scipy.stats is the heaviest
    # import in the package and no experiment calls this function.
    from scipy import stats as sps

    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n_batches - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * std_err,
                              confidence=confidence,
                              n_batches=n_batches)


def truncate_warmup(values: Sequence[float],
                    max_fraction: float = 0.5) -> Tuple[int, List[float]]:
    """MSER-style warmup truncation.

    Returns ``(cut_index, values[cut_index:])`` where ``cut_index``
    minimises the standard error of the remaining mean, searched over
    prefixes up to ``max_fraction`` of the series.

    Every candidate tail's ``var / size`` score is evaluated at once
    from suffix cumulative sums — O(n) total instead of the literal
    O(n²) rescan (kept as
    :func:`repro.analysis.reference.reference_truncate_warmup` and
    fuzz-matched).  PacketLog columns pass through as arrays without
    per-cut copies.
    """
    if not 0.0 <= max_fraction < 1.0:
        raise ConfigurationError("max_fraction must be in [0, 1)")
    data = np.asarray(values, dtype=np.float64)
    n = data.size
    if n < 4:
        return 0, list(data)
    # Candidate cuts leave a tail of >= 2 samples (the reference scan
    # breaks there) and respect the max_fraction prefix bound.
    last_cut = min(int(n * max_fraction), n - 2)
    suffix_sum = np.cumsum(data[::-1])[::-1]
    suffix_sq = np.cumsum((data * data)[::-1])[::-1]
    sizes = (n - np.arange(last_cut + 1)).astype(np.float64)
    sums = suffix_sum[:last_cut + 1]
    squares = suffix_sq[:last_cut + 1]
    means = sums / sizes
    variances = squares / sizes - means * means
    # Cancellation can leave a tiny negative variance where the exact
    # value is ~0; clamp so the argmin ranks it like the reference's
    # non-negative var.
    np.maximum(variances, 0.0, out=variances)
    scores = variances / sizes
    best_cut = int(np.argmin(scores))
    return best_cut, list(data[best_cut:])


def compare_means(a: Sequence[float], b: Sequence[float],
                  confidence: float = 0.95) -> Tuple[float, bool]:
    """Difference of means with a Welch test.

    Returns ``(mean(a) - mean(b), significant)`` where ``significant``
    is True when the two-sided Welch t-test rejects equality at the
    given confidence.  Experiments use this before claiming "X beats Y".
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.size < 2 or b_arr.size < 2:
        raise ConfigurationError("need >= 2 samples per side")
    diff = float(a_arr.mean() - b_arr.mean())
    if np.allclose(a_arr, a_arr[0]) and np.allclose(b_arr, b_arr[0]):
        # Degenerate zero-variance case: significance is exact equality.
        return diff, not np.isclose(diff, 0.0)
    from scipy import stats as sps  # see batch_means_ci

    __, p_value = sps.ttest_ind(a_arr, b_arr, equal_var=False)
    return diff, bool(p_value < (1.0 - confidence))


__all__ = [
    "ConfidenceInterval",
    "batch_means_ci",
    "truncate_warmup",
    "compare_means",
]
