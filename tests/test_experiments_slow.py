"""Quick-mode runs of the remaining end-to-end experiments.

Separated from test_experiments.py so the heavier framework-driving
experiments (E3, E4, E8) can be deselected with ``-k "not slow_exp"``
during rapid iteration; they still run in the default suite.
"""

import pytest

from repro.experiments.e3_utilization import run_e3
from repro.experiments.e4_jitter import run_e4
from repro.experiments.e8_sync import run_e8


class TestE3SlowExp:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e3(quick=True)

    def test_utilisation_falls_with_epoch(self, report):
        utils = report.data["utilisation"]
        assert utils[0] > utils[-1]

    def test_grant_ordering_ablation(self, report):
        ablation = report.data["ablation"]
        assert ablation["optimistic"]["drops"] > \
            ablation["ordered"]["drops"]


class TestE4SlowExp:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e4(quick=True)

    def test_slow_scheduling_hurts_p99(self, report):
        assert report.data["slow"]["p99_ps"] > \
            10 * report.data["fast"]["p99_ps"]

    def test_slow_scheduling_hurts_jitter(self, report):
        assert report.data["slow"]["jitter_ps"] > \
            10 * max(report.data["fast"]["jitter_ps"], 1.0)

    def test_both_regimes_deliver(self, report):
        assert report.data["fast"]["delivered"] > 0
        assert report.data["slow"]["delivered"] > 0


class TestE8SlowExp:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e8(quick=True)

    def test_slow_mode_degrades_with_skew(self, report):
        ratios = report.data["slow_delivery_ratio"]
        assert ratios[-1] < ratios[0]

    def test_fast_mode_flat(self, report):
        ratios = report.data["fast_delivery_ratio"]
        assert max(ratios) - min(ratios) < 0.05
