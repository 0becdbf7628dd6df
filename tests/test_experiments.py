"""Tests that every experiment runs (quick mode) and reproduces the
paper's qualitative shapes.

These are the repository's acceptance tests: each asserts the
*direction* of the paper's claim, not absolute numbers.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.e1_buffering import run_e1
from repro.experiments.e2_latency import run_e2
from repro.experiments.e5_algorithms import run_e5
from repro.experiments.e6_offload import run_e6, skewed_demand
from repro.experiments.e7_scalability import run_e7
from repro.sim.time import MILLISECONDS


class TestRegistry:
    def test_all_eight_registered(self):
        assert sorted(EXPERIMENTS) == [f"e{i}" for i in range(1, 9)]


class TestE1:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e1(quick=True)

    def test_gigabytes_at_ms(self, report):
        idx = report.data["switching_times_ps"].index(1 * MILLISECONDS)
        assert report.data["analytic_ideal_total_bytes"][idx] \
            >= 1_000_000_000

    def test_kilobytes_at_ns(self, report):
        assert report.data["analytic_ideal_total_bytes"][0] <= 100_000

    def test_software_scheduler_floor_dominates(self, report):
        ideal = report.data["analytic_ideal_total_bytes"]
        software = report.data["analytic_sw_total_bytes"]
        assert all(s >= i for s, i in zip(software, ideal))
        assert software[0] > 1_000_000_000  # GB even at 1ns optics

    def test_monotone_in_switching_time(self, report):
        ideal = report.data["analytic_ideal_total_bytes"]
        assert ideal == sorted(ideal)

    def test_simulated_peaks_grow(self, report):
        peaks = report.data["simulated_peak_bytes"]
        assert peaks == sorted(peaks)

    def test_expectations_all_satisfied(self, report):
        assert len(report.expectations) >= 4


class TestE2:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e2(quick=True)

    def test_headline_claim_software_is_ms_class(self, report):
        # Deployment-representative software loops (64-port hotspot).
        assert report.data["sw_helios_ps"] > 500_000_000      # > 0.5 ms
        assert report.data["sw_cthrough_ps"] > 1_000_000_000  # > 1 ms
        assert report.data["sw_helios_ps"] / report.data["hw_fpga_ps"] \
            > 1_000

    def test_speedup_like_for_like(self, report):
        # totals are appended per (port count, algorithm) in the same
        # order for every preset, so elementwise ratios compare the
        # same loop on the two technologies.
        totals = report.data["totals_ps"]
        ratios = [sw / hw for sw, hw in
                  zip(totals["cpu_helios"], totals["netfpga_sume"])]
        assert min(ratios) > 50        # even exact MWM wins big in HW
        assert max(ratios) > 1_000     # iterative matchers win 3+ orders

    def test_hardware_loop_is_sub_10us(self, report):
        assert report.data["hw_fpga_ps"] < 10_000_000

    def test_tables_rendered(self, report):
        assert any("netfpga_sume" in t for t in report.tables)


class TestE5:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e5(quick=True)

    def test_textbook_ordering_on_diagonal(self, report):
        curves = report.data["diagonal"]
        heaviest = -1
        assert curves["mwm"][heaviest][1] >= \
            curves["islip-4"][heaviest][1] - 0.05
        assert curves["islip-4"][heaviest][1] > curves["tdma"][heaviest][1]

    def test_mwm_beats_tdma_on_diagonal(self, report):
        curves = report.data["diagonal"]
        assert curves["mwm"][-1][1] > curves["tdma"][-1][1]

    def test_more_islip_iterations_never_hurt_on_diagonal(self, report):
        curves = report.data["diagonal"]
        assert curves["islip-4"][-1][1] >= curves["islip-1"][-1][1] - 0.02

    def test_pim_saturates_below_islip_uniform(self, report):
        curves = report.data["uniform"]
        assert curves["islip-1"][-1][1] > curves["pim-1"][-1][1]

    def test_delay_grows_with_load(self, report):
        for name, series in report.data["uniform"].items():
            delays = [delay for __, __t, delay in series]
            assert delays[-1] >= delays[0]


class TestE6:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e6(quick=True)

    def test_skewed_demand_generator(self):
        demand = skewed_demand(8, 0.9, total_bytes=1e6, seed=1)
        assert demand.shape == (8, 8)
        assert (demand.diagonal() == 0).all()
        # The hot pair dominates its row.
        assert demand[0, 1] > demand[0, 2]

    def test_offload_grows_with_skew(self, report):
        fractions = report.data["hotspot_fraction"]
        assert fractions[-1] > fractions[0]

    def test_end_to_end_offload_grows_with_skew(self, report):
        fractions = report.data["e2e_ocs_fraction"]
        assert fractions[-1] >= fractions[0]

    def test_instant_estimator_no_worse_than_sketch(self, report):
        errors = report.data["estimator_errors"]
        assert errors["instant"] <= errors["sketch(w=16)"] + 1e-9


class TestE7:
    @pytest.fixture(scope="class")
    def report(self):
        return run_e7(quick=True)

    def test_hardware_islip_stays_fast(self, report):
        islip = report.data["model_compute_ps"]["islip"]
        assert islip[-1] < 1_000_000  # < 1 us at the largest port count
        mwm = report.data["model_compute_ps"]["mwm"]
        assert mwm[-1] > islip[-1]

    def test_model_compute_monotone_in_port_count(self, report):
        for series in report.data["model_compute_ps"].values():
            assert series == sorted(series)
