"""Public-API surface tests: imports, exports, doctests.

A library's import graph and documented examples are part of its
contract; these tests keep them honest.
"""

import doctest
import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.switches",
    "repro.schedulers",
    "repro.hwmodel",
    "repro.core",
    "repro.fabric",
    "repro.traffic",
    "repro.analysis",
    "repro.control",
    "repro.faults",
    "repro.experiments",
    "repro.runner",
    "repro.service",
    "repro.scenario",
]


class TestImports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version_present(self):
        import repro

        assert repro.__version__


class TestRegistryCompleteness:
    def test_every_builtin_algorithm_registered(self):
        from repro.schedulers.registry import available_schedulers

        expected = {"tdma", "pim", "islip", "wfa", "mwm", "greedy-mwm",
                    "bvn", "solstice", "eclipse", "hotspot",
                    "distributed-greedy"}
        assert expected <= set(available_schedulers())

    def test_every_registered_scheduler_instantiates(self):
        from repro.schedulers.registry import (
            available_schedulers,
            create_scheduler,
        )

        for name in available_schedulers():
            scheduler = create_scheduler(name, n_ports=4)
            assert scheduler.n_ports == 4

    def test_timing_presets_complete(self):
        from repro.hwmodel.presets import TIMING_PRESETS

        assert {"netfpga_sume", "asic_1ghz", "cpu_helios",
                "cpu_cthrough", "ideal"} == set(TIMING_PRESETS)


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.sim.time",
        "repro.analysis.charts",
    ])
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0
