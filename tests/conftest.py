"""Shared fixtures."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.net.packet import reset_packet_ids
from repro.sim.engine import Simulator


@pytest.fixture()
def sim() -> Simulator:
    """Fresh deterministic simulator."""
    return Simulator(seed=42)


#: Far above the slowest test (about 17.5 s) and above CI's
#: ``--timeout 300``, so pytest-timeout, where installed, acts first.
HANG_BACKSTOP_S = 600

#: The real stderr, duplicated before output capture starts: a hang's
#: stack dump must reach the terminal, not a capture buffer that dies
#: with the process.
_stderr_fd = 2


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def _hang_backstop():
    """End the run with every thread's stack if one test hangs."""
    faulthandler.dump_traceback_later(HANG_BACKSTOP_S, exit=True,
                                      file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    """Reset the global packet-id counter per test for stable asserts."""
    reset_packet_ids()
    yield


def make_packet(src=0, dst=1, size=1500, created_ps=0, flow_id=0,
                priority=0):
    """Loose helper used across test modules."""
    from repro.net.packet import Packet

    return Packet(src=src, dst=dst, size=size, created_ps=created_ps,
                  flow_id=flow_id, priority=priority)
