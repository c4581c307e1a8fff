"""Shared fixtures for the test suite."""

from __future__ import annotations

import socket

import pytest

from repro.clock import ManualClock, SimulatedClock
from repro.core.heartbeat import Heartbeat


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption("--runslow", action="store_true", default=False, help="also run tests marked slow")


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    """Tier-1 skips ``slow`` tests; CI's slow step passes ``-m slow --runslow``."""
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def manual_clock() -> ManualClock:
    """A clock whose time the test sets explicitly."""
    return ManualClock()


@pytest.fixture
def sim_clock() -> SimulatedClock:
    """A simulated clock starting at zero."""
    return SimulatedClock()


@pytest.fixture
def heartbeat(manual_clock: ManualClock) -> Heartbeat:
    """A heartbeat with a 10-beat default window on the manual clock."""
    return Heartbeat(window=10, clock=manual_clock, name="test")


def beat_at_times(hb: Heartbeat, clock: ManualClock, times: list[float], *, tag: int = 0) -> None:
    """Register one heartbeat at each of the given (non-decreasing) times."""
    for t in times:
        clock.time = t
        hb.heartbeat(tag=tag)


@pytest.fixture
def beat_recorder():
    """Expose the helper as a fixture so tests can import it uniformly."""
    return beat_at_times


@pytest.fixture
def ipv6_loopback() -> str:
    """``"::1"``, or a skip where this host cannot bind it."""
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as probe:
            probe.bind(("::1", 0))
    except OSError as exc:
        pytest.skip(f"cannot bind ::1 on this host: {exc}")
    return "::1"
