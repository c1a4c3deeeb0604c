"""Shared pytest fixtures and the acceptance-summary report hook."""
import tracemalloc

import numpy as np
import pytest

_ACCEPTANCE_LINES: dict[int, str] = {}


def _record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    """Store one pass/fail line for the end-of-run acceptance report.

    Tests record their verdict before asserting so a failing criterion still
    shows up in the summary with its measured values.
    """
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _ACCEPTANCE_LINES[number] = f"criterion {number:2d} [{status}] {description}{suffix}"


@pytest.fixture
def criterion():
    return _record_criterion


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _traced_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of one call of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
