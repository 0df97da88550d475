"""Shared test reporting: acceptance criteria append their pass/fail
lines here and the terminal summary echoes them after the run. Also the
pool_starts fixture, which counts the worker pools the estimators build."""

import pytest

from betti_thermo import limits

acceptance_lines = []


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every process pool limits builds, in order."""
    starts = []

    class CountingPool(limits.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(limits, "ProcessPoolExecutor", CountingPool)
    return starts


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
