"""Shared test reporting: acceptance criteria append their pass/fail
lines here and the terminal summary echoes them after the run. Also the
pool_starts and pool_shares fixtures, which count the worker pools the
estimators build and the replicate shares they submit to them."""

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


@pytest.fixture
def pool_shares(monkeypatch):
    """The replicate count of every share submitted to a process pool limits
    builds, in order: a map at workers=w submits w - 1 shares."""
    shares = []

    class CountingPool(limits.ProcessPoolExecutor):
        def submit(self, fn, items, **kwargs):
            shares.append(len(items))
            return super().submit(fn, items, **kwargs)

    monkeypatch.setattr(limits, "ProcessPoolExecutor", CountingPool)
    return shares


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
