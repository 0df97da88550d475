"""Shared test reporting: acceptance criteria append their pass/fail
lines here and the terminal summary echoes them after the run. Also the
forked_shares fixture, which records the worker processes the estimators
start and the size of the replicate share each one runs."""

import pytest

from betti_thermo import limits

acceptance_lines = []


@pytest.fixture
def forked_shares(monkeypatch):
    """The replicate count of the share each worker process that limits
    starts runs, in order: a map at workers=w starts w - 1 of them."""
    shares = []

    class CountingProcess(limits.Process):
        def __init__(self, *, target, args):
            super().__init__(target=target, args=args)
            self.share = args[0]

        def start(self):
            shares.append(len(self.share))
            super().start()

    monkeypatch.setattr(limits, "Process", CountingProcess)
    return shares


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
