import numpy as np
import pytest
from hypothesis import settings

from proxframe import shrinkage
from support import recording

settings.register_profile("proxframe", deadline=None)
settings.load_profile("proxframe")

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[nodeid]
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {nodeid.split('::')[-1]}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def certified(monkeypatch):
    """The iterations array of each ``shrinkage._certify`` call the test makes, in call order."""
    runs = []
    monkeypatch.setattr(shrinkage, "_certify", recording(shrinkage._certify, runs))
    return runs
