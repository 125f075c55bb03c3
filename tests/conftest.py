import numpy as np
import pytest
from hypothesis import settings

from proxframe import FrameShrinkage, InducedRegularizer, build_operator, frame_prox, shrinkage, soft_shrink_map
from proxframe.cli import load_named_matrix
from support import recording, run_samples

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


@pytest.fixture
def regression_block():
    """(fs, x, y1): the f(y1) block of the random:200x100:2 CLI regression, soft:1, 100 trials of seed 5."""
    fs = FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), soft_shrink_map(1.0))
    x = run_samples(5, 100, 100)[0]
    return fs, x, frame_prox(fs, x)


@pytest.fixture
def dead_zone_block():
    """(fs, x): a 9x2 frame at lam 10 and 12 signals, every other one scaled by 1e-9 deep into its dead zone."""
    rng = np.random.default_rng(20240817)
    fs = FrameShrinkage(build_operator(rng.standard_normal((9, 2))), soft_shrink_map(10.0))
    x = rng.standard_normal((2, 12))
    x[:, ::2] *= 1e-9
    return fs, x


@pytest.fixture
def certify_blocks(regression_block, dead_zone_block):
    """(reg, c, feasible, tol) of three solves of f, each on a C-ordered c = Ty.

    The regression's f(y1) at tol 1e-7 and 1e-13, seeded at z = p as ``verify_prox_identity``
    seeds it, and the dead-zone block at x at tol 1e-9, whose deep columns stay open longest.
    """
    (fs, x, y1), (dead, x_dead) = regression_block, dead_zone_block
    op, reg = fs.operator, InducedRegularizer(fs)
    c, p = np.ascontiguousarray(op.matrix @ y1), fs.inner_prox(op.matrix @ x)
    feasible = np.minimum(reg.g(c), 0.5 * np.add.reduce((p - c) ** 2, 0) + reg.g(p))
    reg_dead, c_dead = InducedRegularizer(dead), np.ascontiguousarray(dead.operator.matrix @ x_dead)
    return [(reg, c, feasible, 1e-7), (reg, c, feasible, 1e-13), (reg_dead, c_dead, reg_dead.g(c_dead), 1e-9)]
