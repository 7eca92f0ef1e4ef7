"""Shared fixtures. The two expensive simulations are session-scoped so the
unit tests and the acceptance gate drive the same runs."""

import numpy as np
import pytest

from blowlab import ProblemParams, RescaledFlow, evolution, solve_physical

# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible without -s
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance():
    """Record one [PASS]/[FAIL] line per criterion and assert on it."""

    def record(num, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        print(line)
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def cosine_blowup_run():
    """Interval [-2, 2], p = 2, u0 = 3 cos(pi x / 4): blows up at the center."""
    params = ProblemParams(n=1, p=2.0)
    return solve_physical(lambda x: 3.0 * np.cos(np.pi * x / 4.0), params,
                          R=2.0, m=4001, geometry="interval", theta=0.05,
                          u_cap=1e8, t_max=10.0)


@pytest.fixture(scope="session")
def perturbed_kappa_run():
    """Rescaled flow started from kappa + 0.1 exp(-y^2/4)."""
    params = ProblemParams(n=1, p=2.0)
    flow = RescaledFlow(params, L=8.0, m=801, ds=1e-3, geometry="interval")
    w0 = 1.0 + 0.1 * np.exp(-flow.y ** 2 / 4.0)
    run = flow.run(w0, s_end=2.0)
    assert run.status == "completed"
    return run


@pytest.fixture
def inf_in_third_step(monkeypatch):
    """The physical reaction substep puts an inf mid-mesh on its fifth call,
    the first half of the third step, so it reaches the banded solve. Returns
    the list of substep calls (their dt)."""
    real = evolution._reaction_exact
    calls = []

    def reaction(u, dt, p, big, out):
        res = real(u, dt, p, big, out=out)
        calls.append(dt)
        if len(calls) == 5:
            res[res.size // 2] = np.inf
        return res

    monkeypatch.setattr(evolution, "_reaction_exact", reaction)
    return calls
