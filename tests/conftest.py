import itertools
import sys
from pathlib import Path

import pytest

# the test helpers, then the repository root (for `perfbench.workloads`)
TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent)]

import stub_solver
from solmem.solver import smoke_failure


@pytest.fixture(scope="session")
def solver_available():
    """Fail fast (once) when no SMT solver can be launched."""
    reason = smoke_failure()
    if reason:  # pragma: no cover - environment problem
        pytest.fail(f"no SMT solver available: {reason}")
    return True


@pytest.fixture
def stub(tmp_path, monkeypatch):
    """`stub(answers)` names the stub solver answering `answers` in
    `SOLMEM_SOLVER`, with a log of its own, and returns its launch count."""
    logs = (tmp_path / f"stub{n}.log" for n in itertools.count())

    def install(answers: str):
        log = next(logs)
        monkeypatch.setenv("SOLMEM_SOLVER", stub_solver.command(answers, log))
        return lambda: stub_solver.launches(log)
    return install
