import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from solmem.errors import SolverFailure
from solmem.solver import SMOKE_QUERY, SMOKE_TIMEOUT_SECONDS, check, default_solver_command


@pytest.fixture(scope="session")
def solver_available():
    """Fail fast (once) when no SMT solver can be launched."""
    try:
        default_solver_command()
    except SolverFailure as e:  # pragma: no cover - environment problem
        pytest.fail(f"no SMT solver available: {e}")
    verdict = check(SMOKE_QUERY, timeout_seconds=SMOKE_TIMEOUT_SECONDS)
    if verdict.kind != "unsat":
        pytest.fail(f"solver smoke test failed: {verdict.kind} {verdict.detail}")
    return True
