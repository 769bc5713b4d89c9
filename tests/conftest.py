import sys
from pathlib import Path

import pytest

# the test helpers, then the repository root (for `perfbench.workloads`)
TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent)]

from solmem.solver import smoke_failure


@pytest.fixture(scope="session")
def solver_available():
    """Fail fast (once) when no SMT solver can be launched."""
    reason = smoke_failure()
    if reason:  # pragma: no cover - environment problem
        pytest.fail(f"no SMT solver available: {reason}")
    return True
