import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("ci")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """The environment for a child Python process that imports this
    checkout's gpcover: this one with src put first on PYTHONPATH.  The
    ``pythonpath`` setting in pyproject.toml reaches only pytest's own
    sys.path, not a child's, and the package need not be installed."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture(scope="session")
def oracle_sweep():
    """Exhaustive covering-involution search for every bipartite GP(n,k),
    3 <= n <= 40.  Computed once; several acceptance criteria share it.

    Maps (n,k) -> (involutions, quotient classes).
    """
    from gpcover import GpParams, gp, kronecker_involutions, quotients_up_to_iso

    sweep = {}
    for n in range(3, 41):
        for k in range(1, (n - 1) // 2 + 1):
            if n % 2 or k % 2 == 0:
                continue
            g = gp(GpParams(n, k))
            invs = kronecker_involutions(g)
            sweep[(n, k)] = (invs, quotients_up_to_iso(g))
    return sweep
