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


@pytest.fixture
def from_pairs_contract(monkeypatch):
    """``graphs._from_pairs``, patched into every gpcover module that
    imports it, asserting on each call the contract its callers keep: an
    int n >= 0 and int pairs (lo, hi), 0 <= lo < hi < n, strictly
    increasing by lo * n + hi, so already canonical, since _from_pairs
    neither sorts nor checks them.  Yields the set of callers seen, as
    "module.function", so a test can tell which builders it pinned."""
    import sys

    from gpcover import graphs

    real = graphs._from_pairs
    callers = set()

    def checked(n, pairs, **facts):
        pairs = tuple(pairs)
        assert type(n) is int and n >= 0, n
        last = -1
        for lo, hi in pairs:
            assert type(lo) is int and type(hi) is int, (lo, hi)
            assert 0 <= lo < hi < n, (lo, hi, n)
            assert lo * n + hi > last, f"({lo}, {hi}) out of canonical order"
            last = lo * n + hi
        caller = sys._getframe(1)
        callers.add(f"{caller.f_globals['__name__'].rpartition('.')[2]}.{caller.f_code.co_name}")
        return real(n, pairs, **facts)

    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("gpcover.") and getattr(m, "_from_pairs", None) is real]
    assert {m.__name__ for m in modules} >= {
        "gpcover.graphs", "gpcover.families", "gpcover.covers", "gpcover.oracle"}
    for module in modules:
        monkeypatch.setattr(module, "_from_pairs", checked)
    yield callers
