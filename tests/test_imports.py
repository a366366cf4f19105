"""Every module in src/gpcover imports only names it uses, imports the
package's modules in its header only, builds graphs only through
``graphs.graph`` or, in the named builders, ``graphs._from_pairs``, defines
only public names that something besides its own unit tests uses, and
memoizes nothing at module level.  A fresh interpreter that imports the
package, or runs a serial sweep, loads no process-pool module.

No linter is installed, so these walk each module's syntax tree with the
standard library only.  ``import a.b`` binds ``a`` and ``import a as b``
binds ``b``; ``from a import b`` binds ``b``.  ``__init__.py`` is exempt
(its imports are the package's re-exports), and so is
``from __future__ import ...``.
"""
import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpcover
from gpcover import graphs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpcover"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(source) == ["Optional"]


def test_detector_flags_an_unused_plain_import():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import collections.abc\n"
        "import sys as system\n"
        "def f() -> str:\n"
        "    return collections.abc.__name__ + system.platform\n"
    )
    assert unused_imports(source) == ["os", "osp"]


def local_package_imports(source: str) -> list[str]:
    """The function-local imports of a gpcover module, relative or absolute,
    as "function:line".  A module's dependencies on the rest of the package
    belong in its header, where a reader (and an import cycle) sees them."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["gpcover"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "gpcover" for name in names):
                found.setdefault(node.lineno, f"{fn.name}:{node.lineno}")
    return list(found.values())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_modules_are_imported_in_the_header(path):
    assert local_package_imports(path.read_text()) == []


def test_detector_flags_function_local_package_imports():
    source = (
        "import json\n"
        "from .graphs import graph\n"
        "def f():\n"
        "    from .graphs import bipartition, is_connected\n"
        "    from . import oracle\n"
        "    import os, gpcover.cli\n"
        "    import collections\n"
        "    from typing import Optional\n"
        "    def g():\n"
        "        from gpcover.oracle import automorphisms\n"
        "    return json\n"
        "class C:\n"
        "    async def h(self):\n"
        "        from ..gpcover import covers\n"
    )
    assert local_package_imports(source) == ["f:4", "f:5", "f:6", "f:10", "h:14"]


# The package re-exports the functions census and classify under the names
# of their modules, so the attribute gpcover.census is the function (and
# ``import gpcover.census as m`` binds it); importlib reaches the module.


@pytest.mark.parametrize("name", ["census", "classify"])
def test_a_module_hidden_by_its_function_is_reached_by_import_module(name):
    module = importlib.import_module(f"gpcover.{name}")
    assert inspect.ismodule(module)
    assert getattr(module, name) is getattr(gpcover, name)


# Graphs are built only through graphs.graph, which checks its input, or
# graphs._from_pairs, which trusts it.  No other module calls Graph(...), and
# graph stays a function of its own rather than an alias of the class.  Only
# the builders in TRUSTED_BUILDERS call _from_pairs, each with pairs that are
# valid by construction, so the benchmark's traced graphs.graph counts the
# constructions from outside input (and the hand-written H graph).


def graph_constructions(source: str) -> list[int]:
    """Lines that call the Graph class directly: by its name, under an
    import alias, or as an attribute (``graphs.Graph(...)``)."""
    tree = ast.parse(source)
    names = {"Graph"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "Graph" and alias.asname
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]


def test_graphs_are_built_through_graph():
    found = [
        f"{p.name}:{line}"
        for p in MODULES
        if p.name != "graphs.py"
        for line in graph_constructions(p.read_text())
    ]
    assert found == []
    assert inspect.isfunction(graphs.graph) and graphs.graph is not graphs.Graph


def test_detector_flags_direct_graph_constructions():
    source = (
        "from .graphs import Graph, Graph as G, graph\n"
        "from . import graphs\n"
        "def f(n):\n"
        "    a = graph(n, [])\n"
        "    b = Graph(n, ())\n"
        "    c = G(n, ())\n"
        "    return graphs.Graph(n, ()), isinstance(a, Graph), Graph\n"
    )
    assert graph_constructions(source) == [5, 6, 7]


TRUSTED_BUILDERS = {
    "covers.kronecker_cover", "covers.quotient", "families.gp", "families.lcf",
    "graphs.decode_graph6", "oracle._canonical_edges", "oracle.canonical_form",
}


def unchecked_constructions(source: str) -> list[str]:
    """The top-level functions and classes that call _from_pairs, by its
    name, under an import alias or as an attribute
    (``graphs._from_pairs(...)``), with "<module>" for a call outside any."""
    tree = ast.parse(source)
    names = {"_from_pairs"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "_from_pairs" and alias.asname
    }

    def calls(node) -> bool:
        return any(
            isinstance(sub, ast.Call)
            and getattr(sub.func, "id", getattr(sub.func, "attr", None)) in names
            for sub in ast.walk(node)
        )

    return [getattr(node, "name", "<module>") for node in tree.body if calls(node)]


def test_only_the_trusted_builders_skip_the_checks():
    found = {
        f"{p.stem}.{name}"
        for p in MODULES
        for name in unchecked_constructions(p.read_text())
    }
    assert found == TRUSTED_BUILDERS


def test_detector_names_every_unchecked_construction():
    source = (
        "from .graphs import _from_pairs, _from_pairs as trusted, graph\n"
        "from . import graphs\n"
        "def direct(n):\n"
        "    return _from_pairs(n, [])\n"
        "def aliased(n):\n"
        "    def inner():\n"
        "        return trusted(n, [])\n"
        "    return inner()\n"
        "def checked(n):\n"
        "    return graph(n, [])\n"
        "class C:\n"
        "    def method(self):\n"
        "        return graphs._from_pairs(0, ())\n"
        "EMPTY = _from_pairs(0, ())\n"
    )
    assert unchecked_constructions(source) == ["direct", "aliased", "C", "<module>"]


def test_only_graphs_touches_a_graphs_dict():
    # A builder records what it knows of its graph through
    # graphs._from_pairs; the memos in graphs keep it in the graph's __dict__.
    assert [p.name for p in MODULES if p.name != "graphs.py" and "__dict__" in p.read_text()] == []


# Public names kept without a caller, each for a stated reason.
UNCALLED_BUT_KEPT = {
    "girth": "the README names it in prose; the unit suite checks it "
    "against an edge-removal search",
}


def used_names(source: str) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def public_definitions(source: str) -> list[str]:
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def readme_code_names(text: str) -> set[str]:
    """Identifiers inside the README's inline code spans (fenced blocks,
    which hold shell commands, are left out)."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return {
        name
        for span in re.findall(r"`([^`]+)`", text)
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }


def uncalled_public_names() -> list[str]:
    """Public top-level functions and classes of src/gpcover that no module
    of the package (``__init__.py``, which only re-exports, aside), no
    perfbench module and no acceptance test reads, and that the README does
    not name in code.

    Only names are compared, so a definition escapes when its name is read
    anywhere for another reason.  Before they were deleted, ``perms.order``
    escaped because ``order`` is also a local variable in ``oracle.py``,
    and ``perms.normalize_word`` because the README named it in code."""
    readers = [*MODULES, ROOT / "tests" / "test_acceptance.py",
               *(ROOT / "perfbench").rglob("*.py")]
    used = set().union(*(used_names(p.read_text()) for p in readers))
    used |= readme_code_names((ROOT / "README.md").read_text())
    return [
        name
        for p in MODULES
        for name in public_definitions(p.read_text())
        if name not in used
    ]


def test_public_names_have_a_caller():
    assert sorted(uncalled_public_names()) == sorted(UNCALLED_BUT_KEPT)


# Module-level memos (functools.lru_cache or functools.cache) keep every key
# they hold alive, so a graph's derived data belongs on the graph instead.


def memoized_functions(source: str) -> list[str]:
    """Functions and classes decorated with functools' lru_cache or cache,
    whether bare, called (``lru_cache(maxsize=8)``), reached as an
    attribute (``functools.cache``) or imported under another name."""
    tree = ast.parse(source)
    memos = {"lru_cache", "cache"}
    memos |= {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache") and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if isinstance(target, ast.Attribute):
                    name = target.attr
                else:
                    name = getattr(target, "id", None)
                if name in memos:
                    found.append(node.name)
    return found


def test_no_module_level_memos():
    found = [f"{p.stem}.{name}" for p in MODULES for name in memoized_functions(p.read_text())]
    assert found == []
    imported = [
        f"{p.stem}: {alias.name}"
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache")
    ]
    assert imported == []


def test_detector_flags_every_memo_spelling():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache, lru_cache as memo, wraps\n"
        "@lru_cache(maxsize=2048)\n"
        "def adjacency(g): ...\n"
        "@lru_cache\n"
        "def masks(g): ...\n"
        "@functools.cache\n"
        "def search(g): ...\n"
        "@memo(None)\n"
        "def colors(g): ...\n"
        "class Graph:\n"
        "    @cache\n"
        "    def size(self): ...\n"
        "@wraps(len)\n"
        "def plain(g): ...\n"
    )
    assert memoized_functions(source) == ["adjacency", "masks", "search", "colors", "size"]


# Loading concurrent.futures' process pool pulls in all of multiprocessing,
# which only a sweep with workers uses, so census._map imports it only then.
# Each probe runs in a fresh interpreter on this checkout's sources (the
# ``child_env`` fixture) and compares sys.modules with what that interpreter
# had loaded at start-up, so modules that site-packages' .pth files load do
# not count.

POOL_MODULES = ("multiprocessing", "concurrent.futures")


def fresh_run(env: dict, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=True, env=env
    )


def pool_modules_loaded_by(env: dict, statement: str) -> list[str]:
    """The process-pool modules a fresh interpreter loads to run statement."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    added = ast.literal_eval(fresh_run(env, "-c", script).stdout.splitlines()[-1])
    return [name for name in added if name.startswith(POOL_MODULES)]


@pytest.mark.parametrize("statement", [
    "import gpcover",
    "import gpcover.cli",
    "from gpcover.cli import main; main(['verify', '--max-n', '8'])",
], ids=["package", "cli", "serial_verify"])
def test_process_pool_is_not_loaded_without_workers(child_env, statement):
    assert pool_modules_loaded_by(child_env, statement) == []


def test_probe_sees_the_process_pool_load(child_env):
    loaded = pool_modules_loaded_by(child_env, "from concurrent.futures import ProcessPoolExecutor")
    assert "multiprocessing" in loaded and "concurrent.futures.process" in loaded


def test_workers_from_a_cold_interpreter_print_the_serial_output(child_env):
    serial, parallel = (
        fresh_run(child_env, "-m", "gpcover", "verify", "--max-n", "8", "--jobs", jobs).stdout
        for jobs in ("1", "2")
    )
    assert parallel == serial
    assert serial.endswith(" checks passed\n")
