"""No module in src/gpcover imports a name it never uses.

No linter is installed, so this walks each module's syntax tree with the
standard library only.  ``import a.b`` binds ``a`` and ``import a as b``
binds ``b``; ``from a import b`` binds ``b``.  ``__init__.py`` is exempt
(its imports are the package's re-exports), and so is
``from __future__ import ...``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gpcover"
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
