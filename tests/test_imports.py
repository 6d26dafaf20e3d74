"""Every module-level import of the package is used.

No linter runs with the suite, so this walks each module's syntax tree.
It skips ``from __future__`` imports, ``__init__.py`` (whose imports are
re-exports) and import statements marked ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parlines"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, also inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(annotation) if annotation else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _used_names(ast.parse(sub.value, mode="eval"))
    return names


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import re  # noqa: F401\n"
        "from typing import Iterable, Iterator, Sized\n"
        "def f(xs: 'Iterable[int]') -> 'list[Sized]':\n"
        "    'Iterator'\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["m.py:2 os", "m.py:4 Iterator"]
