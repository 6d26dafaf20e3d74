"""Every module-level import of the package is used, and so is every name
of its public API.

No linter runs with the suite, so this walks each module's syntax tree.
The import check skips ``from __future__`` imports, ``__init__.py`` (whose
imports are re-exports) and import statements marked ``# noqa: F401``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parlines"
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


# -- the public API has a user ---------------------------------------------------

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _uses_in_modules(paths) -> set[str]:
    """Every name and attribute the modules read, leaving out reads inside
    a function or class of the same name: a definition is no use of
    itself, and neither is an assignment."""
    used: set[str] = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def _words_in_code(markdown: str) -> set[str]:
    """The identifiers in a Markdown text's code blocks and code spans."""
    fences = re.findall(r"```.*?```", markdown, flags=re.S)
    spans = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", markdown, flags=re.S))
    return set(_WORD.findall("\n".join(fences + spans)))


def _unused_api(names, modules, readme: Path, tracer: Path) -> list[str]:
    used = (
        _uses_in_modules(modules)
        | _words_in_code(readme.read_text(encoding="utf-8"))
        | set(_WORD.findall(tracer.read_text(encoding="utf-8")))
    )
    return [name for name in names if name.rpartition(".")[2] not in used]


def _public_api() -> list[str]:
    """The names ``parlines`` exports, every module's ``__all__``, and the
    public methods and properties of every class in the package."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value)]
            elif isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{fn.name}" for fn in node.body
                          if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return names


def test_every_public_name_has_a_user():
    # A user is the package itself, the README's code, or the benchmark's
    # tracer, which wraps some names it never calls; tests do not count.
    names = _public_api()
    assert "RingElement.terms" in names and "RingPresentation.gen" in names
    assert "witness.CASES" in names and "WitnessRecord.canonical" in names
    unused = _unused_api(names, MODULES, ROOT / "README.md", ROOT / "clibench" / "tracer.py")
    assert unused == []


def test_the_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def own(n):\n"
        "    return own(n - 1) if n else used()\n"
        "class Only:\n"
        "    def make(self):\n"
        "        self.kept = Only()\n"
        "        return self.kept\n"
        "ASSIGNED = 1\n"
        "def store(obj):\n"
        "    obj.stored = 1\n",
        encoding="utf-8",
    )
    readme = tmp_path / "README.md"
    readme.write_text("Call `documented()`.  The prose word spoken is no use.\n", encoding="utf-8")
    tracer = tmp_path / "tracer.py"
    tracer.write_text('SPANS = [("m", "traced")]\n', encoding="utf-8")
    names = ["own", "used", "Only", "Only.make", "Only.kept", "ASSIGNED", "Only.stored",
             "documented", "spoken", "traced"]
    assert _unused_api(names, [module], readme, tracer) == [
        "own", "Only", "Only.make", "ASSIGNED", "Only.stored", "spoken"]
