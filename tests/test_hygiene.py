"""Source hygiene that no installed linter checks: every import is used,
and every test helper is read.

An AST scan of every module under ``src/``, ``tests/`` and ``tools/``.  A
name an import binds counts as used when the module reads it anywhere, names
it in ``__all__``, or names it in a string annotation.  ``__future__``
imports are exempt.

A second scan covers ``tests/`` as one whole: a module-level function or
class there counts as used when some module under ``tests/`` reads its name,
imports it by name, or reads it as an attribute of the module that defines
it (under any alias).  Tests (``test_*``), pytest hooks (``pytest_*``) and fixtures are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def _annotations(node: ast.AST) -> list[ast.expr | None]:
    """The annotations a function or an annotated assignment carries."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        return [arg.annotation for arg in every if arg is not None] + [node.returns]
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for annotation in filter(None, _annotations(node)):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    # a string annotation such as "LkhMember" or "list[Fact]"
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "import os\nimport os.path as osp\nimport random\nfrom typing import Any, List, Set\n"
        "x: 'List[int]' = []\ndef f(a: 'Set[str]') -> None: ...\n__all__ = ['Any']\nlayout = 'random'\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "random")]


def _is_fixture(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "fixture":
            return True
    return False


def unused_helpers(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level function or class in
    ``sources`` (module name to source) that none of them reads."""
    defined = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {  # the local names of the modules in ``sources`` it imports
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name in sources
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                exempt = node.name.startswith(("test_", "pytest_")) or (
                    not isinstance(node, ast.ClassDef) and _is_fixture(node)
                )
                if not exempt:
                    defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.module in sources:
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                read.add(node.attr)
    return [helper for helper in defined if helper[2] not in read]


def test_every_test_helper_is_read():
    assert unused_helpers({path.stem: path.read_text() for path in TEST_MODULES}) == []


def test_the_scan_finds_an_unused_helper():
    sources = {
        "helpers": (
            "import pytest\ndef read(): ...\ndef imported(): ...\ndef by_attribute(): ...\n"
            "def unused(): ...\nclass Unused:\n    def method(self): ...\n"
            "def test_it(): read()\ndef pytest_configure(config): ...\n"
            "@pytest.fixture(scope='module')\ndef server(): ...\n"
        ),
        "test_mod": "import helpers as h\nfrom helpers import imported\nh.by_attribute()\nx = 'unused'\n",
    }
    assert unused_helpers(sources) == [("helpers", 5, "unused"), ("helpers", 6, "Unused")]
