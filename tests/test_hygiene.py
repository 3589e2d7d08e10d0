"""Source hygiene that no installed linter checks: every import is used.

An AST scan of every module under ``src/``, ``tests/`` and ``tools/``.  A
name an import binds counts as used when the module reads it anywhere, names
it in ``__all__``, or names it in a string annotation.  ``__future__``
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


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
