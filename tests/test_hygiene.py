"""Source hygiene that no installed linter checks: every import is used,
every test helper is read, and every private module-level name under
``src/`` is read.

An AST scan of every module under ``src/``, ``tests/`` and ``tools/``.  A
name an import binds counts as used when the module reads it anywhere, names
it in ``__all__``, or names it in a string annotation.  ``__future__``
imports are exempt.

A second scan covers ``tests/`` as one whole: a module-level function or
class there counts as used when some module under ``tests/`` reads its name,
imports it by name, or reads it as an attribute of the module that defines
it (under any alias).  Tests (``test_*``), pytest hooks (``pytest_*``) and fixtures are exempt.

A third scan covers the private module-level names of ``src/``: each name a
module binds at its top level with ``_name = ...``, ``def _name`` or ``class
_Name`` (dunders exempt) counts as read when some module under ``src/``,
``tests/``, ``tools/`` or ``bench/`` loads it by name or as an attribute.  A
module-level binding left behind by a refactor, such as a cached bound method
nothing calls any more, is what it finds.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
READER_MODULES = MODULES + sorted((ROOT / "bench").rglob("*.py"))


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


def unread_private_names(
    defining: dict[str, str], readers: list[str]
) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private name that a module of
    ``defining`` (module name to source) binds at its top level and that no
    source in ``readers`` loads by name or as an attribute."""
    bound = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            bound += [
                (module, node.lineno, name)
                for name in names
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
    read: set[str] = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [entry for entry in bound if entry[2] not in read]


def test_every_private_module_name_is_read():
    defining = {
        str(path.relative_to(ROOT)): path.read_text() for path in (ROOT / "src").rglob("*.py")
    }
    assert unread_private_names(defining, [path.read_text() for path in READER_MODULES]) == []


def test_the_scan_finds_an_unread_private_name():
    defining = {
        "mod": (
            "_called = 1\n_by_attribute: int = 2\n_unread, _pair = 3, 4\n__all__ = []\n"
            "def _stale(): ...\nclass _Stale: ...\ndef _used(): return _called\n"
            "_object_setattr = object.__setattr__\npublic = _used()\n"
        ),
    }
    readers = [defining["mod"], "import mod\nmod._by_attribute\nmod._pair = 5\nx = '_stale'\n"]
    assert unread_private_names(defining, readers) == [
        ("mod", 3, "_unread"), ("mod", 3, "_pair"), ("mod", 5, "_stale"),
        ("mod", 6, "_Stale"), ("mod", 8, "_object_setattr"),
    ]
