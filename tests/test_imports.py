"""Every top-level import in the package is used, and every module-level
function and class, and every single-underscore method, is named somewhere
outside its own definition.

No linter runs in the test command, so these are the only guards.  Package
``__init__`` modules are skipped by the import check: their imports are
re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tlemma"
# Where a package definition may be named: the sources, the tests and the
# benchmark, whose tracer patches functions by their names as strings.
SEARCHED = ("src", "tests", "perfbench")


def unused_imports(source: str):
    """Names bound by the module's top-level imports and never read."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # Quoted annotations such as ``"AtomTable"`` name imports too.
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "from typing import List, Tuple\n"
        "import os\n"
        "def f(x: List[int]) -> 'Tuple[int]':\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "os")]


def _docstrings(tree):
    """The string nodes that are docstrings: they describe, not name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _mentions(tree):
    """``(name, line)`` for every identifier the code reads, imports,
    or spells inside a string that is not a docstring."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno


def _definitions(module):
    """The module-level ``def``s and ``class``es of ``module``, and the
    single-underscore methods of its classes."""
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield stmt
            for member in stmt.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and member.name.startswith("_")
                        and not member.name.startswith("__")):
                    yield member


def unnamed_definitions(package, searched):
    """Module-level ``def``s and ``class``es, and single-underscore methods,
    of ``package`` that no file of ``searched`` names outside the
    definition's own lines.

    ``searched`` maps a file name to its source; ``package`` lists the names
    of the files to check, each a key of ``searched``.  Returns sorted
    ``(file, line, name)``.
    """
    trees = {name: ast.parse(source) for name, source in searched.items()}
    mentions = {}
    for file, tree in trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((file, line))
    dead = []
    for file in package:
        for stmt in _definitions(trees[file]):
            own = range(stmt.lineno, stmt.end_lineno + 1)
            if not any(f != file or l not in own for f, l in mentions.get(stmt.name, ())):
                dead.append((file, stmt.lineno, stmt.name))
    return sorted(dead)


def test_no_unnamed_definitions():
    searched = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    package = [str(p.relative_to(ROOT)) for p in sorted(PACKAGE.glob("*.py"))]
    assert unnamed_definitions(package, searched) == []


def test_checker_flags_an_unnamed_definition():
    package = {
        "pkg.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Patched:\n"
            "    pass\n"
            "class Described:\n"
            "    pass\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._called()\n"
            "    def _called(self):\n"
            "        pass\n"
            "    def _uncalled(self):\n"
            "        return self._uncalled()\n"
            "    def public(self):\n"
            "        pass\n"
        ),
    }
    searched = {
        **package,
        "user.py": (
            '"""Mentions Described only in a docstring."""\n'
            "from pkg import Engine, used\n"
            "TABLE = [('pkg', 'Patched')]\n"
        ),
    }
    assert unnamed_definitions(list(package), searched) == [
        ("pkg.py", 3, "recursive"),
        ("pkg.py", 7, "Described"),
        ("pkg.py", 14, "_uncalled"),
    ]
