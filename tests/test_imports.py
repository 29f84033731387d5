"""Static checks over the package source: every imported name is used,
every exported name exists and is read by the package or a demo, and
every private module-level name is read by the package."""

import ast
from pathlib import Path

import pytest

import smplab
import smplab.protocols

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smplab"
DEMOS = PACKAGE.parents[1] / "demos"
# the package __init__ files only re-export, so their imports are their use
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other name in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import inf, pi\nprint(pi)\n") == ["os", "inf"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_resolves():
    for package in (smplab, smplab.protocols):
        assert len(package.__all__) == len(set(package.__all__)), package.__name__
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert missing == [], package.__name__


def read_names(source: str) -> set[str]:
    """Names a module reads: each loaded ``ast.Name`` and ``ast.Attribute``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def from_imports(source: str) -> set[str]:
    """Names a script imports with ``from ... import``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_is_read():
    read = set().union(*(read_names(path.read_text()) for path in MODULES))
    read |= set().union(*(from_imports(path.read_text()) for path in DEMOS.glob("*.py")))
    unread = [name for package in (smplab, smplab.protocols) for name in package.__all__
              if name not in read]
    assert unread == []


def private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assignment targets,
    dunder names aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_the_check_sees_an_unread_private_helper():
    source = ("_a = 1\n_b, c = 2, 3\n_t: int = 4\n__all__ = []\n"
              "def _f():\n    return _a\nclass _K:\n    pass\nprint(_f())\n")
    assert private_names(source) == ["_a", "_b", "_t", "_f", "_K"]
    assert [name for name in private_names(source) if name not in read_names(source)] == [
        "_b", "_t", "_K"]


def test_every_private_helper_is_read():
    sources = {path: path.read_text() for path in PACKAGE.rglob("*.py")}
    read = set().union(*map(read_names, sources.values()))
    unread = [f"{path.relative_to(PACKAGE)}: {name}" for path, source in sorted(sources.items())
              for name in private_names(source) if name not in read]
    assert unread == []
