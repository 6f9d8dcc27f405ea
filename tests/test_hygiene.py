"""Source hygiene: every name a module of the package imports is used there,
and every private module-level definition is read somewhere in the package.

The package's __init__ is exempt from the import check: it imports names
only to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gampkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement anywhere in the source, function
    bodies included, that no expression of the source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_definitions(sources):
    """Private module-level functions, classes and constants of the given
    {module name: source} that no expression of any source reads, as
    (module, name) pairs. A definition under a called decorator such as
    @_register("two") is read by that registration and so exempt."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(isinstance(d, ast.Call) for d in node.decorator_list):
                    continue
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in read:
                    unread.append((module, name))
    return sorted(unread)


def test_private_detector_flags_unread_and_keeps_read():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_SEEN = 4\n"
            "__version__ = '1'\n"
            "def _dead(): pass\n"
            "def _helper(): return _SEEN\n"
            "class _Gone: pass\n"
            "@_register('x')\n"
            "def _registered(): pass\n"
            "@dataclass\n"
            "class _Plain: pass\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(_helper(), a._Kept)\nclass _Kept: pass\n",
    }
    assert unread_private_definitions(sources) == [
        ("a", "_Gone"), ("a", "_LIMIT"), ("a", "_Plain"), ("a", "_dead"),
    ]


def test_private_definitions_are_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_definitions(sources) == []


def test_detector_flags_unused_and_keeps_used():
    source = (
        "import json\n"
        "from itertools import chain, product as prod\n"
        "from . import congruence as _cong\n"
        "def f():\n"
        "    from .palg import UNDEFINED\n"
        "    return _cong.conc, prod\n"
    )
    assert unused_imports(source) == ["UNDEFINED", "chain", "json"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "constructions.py", "gamp.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
