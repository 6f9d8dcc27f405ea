"""Source hygiene: every name a module of the package imports is used there.

The package's __init__ is exempt: it imports names only to re-export them.
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
