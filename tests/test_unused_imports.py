"""Every name a module of the package imports is used in that module,
read from the source; ``from __future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

import gexpkit

SRC = Path(gexpkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names *source* imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("filename", sorted(p.name for p in SRC.glob("*.py")))
def test_every_import_is_used(filename):
    assert unused_imports((SRC / filename).read_text()) == []


def test_the_gate_sees_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import io, os.path\n"
                          "from typing import Mapping as M, Optional\n"
                          "x: Optional[int] = os.sep\n") == ["io", "M"]
