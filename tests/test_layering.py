"""The boundary between the store and the evaluator, read from the
source: ``builder.py`` takes only `BuildError` from the store, and
``store.py`` imports the evaluator (and ``tempfile``) only inside the
function that builds, so a build that finds everything built loads
neither."""

import ast
from pathlib import Path

import gexpkit

SRC = Path(gexpkit.__file__).parent


def imports(filename):
    """(module, name, inside a function) for each name that
    ``gexpkit/<filename>`` imports.  Modules of the package lose their
    ``gexpkit.`` or ``.`` prefix; *name* is None for a whole module."""
    found = []

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, None, in_function)
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                for alias in child.names:
                    if base in (".", "gexpkit"):
                        found.append((alias.name, None, in_function))
                    else:
                        found.append((base.lstrip(".").removeprefix("gexpkit."),
                                      alias.name, in_function))
            walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    walk(ast.parse((SRC / filename).read_text()), False)
    return found


def test_evaluator_takes_only_build_error_from_the_store():
    assert [(module, name) for module, name, _ in imports("builder.py")
            if module.split(".")[-1] == "store"] == [("store", "BuildError")]


def test_store_imports_the_evaluator_only_inside_functions():
    lazy = {(module, in_function) for module, _, in_function
            in imports("store.py") if module in ("builder", "tempfile")}
    assert lazy == {("builder", True), ("tempfile", True)}
