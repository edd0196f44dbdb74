"""Every module-level import in ``src/cdna`` is used in its module.

``__init__.py`` is exempt, since its imports are the package's re-exports, and
so is ``from __future__``.  A name counts as used where the module reads it,
or where a string annotation names it (``"np.ndarray"`` uses the
``TYPE_CHECKING`` import of ``np``).  Static check: it parses the sources, so
it runs in milliseconds.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdna"


def _module_level_imports(nodes) -> dict[str, int]:
    """Names bound by import statements that run on import (or under ``if TYPE_CHECKING:``),
    with their line numbers: function and class bodies are skipped."""
    bound = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names if alias.name != "*")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            bound.update(_module_level_imports(ast.iter_child_nodes(node)))
    return bound


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Names the module reads, including those inside its string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in _module_level_imports(tree.body).items() if name not in used]


def test_every_module_level_import_is_used():
    unused = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_check_sees_unused_guarded_and_annotated_imports():
    source = '''
from __future__ import annotations
import os
import os.path
import json as j
from typing import TYPE_CHECKING, NamedTuple, Sequence
if TYPE_CHECKING:
    import numpy as np
    import pandas as pd
try:
    from fractions import Fraction
except ImportError:
    pass
def f(a: "np.ndarray", b: Sequence["Fraction"]) -> "list[int]":
    import math
    return os.sep
class K:
    import click
'''
    assert _unused_imports(source) == ["j (line 5)", "NamedTuple (line 6)", "pd (line 9)"]
