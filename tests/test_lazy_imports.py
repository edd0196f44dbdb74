"""numpy is imported at module level by ``cdna.simulate`` alone.

Where numpy is first imported inside the package moves the resident set of a
process that imports ``cdna``: importing it at the top of ``codes.py``, ahead
of the other modules, left the process about 1.4 MB larger.  Every other
module imports it inside the functions that use it.  Static check: it parses
the sources, so it runs in milliseconds and whatever the import order.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdna"

#: The one module that may import numpy when it is itself imported.
EAGER = {"simulate.py"}


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(nodes) -> set[str]:
    """Top-level packages imported by statements that run on import: function
    bodies are skipped, and so are ``if TYPE_CHECKING:`` blocks."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node):
            names |= _module_level_imports(node.orelse)
        else:
            names |= _module_level_imports(ast.iter_child_nodes(node))
    return names


def test_only_simulate_imports_numpy_on_import():
    eager = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "numpy" in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")).body)
    }
    assert eager == EAGER


def test_the_check_sees_nested_and_guarded_imports():
    source = """
import os
if TYPE_CHECKING:
    import numpy as np
else:
    import scipy
try:
    from numpy.random import Generator
except ImportError:
    pass
class K:
    import click
def f():
    import pandas
"""
    assert _module_level_imports(ast.parse(source).body) == {"os", "scipy", "numpy", "click"}
