"""No module of ``cdna`` imports numpy at module level.

Every module imports numpy inside the functions that use it, so ``import
cdna`` and the coverage questions, which are pure Python, never load it: numpy
was about two thirds of the import time of ``cdna``.  Where numpy is first
imported also moves the resident set: importing it at the top of ``codes.py``,
ahead of the other modules, left the process about 1.4 MB larger.

The static check parses the sources, so it runs in milliseconds and whatever
the import order.  The subprocess checks run the coverage commands in a fresh
interpreter, where nothing else has loaded numpy yet.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

from cdna import CoverageParams, SimConfig, run_simulation

SRC = Path(__file__).resolve().parent.parent / "src" / "cdna"

#: The modules that may import numpy when they are themselves imported.
EAGER = set()


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


def test_no_module_imports_numpy_on_import():
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


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``cdna`` from the sources."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_coverage_commands_leave_numpy_unloaded():
    code = """
import sys
import cdna, cdna.cli
loaded = ["numpy" in sys.modules]
for argv in (
    ["coverage", "--ell", "3", "--omega", "2", "--bounds"],
    ["coverage", "--range", "1:5:2", "--omega", "3", "--format", "json"],
    ["partial", "--ell", "4", "--omega", "2", "--r", "2"],
    ["ra", "--ell", "3", "--omega", "2", "--k", "2"],
):
    cdna.cli.main(argv, standalone_mode=False)
    loaded.append("numpy" in sys.modules)
print(loaded, file=sys.stderr)
"""
    out = _fresh(code)
    assert "expected" in out.stdout
    assert out.stderr.strip() == str([False] * 5)


def test_the_first_simulation_loads_numpy():
    code = """
import sys
from cdna import CoverageParams, SimConfig, run_simulation
loaded = "numpy" in sys.modules
report = run_simulation(SimConfig(CoverageParams(4, 3), trials=200, seed=7))
print(loaded, "numpy" in sys.modules, repr(report))
"""
    report = run_simulation(SimConfig(CoverageParams(4, 3), trials=200, seed=7))
    assert _fresh(code).stdout.strip() == f"False True {report!r}"
