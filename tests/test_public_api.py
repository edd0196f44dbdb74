"""The package exports what the demos and the README's library tour import,
and every export, and every public method and property of an exported class,
has a use outside the tests.

Static checks: they parse the sources instead of running the demos, so a
deleted or renamed export, or one that only its own tests use, fails here in
milliseconds.
"""
import ast
import re
import types
from pathlib import Path

import cdna

ROOT = Path(__file__).resolve().parent.parent


def _cdna_imports(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "cdna":
            names.update(alias.name for alias in node.names)
    return names


def _example_sources() -> dict[str, str]:
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)):
        sources[f"README.md python block {i}"] = block
    return sources


def test_examples_import_only_public_names():
    sources = _example_sources()
    assert any(name.startswith("README.md") for name in sources)
    imported = set()
    for label, source in sources.items():
        names = _cdna_imports(source)
        assert not names - set(cdna.__all__), (label, sorted(names - set(cdna.__all__)))
        imported |= names
    assert "run_simulation" in imported


def test_all_entries_are_bound():
    assert len(set(cdna.__all__)) == len(cdna.__all__)
    assert [name for name in cdna.__all__ if not hasattr(cdna, name)] == []


def _identifiers(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _defined_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {target.id for target in node.targets if isinstance(target, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _uses() -> list[tuple[set[str], set[str]]]:
    """(names defined, names used) for each top-level statement of the library
    modules, and for each demo, benchmark file and README python block as a
    whole.  Only identifiers in code count: a name in prose is not a use."""
    uses = []
    for path in sorted((ROOT / "src" / "cdna").glob("*.py")):
        if path.name != "__init__.py":
            body = ast.parse(path.read_text(encoding="utf-8")).body
            uses += [(_defined_names(node), _identifiers(node)) for node in body]
    sources = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "benchmark").rglob("*.py"))]
    for source in sources + list(_example_sources().values()):
        uses.append((set(), _identifiers(ast.parse(source))))
    return uses


def _public_members(cls: type) -> set[str]:
    """The public methods and properties that a class defines itself."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    return {name for name, value in vars(cls).items() if not name.startswith("_") and isinstance(value, kinds)}


def test_every_export_is_used_outside_the_tests():
    # A use inside the definition of an export that is itself unused does not
    # count, so the search repeats until the unused set stops growing.
    uses = _uses()
    unused: set[str] = set()
    while True:
        found = {
            name
            for name in cdna.__all__
            if not any(name in used and not defined & (unused | {name}) for defined, used in uses)
        }
        if found == unused:
            break
        unused = found
    assert sorted(unused) == []
    # so is every public method and property of an exported class, by its name
    used = set().union(*(names for _, names in uses))
    classes = [getattr(cdna, name) for name in cdna.__all__ if isinstance(getattr(cdna, name), type)]
    members = {f"{cls.__name__}.{member}" for cls in classes for member in _public_members(cls) - used}
    assert sorted(members) == []


#: All that ``tests/conftest.py`` may import from the package: types, code
#: constructors, the grid and the constants its loops share with the library,
#: and the coverage and simulator names its other oracles need.  No decision or
#: mass function is on it, so the per-observation reference of the code
#: evaluator stays independent of the code it checks.
CONFTEST_IMPORTS = {
    "CodeEvaluation",
    "CompositeCode",
    "CompositeSymbol",
    "DEFAULT_MAX_ENUM",
    "ObservedDistribution",
    "TIE_TOLERANCE",
    "construct_base_plus_uniform",
    "construct_distinct_support",
    "construct_grid_code",
    "enumerate_observed",
    # oracles of cdna.coverage and cdna.simulate
    "expected_coverage_exact",
    "_FIRST_BLOCK",
    "_MAX_BLOCK",
}


def test_conftest_imports_only_the_allowlist():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "cdna"], "import cdna binds every name"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cdna":
            imported.update(alias.name for alias in node.names)
    assert "enumerate_observed" in imported
    assert sorted(imported - CONFTEST_IMPORTS) == []
