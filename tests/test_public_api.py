"""The package exports what the demos and the README's library tour import.

A static check: it parses the sources instead of running the demos, so a
deleted or renamed export fails here in milliseconds.
"""
import ast
import re
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
