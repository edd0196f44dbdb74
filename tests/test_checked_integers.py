"""Every ``_integer`` check in ``src/cdna`` keeps the value it checked.

``model._integer`` returns its argument as an ``int``; a caller that drops
the result (a bare call statement) or only compares it (``_integer(...) >
ell``) goes on with the value as given, a numpy integer say, which can wrap
or overflow later.  Static check: it parses the sources, so it runs in
milliseconds.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdna"


def _is_check(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "_integer") or (
        isinstance(func, ast.Attribute) and func.attr == "_integer"
    )


def _discarded_checks(source: str) -> list[int]:
    """Line numbers of the ``_integer`` calls whose result is a bare statement or a comparison operand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr):
            operands = [node.value]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        lines += [operand.lineno for operand in operands if _is_check(operand)]
    return sorted(lines)


def test_no_checked_integer_is_thrown_away():
    discarded = {path.name: _discarded_checks(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in discarded.items() if lines} == {}


def test_the_check_sees_dropped_and_compared_results():
    source = '''
from cdna import model
from cdna.model import _integer
def f(n, q, r, ell):
    _integer("n", n, 1)
    model._integer("q", q)
    if _integer("r", r, 1) > ell or 0 < model._integer("ell", ell):
        pass
    n = _integer("n", n, 1)
    if (r := _integer("r", r, 1)) > ell:
        pass
    return n, [_integer("q", q)], _integer("ell", ell) + 1, integer("r", r)
'''
    assert _discarded_checks(source) == [5, 6, 7, 7]
