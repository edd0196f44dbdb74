"""The README's library tour, run as a reader would run it, against the values its comments state.

Every ```python block of the README runs in a fresh interpreter under ``-W error``.  The value
of each top-level expression statement is kept, and a comment on its line that starts with a
value is checked against it:

* ``12.3335...``: a decimal with an ellipsis is the value rounded to the digits shown;
* ``7/3`` or ``11.0``: an exact value, which an exact result equals and a float result
  equals as its nearest float; followed by `` within 2e-14``, the result lies that close;
* ``BoundPair(lower=11.0014, upper=13.4427)``: a record of that type whose fields round to
  the digits shown.

Whatever follows the value (``: first of two indices recovered``) is prose, and so is a
comment that starts with a lowercase word; any other comment must state a value.
"""
import ast
import io
import os
import pickle
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)

#: Runs the block on stdin and pickles {line: value} of its top-level expression statements to argv[1].
RUNNER = """
import ast, pickle, sys
namespace, values = {}, {}
for stmt in ast.parse(sys.stdin.read()).body:
    if isinstance(stmt, ast.Expr):
        values[stmt.end_lineno] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
    else:
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
with open(sys.argv[1], "wb") as out:
    pickle.dump(values, out)
"""

NUMBER = r"-?\d+(?:\.\d+)?(?:e-?\d+)?"
STATED = re.compile(
    rf"(?P<rounded>{NUMBER})\.\.\."
    rf"|(?P<exact>{NUMBER}(?:/\d+)?)(?: within (?P<tol>{NUMBER}))?"
    rf"|(?P<record>[A-Z]\w*)\((?P<fields>[^)]*)\)"
)


def comments(block: str) -> dict:
    """The comment of each line of ``block`` that has one, without its ``#``."""
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    return {t.start[0]: t.string.lstrip("#").strip() for t in tokens if t.type == tokenize.COMMENT}


def rounds_to(value: float, digits: str) -> bool:
    return round(value, len(digits.partition(".")[2])) == float(digits)


def check(value, comment: str) -> bool:
    """Assert the value ``comment`` states of ``value``; False where it states none."""
    if comment[:1].islower():
        return False
    stated = STATED.match(comment)
    assert stated, f"comment {comment!r} states no value this test can read"
    if stated["rounded"]:
        assert rounds_to(value, stated["rounded"]), (comment, value)
    elif stated["record"]:
        assert type(value).__name__ == stated["record"], (comment, value)
        for field, digits in re.findall(rf"(\w+)=({NUMBER})", stated["fields"]):
            assert rounds_to(getattr(value, field), digits), (comment, value)
    else:
        want = Fraction(stated["exact"])
        want = float(want) if isinstance(value, float) else want
        assert abs(value - want) <= Fraction(stated["tol"] or 0), (comment, value)
    return True


def test_the_readme_has_a_tour():
    assert len(BLOCKS) == 1


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_tour_states_what_it_prints(block, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "values.pickle"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", RUNNER, str(out)], input=block.encode(), capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    values = pickle.loads(out.read_bytes())
    stated = {line: comment for line, comment in comments(block).items() if line in values}
    assert sum(check(values[line], comment) for line, comment in stated.items()) == 5
