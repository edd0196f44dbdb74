"""Each demo's stdout, byte for byte, against its golden file in ``tests/golden``.

The demos are deterministic, so any change to a printed figure, its format or
its order shows up here.  To accept an intended change, rerun the demo with
``PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert {d.stem for d in DEMOS} == {g.stem for g in (ROOT / "tests" / "golden").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
