"""The stdout, stderr and exit code of fixed ``cdna`` invocations, against golden transcripts.

``FAMILY_INVOCATIONS`` runs every code family through ``code-eval --code`` and
``design --family``, in CSV and JSON, and every missing, malformed or over-cap
family parameter; ``SIM_USAGE_INVOCATIONS`` runs ``sim`` with missing, stray
or out-of-range options; ``tests/golden/cli/readme.txt`` holds the lines of the
README's "Command line" block.  To accept an intended change, rewrite the
transcripts with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from cdna.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli"

#: argv of each invocation
FAMILY_INVOCATIONS = [
    ["code-eval", "--code", "qplus1:q=2", "--n", "3"],
    ["code-eval", "--code", "qplus1:q=3", "--n", "2", "--format", "json"],
    ["code-eval", "--code", "qplus1:q=1", "--n", "4"],
    ["code-eval", "--code", "qplus1: q = 2 ,n=7", "--n", "3"],
    ["code-eval", "--code", "omega:n=2,q=2", "--n", "2"],
    ["code-eval", "--code", "omega:q=3,n=3", "--n", "3", "--format", "json"],
    ["code-eval", "--code", "omega:n=4,q=1", "--n", "4"],
    ["code-eval", "--code", "binary4:n=3", "--n", "3"],
    ["code-eval", "--code", "binary4:n=5", "--n", "5", "--format", "json"],
    ["code-eval", "--code", "distinct:q=4,parts=1+2|3+4", "--n", "2"],
    ["code-eval", "--code", "distinct:q=5,parts=3|1+5|2", "--n", "3", "--format", "json"],
    ["code-eval", "--code", "q=3; 1 0 0|0 1 0|0 0 1", "--n", "2"],
    ["code-eval", "--code", "0.4,0.5,0.6", "--n", "10", "--format", "json"],
    ["design", "--family", "qplus1", "--q", "3", "--n", "2"],
    ["design", "--family", "qplus1", "--q", "4", "--n", "6", "--format", "json"],
    ["design", "--family", "qplus1", "--q", "2"],
    ["design", "--family", "qplus1", "--q", "1", "--n", "3"],
    ["design", "--family", "omega", "--q", "3", "--n", "6"],
    ["design", "--family", "omega", "--q", "2", "--n", "7", "--format", "json"],
    ["design", "--family", "omega", "--q", "4", "--n", "3", "--parts", "1|2"],
    ["design", "--family", "omega", "--q", "1", "--n", "5"],
    ["design", "--family", "omega", "--q", "5", "--n", "1"],
    ["design", "--family", "omega", "--q", "2", "--n", "30"],
    ["design", "--family", "binary4", "--n", "3"],
    ["design", "--family", "binary4", "--n", "4", "--q", "7", "--format", "json"],
    ["design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-3"],
    ["design", "--family", "distinct", "--q", "4", "--parts", "1+2|3+4"],
    ["design", "--family", "distinct", "--q", "3", "--parts", "2|1+3", "--n", "5", "--format", "json"],
    # missing parameters
    ["code-eval", "--code", "qplus1:n=2", "--n", "3"],
    ["code-eval", "--code", "omega:n=2", "--n", "2"],
    ["code-eval", "--code", "omega:q=2", "--n", "2"],
    ["code-eval", "--code", "omega:x=1", "--n", "2"],
    ["code-eval", "--code", "binary4:q=3", "--n", "3"],
    ["code-eval", "--code", "distinct:q=4", "--n", "2"],
    ["code-eval", "--code", "distinct:parts=1|2", "--n", "2"],
    ["design", "--family", "qplus1", "--n", "3"],
    ["design", "--family", "omega", "--q", "3"],
    ["design", "--family", "omega", "--n", "3"],
    ["design", "--family", "omega"],
    ["design", "--family", "binary4", "--q", "2"],
    ["design", "--family", "distinct", "--q", "4"],
    ["design", "--family", "distinct", "--parts", "1|2"],
    # malformed parameters
    ["code-eval", "--code", "", "--n", "2"],
    ["code-eval", "--code", "qplus1:q", "--n", "2"],
    ["code-eval", "--code", "qplus1:q=2,,n=1", "--n", "2"],
    ["code-eval", "--code", "qplus1:q=x", "--n", "2"],
    ["code-eval", "--code", "qplus1:q=0", "--n", "2"],
    ["code-eval", "--code", "omega:n=0,q=2", "--n", "2"],
    ["code-eval", "--code", "omega:n=x,q=2", "--n", "2"],
    ["code-eval", "--code", "omega:n=2,q=-1", "--n", "2"],
    ["code-eval", "--code", "binary4:n=0", "--n", "2"],
    ["code-eval", "--code", "binary4:n=2.5", "--n", "2"],
    ["code-eval", "--code", "distinct:q=4,parts=1+x", "--n", "2"],
    ["code-eval", "--code", "distinct:q=2,parts=1|2|3", "--n", "2"],
    ["code-eval", "--code", "distinct:q=3,parts=1+2|2", "--n", "2"],
    ["code-eval", "--code", "distinct:q=3,parts=1|4", "--n", "2"],
    ["code-eval", "--code", "distinct:q=0,parts=1", "--n", "2"],
    ["code-eval", "--code", "unknown:q=2", "--n", "2"],
    ["design", "--family", "qplus1", "--q", "0", "--n", "2"],
    ["design", "--family", "qplus1", "--q", "2", "--n", "0"],
    ["design", "--family", "omega", "--q", "0", "--n", "2"],
    ["design", "--family", "omega", "--q", "2", "--n", "0"],
    ["design", "--family", "omega", "--q", "-2", "--n", "-1"],
    ["design", "--family", "omega", "--q", "2", "--n", "2", "--verify-grid", "1e-3"],
    ["design", "--family", "binary4", "--n", "0"],
    ["design", "--family", "binary4", "--n", "3", "--verify-grid", "0.01"],
    ["design", "--family", "distinct", "--q", "4", "--parts", "1+x"],
    ["design", "--family", "distinct", "--q", "2", "--parts", "1|2|3"],
    ["design", "--family", "distinct", "--q", "3", "--parts", "1+2|2"],
    ["design", "--family", "nope", "--q", "2"],
    # under the fixed enumeration cap
    ["design", "--family", "omega", "--q", "2", "--n", "2"],
    ["code-eval", "--code", "qplus1:q=3", "--n", "20"],
    ["design", "--family", "omega", "--q", "3", "--n", "20"],
    ["design", "--family", "omega", "--q", "3", "--n", "20", "--format", "json"],
    ["design", "--family", "binary4", "--n", "100"],
    # the first grids over the caps, and a grid search just over its work cap
    ["code-eval", "--code", "0.4,0.6", "--n", "2000000"],
    ["code-eval", "--code", "omega:n=227,q=4", "--n", "227"],
    ["design", "--family", "omega", "--q", "4", "--n", "227"],
    ["design", "--family", "binary4", "--n", "3", "--verify-grid", "9.99e-7"],
    # where the binary4 grid search's best f_min rounds to 1.0, and where its
    # best worst miss is first below the smallest normal float
    ["design", "--family", "binary4", "--n", "200", "--verify-grid", "1e-3"],
    ["design", "--family", "binary4", "--n", "3175", "--verify-grid", "1e-3"],
    ["design", "--family", "omega", "--q", "3", "--n", "3000"],
]

#: ``sim`` argv: a missing or stray --r/--k, r > ell, an unknown mode, and
#: seeds at and past both ends of the 64-bit range
_SIM = ["sim", "--ell", "3", "--omega", "3", "--trials", "50"]
SIM_USAGE_INVOCATIONS = [
    _SIM + ["--mode", "partial", "--seed", "1"],
    _SIM + ["--mode", "ra", "--seed", "1"],
    _SIM + ["--r", "2", "--seed", "1"],
    _SIM + ["--mode", "recovery", "--k", "2", "--seed", "1"],
    _SIM + ["--mode", "ra", "--k", "2", "--r", "2", "--seed", "1"],
    _SIM + ["--mode", "partial", "--r", "2", "--k", "2", "--seed", "1"],
    _SIM + ["--mode", "partial", "--r", "4", "--seed", "1"],
    _SIM + ["--r", "4", "--seed", "1"],
    _SIM + ["--mode", "nope", "--seed", "1"],
    _SIM + ["--seed", "-1"],
    _SIM + ["--seed", "0"],
    _SIM + ["--seed", "18446744073709551615"],
    _SIM + ["--seed", "18446744073709551616"],
]


def header(args) -> str:
    return f"$ cdna {shlex.join(args)}"


def invoke(args) -> str:
    """One invocation's transcript: the command line, exit code, stdout and stderr."""
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return f"{header(args)}\n[exit {result.exit_code}]\n{result.stdout}[stderr]\n{result.stderr}"


def readme_invocations() -> list:
    """The ``cdna`` lines of the README's "Command line" block, but its 100,000-trial ``sim`` lines."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "cdna" and "100000" not in argv]


def golden(name: str) -> dict:
    """The transcripts in ``tests/golden/cli/<name>``, keyed by their command lines."""
    sections = re.split(r"^(?=\$ )", (GOLDEN / name).read_text(), flags=re.M)[1:]
    return {section.split("\n", 1)[0]: section for section in sections}


@pytest.fixture
def dprime(tmp_path, monkeypatch):
    """The README's table decoder, ``dprime.json``, in a fresh working directory."""
    (tmp_path / "dprime.json").write_text('{"0,10": 1}')
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("args", FAMILY_INVOCATIONS, ids=shlex.join)
def test_family_invocation(args):
    assert invoke(args) == golden("families.txt")[header(args)]


def test_every_family_invocation_has_a_transcript():
    assert list(golden("families.txt")) == [header(args) for args in FAMILY_INVOCATIONS]


def test_readme_command_lines(dprime):
    invocations = readme_invocations()
    assert len(invocations) == 9
    assert [invoke(args) for args in invocations] == list(golden("readme.txt").values())


def test_sim_usage_lines():
    transcripts = {header(args): invoke(args) for args in SIM_USAGE_INVOCATIONS}
    assert transcripts == golden("sim_usage.txt")


def write(name: str, invocations) -> None:
    (GOLDEN / name).write_text("".join(invoke(args) for args in invocations))


if __name__ == "__main__":
    write("families.txt", FAMILY_INVOCATIONS)
    write("sim_usage.txt", SIM_USAGE_INVOCATIONS)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "dprime.json").write_text('{"0,10": 1}')
        os.chdir(tmp)
        write("readme.txt", readme_invocations())
