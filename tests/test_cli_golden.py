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

#: (CDNA_MAX_ENUM or None, argv)
FAMILY_INVOCATIONS = [
    (None, ["code-eval", "--code", "qplus1:q=2", "--n", "3"]),
    (None, ["code-eval", "--code", "qplus1:q=3", "--n", "2", "--format", "json"]),
    (None, ["code-eval", "--code", "qplus1:q=1", "--n", "4"]),
    (None, ["code-eval", "--code", "qplus1: q = 2 ,n=7", "--n", "3"]),
    (None, ["code-eval", "--code", "omega:n=2,q=2", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:q=3,n=3", "--n", "3", "--format", "json"]),
    (None, ["code-eval", "--code", "omega:n=4,q=1", "--n", "4"]),
    (None, ["code-eval", "--code", "binary4:n=3", "--n", "3"]),
    (None, ["code-eval", "--code", "binary4:n=5", "--n", "5", "--format", "json"]),
    (None, ["code-eval", "--code", "distinct:q=4,parts=1+2|3+4", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=5,parts=3|1+5|2", "--n", "3", "--format", "json"]),
    (None, ["code-eval", "--code", "q=3; 1 0 0|0 1 0|0 0 1", "--n", "2"]),
    (None, ["code-eval", "--code", "0.4,0.5,0.6", "--n", "10", "--format", "json"]),
    (None, ["design", "--family", "qplus1", "--q", "3", "--n", "2"]),
    (None, ["design", "--family", "qplus1", "--q", "4", "--n", "6", "--format", "json"]),
    (None, ["design", "--family", "qplus1", "--q", "2"]),
    (None, ["design", "--family", "qplus1", "--q", "1", "--n", "3"]),
    (None, ["design", "--family", "omega", "--q", "3", "--n", "6"]),
    (None, ["design", "--family", "omega", "--q", "2", "--n", "7", "--format", "json"]),
    (None, ["design", "--family", "omega", "--q", "4", "--n", "3", "--parts", "1|2"]),
    (None, ["design", "--family", "omega", "--q", "1", "--n", "5"]),
    (None, ["design", "--family", "omega", "--q", "5", "--n", "1"]),
    (None, ["design", "--family", "omega", "--q", "2", "--n", "30"]),
    (None, ["design", "--family", "binary4", "--n", "3"]),
    (None, ["design", "--family", "binary4", "--n", "4", "--q", "7", "--format", "json"]),
    (None, ["design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-3"]),
    (None, ["design", "--family", "distinct", "--q", "4", "--parts", "1+2|3+4"]),
    (None, ["design", "--family", "distinct", "--q", "3", "--parts", "2|1+3", "--n", "5", "--format", "json"]),
    # missing parameters
    (None, ["code-eval", "--code", "qplus1:n=2", "--n", "3"]),
    (None, ["code-eval", "--code", "omega:n=2", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:q=2", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:x=1", "--n", "2"]),
    (None, ["code-eval", "--code", "binary4:q=3", "--n", "3"]),
    (None, ["code-eval", "--code", "distinct:q=4", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:parts=1|2", "--n", "2"]),
    (None, ["design", "--family", "qplus1", "--n", "3"]),
    (None, ["design", "--family", "omega", "--q", "3"]),
    (None, ["design", "--family", "omega", "--n", "3"]),
    (None, ["design", "--family", "omega"]),
    (None, ["design", "--family", "binary4", "--q", "2"]),
    (None, ["design", "--family", "distinct", "--q", "4"]),
    (None, ["design", "--family", "distinct", "--parts", "1|2"]),
    # malformed parameters
    (None, ["code-eval", "--code", "", "--n", "2"]),
    (None, ["code-eval", "--code", "qplus1:q", "--n", "2"]),
    (None, ["code-eval", "--code", "qplus1:q=2,,n=1", "--n", "2"]),
    (None, ["code-eval", "--code", "qplus1:q=x", "--n", "2"]),
    (None, ["code-eval", "--code", "qplus1:q=0", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:n=0,q=2", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:n=x,q=2", "--n", "2"]),
    (None, ["code-eval", "--code", "omega:n=2,q=-1", "--n", "2"]),
    (None, ["code-eval", "--code", "binary4:n=0", "--n", "2"]),
    (None, ["code-eval", "--code", "binary4:n=2.5", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=4,parts=1+x", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=2,parts=1|2|3", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=3,parts=1+2|2", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=3,parts=1|4", "--n", "2"]),
    (None, ["code-eval", "--code", "distinct:q=0,parts=1", "--n", "2"]),
    (None, ["code-eval", "--code", "unknown:q=2", "--n", "2"]),
    (None, ["design", "--family", "qplus1", "--q", "0", "--n", "2"]),
    (None, ["design", "--family", "qplus1", "--q", "2", "--n", "0"]),
    (None, ["design", "--family", "omega", "--q", "0", "--n", "2"]),
    (None, ["design", "--family", "omega", "--q", "2", "--n", "0"]),
    (None, ["design", "--family", "omega", "--q", "-2", "--n", "-1"]),
    (None, ["design", "--family", "omega", "--q", "2", "--n", "2", "--verify-grid", "1e-3"]),
    (None, ["design", "--family", "binary4", "--n", "0"]),
    (None, ["design", "--family", "binary4", "--n", "3", "--verify-grid", "0.01"]),
    (None, ["design", "--family", "distinct", "--q", "4", "--parts", "1+x"]),
    (None, ["design", "--family", "distinct", "--q", "2", "--parts", "1|2|3"]),
    (None, ["design", "--family", "distinct", "--q", "3", "--parts", "1+2|2"]),
    (None, ["design", "--family", "nope", "--q", "2"]),
    ("abc", ["design", "--family", "omega", "--q", "2", "--n", "2"]),
    ("0", ["code-eval", "--code", "omega:n=2,q=2", "--n", "2"]),
    # over the enumeration cap
    ("10", ["code-eval", "--code", "omega:n=20,q=3", "--n", "2"]),
    ("10", ["code-eval", "--code", "qplus1:q=3", "--n", "20"]),
    ("10", ["design", "--family", "omega", "--q", "3", "--n", "20"]),
    ("231", ["design", "--family", "omega", "--q", "3", "--n", "20"]),
    ("230", ["design", "--family", "omega", "--q", "3", "--n", "20", "--format", "json"]),
    ("10", ["design", "--family", "binary4", "--n", "100"]),
    ("1999", ["design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-3"]),
    # where the binary4 grid search's best f_min rounds to 1.0, and where its
    # best worst miss is first below the smallest normal float
    (None, ["design", "--family", "binary4", "--n", "200", "--verify-grid", "1e-3"]),
    (None, ["design", "--family", "binary4", "--n", "3175", "--verify-grid", "1e-3"]),
    (None, ["design", "--family", "omega", "--q", "3", "--n", "3000"]),
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


def header(max_enum, args) -> str:
    prefix = "" if max_enum is None else f"CDNA_MAX_ENUM={max_enum} "
    return f"$ {prefix}cdna {shlex.join(args)}"


def invoke(max_enum, args) -> str:
    """One invocation's transcript: the command line, exit code, stdout and stderr."""
    result = CliRunner().invoke(main, args, env={"CDNA_MAX_ENUM": max_enum}, catch_exceptions=False)
    return f"{header(max_enum, args)}\n[exit {result.exit_code}]\n{result.stdout}[stderr]\n{result.stderr}"


def readme_invocations() -> list:
    """The ``cdna`` lines of the README's "Command line" block, but its 100,000-trial ``sim`` lines."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [(None, argv[1:]) for argv in lines if argv and argv[0] == "cdna" and "100000" not in argv]


def golden(name: str) -> dict:
    """The transcripts in ``tests/golden/cli/<name>``, keyed by their command lines."""
    sections = re.split(r"^(?=\$ )", (GOLDEN / name).read_text(), flags=re.M)[1:]
    return {section.split("\n", 1)[0]: section for section in sections}


@pytest.fixture
def dprime(tmp_path, monkeypatch):
    """The README's table decoder, ``dprime.json``, in a fresh working directory."""
    (tmp_path / "dprime.json").write_text('{"0,10": 1}')
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("max_enum,args", FAMILY_INVOCATIONS, ids=[shlex.join(a) for _, a in FAMILY_INVOCATIONS])
def test_family_invocation(max_enum, args):
    assert invoke(max_enum, args) == golden("families.txt")[header(max_enum, args)]


def test_every_family_invocation_has_a_transcript():
    assert list(golden("families.txt")) == [header(*invocation) for invocation in FAMILY_INVOCATIONS]


def test_readme_command_lines(dprime):
    invocations = readme_invocations()
    assert len(invocations) == 9
    assert [invoke(*invocation) for invocation in invocations] == list(golden("readme.txt").values())


def test_sim_usage_lines():
    transcripts = {header(None, args): invoke(None, args) for args in SIM_USAGE_INVOCATIONS}
    assert transcripts == golden("sim_usage.txt")


def write(name: str, invocations) -> None:
    (GOLDEN / name).write_text("".join(invoke(*invocation) for invocation in invocations))


if __name__ == "__main__":
    write("families.txt", FAMILY_INVOCATIONS)
    write("sim_usage.txt", [(None, args) for args in SIM_USAGE_INVOCATIONS])
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "dprime.json").write_text('{"0,10": 1}')
        os.chdir(tmp)
        write("readme.txt", readme_invocations())
