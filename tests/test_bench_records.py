"""Every benchmark record at the repository root names the machine it ran on.

A before/after timing means little without the CPU count and the Python and
numpy versions that produced it.
"""
import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_its_machine(path):
    machine = json.loads(path.read_text(encoding="utf-8")).get("machine")
    assert isinstance(machine, dict), "no machine object"
    cpus = machine.get("cpus", machine.get("cpu_count"))
    assert isinstance(cpus, int) and not isinstance(cpus, bool) and cpus >= 1, machine
    assert isinstance(machine.get("python"), str) and machine["python"], machine
    assert isinstance(machine.get("numpy"), str) and machine["numpy"], machine
