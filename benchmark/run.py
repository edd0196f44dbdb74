"""The cdna benchmark: three workloads, checked against independent oracles.

    python3 benchmark/run.py --workload mc-validate --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter (``worker.py``), one after another.
With ``--trace 0`` the last line of standard output reports the end-to-end
metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
reports the per-layer metrics of a separate traced run.  ``--workload all``
runs the three workloads in turn.  Before the last line, one ``{"record": ...}``
line per workload carries the seed, machine facts, operation counts, every
failed question with its reason, and the per-round times.

The load is one process at a time: set-up is timed by starting the worker
``SETUP_SAMPLES`` times with ``--setup-only``, each timing its own import of
cdna and build of the inputs, then one worker measures.  Both times are
scaled by a speed probe (``speed.py``): set-up by fresh interpreters timing
their import of numpy, interleaved with the set-up samples, rounds by the
probe the worker samples between them.  This process imports no numpy:
Linux carries a parent's resident set into the peak of the child it starts,
so it must stay smaller than any worker.  The exit code is 0 whenever a
result is printed, and not 0 when the checkout has no ``src/cdna`` to
measure or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("mc-validate", "code-design", "coverage-series")
SETUP_SAMPLES = 9
#: a worker measures for --seconds plus at most one round and the oracles
WORKER_TIMEOUT_S = 150

sys.path.insert(0, BENCH_DIR)
from speed import IMPORT_REFERENCE_S, import_s, scale  # noqa: E402
from workloads import END_TO_END, LAYERS  # noqa: E402


class BenchmarkError(RuntimeError):
    pass


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "platform": platform.platform(),
    }


def _worker(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {argv} did not finish within {timeout}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv} exited with {proc.returncode}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setup = []
    numpy_imports = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            numpy_imports.append(import_s("numpy"))
            out = _worker(common + ["--setup-only"], timeout=60)
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    out = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], timeout=WORKER_TIMEOUT_S)
    record = json.loads(out.strip().splitlines()[-1])
    if not trace:
        record["metrics"]["setup_s"] = median(setup) * scale(numpy_imports, IMPORT_REFERENCE_S)
        record["setup_s_samples"] = setup
        record["numpy_import_s_samples"] = numpy_imports
    record["machine"] = machine()
    return record


def summary(record: dict, prefix: str = "") -> dict:
    units = LAYERS if record["trace"] else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {prefix + name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cdna", "__init__.py")):
        print(f"error: no cdna sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps({"record": record}))
    if len(records) == 1:
        print(json.dumps(summary(records[0])))
        return 0
    parts = [summary(r, prefix=f"{r['workload']}.") for r in records]
    print(
        json.dumps(
            {
                "correct": all(p["correct"] for p in parts),
                "attempted": sum(p["attempted"] for p in parts),
                "failed": sum(p["failed"] for p in parts),
                "metrics": {k: v for p in parts for k, v in p["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
