"""Run one workload in this (fresh) interpreter and print its record as JSON.

``run.py`` starts this file once per measured run, and several times with
``--setup-only`` to time set-up.  The worker imports ``cdna`` from the
checkout's ``src/`` directory, builds the workload's inputs, computes the
oracles, then asks whole rounds of the workload's questions until
``--seconds`` have passed, timing the speed probe between rounds.  With
``--trace 1`` every round is asked twice,
untraced and then traced, and the two must give equal answers.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

import oracles
from speed import ComputeProbe, scale, timed_import
from tracing import Tracer
from workloads import LAYERS, WORKLOADS, CliCold, Question, hooks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_library():
    """Import cdna and its layer modules from the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cdna", "__init__.py")):
        raise SystemExit(f"cdna sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import cdna
    import cdna.binary
    import cdna.codes
    import cdna.coverage
    import cdna.model
    import cdna.simulate

    if not os.path.abspath(cdna.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported cdna from {cdna.__file__}, not from {SRC}")
    return cdna


def ask(questions: list[Question]):
    """Ask every question once; return the round's wall time, per-question times and answers."""
    durations = []
    answers = []
    start = perf_counter()
    for q in questions:
        t = perf_counter()
        try:
            answers.append((q.call(), None))
        except Exception as exc:  # a refusal or crash is a failed operation, not a benchmark error
            # Without its traceback: the frames it holds would keep every
            # answer of the round alive, and memory would grow round by round.
            answers.append((None, exc.with_traceback(None)))
        durations.append(perf_counter() - t)
    return perf_counter() - start, durations, answers


def grade(questions: list[Question], answers) -> list[dict]:
    """The failed questions of one round, each with its reason."""
    failures = []
    for q, (value, error) in zip(questions, answers):
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                ok = bool(q.check(value))
                reason = None if ok else "answer disagrees with the oracle"
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"question": q.label, "known_fault": q.known_fault, "reason": reason[:300]})
    return failures


def same_answers(a, b) -> bool:
    for (va, ea), (vb, eb) in zip(a, b):
        if (ea is None) != (eb is None):
            return False
        if ea is not None and (type(ea), str(ea)) != (type(eb), str(eb)):
            return False
        if ea is None and va != vb:
            return False
    return len(a) == len(b)


def fresh_interpreter_ms(code: str, inner: bool, samples: int = 5) -> float:
    """Median milliseconds of a fresh interpreter running ``code`` with ``src/`` on its path.

    With ``inner`` the code times itself and prints seconds; otherwise the
    whole process is timed from outside.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60
        )
        times.append(1e3 * (float(out.stdout) if inner else perf_counter() - start))
    return median(times)


def trial_rng_us(simulate, calls: int = 500, batches: int = 7) -> float:
    """Median cost of one public ``trial_rng`` reseed, in microseconds."""
    per_call = []
    for b in range(batches):
        t = perf_counter()
        for trial in range(calls):
            simulate.trial_rng(b, trial)
        per_call.append((perf_counter() - t) / calls)
    return 1e6 * median(per_call)


def cli_cold_ms(seed: int, passes: int = 3) -> tuple[dict, list]:
    """Per-sub-command cold-start figures of the CLI script, and its failed invocations.

    The invocations are checked like questions but not counted in
    ``attempted``, so the failed share of a traced run stays that of its rounds.
    """
    cli = CliCold(None, seed, ROOT)
    rounds = []
    failures = []
    try:
        cli.build()
        cli.prepare()
        for index in range(passes):
            questions = cli.questions(index)
            _, durations, answers = ask(questions)
            failures += grade(questions, answers)
            rounds.append(cli.layer_metrics(None, durations))
    finally:
        cli.close()
    return {name: median(r[name] for r in rounds) for name in rounds[0]}, failures


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    cdna = import_library()
    workload = WORKLOADS[args.workload](cdna, args.seed, ROOT)
    try:
        workload.build()
        setup_s = perf_counter() - start
        if args.setup_only:
            record = {"setup_s": setup_s}
        else:
            record = measure(cdna, workload, args)
            record["setup_s_in_process"] = setup_s
    finally:
        workload.close()
    print(json.dumps(record))
    return 0


def measure(cdna, workload, args) -> dict:
    oracle_failures = oracles.self_check()
    workload.prepare()
    attempted = 0
    failures: dict[str, dict] = {}
    walls = []
    layer_rounds = []
    outputs_match = None

    def one_round(index: int, tracer=None):
        nonlocal attempted
        workload.before_round()
        questions = workload.questions(index)
        if tracer is not None:
            tracer.drain()
        wall, durations, answers = ask(questions)
        attempted += len(questions)
        for f in grade(questions, answers):
            entry = failures.setdefault(f["question"], dict(f, count=0))
            entry["count"] += 1
        return wall, durations, answers

    tracer = Tracer(hooks()) if args.trace else None
    cli_failures = []
    probe = ComputeProbe()
    overheads = []
    span_costs = []
    began = perf_counter()
    index = 0
    while True:
        wall, durations, answers = one_round(index)
        walls.append(wall)
        if tracer is None:
            probe.sample()
        else:
            # The same questions again, traced: the answers must not change,
            # and the difference of the two rounds is the tracing overhead.
            tracer.calibrate()
            span_costs.append((tracer.outer_cost_s, tracer.inner_cost_s))
            tracer.install(cdna)
            try:
                traced_wall, durations, traced = one_round(index, tracer)
            finally:
                tracer.uninstall()
            layer_rounds.append(workload.layer_metrics(tracer.drain(), durations))
            outputs_match = outputs_match is not False and same_answers(answers, traced)
            overheads.append(traced_wall - wall)
            walls.append(traced_wall)
        index += 1
        if perf_counter() - began >= args.seconds:
            break

    if tracer is None:
        metrics = {"wall_s": median(walls) * scale(probe.samples), "peak_rss_mb": peak_rss_mb()}
        extra = {"measured_wall_s": median(walls), "probe_median_s": median(probe.samples)}
    else:
        metrics = {name: median(r.get(name, 0.0) for r in layer_rounds) for name in LAYERS}
        cli_metrics, cli_failures = cli_cold_ms(args.seed)
        metrics.update(cli_metrics)
        metrics["simulate.trial_rng.us"] = trial_rng_us(cdna.simulate)
        metrics["cli.interpreter_ms"] = fresh_interpreter_ms("pass", inner=False)
        metrics["cli.import_ms"] = fresh_interpreter_ms(timed_import("cdna.cli"), inner=True)
        metrics["trace.overhead_s"] = median(overheads)
        extra = {
            "trace_outer_cost_us": 1e6 * median(c[0] for c in span_costs),
            "trace_inner_cost_us": 1e6 * median(c[1] for c in span_costs),
        }

    failed = sum(f["count"] for f in failures.values())
    unexpected = [f for f in failures.values() if not f["known_fault"]]
    correct = not unexpected and not oracle_failures and outputs_match is not False and not cli_failures
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(walls),
        "round_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": list(failures.values()),
        "oracle_self_check_failures": oracle_failures,
        "traced_outputs_match_untraced": outputs_match,
        "cli_failures": cli_failures,
        "metrics": metrics,
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
