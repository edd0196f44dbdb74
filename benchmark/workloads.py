"""The benchmark workloads and the cold-start CLI script: inputs, questions, checks, layer metrics.

Every workload turns ``--seed`` into its inputs; the library only ever sees the
generated inputs.  A round asks the workload's fixed list of questions once.
Each question calls the library, and its answer is checked against
``oracles`` (which never imports cdna) or against a property the method must
have.  Library functions are looked up through their modules at call time, so
a traced round sees the tracer's wrappers.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles
from tracing import RoundProfile


@dataclass
class Question:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    #: the fault this question exposes; it counts as failed until the fault is mended
    known_fault: Optional[str] = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Workload:
    name = ""

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def build(self) -> None:
        """Make the library-side inputs; timed as part of ``setup_s``."""

    def prepare(self) -> None:
        """Compute the oracles; untimed."""

    def questions(self, round_index: int) -> list[Question]:
        raise NotImplementedError

    def before_round(self) -> None:
        """Reset state a previous round left behind, so every round does the same work."""

    def close(self) -> None:
        pass

    def layer_metrics(self, profile: RoundProfile, durations: list[float]) -> dict:
        """Per-layer figures of one traced round; ``durations`` follow ``questions()``."""
        return {}


# ---------------------------------------------------------------- mc-validate


class MCValidate(Workload):
    """Monte Carlo cross-validation with ``run_simulation`` in all three modes."""

    name = "mc-validate"
    #: the long-sequence recovery configuration (ell, omega, trials)
    LONG = (10_000, 16, 30)

    def build(self) -> None:
        specs = []
        for ell in range(1, 9):
            for omega in (2, 3, 4):
                specs.append(("recovery", ell, omega, None, None, 1500))
        for omega in (1, 2, 3):
            for ell in range(1, 6):
                for r in range(1, ell + 1):
                    specs.append(("partial", ell, omega, r, None, 500))
        for ell, omega in ((1, 2), (2, 2), (3, 3)):
            for k in (2, 5):
                specs.append(("ra", ell, omega, None, k, 1000))
        ell, omega, trials = self.LONG
        specs.append(("recovery", ell, omega, None, None, trials))
        self.specs = specs
        self.rerun_spec = ("recovery", 4, 3, None, None, 1000)

    def _configs(self, round_index: int) -> list:
        # Each round draws fresh trial seeds, so the block sizes the long
        # configuration reaches (and with them peak memory) are sampled over
        # many trials per run rather than fixed by one seed.
        rng = random.Random(f"{self.name}:{self.seed}:{round_index}")
        sim, cov = self.lib.simulate, self.lib.coverage
        return [
            sim.SimConfig(
                cov.CoverageParams(ell, omega, r=r, k=k),
                trials=trials,
                seed=rng.getrandbits(63),
                mode=mode,
            )
            for mode, ell, omega, r, k, trials in self.specs + [self.rerun_spec]
        ]

    def prepare(self) -> None:
        oracle = oracles.CoverageOracle()
        self.truth = {}
        for mode, ell, omega, r, k, _ in self.specs + [self.rerun_spec]:
            if mode == "recovery":
                value = oracle.expected(ell, omega)
            elif mode == "partial":
                value = oracle.partial(ell, omega, r)
            else:
                value = oracle.random_access(ell, omega, k)
            self.truth[(mode, ell, omega, r, k)] = value

    def questions(self, round_index: int) -> list[Question]:
        configs = self._configs(round_index)
        out = []
        for spec, config in zip(self.specs, configs):
            out.append(self._question(spec, config))
        rerun = configs[-1]
        truth = self.truth[self.rerun_spec[:5]]

        def twice(config=rerun):
            run = self.lib.simulate.run_simulation
            return run(config), run(config)

        out.append(
            Question(
                "sim determinism: recovery(4,3) run twice",
                twice,
                lambda pair: pair[0] == pair[1] and self._agrees(pair[0], truth),
            )
        )
        return out

    def _question(self, spec, config) -> Question:
        mode, ell, omega, r, k, trials = spec
        truth = self.truth[spec[:5]]
        label = f"sim {mode} ell={ell} omega={omega} r={r} k={k} trials={trials}"
        return Question(
            label,
            lambda: self.lib.simulate.run_simulation(config),
            lambda report: self._agrees(report, truth),
        )

    @staticmethod
    def _agrees(report, truth: float) -> bool:
        if report.truncated_trials:
            return False
        return abs(report.mean - truth) <= 5 * (report.std_error or 0.0)

    def layer_metrics(self, profile: RoundProfile, durations: list[float]) -> dict:
        long_ell = self.LONG[0]
        time_by = {"recovery": 0.0, "partial": 0.0, "ra": 0.0, "recovery_long": 0.0}
        trials_by = dict.fromkeys(time_by, 0)
        reads = 0.0
        total = 0.0
        for seconds, _, (mode, ell, trials, mean) in profile.tagged.get("simulate.run_simulation", []):
            key = "recovery_long" if mode == "recovery" and ell >= long_ell else mode
            time_by[key] += seconds
            trials_by[key] += trials
            reads += mean * trials
            total += seconds
        out = {
            f"simulate.{key}.us_per_trial": 1e6 * _ratio(time_by[key], trials_by[key]) for key in time_by
        }
        out["simulate.reads_per_s"] = _ratio(reads, total)
        out["simulate.driver.self_s"] = profile.self_s("simulate.run_simulation")
        out["simulate.kernel.self_s"] = sum(
            profile.self_s(f"simulate.{fn}")
            for fn in ("simulate_recovery", "simulate_partial", "simulate_random_access")
        )
        return out


# ---------------------------------------------------------------- code-design


class CodeDesign(Workload):
    """Alphabet design: ``evaluate_code`` over code families and the binary4 grid search."""

    name = "code-design"
    GRID_EXACT = (10, 4)  # (n, q): 286 symbols and observation points
    GRID_FLOAT = (30, 3)  # 496 symbols and points
    QPLUS1_N = range(1, 11)
    OPT_N = (3, 4, 5, 10)
    OPT_STEP = 1e-4
    RANDOM_CODES = 40
    COUNTER_N = 10
    COUNTER_TABLE = {(0, 10): 1}

    def build(self) -> None:
        codes = self.lib.codes
        self.qplus1 = {q: codes.construct_base_plus_uniform(q) for q in (2, 3, 4)}
        self.qplus1_float = {q: code.as_float() for q, code in self.qplus1.items()}
        self.grid_exact = codes.construct_grid_code(*self.GRID_EXACT)
        self.grid_float = codes.construct_grid_code(*self.GRID_FLOAT).as_float()
        self.random_codes = []
        for _ in range(self.RANDOM_CODES):
            m = self.rng.randint(3, 6)
            n = self.rng.randint(5, 30)
            values = set()
            while len(values) < m:
                values.add(self.rng.uniform(0.02, 0.98))
            self.random_codes.append((codes.CompositeCode.binary(sorted(values)), n))
        self.counter = codes.CompositeCode.binary([0.4, 0.5, 0.6])
        self.counter_table = codes.custom_decoder_from_table(self.counter, self.COUNTER_N, self.COUNTER_TABLE)

    def prepare(self) -> None:
        n, _ = self.GRID_EXACT
        self.grid_exact_truth = [
            oracles.self_decoding_mass(_grid_counts(s, n)) for s in self.grid_exact.symbols
        ]
        n, _ = self.GRID_FLOAT
        self.grid_float_truth = [
            float(oracles.self_decoding_mass(_grid_counts(s, n))) for s in self.grid_float.symbols
        ]
        self.random_truth = [
            [float(v) for v in oracles.binary_success(code.values, n)] for code, n in self.random_codes
        ]
        values = self.counter.values
        self.counter_truth = [float(v) for v in oracles.binary_success(values, self.COUNTER_N)]
        override = {counts[0]: index for counts, index in self.COUNTER_TABLE.items()}
        self.counter_table_truth = [
            float(v) for v in oracles.binary_success(values, self.COUNTER_N, override)
        ]
        self.alpha = {n: oracles.binary4_alpha(n) for n in self.OPT_N}

    def questions(self, round_index: int) -> list[Question]:
        out = []
        for q in (2, 3, 4):
            for n in self.QPLUS1_N:
                base, uniform = oracles.qplus1_success(q, n)
                truth = [uniform if _is_uniform(s) else base for s in self.qplus1[q].symbols]
                f_min, f_avg = oracles.qplus1_closed_forms(q, n)
                for kind, code in (("exact", self.qplus1[q]), ("float", self.qplus1_float[q])):
                    out.append(self._evaluate(f"qplus1 q={q} n={n} {kind}", code, n, truth, f_min, f_avg))
        n, q = self.GRID_EXACT
        out.append(self._evaluate(f"grid q={q} n={n} exact", self.grid_exact, n, self.grid_exact_truth))
        n, q = self.GRID_FLOAT
        out.append(self._evaluate(f"grid q={q} n={n} float", self.grid_float, n, self.grid_float_truth))
        for i, ((code, n), truth) in enumerate(zip(self.random_codes, self.random_truth)):
            out.append(self._evaluate(f"random binary #{i} m={code.m} n={n}", code, n, truth))
        n = self.COUNTER_N
        out.append(self._evaluate(f"0.4,0.5,0.6 n={n} mld", self.counter, n, self.counter_truth))
        out.append(
            self._evaluate(
                f"0.4,0.5,0.6 n={n} table {self.COUNTER_TABLE}",
                self.counter,
                n,
                self.counter_table_truth,
                decoder=self.counter_table,
            )
        )
        for n in self.OPT_N:
            out.append(
                Question(
                    f"optimize_binary4_grid n={n} step={self.OPT_STEP}",
                    lambda n=n: self.lib.binary.optimize_binary4_grid(n, self.OPT_STEP),
                    lambda result, n=n: self._grid_optimum_ok(n, *result),
                )
            )
        return out

    def _evaluate(self, label, code, n, truth, f_min=None, f_avg=None, decoder=None) -> Question:
        """``evaluate_code`` checked per symbol, then f_min and f_avg (by default the truth's min and mean).

        Exact codes must match exactly, float codes within 1e-9.
        """
        if f_min is None:
            f_min, f_avg = min(truth), sum(truth) / len(truth)
        want = list(truth) + [f_min, f_avg]

        def check(ev):
            got = [ev.per_symbol_success[s] for s in code.symbols] + [ev.f_min, ev.f_avg]
            if code.is_exact:
                return got == want
            return all(abs(a - float(b)) <= 1e-9 for a, b in zip(got, want))

        return Question(
            f"evaluate_code {label}", lambda: self.lib.codes.evaluate_code(code, n, decoder=decoder), check
        )

    def _grid_optimum_ok(self, n: int, x_star: float, f_star: float) -> bool:
        if abs(x_star - self.alpha[n]) > 2e-4:
            return False
        x = Fraction(x_star)
        worst = min(oracles.binary_success([0, x, 1 - x, 1], n))
        return abs(f_star - float(worst)) <= 1e-9

    def layer_metrics(self, profile: RoundProfile, durations: list[float]) -> dict:
        seconds = {True: 0.0, False: 0.0}
        points = {True: 0, False: 0}
        under_grid_search = 0
        for dur, parent, (exact, grid_points) in profile.tagged.get("codes.evaluate_code", []):
            seconds[exact] += dur
            points[exact] += grid_points
            under_grid_search += parent == "binary.optimize_binary4_grid"
        return {
            "model.enumerate_observed.self_s": profile.self_s("model.enumerate_observed"),
            "model.grid_points": sum(tag for _, _, tag in profile.tagged.get("model.enumerate_observed", [])),
            "codes.evaluate_code.self_s": profile.self_s("codes.evaluate_code"),
            "codes.mld_decode.calls": profile.count("codes.mld_decode"),
            "codes.mld_decode.self_s": profile.self_s("codes.mld_decode"),
            "codes.prob_observed.calls": profile.count("codes.prob_observed"),
            "codes.prob_observed.self_s": profile.self_s("codes.prob_observed"),
            "codes.exact.points_per_s": _ratio(points[True], seconds[True]),
            "codes.float.points_per_s": _ratio(points[False], seconds[False]),
            "binary.optimize_binary4_grid.self_s": profile.self_s("binary.optimize_binary4_grid"),
            "binary.codes_evaluated": under_grid_search,
        }


def _grid_counts(symbol, n: int) -> tuple[int, ...]:
    return tuple(round(Fraction(p) * n) for p in symbol.probs)


def _is_uniform(symbol) -> bool:
    return len(set(symbol.probs)) == 1


# ------------------------------------------------------------ coverage-series

#: Questions the library answers wrongly today, each with the fault it exposes.
#: They count as failed until the fault is mended.
KNOWN_FAULTS = (
    (1, 40, "miss_probability: float inclusion-exclusion cancels (relative error 2.6e-7)"),
    (1, 64, "miss_probability: float inclusion-exclusion cancels (296.06, not 303.61)"),
    (50, 64, "miss_probability: float inclusion-exclusion cancels (542.73, not 549.73)"),
    (1, 1100, "miss_probability: comb(1100, i) overflows float (OverflowError)"),
)


class CoverageSeries(Workload):
    """An analytic coverage sweep over every entry point of ``cdna.coverage``."""

    name = "coverage-series"
    OMEGAS = (2, 3, 4, 8, 16, 32)
    DOUBLINGS = 20  # geometric ell from 1 up to about 2^20
    EXACT = ((20, 3), (40, 3), (60, 3), (90, 3), (10, 4), (15, 4), (20, 4), (6, 6), (8, 5))
    PARTIAL_ELL = 12
    PARTIAL_FALLBACK = ((11, 8, 1), (11, 8, 6), (11, 8, 11), (12, 8, 1), (12, 8, 12))
    RA = 12
    REL = 1e-9

    def build(self) -> None:
        # Seeded jitter inside each doubling keeps the series cost per point
        # (which grows with log ell) the same from seed to seed.
        specs = []  # (function of cdna.coverage, arguments, known fault)
        for omega in self.OMEGAS:
            jitter = self.rng.random()
            for e in range(self.DOUBLINGS):
                args = (int(2 ** (e + jitter)), omega)
                specs += [("expected_coverage", args, None), ("coverage_bounds", args, None)]
        specs += [("expected_coverage_closed_pairs", (ell,), None) for ell in range(1, 65)]
        specs += [("expected_coverage_exact", args, None) for args in self.EXACT]
        specs += [
            ("expected_coverage_partial", (ell, omega, r), None)
            for omega in (1, 2, 3)
            for ell in range(1, self.PARTIAL_ELL + 1)
            for r in range(1, ell + 1)
        ]
        specs += [("expected_coverage_partial", args, None) for args in self.PARTIAL_FALLBACK]
        for _ in range(self.RA):
            args = (self.rng.randint(1, 1000), self.rng.randint(2, 4), self.rng.randint(1, 10))
            specs.append(("random_access_expectation", args, None))
        specs += [("expected_coverage", (ell, omega), fault) for ell, omega, fault in KNOWN_FAULTS]
        self.specs = specs

    def prepare(self) -> None:
        oracle = oracles.CoverageOracle()
        answer = {
            "expected_coverage_partial": oracle.partial,
            "random_access_expectation": oracle.random_access,
            "expected_coverage_closed_pairs": lambda ell: oracle.expected(ell, 2),
        }
        self.truth = [answer.get(fn, oracle.expected)(*args) for fn, args, _ in self.specs]

    def before_round(self) -> None:
        # expected_coverage_exact memoizes; clearing it makes each round pay for
        # the expansions a fresh process pays for.
        clear = getattr(self.lib.coverage.expected_coverage_exact, "cache_clear", None)
        if clear is not None:
            clear()

    def questions(self, round_index: int) -> list[Question]:
        return [self._ask(fn, args, want, fault) for (fn, args, fault), want in zip(self.specs, self.truth)]

    def _ask(self, fn: str, args: tuple, want: float, fault: Optional[str]) -> Question:
        """Values within ``REL`` of the chain; bounds must contain the chain value."""
        if fn == "coverage_bounds":
            check = lambda pair: pair.lower <= want <= pair.upper
        else:
            check = lambda got: (fn != "expected_coverage_exact" or isinstance(got, Fraction)) and oracles.rel_close(
                float(got), want, self.REL
            )
        return Question(
            f"{fn}({', '.join(map(str, args))})",
            lambda: getattr(self.lib.coverage, fn)(*args),
            check,
            known_fault=fault,
        )

    def layer_metrics(self, profile: RoundProfile, durations: list[float]) -> dict:
        exact = profile.tagged.get("coverage.expected_coverage_exact", [])
        series_terms = profile.count("coverage.miss_probability")
        return {
            "coverage.expected_coverage.calls": profile.count("coverage.expected_coverage"),
            "coverage.expected_coverage.self_s": profile.self_s("coverage.expected_coverage"),
            "coverage.miss_probability.calls": series_terms,
            "coverage.series.us_per_term": 1e6
            * _ratio(profile.inclusive.get("coverage.expected_coverage", 0.0), series_terms),
            "coverage.expected_coverage_exact.self_s": profile.self_s("coverage.expected_coverage_exact"),
            "coverage.expected_coverage_exact.cache_hits": profile.cache_hits.get(
                "coverage.expected_coverage_exact", 0
            ),
            "coverage.exact.terms": sum(tag[0] for _, _, tag in exact),
            "coverage.exact.result_bits": sum(tag[1] for _, _, tag in exact),
            "coverage.covering_family_count.calls": profile.count("coverage.covering_family_count"),
            "coverage.covering_family_count.self_s": profile.self_s("coverage.covering_family_count"),
            "coverage.expected_coverage_partial.self_s": profile.self_s("coverage.expected_coverage_partial"),
        }


# -------------------------------------------------------------------- cli-cold

CLI_SUBCOMMANDS = ("coverage", "partial", "ra", "sim", "code-eval", "design")


class CliCold(Workload):
    """A fixed script of ``cdna`` invocations, each in a fresh interpreter, one at a time.

    Not a workload of its own: cold starts on this machine drift too much for
    a bounded ``wall_s`` (see README.md).  Every traced run asks this script
    for the ``cli.*`` layer figures.
    """

    name = "cli-cold"
    REL = 1e-11  # agreement to 12 significant digits, within one unit of the last

    def build(self) -> None:
        rng = self.rng
        self.tmp = tempfile.TemporaryDirectory(prefix=".cdnabench-", dir=self.root)
        table = os.path.join(self.tmp.name, "table.json")
        with open(table, "w", encoding="utf-8") as fh:
            json.dump({"0,10": 1}, fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.cov_start = rng.choice((1, 3, 5, 7))
        self.partial_args = (rng.randint(4, 8), rng.randint(2, 3))
        self.partial_args += (rng.randint(1, self.partial_args[0]),)
        self.ra_args = (rng.randint(1, 500), rng.randint(2, 4), rng.randint(1, 10))
        self.sim_args = (rng.randint(2, 5), rng.randint(2, 3), rng.getrandbits(31))
        self.qplus1 = (rng.randint(2, 4), rng.randint(2, 8))
        self.binary4_n = rng.choice((3, 4, 5, 6, 7))
        ell, omega, r = self.partial_args
        partial = ["partial", "--ell", str(ell), "--omega", str(omega), "--r", str(r)]
        ell, omega, k = self.ra_args
        ra = ["ra", "--ell", str(ell), "--omega", str(omega), "--k", str(k)]
        ell, omega, seed = self.sim_args
        sim = ["sim", "--mode", "recovery", "--ell", str(ell), "--omega", str(omega), "--trials", "2000",
               "--seed", str(seed)]
        q, n = self.qplus1
        # (sub-command, argv, factory of the check on the printed rows)
        self.script = [
            ("coverage", ["coverage", "--range", f"{self.cov_start}:{self.cov_start << 20}:*2", "--omega", "3",
                          "--bounds"], self._check_coverage),
            ("partial", partial, self._check_partial),
            ("ra", ra, self._check_ra),
            ("sim", sim, self._check_sim),
            ("sim", sim, self._check_sim),
            ("code-eval", ["code-eval", "--code", "0.4,0.5,0.6", "--n", "10", "--decoder", f"table:{table}"],
             self._check_code_eval),
            ("design", ["design", "--family", "qplus1", "--q", str(q), "--n", str(n)], self._check_qplus1),
            ("design", ["design", "--family", "omega", "--q", "3", "--n", "6"], self._check_omega),
            ("design", ["design", "--family", "binary4", "--n", str(self.binary4_n), "--verify-grid", "1e-3"],
             self._check_binary4),
        ]

    def close(self) -> None:
        self.tmp.cleanup()

    def prepare(self) -> None:
        oracle = oracles.CoverageOracle()
        self.checks = [make(oracle) for _, _, make in self.script]

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "cdna.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def questions(self, round_index: int) -> list[Question]:
        first_sim = []  # the repeated sim invocation must print identical bytes

        def verdict(result, sub, check):
            code, stdout = result
            if sub == "sim":
                first_sim[:] = first_sim or [stdout]
                if stdout != first_sim[0]:
                    return False
            return code == 0 and check(_rows(stdout))

        return [
            Question(
                f"cdna #{i} {' '.join(argv)}",
                lambda argv=argv: self._invoke(argv),
                lambda result, sub=sub, check=check: verdict(result, sub, check),
            )
            for i, ((sub, argv, _), check) in enumerate(zip(self.script, self.checks))
        ]

    def _close(self, text: str, want: float) -> bool:
        return oracles.rel_close(float(text), want, self.REL)

    def _check_coverage(self, oracle):
        omega = 3
        ells = [self.cov_start << e for e in range(21)]
        truth = {ell: oracle.expected(ell, omega) for ell in ells}

        def check(rows):
            return [int(r["ell"]) for r in rows] == ells and all(
                self._close(r["expected"], truth[int(r["ell"])])
                and float(r["lower"]) <= truth[int(r["ell"])] <= float(r["upper"])
                for r in rows
            )

        return check

    def _check_partial(self, oracle):
        ell, omega, r = self.partial_args
        want = oracle.partial(ell, omega, r)
        bound = oracle.expected(r, omega)
        return lambda rows: len(rows) == 1 and self._close(rows[0]["expected"], want) and self._close(
            rows[0]["subset_bound"], bound
        )

    def _check_ra(self, oracle):
        want = oracle.random_access(*self.ra_args)
        return lambda rows: len(rows) == 1 and self._close(rows[0]["expected"], want)

    def _check_sim(self, oracle):
        ell, omega, _ = self.sim_args
        want = oracle.expected(ell, omega)
        return lambda rows: (
            len(rows) == 1
            and rows[0]["truncated_trials"] == "0"
            and abs(float(rows[0]["mean"]) - want) <= 5 * float(rows[0]["std_error"])
        )

    def _check_code_eval(self, oracle):
        values = [0.4, 0.5, 0.6]
        success = [float(v) for v in oracles.binary_success(values, 10, {0: 1})]
        return lambda rows: _check_code_rows(rows, success, self._close)

    def _check_qplus1(self, oracle):
        f_min, f_avg = oracles.qplus1_closed_forms(*self.qplus1)
        return lambda rows: len(rows) == 1 and self._close(rows[0]["f_min"], float(f_min)) and self._close(
            rows[0]["f_avg"], float(f_avg)
        )

    def _check_omega(self, oracle):
        n = 6
        masses = [
            oracles.self_decoding_mass((a, b, n - a - b)) for a in range(n + 1) for b in range(n + 1 - a)
        ]
        f_min, f_avg = float(min(masses)), float(sum(masses) / len(masses))
        return lambda rows: len(rows) == 1 and self._close(rows[0]["f_min"], f_min) and self._close(
            rows[0]["f_avg"], f_avg
        )

    def _check_binary4(self, oracle):
        n = self.binary4_n
        alpha = oracles.binary4_alpha(n)
        a = Fraction(alpha)
        success = [float(v) for v in oracles.binary_success([0, a, 1 - a, 1], n)]
        f_min, f_avg = min(success), math.fsum(success) / 4

        def check(rows):
            if len(rows) != 2:
                return False
            design, verify = rows
            return (
                self._close(design["alpha"], alpha)
                and self._close(design["f_min"], f_min)
                and self._close(design["f_avg"], f_avg)
                and abs(float(verify["x_star"]) - alpha) <= 1e-3
            )

        return check

    def layer_metrics(self, profile: RoundProfile, durations: list[float]) -> dict:
        per_sub = {sub: [] for sub in CLI_SUBCOMMANDS}
        for (sub, _, _), seconds in zip(self.script, durations):
            per_sub[sub].append(seconds)
        return {f"cli.{sub}.cold_ms": 1e3 * sum(v) / len(v) for sub, v in per_sub.items()}


def _rows(stdout: str) -> list[dict]:
    lines = stdout.strip().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_code_rows(rows, success, close) -> bool:
    symbols = [r for r in rows if r["kind"] == "symbol"]
    summary = [r for r in rows if r["kind"] == "summary"]
    if len(symbols) != len(success) or len(summary) != 1:
        return False
    return (
        all(close(r["p_succ"], s) for r, s in zip(symbols, success))
        and close(summary[0]["f_min"], min(success))
        and close(summary[0]["f_avg"], math.fsum(success) / len(success))
    )


WORKLOADS = {w.name: w for w in (MCValidate, CodeDesign, CoverageSeries)}


#: units of the end-to-end metrics, reported with tracing off
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: units of every per-layer metric, in report order.  A workload reports 0 for
#: a layer it does not exercise; the ``cli`` figures, ``simulate.trial_rng.us``
#: and ``trace.overhead_s`` are measured the same way on every workload.
LAYERS = {
    **{f"simulate.{k}.us_per_trial": "us" for k in ("recovery", "partial", "ra", "recovery_long")},
    "simulate.reads_per_s": "1/s",
    "simulate.driver.self_s": "s",
    "simulate.kernel.self_s": "s",
    "coverage.expected_coverage.calls": "count",
    "coverage.expected_coverage.self_s": "s",
    "coverage.miss_probability.calls": "count",
    "coverage.series.us_per_term": "us",
    "coverage.expected_coverage_exact.self_s": "s",
    "coverage.expected_coverage_exact.cache_hits": "count",
    "coverage.exact.terms": "count",
    "coverage.exact.result_bits": "bit",
    "coverage.covering_family_count.calls": "count",
    "coverage.covering_family_count.self_s": "s",
    "coverage.expected_coverage_partial.self_s": "s",
    "model.enumerate_observed.self_s": "s",
    "model.grid_points": "count",
    "codes.evaluate_code.self_s": "s",
    "codes.mld_decode.calls": "count",
    "codes.mld_decode.self_s": "s",
    "codes.prob_observed.calls": "count",
    "codes.prob_observed.self_s": "s",
    "codes.exact.points_per_s": "1/s",
    "codes.float.points_per_s": "1/s",
    "binary.optimize_binary4_grid.self_s": "s",
    "binary.codes_evaluated": "count",
    **{f"cli.{sub}.cold_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "simulate.trial_rng.us": "us",
    "trace.overhead_s": "s",
}


def hooks() -> dict:
    """Tags the tracer keeps for the spans the layer metrics need."""

    def exact_tag(args, result):
        ell, omega = args["ell"], args["omega"]
        return math.comb(ell + omega - 1, omega - 1), result.numerator.bit_length() + result.denominator.bit_length()

    def sim_tag(args, report):
        config = args["config"]
        return config.mode, config.params.ell, report.trials, report.mean

    return {
        "simulate.run_simulation": sim_tag,
        "coverage.expected_coverage_exact": exact_tag,
        "model.enumerate_observed": lambda args, result: len(result),
        "codes.evaluate_code": lambda args, result: (
            args["code"].is_exact,
            math.comb(args["n"] + args["code"].q - 1, args["code"].q - 1),
        ),
    }

