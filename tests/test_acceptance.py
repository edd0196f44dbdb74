"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and time
budget and prints one PASS/FAIL line (visible with ``pytest -s``).  Criterion 9
carries one documented deviation at n=2; see the test and the decisions ledger.
"""
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from cdna import (
    CompositeCode,
    CompositeSymbol,
    CoverageParams,
    SimConfig,
    binary4_alpha,
    construct_base_plus_uniform,
    construct_binary4,
    construct_grid_code,
    coverage_bounds,
    custom_decoder_from_table,
    enumerate_observed,
    evaluate_code,
    expected_coverage,
    expected_coverage_closed_pairs,
    expected_coverage_partial,
    observed_grid_size,
    optimize_binary4_grid,
    random_access_expectation,
    run_simulation,
    self_decoding_probability,
)
from cdna.cli import main as cli_main
from click.testing import CliRunner
from conftest import brute_covering_count, covering_family_count
import properties


@contextmanager
def criterion(num: int, budget_s: float, note: str = ""):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d}: FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    suffix = f" - {note}" if note else ""
    print(f"[acceptance] criterion {num:2d}: PASS in {elapsed:.2f}s (budget {budget_s:g}s){suffix}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_01_closed_form_vs_series():
    with criterion(1, 1.0):
        for ell in range(1, 21):
            closed = expected_coverage_closed_pairs(ell)
            series = expected_coverage(ell, 2, 1e-12)
            assert abs(closed - series) <= 1e-9, ell


def test_criterion_02_log_offset_reproduction():
    with criterion(2, 10.0):
        for exp in range(6, 13):
            ell = 2**exp
            offset = expected_coverage(ell, 2) - math.log2(ell)
            assert abs(offset - 2.333) <= 0.05, (ell, offset)


def test_criterion_03_bound_sandwich():
    with criterion(3, 10.0):
        for omega in (2, 3, 4):
            ell = 1
            while ell <= 1024:
                pair = coverage_bounds(ell, omega)
                value = expected_coverage(ell, omega)
                assert pair.lower <= value <= pair.upper, (ell, omega)
                if omega == 2:
                    assert abs(pair.upper - (math.log2(ell) + 3.443)) <= 1e-3
                ell *= 2


def test_criterion_04_monte_carlo_agreement():
    with criterion(4, 60.0):
        means = {}
        for ell in range(1, 9):
            for omega in (2, 3, 4):
                report = run_simulation(
                    SimConfig(CoverageParams(ell, omega), trials=100_000, seed=20240817)
                )
                assert report.truncated_trials == 0
                truth = expected_coverage(ell, omega)
                assert abs(report.mean - truth) <= 4 * report.std_error, (ell, omega)
                means[(ell, omega)] = report.mean
        # empirical means grow strictly with the sequence length on this seed grid
        for omega in (2, 3, 4):
            for ell in range(1, 8):
                assert means[(ell + 1, omega)] > means[(ell, omega)], (ell, omega)


def test_criterion_05_partial_recovery():
    with criterion(5, 60.0):
        # Independent derivation: each index is recovered at 1 + Geo(1/2) reads;
        # the minimum of two such is 1 + Geo(3/4), with mean 1 + 4/3 = 7/3.
        independent = 1 + Fraction(4, 3)
        assert abs(expected_coverage_partial(2, 2, 1) - float(independent)) <= 1e-6
        for omega in (1, 2, 3):
            for ell in range(1, 6):
                assert abs(
                    expected_coverage_partial(ell, omega, ell) - expected_coverage(ell, omega)
                ) <= 1e-6
        for omega in (1, 2, 3):
            for ell in range(1, 6):
                for r in range(1, ell + 1):
                    report = run_simulation(
                        SimConfig(
                            CoverageParams(ell, omega, r=r),
                            trials=20_000,
                            seed=7_000 + 100 * ell + 10 * omega + r,
                            mode="partial",
                        )
                    )
                    truth = expected_coverage_partial(ell, omega, r)
                    assert abs(report.mean - truth) <= 4 * report.std_error, (ell, omega, r)


def test_criterion_06_random_access():
    with criterion(6, 30.0):
        for ell, omega in ((1, 2), (2, 2), (3, 3)):
            base = expected_coverage(ell, omega)
            for k in (1, 2, 5):
                assert random_access_expectation(ell, omega, k) == k * base
        for k in (1, 2, 3):
            report = run_simulation(
                SimConfig(CoverageParams(1, 2, k=k), trials=100_000, seed=500 + k, mode="ra")
            )
            assert abs(report.mean - 3.0 * k) <= 4 * report.std_error, k


def test_criterion_07_mld_counterexample():
    with criterion(7, 1.0):
        code = CompositeCode.binary([0.4, 0.5, 0.6])
        result = evaluate_code(code, 10)
        succ = [result.per_symbol_success[s] for s in code.symbols]
        for got, want in zip(succ, (0.633, 0.246, 0.633)):
            assert abs(got - want) <= 5e-4
        assert abs(result.f_min - 0.246) <= 5e-4
        # overriding the all-second-symbol observation toward the middle codeword
        decoder = custom_decoder_from_table(code, 10, {(0, 10): 1})
        overridden = evaluate_code(code, 10, decoder=decoder)
        assert abs(overridden.f_min - 0.247) <= 5e-4
        assert overridden.f_min > result.f_min


def test_criterion_08_closed_form_constructions():
    with criterion(8, 30.0):
        for q in (2, 3):
            code = construct_base_plus_uniform(q)
            for n in range(1, 9):
                result = evaluate_code(code, n)
                f_min_closed = 1 - Fraction(1, q ** (n - 1))
                f_avg_closed = 1 - Fraction(1, q ** (n - 1) * (q + 1))
                assert result.f_min == f_min_closed, (q, n)
                assert result.f_avg == f_avg_closed, (q, n)
                float_result = evaluate_code(code.as_float(), n)
                assert abs(float_result.f_min - float(f_min_closed)) <= 1e-12
                assert abs(float_result.f_avg - float(f_avg_closed)) <= 1e-12
        # grid codes: evaluation equals the self-decoding statistics
        for n, q in ((2, 2), (5, 2), (8, 2), (2, 3), (3, 3)):
            code = construct_grid_code(n, q)
            betas = [self_decoding_probability(t) for t in enumerate_observed(n, q)]
            result = evaluate_code(code, n)
            assert result.f_min == min(betas)
            assert result.f_avg == sum(betas) / len(betas)
        for n, q in ((30, 2), (99, 2), (20, 3), (5, 4)):
            assert observed_grid_size(n, q) <= 10_000
            code = construct_grid_code(n, q).as_float()
            betas = [float(self_decoding_probability(t)) for t in enumerate_observed(n, q)]
            result = evaluate_code(code, n)
            assert abs(result.f_min - min(betas)) <= 1e-9
            assert abs(result.f_avg - sum(betas) / len(betas)) <= 1e-9
        properties.check_balanced_minimum()


def test_criterion_09_binary4_optimum():
    with criterion(9, 120.0, note="n=2 degenerate, see ledger"):
        for n in (3, 4, 5, 10):
            x_star, _ = optimize_binary4_grid(n, 1e-4)
            assert abs(x_star - binary4_alpha(n)) <= 2e-4, n
        # n=2: four codewords but only three observable distributions, so the
        # objective is identically zero and no optimal inner value exists; the
        # closed form is undefined there (documented deviation).
        x_star, f_star = optimize_binary4_grid(2, 1e-4)
        assert f_star == 0.0
        assert x_star == pytest.approx(1e-4)  # flat objective: first grid point
        for probe in (0.1, 0.25, 0.4):
            probe_code = CompositeCode.binary([0.0, probe, 1 - probe, 1.0])
            assert evaluate_code(probe_code, 2).f_min == 0.0
        with pytest.raises(ValueError):
            construct_binary4(2)
        # convergence toward 1/5, monotone within each parity class
        odd = [binary4_alpha(n) for n in range(3, 201, 2)]
        even = [binary4_alpha(n) for n in range(4, 201, 2)]
        assert all(a > b for a, b in zip(odd, odd[1:]))
        assert all(a > b for a, b in zip(even, even[1:]))
        assert all(a > 0.2 for a in odd + even)
        assert abs(binary4_alpha(199) - 0.2) <= 0.01
        assert abs(binary4_alpha(200) - 0.2) <= 0.01


def test_criterion_10_property_suites():
    with criterion(10, 120.0):
        rng = np.random.default_rng(1789)
        from conftest import random_exact_code

        for _ in range(20):
            code = random_exact_code(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            properties.check_region_partition(code, int(rng.integers(1, 6)))
        for _ in range(20):
            code = random_exact_code(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            n1 = int(rng.integers(1, 7))
            multiplier = int(rng.integers(2, max(3, 24 // n1 + 1)))
            properties.check_n_independence(code, n1, n1 * multiplier)
        for _ in range(20):
            properties.check_self_decoding(random_exact_code(rng, 5, 2, denom=12), 12)
        properties.check_favg_dominance(rng, n_codes=200, n_decoders=20)
        properties.check_base_perfection(rng, trials=40)
        properties.check_base_substitution(rng, trials=40)
        properties.check_neighbor_regions(rng, trials=30)
        properties.check_reflection_equivariance(rng, trials=25, n_max=12)
        properties.check_symmetric_pairing(rng, trials=25)
        properties.check_symmetrization_improvement(rng, trials=25)
        properties.check_oversize_degenerate(rng, trials=15)
        for m in range(1, 7):
            for r in range(1, m + 1):
                for j in range(1, math.comb(m, r) + 1):
                    assert covering_family_count(m, r, j) == brute_covering_count(m, r, j)


def test_criterion_11_sim_determinism():
    with criterion(11, 60.0):
        configs = [
            SimConfig(CoverageParams(3, 2), trials=5_000, seed=31337),
            SimConfig(CoverageParams(2, 3, r=1), trials=5_000, seed=8, mode="partial"),
            SimConfig(CoverageParams(1, 2, k=3), trials=5_000, seed=9, mode="ra"),
        ]
        for config in configs:
            assert run_simulation(config) == run_simulation(config)
        runner = CliRunner()
        args = [
            "sim", "--mode", "recovery", "--ell", "2", "--omega", "2",
            "--trials", "5000", "--seed", "4242",
        ]
        first = runner.invoke(cli_main, args, catch_exceptions=False).output
        second = runner.invoke(cli_main, args, catch_exceptions=False).output
        assert first == second
        json_args = args + ["--format", "json"]
        assert (
            runner.invoke(cli_main, json_args, catch_exceptions=False).output
            == runner.invoke(cli_main, json_args, catch_exceptions=False).output
        )
        # fresh interpreter processes must agree byte for byte as well
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "cdna.cli", *args]
        out_a = subprocess.run(cmd, capture_output=True, text=True).stdout
        out_b = subprocess.run(cmd, capture_output=True, text=True).stdout
        assert out_a == first == out_b
