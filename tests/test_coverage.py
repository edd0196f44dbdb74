import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cdna import (
    BoundPair,
    CoverageParams,
    UnsupportedRangeError,
    coverage_bounds,
    covering_family_count,
    expected_coverage,
    expected_coverage_closed_pairs,
    expected_coverage_exact,
    expected_coverage_partial,
    miss_probability,
    random_access_expectation,
)
from cdna.coverage import _order_statistic_weight, _series_row
from conftest import (
    brute_covering_count,
    brute_miss_probability,
    dp_expected_coverage,
    literal_miss_probability,
    reference_expected_coverage_exact,
)


class TestMissProbability:
    def test_pairs(self):
        # after the first symbol, each read reveals the second with probability 1/2
        assert miss_probability(2, 3) == pytest.approx(0.25, abs=1e-15)

    def test_triples_vs_enumeration(self):
        assert miss_probability(3, 3) == pytest.approx(float(Fraction(7, 9)), abs=1e-15)
        assert brute_miss_probability(3, 3) == Fraction(7, 9)

    def test_single_symbol(self):
        assert miss_probability(1, 1) == 0.0

    def test_zero_draws_always_miss(self):
        for w in range(1, 6):
            assert miss_probability(w, 0) == 1.0

    def test_matches_enumeration_grid(self):
        for w in range(1, 5):
            for m in range(0, 7):
                assert miss_probability(w, m) == pytest.approx(
                    float(brute_miss_probability(w, m)), abs=1e-12
                )

    def test_range(self):
        for w in range(1, 7):
            for m in range(0, 200, 17):
                assert 0.0 <= miss_probability(w, m) <= 1.0

    def test_bit_identical_to_literal_series(self):
        for w in range(1, 41):
            for m in range(0, 201):
                got, want = miss_probability(w, m), literal_miss_probability(w, m)
                assert got.hex() == want.hex(), (w, m)

    def test_coefficient_overflow_still_raises(self):
        # comb(1100, i) is too large for a float, as in the literal series
        with pytest.raises(OverflowError):
            miss_probability(1100, 0)


class TestExpectedCoverage:
    def test_single_pair(self):
        # one index, support 2: 1 + mean of a fair geometric = 3
        assert expected_coverage(1, 2) == pytest.approx(3.0, abs=1e-9)

    def test_two_pairs(self):
        assert expected_coverage(2, 2) == pytest.approx(11 / 3, abs=1e-9)

    def test_trivial_support(self):
        assert expected_coverage(1, 1) == 1.0
        assert expected_coverage(10, 1) == 1.0

    def test_vs_markov_oracle(self):
        for ell in range(1, 7):
            for omega in (2, 3, 4):
                assert expected_coverage(ell, omega) == pytest.approx(
                    dp_expected_coverage(ell, omega), abs=1e-9
                )

    def test_vs_exact_rational(self):
        for ell in range(1, 11):
            for omega in (2, 3):
                assert expected_coverage(ell, omega) == pytest.approx(
                    float(expected_coverage_exact(ell, omega)), abs=1e-10
                )

    def test_vs_exact_rational_wide(self):
        cases = [(16, 4), (16, 5), (33, 3), (33, 4), (64, 2), (64, 3)]
        for ell, omega in cases:
            assert expected_coverage(ell, omega) == pytest.approx(
                float(expected_coverage_exact(ell, omega)), abs=1e-9
            )

    def test_exact_matches_term_by_term_reference(self):
        # Term counts C(ell+omega-1, omega-1) - 1 that are not powers of two
        # leave partial sums of different sizes for the final tail merges.
        max_ell = {1: 5, 2: 40, 3: 24, 4: 12, 5: 8, 6: 6}
        term_counts = set()
        for omega, top in max_ell.items():
            for ell in range(1, top + 1):
                term_counts.add(comb(ell + omega - 1, omega - 1) - 1)
                got = expected_coverage_exact.__wrapped__(ell, omega)
                assert isinstance(got, Fraction)
                assert got == reference_expected_coverage_exact(ell, omega), (ell, omega)
        assert any(n & (n - 1) for n in term_counts)
        assert {1, 2, 4, 8, 16, 32} <= term_counts

    def test_caches_are_bounded(self):
        # one exact value near the term cap holds millions of bits
        assert 64 <= expected_coverage_exact.cache_info().maxsize < math.inf
        assert _series_row.cache_info().maxsize < math.inf

    def test_exact_refuses_oversized_expansion(self):
        with pytest.raises(UnsupportedRangeError, match="expected_coverage"):
            expected_coverage_exact(64, 5)

    def test_monotone_in_length_and_support(self):
        values = {
            (ell, omega): expected_coverage(ell, omega)
            for ell in range(1, 65)
            for omega in range(1, 6)
        }
        for omega in range(1, 6):
            if omega == 1:
                continue  # constant 1 in ell
            for ell in range(1, 64):
                assert values[(ell + 1, omega)] > values[(ell, omega)]
        for ell in range(1, 65):
            for omega in range(1, 5):
                assert values[(ell, omega + 1)] > values[(ell, omega)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            expected_coverage(1, 0)
        with pytest.raises(ValueError):
            expected_coverage(0, 2)
        with pytest.raises(ValueError):
            expected_coverage(1, 2, tol=math.inf)
        with pytest.raises(ValueError):
            expected_coverage(1, 2, tol=0.0)

    def test_log_fit(self):
        # doubling grid: E(ell, 2) is log2(ell) plus an almost constant offset
        ells = [2**e for e in range(6, 13)]
        xs = np.log2(ells)
        ys = np.array([expected_coverage(ell, 2) for ell in ells])
        slope, intercept = np.polyfit(xs, ys, 1)
        assert slope == pytest.approx(1.0, abs=0.02)
        assert intercept == pytest.approx(2.333, abs=0.05)


class TestClosedPairs:
    def test_small_values(self):
        assert expected_coverage_closed_pairs(1) == pytest.approx(3.0, abs=1e-12)
        assert expected_coverage_closed_pairs(2) == pytest.approx(11 / 3, abs=1e-12)
        # 2 + 3 - 1 + 1/7
        assert expected_coverage_closed_pairs(3) == pytest.approx(29 / 7, abs=1e-12)

    def test_matches_series(self):
        for ell in range(1, 21):
            assert abs(
                expected_coverage_closed_pairs(ell) - expected_coverage(ell, 2, 1e-12)
            ) <= 1e-9

    def test_refuses_large_length(self):
        with pytest.raises(UnsupportedRangeError, match="expected_coverage"):
            expected_coverage_closed_pairs(65)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            expected_coverage_closed_pairs(0)


class TestCoverageBounds:
    def test_pair_upper_constant(self):
        b = coverage_bounds(1024, 2)
        assert b.upper == pytest.approx(10 + 2 + 1 / math.log(2), abs=1e-12)
        assert b.upper == pytest.approx(math.log2(1024) + 3.443, abs=1e-3)

    def test_pair_lower(self):
        b = coverage_bounds(1024, 2)
        assert b.lower == pytest.approx(11 + 1 / (1024 * math.log(2)), abs=1e-12)

    def test_brackets_single_pair(self):
        b = coverage_bounds(1, 2)
        assert b.lower == pytest.approx(1 + 1 / math.log(2), abs=1e-12)
        assert b.upper == pytest.approx(2 + 1 / math.log(2), abs=1e-12)
        assert b.contains(3.0)

    def test_sandwich_grid(self):
        for omega in (2, 3, 4):
            ell = 1
            while ell <= 1024:
                b = coverage_bounds(ell, omega)
                value = expected_coverage(ell, omega)
                assert b.lower <= value <= b.upper, (ell, omega)
                ell *= 2

    def test_rejects_small_omega(self):
        with pytest.raises(ValueError):
            coverage_bounds(4, 1)


class TestCoveringFamilyCount:
    def test_witness(self):
        # the only pair of singletons covering a 2-set is {{1},{2}}
        assert covering_family_count(2, 1, 2) == 1

    def test_single_full_subset(self):
        for m in range(1, 7):
            assert covering_family_count(m, m, 1) == 1

    def test_pairs_of_two_subsets(self):
        assert covering_family_count(3, 2, 2) == 3

    def test_brute_force_grid(self):
        for m in range(1, 7):
            for r in range(1, m + 1):
                for j in range(1, comb(m, r) + 1):
                    assert covering_family_count(m, r, j) == brute_covering_count(m, r, j), (
                        m,
                        r,
                        j,
                    )

    def test_signed_family_sum_is_the_partial_weight(self):
        # The partial-recovery weight of m indices is the alternating j-sum of
        # covering families; families of j > C(m, r) distinct r-subsets do not exist.
        for r in range(1, 13):
            for m in range(1, 13):
                family_sum = sum(
                    (-1) ** (j + 1) * covering_family_count(m, r, j) for j in range(1, comb(m, r) + 1)
                )
                assert _order_statistic_weight(m, r) == family_sum, (m, r)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            covering_family_count(0, 1, 1)
        with pytest.raises(ValueError):
            covering_family_count(2, 0, 1)


class TestPartialRecovery:
    def test_full_threshold_reduces(self):
        assert expected_coverage_partial(2, 2, 2) == pytest.approx(11 / 3, abs=1e-9)

    def test_single_of_two(self):
        # min of two iid copies of 1 + geometric(1/2) is 1 + geometric(3/4)
        assert expected_coverage_partial(2, 2, 1) == pytest.approx(float(Fraction(7, 3)), abs=1e-9)

    def test_single_index(self):
        assert expected_coverage_partial(1, 2, 1) == pytest.approx(3.0, abs=1e-9)

    def test_identities_grid(self):
        for omega in (2, 3, 4):
            for ell in range(1, 7):
                full = expected_coverage(ell, omega)
                prev = None
                for r in range(1, ell + 1):
                    value = expected_coverage_partial(ell, omega, r)
                    assert value <= expected_coverage(r, omega) + 1e-9, (ell, omega, r)
                    if prev is not None:
                        assert value >= prev - 1e-9
                    prev = value
                assert prev == pytest.approx(full, abs=1e-6)

    def test_against_markov_oracle_min_case(self):
        # r=1 is the minimum of ell cover times; oracle by complementary DP
        # P[min > m] = P[T > m]^ell with T the single-index cover time
        def dp_min(ell, omega, tol=1e-13):
            probs = [1.0] + [0.0] * omega
            total, m = 0.0, 0
            while True:
                tail = (1.0 - probs[omega]) ** ell
                total += tail
                if tail < tol and m > omega:
                    return total
                nxt = [0.0] * (omega + 1)
                for c, p in enumerate(probs):
                    if p:
                        nxt[c] += p * (c / omega)
                        if c < omega:
                            nxt[c + 1] += p * (1.0 - c / omega)
                probs = nxt
                m += 1

        for ell in (1, 2, 3, 4):
            for omega in (2, 3):
                assert expected_coverage_partial(ell, omega, 1) == pytest.approx(
                    dp_min(ell, omega), abs=1e-8
                )

    def test_caps(self):
        with pytest.raises(UnsupportedRangeError):
            expected_coverage_partial(20, 2, 10)  # C(20,10) = 184756
        with pytest.raises(UnsupportedRangeError):
            expected_coverage_partial(50, 2, 1)  # length beyond the exact-sum cap

    def test_large_support_fallback(self):
        # omega=5 at ell=25 exceeds the exact-expansion cap; the float path is
        # allowed only under a tolerance that covers its cancellation
        with pytest.raises(UnsupportedRangeError, match="cancellation"):
            expected_coverage_partial(25, 5, 1)
        value = expected_coverage_partial(25, 5, 1, tol=1e-5)
        assert expected_coverage(25, 5) * 0.1 < value < expected_coverage(1, 5)

    def test_float_fallback_matches_exact_path(self, monkeypatch):
        # force the series fallback (used when the rational expansion is
        # infeasible) and check it against the exact path on the same inputs
        import cdna.coverage as cov

        cases = [(4, 3, 2), (5, 2, 3), (6, 4, 1)]
        exact_values = [expected_coverage_partial(*case) for case in cases]
        monkeypatch.setattr(cov, "MAX_EXACT_TERMS", 0)
        cov.expected_coverage_exact.cache_clear()
        try:
            for case, exact_value in zip(cases, exact_values):
                assert cov.expected_coverage_partial(*case) == pytest.approx(
                    exact_value, abs=1e-9
                )
        finally:
            monkeypatch.undo()
            cov.expected_coverage_exact.cache_clear()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            expected_coverage_partial(3, 2, 0)
        with pytest.raises(ValueError):
            expected_coverage_partial(3, 2, 4)


class TestRandomAccess:
    def test_examples(self):
        assert random_access_expectation(1, 2, 1) == pytest.approx(3.0, abs=1e-9)
        assert random_access_expectation(1, 2, 2) == pytest.approx(6.0, abs=1e-9)
        assert random_access_expectation(2, 2, 3) == pytest.approx(11.0, abs=1e-9)

    def test_scaling_is_exact(self):
        for k in (1, 2, 5):
            assert random_access_expectation(3, 3, k) == k * expected_coverage(3, 3)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_access_expectation(1, 2, 0)


class TestParamTypes:
    def test_coverage_params_validation(self):
        CoverageParams(ell=2, omega=2, r=1, k=3)
        with pytest.raises(ValueError):
            CoverageParams(ell=0, omega=2)
        with pytest.raises(ValueError):
            CoverageParams(ell=2, omega=2, r=3)
        with pytest.raises(ValueError):
            CoverageParams(ell=2, omega=2, k=0)

    def test_bound_pair_validation(self):
        with pytest.raises(ValueError):
            BoundPair(2.0, 1.0)
