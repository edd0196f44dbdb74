import gc
import hashlib
import math
import random
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from collections import Counter
from itertools import accumulate, product
from math import comb

import numpy as np
import pytest

import cdna.coverage as cov
from cdna import (
    BoundPair,
    CoverageParams,
    UnsupportedRangeError,
    coverage_bounds,
    expected_coverage,
    expected_coverage_closed_pairs,
    expected_coverage_exact,
    expected_coverage_partial,
    random_access_expectation,
)
from cdna.coverage import miss_probability
from conftest import (
    brute_covering_count,
    brute_miss_probability,
    covering_family_count,
    dp_expected_coverage,
    exact_expected_coverage,
    exact_expected_coverage_partial,
    partial_weight,
    reference_expected_coverage_exact,
    surjection_cover_probabilities,
)


def rel_err(got: float, want) -> float:
    return abs(Fraction(got) - Fraction(want)) / abs(Fraction(want))


@pytest.fixture(autouse=True)
def cold_walks():
    """Each test starts from no walked chain, whatever ran before it."""
    cov._walk.cache_clear()
    yield
    cov._walk.cache_clear()


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

    def test_matches_surjection_count(self):
        # relative accuracy holds however small u_m gets: nothing is subtracted
        for w in (2, 3, 5, 8, 17, 40):
            covers = surjection_cover_probabilities(w)
            for m in range(0, min(400, len(covers)), 7):
                want = 1 - covers[m]
                got = miss_probability(w, m)
                assert abs(Decimal(got) - want) <= Decimal(1e-13) * want, (w, m)

    def test_past_underflow_is_zero(self):
        assert miss_probability(2, 1100) == 0.0
        assert miss_probability(40, 10**12) == 0.0
        assert 0.0 < miss_probability(2, 1000) < 1e-300

    def test_work_cap(self, monkeypatch):
        import cdna.coverage as cov

        monkeypatch.setattr(cov, "MAX_CHAIN_WORK", 1000)
        assert miss_probability(10, 99) > 0.0  # 100 reads of 10 states
        with pytest.raises(UnsupportedRangeError, match="simulator"):
            miss_probability(10, 100)


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
        # leave partial sums of different sizes for the final tail merges;
        # omega = 2 has ell terms, so it also reaches both sides of the
        # _EXACT_BLOCK-term block edges.
        max_ell = {1: 5, 2: 128, 3: 24, 4: 12, 5: 8, 6: 6}
        term_counts = set()
        for omega, top in max_ell.items():
            for ell in range(1, top + 1):
                term_counts.add(comb(ell + omega - 1, omega - 1) - 1)
                got = expected_coverage_exact(ell, omega)
                assert isinstance(got, Fraction)
                assert got == reference_expected_coverage_exact(ell, omega), (ell, omega)
        assert any(n & (n - 1) for n in term_counts)
        assert {1, 2, 4, 8, 16, 32} <= term_counts
        block = cov._EXACT_BLOCK
        assert {block - 1, block, block + 1, 2 * block} <= term_counts

    def test_exact_terms_are_the_lexicographic_expansion(self):
        # the family order yields the terms of the lexicographic enumeration, each once
        for omega, top in {1: 4, 2: 12, 3: 10, 4: 8, 5: 6, 6: 5}.items():
            for ell in range(1, top + 1):
                assert Counter(cov._exact_terms(ell, omega)) == Counter(_lexicographic_terms(ell, omega)), (ell, omega)

    def test_exact_is_reduced_and_pinned(self):
        # sha256 of numerator and denominator as big-endian bytes (str() of
        # these integers exceeds the default 4,300-digit conversion limit)
        pinned = {
            (90, 3): (299297, 299293, "389d1a6a17041f7f91df7160b5711e17acbf9039d4b04b6af70b7e2c4560d1e3"),
            (120, 3): (716802, 716798, "200ca54ad79ae6b264b1047db0d13b33f8c8b27409310901cbec071ec97fdb0d"),
        }
        for args, (num_bits, den_bits, digest) in pinned.items():
            value = expected_coverage_exact(*args)
            num, den = value.numerator, value.denominator
            assert math.gcd(num, den) == 1
            assert (num.bit_length(), den.bit_length()) == (num_bits, den_bits), args
            as_bytes = num.to_bytes((num_bits + 7) // 8, "big") + b"/" + den.to_bytes((den_bits + 7) // 8, "big")
            assert hashlib.sha256(as_bytes).hexdigest() == digest, args

    def test_within_float_resolution_of_exact(self):
        # the truncation settles below omega * 2^-53, under the answer's resolution
        for omega, top in ((2, 40), (3, 24), (4, 12)):
            for ell in range(1, top + 1):
                assert rel_err(expected_coverage(ell, omega), expected_coverage_exact(ell, omega)) < 1e-15

    def test_vs_surjection_oracle_wide(self):
        for omega in (40, 48, 64):
            for ell in (1, 2, 7, 64, 1000, 2**15, 2**20):
                want = exact_expected_coverage(ell, omega)
                assert rel_err(expected_coverage(ell, omega), want) < 1e-12, (ell, omega)

    def test_single_index_is_coupon_collector(self):
        for omega in (1100, 5000):
            start = time.perf_counter()
            got = expected_coverage(1, omega)
            assert time.perf_counter() - start < 0.5
            assert rel_err(got, omega * sum(Fraction(1, i) for i in range(1, omega + 1))) < 1e-14

    def test_work_cap_refuses_before_any_work(self, monkeypatch):
        import cdna.coverage as cov

        start = time.perf_counter()
        with pytest.raises(UnsupportedRangeError, match="simulator"):
            expected_coverage(2, 10**7)  # 10^7 states per read
        assert time.perf_counter() - start < 0.1
        monkeypatch.setattr(cov, "MAX_CHAIN_WORK", 10_000)
        assert expected_coverage(8, 4) == pytest.approx(float(expected_coverage_exact(8, 4)), rel=1e-15)
        with pytest.raises(UnsupportedRangeError):
            expected_coverage(8, 40)

    def test_stop_rule_below_the_normal_floats_is_refused(self):
        # ell^2 * u_m^2 <= tol would need u_m far below 2.2e-308, where the chain drops states
        with pytest.raises(UnsupportedRangeError, match="tol"):
            expected_coverage(10**300, 3, tol=1e-300)

    def test_no_input_overflows(self):
        # answers or refusals, never an OverflowError, however large the input
        calls = [(miss_probability, (w, m)) for w in (1100, 2000, 10**6) for m in (0, w - 1, w, 10 * w, 10**9)]
        calls += [(expected_coverage, (ell, w)) for ell in (1, 2, 10**18, 10**200, 10**400) for w in (1, 2, 1100, 10**5)]
        partial = ((3, 2000, 2), (10**6, 1100, 10), (10**200, 2, 1), (10**200, 3, 2), (10**400, 2, 1))
        calls += [(expected_coverage_partial, args) for args in partial]
        calls += [(random_access_expectation, (ell, 2000, 3)) for ell in (1, 2)]
        answered = 0
        for fn, args in calls:
            try:
                value = fn(*args)
            except UnsupportedRangeError:
                continue
            assert math.isfinite(value) and value >= 0.0, (fn.__name__, args)
            answered += 1
        assert answered >= len(calls) // 2

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

    def test_upper_bound_holds_at_large_omega(self):
        # E(2, omega) >= E(1, omega) = omega H_omega; d = log2(omega/(omega-1))
        # taken directly loses its digits to cancellation at these omega
        for omega in (10**15, 10**16, 10**18):
            harmonic = math.log(omega) + 0.5772156649015329 + 1 / (2 * omega)
            assert coverage_bounds(2, omega).upper >= omega * harmonic, omega


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
                assert partial_weight(m, r) == family_sum, (m, r)


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
        # one work cap, checked before any work: reads times (omega + r) per read
        start = time.perf_counter()
        with pytest.raises(UnsupportedRangeError, match="simulator"):
            expected_coverage_partial(3, 2000, 2)
        with pytest.raises(UnsupportedRangeError, match="simulator"):
            expected_coverage_partial(10**12, 2, 10**11)
        assert time.perf_counter() - start < 0.1

    def test_matches_fraction_oracle_grid(self):
        for omega in (2, 3, 4):
            for ell in range(1, 9):
                for r in range(1, ell + 1):
                    want = exact_expected_coverage_partial(ell, omega, r)
                    assert rel_err(expected_coverage_partial(ell, omega, r), want) < 1e-13, (ell, omega, r)

    def test_former_cap_inputs_answer(self):
        # refused by the old C(ell, r) and ell caps, answered in milliseconds now
        for args in ((20, 2, 10), (40, 3, 20), (50, 2, 1)):
            start = time.perf_counter()
            got = expected_coverage_partial(*args)
            assert time.perf_counter() - start < 0.5
            assert rel_err(got, exact_expected_coverage_partial(*args)) < 1e-12, args
        value = expected_coverage_partial(1000, 4, 500)
        assert 4 < value < expected_coverage(500, 4)

    def test_former_fallback_input_answers(self):
        # omega=5 at ell=25: the minimum of 25 recovery times has
        # E = sum_m u_m^25 with u_m = 1 - (exact cover probability)
        want = sum((1 - c) ** 25 for c in surjection_cover_probabilities(5))
        assert rel_err(expected_coverage_partial(25, 5, 1), want) < 1e-13

    def test_bad_args(self):
        with pytest.raises(ValueError):
            expected_coverage_partial(3, 2, 0)
        with pytest.raises(ValueError):
            expected_coverage_partial(3, 2, 4)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan, "1e-12", True])
    def test_rejects_bad_tol(self, tol):
        for r in (1, 3):  # partial recovery and the full-recovery case
            with pytest.raises(ValueError, match="tol"):
                expected_coverage_partial(3, 2, r, tol=tol)


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

    def test_product_beyond_the_float_range_is_refused(self):
        # an int k too large for a float, and one whose product with E overflows
        for k in (10**400, 10**308, 5 * 10**307):
            with pytest.raises(UnsupportedRangeError, match="float"):
                random_access_expectation(2, 2, k)
        assert random_access_expectation(2, 2, 10**307) == 10**307 * expected_coverage(2, 2)


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


class TestIntegerArguments:
    """Counts must be ints: a bool or a float is refused, never rounded or keyed as an int."""

    BAD = (True, False, 2.0, 2.5, "3", math.nan)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_entry_points_refuse(self, bad):
        calls = [
            lambda: expected_coverage(bad, 3),
            lambda: expected_coverage(3, bad),
            lambda: expected_coverage_exact(bad, 2),
            lambda: expected_coverage_exact(3, bad),
            lambda: expected_coverage_partial(bad, 3, 2),
            lambda: expected_coverage_partial(4, bad, 2),
            lambda: expected_coverage_partial(4, 3, bad),
            lambda: miss_probability(bad, 5),
            lambda: miss_probability(3, bad),
            lambda: random_access_expectation(bad, 2, 2),
            lambda: random_access_expectation(3, bad, 2),
            lambda: random_access_expectation(3, 2, bad),
            lambda: expected_coverage_closed_pairs(bad),
            lambda: coverage_bounds(bad, 3),
            lambda: coverage_bounds(3, bad),
            lambda: CoverageParams(bad, 2),
            lambda: CoverageParams(2, bad),
            lambda: CoverageParams(3, 2, r=bad),
            lambda: CoverageParams(3, 2, k=bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="integer"):
                call()
        assert cov._walk.cache_info().currsize == 0

    def test_numpy_integers_are_ints(self):
        assert expected_coverage(np.int64(5), np.int64(3)) == expected_coverage(5, 3)
        assert miss_probability(np.int32(3), np.int64(7)) == miss_probability(3, 7)
        assert expected_coverage_partial(np.int64(6), 3, np.int8(2)) == expected_coverage_partial(6, 3, 2)
        assert random_access_expectation(3, 2, np.int64(4)) == random_access_expectation(3, 2, 4)

    def test_bounds_beyond_the_float_range_are_refused(self):
        for omega in (2, 3):
            with pytest.raises(UnsupportedRangeError, match="float range"):
                coverage_bounds(10**400, omega)
            coverage_bounds(10**300, omega)
        for omega in (10**306, 10**308, 10**400):  # an upper bound beyond the largest float
            with pytest.raises(UnsupportedRangeError, match="float range"):
                coverage_bounds(2, omega)
        coverage_bounds(2, 10**305)


def _lexicographic_terms(ell, omega):
    """The expansion's terms, as pairs (numerator, denominator), over the multi-indices in lexicographic order."""
    for k in product(range(ell + 1), repeat=omega):
        if sum(k) != ell or k[0] == ell:
            continue
        coef = math.factorial(ell)
        n = 1
        for i, k_i in enumerate(k):
            coef = coef // math.factorial(k_i) * ((-1) ** i * comb(omega, i)) ** k_i
            n *= (omega - i) ** k_i if i else 1
        s = ell - k[0]
        yield -coef * n, omega**s - n


def _remaining(states, w):
    """R_m from the chain's states at m: count c is w H_{w-c} reads from full."""
    harmonic = list(accumulate((1 / i for i in range(1, len(states) + 1)), initial=0.0))
    return w * math.fsum(p * h for p, h in zip(states, reversed(harmonic)))


def _sweep(omega, ells):
    return [expected_coverage(ell, omega) for ell in ells]


class TestWalkMemo:
    """Every reader takes u_m, f_m and R_m from one walk per omega; answers never depend on it."""

    ELLS = [2**e for e in range(21)] + [3, 5, 100, 12345]

    def test_cold_warm_and_order(self):
        for omega in (3, 32):
            cold = _sweep(omega, self.ELLS)
            assert _sweep(omega, self.ELLS) == cold  # warm
            for order in (self.ELLS[::-1], random.Random(omega).sample(self.ELLS, len(self.ELLS))):
                cov._walk.cache_clear()
                assert _sweep(omega, order) == [cold[self.ELLS.index(ell)] for ell in order]

    def test_readers_interleaved_at_one_omega(self):
        omega = 6
        calls = [
            (miss_probability, (omega, 3000)),  # a large m first walks far ahead of the rest
            (expected_coverage_partial, (12, omega, 5)),
            (expected_coverage, (12, omega)),
            (random_access_expectation, (40, omega, 3)),
            (miss_probability, (omega, 17)),
            (expected_coverage_partial, (1000, omega, 1)),
            (expected_coverage, (2**20, omega)),
            (expected_coverage_partial, (40, omega, 39)),
        ]
        alone = []
        for fn, args in calls:
            cov._walk.cache_clear()
            alone.append(fn(*args))
        cov._walk.cache_clear()
        assert [fn(*args) for fn, args in calls] == alone
        assert [fn(*args) for fn, args in reversed(calls)] == alone[::-1]

    def test_walks_no_further_than_a_request_reads(self):
        # the stored length is the read where expected_coverage's stop rule first holds, plus one;
        # R_m is stored from the read where the stop rule is first tried, and only there
        for ell, omega in ((2, 3), (1000, 8), (2**20, 32)):
            expected_coverage(ell, omega)
            log_pairs = math.log(ell) + math.log(ell - 1) - math.log(2)
            log_target = math.log(min(1e-12, omega * 2.0**-53))
            tried = None
            for m, (u, _, states) in enumerate(cov._chain(omega)):
                if log_pairs + 2 * math.log(u) + math.log(omega) <= log_target:
                    tried = m if tried is None else tried
                    if log_pairs + math.log(u) + math.log(_remaining(states, omega)) <= log_target:
                        break
            walk = cov._walk(omega)
            assert len(walk.rest) == m + 1, (ell, omega)
            assert [math.isnan(rest) for rest in walk.rest] == [j < tried for j in range(m + 1)]
            miss_probability(omega, m + 5)
            assert len(walk.rest) == m + 6 and all(math.isnan(rest) for rest in walk.rest[m + 1 :])

    def test_eviction_then_rewalk(self):
        first, walk = expected_coverage(50, 2), cov._walk(2)
        for omega in range(3, 3 + cov._WALKS_KEPT):
            expected_coverage(50, omega)
        assert cov._walk.cache_info().currsize == cov._WALKS_KEPT
        assert expected_coverage(50, 2) == first
        assert cov._walk(2) is not walk and len(cov._walk(2).rest) == len(walk.rest)

    def test_earlier_rest_rewalks_from_the_first_read(self):
        # a large m walks far without R_m; the readers then need R_m at reads already passed
        omega = 7
        calls = [(expected_coverage, (2**20, omega)), (expected_coverage, (2, omega))]
        calls.append((expected_coverage_partial, (60, omega, 2)))
        alone = []
        for fn, args in calls:
            cov._walk.cache_clear()
            alone.append(fn(*args))
        cov._walk.cache_clear()
        miss_probability(omega, 2000)
        assert [fn(*args) for fn, args in calls] == alone
        assert len(cov._walk(omega).rest) == 2001

    @pytest.mark.parametrize("at", [0, 3, 40, 150])
    def test_interrupted_walk_gives_the_cold_answers(self, monkeypatch, at):
        omega, ells = 9, (2, 50, 2**20)
        cold = [miss_probability(omega, 500)] + [expected_coverage(ell, omega) for ell in ells]
        chain, interrupts = cov._chain, []

        def interrupted(w):  # stops once with an interrupt at the read in ``interrupts``
            for m, read in enumerate(chain(w)):
                if interrupts and m == interrupts[0]:
                    interrupts.pop()
                    raise KeyboardInterrupt
                yield read

        monkeypatch.setattr(cov, "_chain", interrupted)
        # walked first: nothing; 12 reads, so the kept chain is the one interrupted;
        # 500 reads, so R_m comes from a walk again from read 0
        for first, stop in ((0, at), (12, 13 + at), (500, at)):
            cov._walk.cache_clear()
            if first:
                miss_probability(omega, first)
            interrupts[:] = [stop]
            with pytest.raises(KeyboardInterrupt):
                expected_coverage(ells[-1], omega)
            walk = cov._walk(omega)
            assert len(walk.uncovered) == len(walk.full) == len(walk.rest)
            assert [miss_probability(omega, 500)] + [expected_coverage(ell, omega) for ell in ells] == cold

    def test_refused_requests_leave_the_walk_alone(self, monkeypatch):
        expected_coverage(20, 10)
        length = len(cov._walk(10).rest)
        monkeypatch.setattr(cov, "MAX_CHAIN_WORK", 10 * length)
        refused = [
            lambda: miss_probability(10, length + 5),  # beyond the work cap
            lambda: expected_coverage(10**9, 10),
            lambda: expected_coverage(10**300, 10, tol=1e-300),  # stop rule below the normal floats
            lambda: expected_coverage_partial(10**6, 10, 10**5),  # omega + r states per read
            lambda: expected_coverage_partial(2 * 10**308, 10, 5),  # ell beyond the float range
        ]
        for call in refused:
            with pytest.raises(UnsupportedRangeError):
                call()
            assert len(cov._walk(10).rest) == length
        with pytest.raises(UnsupportedRangeError):
            expected_coverage(2, 10**6)
        assert cov._walk.cache_info().currsize == 1

    def test_threads_share_one_walk(self):
        # each thread asks in its own order, so R_m is asked at reads walked without it and the walk restarts
        omega, ells = 24, self.ELLS * 2
        serial = _sweep(omega, ells) + [miss_probability(omega, 3000)]
        cov._walk.cache_clear()
        start = threading.Barrier(4)
        results = [None] * 4

        def sweep(i):
            start.wait()
            order = random.Random(i).sample(range(len(ells) + 1), len(ells) + 1)
            ask = [lambda ell=ell: expected_coverage(ell, omega) for ell in ells]
            ask.append(lambda: miss_probability(omega, 3000))
            results[i] = {j: ask[j]() for j in order}

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert [got[j] for j in range(len(serial))] == serial

    @pytest.mark.parametrize("omega", [2, 3, 20, 60, 300])
    def test_entry_size_within_the_stated_bound(self, monkeypatch, omega):
        # the _Walk docstring: L <= min(cap / w, N_w + 1) + 1 reads, in at most
        # 24 (17/16) L + 200 w + 4096 bytes
        cap = 300_000
        monkeypatch.setattr(cov, "MAX_CHAIN_WORK", cap)
        longest = min(cap // omega, cov._reads_until(omega, cov._LOG_NORMAL_MIN) + 1) + 1
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            last = min(cap // omega - 1, cov._reads_until(omega, cov._LOG_NORMAL_MIN))
            miss_probability(omega, last)  # the longest walk a request may ask
            for ell in (2, 10**6, 10**30):
                try:
                    expected_coverage(ell, omega)
                except UnsupportedRangeError:
                    pass
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        reads = len(cov._walk(omega).rest)
        assert last < reads <= longest
        assert held <= 24 * 17 / 16 * reads + 200 * omega + 4096, (reads, held)
