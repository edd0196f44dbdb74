import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cdna import (
    CompositeCode,
    CompositeSymbol,
    Decoder,
    UnsupportedRangeError,
    base_symbol,
    binary4_alpha,
    binary4_beta,
    construct_base_plus_uniform,
    construct_binary4,
    construct_distinct_support,
    construct_grid_code,
    custom_decoder_from_table,
    decoding_region,
    enumerate_observed,
    evaluate_code,
    mld_decode,
    observed_grid_size,
    optimize_binary4_grid,
    self_decoding_probability,
    uniform_symbol,
)
from cdna import codes
from conftest import (
    float_path_bound,
    float_success_error,
    random_exact_code,
    random_float_binary_code,
    reference_evaluate_code,
    reference_mld_decode,
    reference_prob_observed,
    reference_rationals,
    reference_region_weight,
)
import properties

COUNTEREXAMPLE = CompositeCode.binary([0.4, 0.5, 0.6])


class TestCompositeCode:
    def test_sorted_lexicographically(self):
        code = CompositeCode([(0.6, 0.4), (0.4, 0.6), (0.5, 0.5)])
        assert code.values == (0.4, 0.5, 0.6)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CompositeCode([(0.5, 0.5), (0.5, 0.5)])

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ValueError):
            CompositeCode([(0.5, 0.5), (0.5, 0.25, 0.25)])

    def test_binary_shorthand(self):
        assert CompositeCode.binary([0.3]).symbols[0].probs == (0.3, 0.7)

    def test_exactness(self):
        assert construct_base_plus_uniform(2).is_exact
        assert not COUNTEREXAMPLE.is_exact
        assert not construct_base_plus_uniform(2).as_float().is_exact


class TestProbObserved:
    """The multinomial mass of the tests' reference against closed forms and scipy."""

    def test_fair_coin_half_half(self):
        theta = (5, 5)
        assert reference_prob_observed(CompositeSymbol((0.5, 0.5)), theta) == pytest.approx(
            math.comb(10, 5) / 2**10, abs=1e-15
        )

    def test_fair_coin_exact(self):
        theta = (5, 5)
        sym = CompositeSymbol((Fraction(1, 2), Fraction(1, 2)))
        assert reference_prob_observed(sym, theta) == Fraction(63, 256)

    def test_deterministic_symbol(self):
        theta = (4, 0, 0)
        assert reference_prob_observed(base_symbol(3, 1), theta) == 1

    def test_all_first_symbol(self):
        theta = (10, 0)
        assert reference_prob_observed(CompositeSymbol((0.4, 0.6)), theta) == pytest.approx(0.4**10, rel=1e-12)

    def test_zero_prob_letter_with_zero_count(self):
        theta = (3, 0)
        assert reference_prob_observed(CompositeSymbol((1.0, 0.0)), theta) == 1.0

    def test_outside_support_is_zero(self):
        theta = (2, 1)
        assert reference_prob_observed(base_symbol(2, 1), theta) == 0

    def test_matches_scipy(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 5))
            n = int(rng.integers(1, 12))
            probs = rng.dirichlet(np.ones(q))
            counts = rng.multinomial(n, probs)
            sym = CompositeSymbol(probs / probs.sum())
            theta = tuple(int(c) for c in counts)
            expected = stats.multinomial(n, [float(p) for p in sym.probs]).pmf(counts)
            assert reference_prob_observed(sym, theta) == pytest.approx(float(expected), rel=1e-9)


class TestMldDecode:
    def test_self_decoding_on_grid(self):
        code = construct_grid_code(3, 2)
        for theta in enumerate_observed(3, 2):
            assert mld_decode(code, theta) == CompositeSymbol(Fraction(k, 3) for k in theta)

    def test_counterexample_boundary(self):
        # likelihood threshold between 0.4 and 0.5 sits at 0.4497
        for i in range(0, 5):
            assert mld_decode(COUNTEREXAMPLE, (i, 10 - i)).probs[0] == 0.4
        assert mld_decode(COUNTEREXAMPLE, (5, 5)).probs[0] == 0.5
        for i in range(6, 11):
            assert mld_decode(COUNTEREXAMPLE, (i, 10 - i)).probs[0] == 0.6

    def test_tie_breaks_lexicographically(self):
        code = CompositeCode.binary([Fraction(1, 4), Fraction(3, 4)])
        theta = (1, 1)  # exactly between the pair
        assert mld_decode(code, theta).probs[0] == Fraction(1, 4)

    def test_exact_and_float_agree(self, rng):
        for _ in range(20):
            code = random_exact_code(rng, 4, 2, denom=16)
            as_float = code.as_float()
            n = int(rng.integers(1, 9))
            for theta in enumerate_observed(n, 2):
                assert mld_decode(code, theta).as_float() == mld_decode(as_float, theta)


class TestDecodingRegion:
    def test_distinct_support_contains_compatible(self):
        code = construct_distinct_support(4, [(1, 2), (3, 4)])
        first = code.symbols[0]
        region = decoding_region(code, first, 3)
        support = {i for i, p in enumerate(first.probs) if p > 0}
        for theta in enumerate_observed(3, 4):
            if {i for i, k in enumerate(theta) if k > 0} <= support:
                assert theta in region

    def test_grid_code_regions_are_singletons(self):
        code = construct_grid_code(2, 2)
        for symbol in code.symbols:
            region = decoding_region(code, symbol, 2)
            assert len(region) == 1
            assert CompositeSymbol(Fraction(k, 2) for k in region[0]) == symbol

    def test_counterexample_region(self):
        region = decoding_region(COUNTEREXAMPLE, CompositeSymbol((0.4, 0.6)), 10)
        assert sorted(region) == [(i, 10 - i) for i in range(5)]

    def test_non_codeword_rejected(self):
        with pytest.raises(ValueError):
            decoding_region(COUNTEREXAMPLE, CompositeSymbol((0.45, 0.55)), 10)

    def test_cap(self):
        with pytest.raises(UnsupportedRangeError):
            decoding_region(COUNTEREXAMPLE, CompositeSymbol((0.4, 0.6)), 10, max_enum=5)

    def test_regions_are_the_reference_partition(self, rng):
        mixed = CompositeCode(
            [(Fraction(1, 3), Fraction(2, 3)), (0.5, 0.5), (Fraction(3, 4), Fraction(1, 4)), (0.9, 0.1)]
        )
        zeros = CompositeCode([(Fraction(1, 2), Fraction(1, 2), 0), (1, 0, 0), (0, 1, 0)])
        cases = [(mixed, 7), (mixed, 12), (zeros, 4), (zeros.as_float(), 4), (COUNTEREXAMPLE, 10)]
        for _ in range(6):
            q = int(rng.integers(2, 4))
            code = random_exact_code(rng, int(rng.integers(2, 5)), q)
            cases += [(code, int(rng.integers(1, 7))), (code.as_float(), int(rng.integers(1, 7)))]
        for code, n in cases:
            assert_regions_are_the_reference(code, n)
            assert_regions_are_the_reference(code, n, random_table_decoder(rng, code, n, 3))

    @pytest.mark.parametrize("block", [64, 4096])
    def test_regions_over_several_chunks(self, monkeypatch, rng, block):
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", block)
        n, q = 60, 3
        assert math.comb(n + q - 1, q - 1) * q > block
        exact = CompositeCode(
            [(Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
             (0, Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3),) * 3]
        )
        mixed = CompositeCode([*exact.symbols[:2], *exact.as_float().symbols[2:]])
        for code in (exact, exact.as_float(), mixed):
            assert_regions_are_the_reference(code, n, random_table_decoder(rng, code, n, 40))
        assert_regions_are_the_reference(exact, n)


def assert_regions_are_the_reference(code, n, decoder=None):
    """decoding_region over every codeword is the partition of the grid that the
    reference decoder gives, each region in grid order; so is mld_decode where no override applies."""
    overrides = {k: code.symbols[i] for k, i in decoder.overrides} if decoder else {}
    want = {s: [] for s in code.symbols}
    for theta in enumerate_observed(n, code.q):
        want[overrides.get(theta) or reference_mld_decode(code, theta)].append(theta)
    for s in code.symbols:
        assert decoding_region(code, s, n, decoder) == tuple(want[s]), (code, n, s)
        assert all(mld_decode(code, theta) == s for theta in want[s] if theta not in overrides)


class TestOnePointDecoding:
    """mld_decode refuses what one row of counts cannot decode in bounded time, and an
    observation of another alphabet, as decoding_region refuses a symbol of another alphabet."""

    MISMATCH = {
        "mld_decode, float code": lambda: mld_decode(COUNTEREXAMPLE, (1, 1, 1)),
        "mld_decode, exact code": lambda: mld_decode(construct_base_plus_uniform(2), (1, 2, 0)),
        "decoding_region, float code": lambda: decoding_region(COUNTEREXAMPLE, (0.2, 0.3, 0.5), 3),
        "decoding_region, exact code": lambda: decoding_region(construct_base_plus_uniform(2), base_symbol(3, 1), 3),
    }

    @pytest.mark.parametrize("call", MISMATCH.values(), ids=MISMATCH.keys())
    def test_alphabet_mismatch_refused(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError

    def test_reads_cap(self):
        code = CompositeCode.binary([0.25, 0.75])
        inside = ((2**53 - 1, 0), (2**52, 2**52 - 1))
        assert [mld_decode(code, theta) for theta in inside] == [reference_mld_decode(code, theta) for theta in inside]
        for theta in ((2**53, 0), (10**30, 1)):
            with pytest.raises(UnsupportedRangeError, match="2\\*\\*53"):
                mld_decode(code, theta)

    def test_exact_likelihood_bits_cap(self):
        cap = codes._MAX_POINT_BITS
        # D = 1: one bit per read, and each likelihood N_j is 0 or 1, so the call at the cap is quick
        base = CompositeCode([(1, 0), (0, 1)])
        # D = 3: two bits per read
        thirds = CompositeCode.binary([Fraction(1, 3), Fraction(2, 3)])
        for code, n in ((base, cap), (thirds, cap // 2)):
            assert mld_decode(code, (n, 0)) == code.symbols[-1]
            for counts in ((n + 1, 0), (n // 2 + 1, n // 2 + 1)):
                with pytest.raises(UnsupportedRangeError, match="bits, beyond the cap"):
                    mld_decode(code, counts)
            with pytest.raises(UnsupportedRangeError):
                mld_decode(code, (10**30, 0))
        # a float code decodes those observations
        assert mld_decode(thirds.as_float(), (cap, 0)) == thirds.as_float().symbols[-1]


class TestEvaluateCode:
    def test_counterexample_golden(self):
        result = evaluate_code(COUNTEREXAMPLE, 10)
        succ = [result.per_symbol_success[s] for s in COUNTEREXAMPLE.symbols]
        assert succ[0] == pytest.approx(0.633, abs=5e-4)
        assert succ[1] == pytest.approx(0.246, abs=5e-4)
        assert succ[2] == pytest.approx(0.633, abs=5e-4)
        assert result.f_min == pytest.approx(0.246, abs=5e-4)
        # the outer symbols mirror each other: their exact successes are equal,
        # and each float success is within the stated bound of its exact one
        exact = reference_evaluate_code(COUNTEREXAMPLE, 10).per_symbol_success
        outer = (COUNTEREXAMPLE.symbols[0], COUNTEREXAMPLE.symbols[2])
        assert exact[outer[0]] == exact[outer[1]]
        for s, value in zip(outer, (succ[0], succ[2])):
            error, bound = float_success_error(COUNTEREXAMPLE, 10, s, value, exact[s])
            assert error <= bound

    def test_counterexample_monte_carlo(self, rng):
        # independent check: simulate reads of the middle symbol and decode
        trials = 20000
        counts = rng.multinomial(10, [0.5, 0.5], size=trials)
        hits = sum(mld_decode(COUNTEREXAMPLE, point).probs[0] == 0.5 for point in counts)
        rate = hits / trials
        se = math.sqrt(rate * (1 - rate) / trials)
        assert abs(rate - 0.24609375) <= 4 * se

    def test_base_plus_uniform_exact(self):
        code = construct_base_plus_uniform(2)
        result = evaluate_code(code, 3)
        assert result.f_min == Fraction(3, 4)
        assert result.f_avg == Fraction(11, 12)

    def test_base_plus_uniform_float_mode(self):
        code = construct_base_plus_uniform(2).as_float()
        result = evaluate_code(code, 3)
        assert result.f_min == pytest.approx(0.75, abs=1e-12)
        assert result.f_avg == pytest.approx(11 / 12, abs=1e-12)

    def test_distinct_support_is_perfect(self):
        code = construct_distinct_support(4, [(1, 2), (3, 4)])
        for n in (1, 2, 5):
            result = evaluate_code(code, n)
            assert result.f_min == 1 and result.f_avg == 1

    def test_cap(self):
        with pytest.raises(UnsupportedRangeError):
            evaluate_code(COUNTEREXAMPLE, 10, max_enum=5)

    def test_wide_grid_refused_by_its_counts(self):
        # (n, q) = (2, 1500): 1.1M points under the 2M point cap, 1.7G counts
        wide = CompositeCode([uniform_symbol(1500, exact=True), base_symbol(1500, 1)])
        for code in (wide, wide.as_float()):
            with pytest.raises(UnsupportedRangeError, match="counts"):
                evaluate_code(code, 2)
            with pytest.raises(UnsupportedRangeError, match="counts"):
                decoding_region(code, code.symbols[0], 2)


def assert_same_evaluation(code, n, decoder=None):
    """evaluate_code against the per-observation loop, symbol by symbol in code order.

    An exact code equals it: same values, same types.  A float or mixed code
    decides as it does (every decoding region is the loop's), and each float
    success is at most 1 and within the bound evaluate_code states of the loop's
    exact evaluation of the same floats."""
    got = evaluate_code(code, n, decoder=decoder)
    want = reference_evaluate_code(code, n, decoder=decoder)
    assert list(got.per_symbol_success) == list(want.per_symbol_success)
    assert got.n == want.n
    if code.is_exact:
        for s in code.symbols:
            a, b = got.per_symbol_success[s], want.per_symbol_success[s]
            assert a == b and type(a) is type(b), (code, n, s, a, b)
        assert got.f_min == want.f_min and type(got.f_min) is type(want.f_min)
        assert got.f_avg == want.f_avg and type(got.f_avg) is type(want.f_avg)
        return
    assert_regions_are_the_reference(code, n, decoder)
    values = list(got.per_symbol_success.values())
    for s, a in got.per_symbol_success.items():
        error, bound = float_success_error(code, n, s, a, want.per_symbol_success[s])
        assert type(a) is float and 0.0 <= a <= 1.0 and error <= bound, (code, n, s, a, float(error), float(bound))
    assert got.f_min == min(values) and got.f_avg == sum(values) / code.m


def random_table_decoder(rng, code, n, overrides):
    grid = enumerate_observed(n, code.q)
    rows = rng.choice(len(grid), size=min(overrides, len(grid)), replace=False)
    return custom_decoder_from_table(code, n, {grid[r]: int(rng.integers(code.m)) for r in rows})


class TestArrayEvaluator:
    """evaluate_code against the per-observation loop it replaces (conftest)."""

    def test_exact_codes(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 5))
            code = random_exact_code(rng, int(rng.integers(1, 6)), q, denom=int(rng.choice([5, 12, 97])))
            assert_same_evaluation(code, int(rng.integers(1, 10 if q < 4 else 7)))

    def test_float_codes(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 5))
            code = random_exact_code(rng, int(rng.integers(1, 6)), q, denom=int(rng.choice([5, 7, 12]))).as_float()
            assert_same_evaluation(code, int(rng.integers(1, 10 if q < 4 else 7)))
        for _ in range(20):
            assert_same_evaluation(random_float_binary_code(rng, int(rng.integers(2, 7))), int(rng.integers(1, 40)))

    def test_mixed_code(self):
        code = CompositeCode([(Fraction(1, 3), Fraction(2, 3)), (0.5, 0.5), (Fraction(3, 4), Fraction(1, 4)), (0.9, 0.1)])
        assert not code.is_exact
        for n in (1, 2, 7, 12):
            assert_same_evaluation(code, n)
        # exact base symbols beside float symbols that hold 0.0 and 1.0
        code = CompositeCode(
            [base_symbol(3, 1), base_symbol(3, 3), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), uniform_symbol(3)]
        )
        for n in (1, 2, 5, 8):
            assert_same_evaluation(code, n)
            assert_same_evaluation(code, n, custom_decoder_from_table(code, n, {(n, 0, 0): 3, (0, n, 0): 0}))

    def test_dna_code_of_letters_and_mixtures(self):
        # the four base letters (exact) beside two float 1:1 mixtures; a letter
        # produces only its own pure point, yet every point that no symbol
        # produces decodes to symbol 0, a letter.  The letters weigh in floats
        # like the mixtures.
        letters = [base_symbol(4, i) for i in range(1, 5)]
        code = CompositeCode([*letters, (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5)])
        for n in (1, 2, 5, 12):
            assert_same_evaluation(code, n)
            assert_same_evaluation(code, n, custom_decoder_from_table(code, n, {(0, n, 0, 0): 4, (n, 0, 0, 0): 0}))

    def test_zero_probabilities(self):
        # letter 3 is impossible for every symbol: those observations tie at -inf
        exact = CompositeCode([(Fraction(1, 2), Fraction(1, 2), 0), (1, 0, 0), (0, 1, 0)])
        for code in (exact, exact.as_float()):
            for n in (1, 3, 6):
                assert_same_evaluation(code, n)
            # impossible points sent elsewhere still weigh nothing
            table = custom_decoder_from_table(code, 3, {(0, 0, 3): 1, (1, 1, 1): 2})
            assert_same_evaluation(code, 3, table)
        # 0.0 and 1.0 entries, whose logs the float kernel writes without libm
        for q in (2, 3, 4):
            code = construct_base_plus_uniform(q).as_float()
            for n in range(1, 11):
                assert_same_evaluation(code, n)

    def test_exact_ties(self):
        # (5, 5) of ten reads is equally likely under 0.4 and 0.6; the first symbol wins
        for values in ([0.4, 0.6], [0.4, 0.5, 0.6]):
            for code in (CompositeCode.binary(values), CompositeCode.binary([Fraction(v).limit_denominator() for v in values])):
                for n in (1, 2, 10):
                    assert_same_evaluation(code, n)
        thirds = CompositeCode.binary([Fraction(1, 3), Fraction(2, 3)])
        permuted = CompositeCode(
            [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))]
        )
        for code in (thirds, thirds.as_float(), permuted, permuted.as_float()):
            for n in (2, 4, 6):
                assert_same_evaluation(code, n)

    def test_exact_near_tie_is_settled_in_integers(self):
        # At (1, 1, 0) symbol b is more likely by a relative 1e-19, but its
        # float score is lower by one ulp: only the margin keeps it a candidate.
        d = 2**62
        x, y = 1231881918767775375, 1416112683760225921
        a = CompositeSymbol((Fraction(x, d), Fraction(y, d), Fraction(d - x - y, d)))
        b = CompositeSymbol((Fraction(x + 1, d), Fraction(y - 1, d), Fraction(d - x - y, d)))
        assert (x + 1) * (y - 1) > x * y
        assert 0.5 * math.log(x) + 0.5 * math.log(y) > 0.5 * math.log(x + 1) + 0.5 * math.log(y - 1)
        code = CompositeCode([a, b])
        assert mld_decode(code, (1, 1, 0)) == b
        assert_same_evaluation(code, 2)

    def test_table_decoders(self, rng):
        table = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 1, (5, 5): 2})
        assert_same_evaluation(COUNTEREXAMPLE, 10, table)
        for _ in range(15):
            q = int(rng.integers(2, 4))
            code = random_exact_code(rng, int(rng.integers(2, 5)), q)
            n = int(rng.integers(1, 8))
            for c in (code, code.as_float()):
                assert_same_evaluation(c, n, random_table_decoder(rng, c, n, int(rng.integers(1, 5))))

    def test_grid_codes(self):
        assert_same_evaluation(construct_grid_code(6, 3), 6)
        assert_same_evaluation(construct_grid_code(5, 4), 5)
        assert_same_evaluation(construct_grid_code(12, 3).as_float(), 12)

    def test_log_space_mass(self):
        # the central multinomial coefficients exceed the float range at n = 1000
        n = 1000
        assert_same_evaluation(CompositeCode.binary([0.1, 0.45, 0.5, 0.9]), n)
        assert_same_evaluation(CompositeCode.binary([0.0, 0.5, 1.0]), n)

    def test_grid_larger_than_one_block(self, monkeypatch, rng):
        # at blocks of 4,096 scores the 1,891-point grid spans two chunks
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", 4096)
        n, q = 60, 3
        assert math.comb(n + q - 1, q - 1) * q > codes._BLOCK_ELEMENTS
        exact = CompositeCode(
            [(Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
             (0, Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3),) * 3]
        )
        for code in (exact, exact.as_float()):
            assert_same_evaluation(code, n)
            assert_same_evaluation(code, n, random_table_decoder(rng, code, n, 40))

    def test_log_table_rounds_as_math_log(self):
        # pairs whose decision at one read flips when numpy's vectorized log
        # replaces math.log (one ulp apart on some builds, at the tie tolerance)
        pairs = [
            (0.6784656271565362, 0.6784656271572147),
            (0.6261670476525074, 0.6261670476531336),
            (0.7799088782791596, 0.7799088782799395),
        ]
        for pair in pairs:
            assert_same_evaluation(CompositeCode.binary(pair), 1)

    def test_ties_on_binary_thresholds(self):
        # the 0.4/0.5/0.6 counterexample at n = 5, with and without a table; at
        # even n the fraction 1/2 ties the inner pair of {0, x, 1-x, 1}, at odd n
        # nothing ties
        for decoder in (None, custom_decoder_from_table(COUNTEREXAMPLE, 5, {(0, 5): 2})):
            assert_same_evaluation(COUNTEREXAMPLE, 5, decoder)
        for x in (0.25, 0.2, 0.1 + 0.2, 1 / 3, 0.4, 0.0001):
            for n in (1, 2, 3, 4, 5, 6, 9, 10, 31):
                assert_same_evaluation(CompositeCode.binary([0.0, x, 1.0 - x, 1.0]), n)

    def test_log_space_mass_near_1200_reads(self):
        n = 1200
        for values in ([0.1, 0.45, 0.5, 0.9], [0.0, 0.2, 0.8, 1.0], [0.3, 0.7]):
            assert_same_evaluation(CompositeCode.binary(values), n)
        # codes whose log-space masses numpy's vectorized exp rounds differently
        # from math.exp on some builds: the stated bound holds either way
        for values in ([0.334, 0.802], [0.295, 0.453, 0.999]):
            assert_same_evaluation(CompositeCode.binary(values), 1000)
        code = CompositeCode([(Fraction(1, 5), Fraction(4, 5)), (0.5, 0.5), (0.9, 0.1)])
        assert_same_evaluation(code, n, custom_decoder_from_table(code, n, {(600, 600): 0, (0, 1200): 2}))
        # 0.0 and 1.0 entries beside rows whose coefficients exceed the float range
        code = CompositeCode([(0.0, 1.0), (0.3, 0.7), (0.5, 0.5), (Fraction(1), Fraction(0))])
        assert_same_evaluation(code, n)
        assert_same_evaluation(code, n, custom_decoder_from_table(code, n, {(600, 600): 3, (0, 1200): 1}))

    def test_memory_does_not_grow_with_the_grid(self):
        # 2,001 and 60,001 grid points: the traced peak is that of a few blocks
        bound = 32 * 8 * codes._BLOCK_ELEMENTS
        code = CompositeCode.binary([0.1, 0.5, 0.9])
        evaluate_code(code, 10)  # numpy's one-time state stays out of the peak
        for n in (2000, 60000):
            tracemalloc.start()
            try:
                evaluate_code(code, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak, bound)

    @pytest.mark.parametrize("block", [1, 7])
    def test_tiny_blocks_leave_evaluations_unchanged(self, monkeypatch, rng, block):
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", block)
        mixed = CompositeCode(
            [(Fraction(1, 3), Fraction(2, 3)), (0.5, 0.5), (Fraction(3, 4), Fraction(1, 4)), (0.9, 0.1)]
        )
        zeros = CompositeCode([(Fraction(1, 2), Fraction(1, 2), 0), (1, 0, 0), (0, 1, 0)])
        grids = ((construct_grid_code(6, 3).as_float(), 6), (construct_grid_code(4, 3), 4))
        for code, n in ((mixed, 12), (zeros, 6), (zeros.as_float(), 6), *grids):
            assert_same_evaluation(code, n)
            assert_same_evaluation(code, n, random_table_decoder(rng, code, n, 5))
        table = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 1, (5, 5): 2})
        assert_same_evaluation(COUNTEREXAMPLE, 10, table)
        assert_same_evaluation(CompositeCode.binary([0.1, 0.45, 0.5, 0.9]), 1200)
        for _ in range(5):
            assert_same_evaluation(random_float_binary_code(rng, int(rng.integers(2, 7))), int(rng.integers(1, 40)))

    def test_cap_message(self):
        code = construct_base_plus_uniform(4)
        with pytest.raises(UnsupportedRangeError) as want:
            enumerate_observed(30, 4, max_size=100)
        for c in (code, code.as_float()):
            with pytest.raises(UnsupportedRangeError) as got:
                evaluate_code(c, 30, max_enum=100)
            assert str(got.value) == str(want.value)

    def test_no_reads_refused_first(self):
        # the grid's own refusal comes before any other work, as in the loop
        with pytest.raises(ValueError) as want:
            enumerate_observed(0, 4)
        for c in (construct_base_plus_uniform(4), construct_base_plus_uniform(4).as_float()):
            with pytest.raises(ValueError) as got:
                evaluate_code(c, 0)
            assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_grid_rank(self):
        for n, q in ((1, 1), (9, 1), (4, 2), (30, 2), (5, 3), (12, 3), (3, 4), (8, 4), (6, 5)):
            for index, theta in enumerate(enumerate_observed(n, q)):
                assert codes._grid_rank(theta, n) == index
        # the last point of a grid no enumeration reaches, in closed form
        assert codes._grid_rank((10**12, 0, 0), 10**12) == math.comb(10**12 + 2, 2) - 1


def dyadic_code(rng, m, q, bits):
    """``m`` distinct float symbols over ``q`` letters, each probability a multiple of
    ``2**-bits``: their floats are exact and sum to exactly 1."""
    symbols = set()
    while len(symbols) < m:
        cuts = sorted(rng.integers(0, 2**bits + 1, size=q - 1).tolist())
        symbols.add(CompositeSymbol([(b - a) / 2**bits for a, b in zip([0, *cuts], [*cuts, 2**bits])]))
    return CompositeCode(symbols)


class TestFloatBound:
    """No float success exceeds 1, and each is within the bound evaluate_code states of the
    exact evaluation of its floats, over the regions the reference decides."""

    def test_no_success_above_one(self):
        # the grid-order sum of the masses once read 1.000000000001254 at n = 20,000
        # and 1.0000000001206455 at n = 199,999
        code = CompositeCode.binary([0.1, 0.5, 0.9])
        for n in (20000, 199999):
            result = evaluate_code(code, n)
            assert result.f_min <= 1.0 and max(result.per_symbol_success.values()) <= 1.0, n

    def test_bound_on_dyadic_codes(self):
        rng = np.random.default_rng(2026)
        cases = [(dyadic_code(rng, int(rng.integers(2, 6)), 2, int(rng.integers(2, 11))),
                  int(np.exp(rng.uniform(0.0, np.log(2000))))) for _ in range(150)]
        cases += [(dyadic_code(rng, int(rng.integers(2, 4)), 2, int(rng.integers(2, 5))), 20000) for _ in range(3)]
        cases += [(dyadic_code(rng, int(rng.integers(2, 6)), 3, 4), int(rng.integers(1, 41))) for _ in range(40)]
        cases += [(dyadic_code(rng, int(rng.integers(2, 6)), 4, 3), int(rng.integers(1, 13))) for _ in range(10)]
        cases.append((dyadic_code(rng, 4, 4, 3), 100))
        for code, n in cases:
            result = evaluate_code(code, n)
            for s, value in result.per_symbol_success.items():
                lcm, scaled = reference_rationals(s.probs)
                exact = Fraction(reference_region_weight(scaled, decoding_region(code, s, n)), lcm**n)
                error, bound = float_success_error(code, n, s, value, exact)
                assert value <= 1.0 and error <= bound, (code, n, s, value, float(error), float(bound))


class TestExactDecisions:
    """The exact rule computes integer likelihoods only at near-ties, and all three
    consumers of a decision (the exact and float successes, decoding_region) apply
    a table's overrides the same way."""

    @staticmethod
    def count_likelihoods(monkeypatch):
        points, likelihood = [], codes._likelihood
        monkeypatch.setattr(codes, "_likelihood", lambda scaled, point: points.append(point) or likelihood(scaled, point))
        return points

    def test_only_near_ties_compute_likelihoods(self, monkeypatch):
        points = self.count_likelihoods(monkeypatch)
        # every point of this grid has one symbol within the margin
        code = random_exact_code(np.random.default_rng(5), 4, 3, denom=97)
        for s in code.symbols:
            decoding_region(code, s, 30)
        assert points == []
        # (1, 1) ties 1/3 and 2/3 exactly: its two candidates, once per call
        thirds = CompositeCode.binary([Fraction(1, 3), Fraction(2, 3)])
        for s in thirds.symbols:
            decoding_region(thirds, s, 2)
        assert points == [[1, 1]] * 4
        assert mld_decode(thirds, (1, 1)) == thirds.symbols[0]
        assert mld_decode(thirds, (2, 0)) == thirds.symbols[1]
        assert points == [[1, 1]] * 6

    def test_overrides_on_ties_impossible_rows_and_later_chunks(self, monkeypatch):
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", 7)  # two points per chunk
        n, third = 12, Fraction(1, 3)
        # (k, k, 0) ties the last two symbols, which the table overrides to either
        # other one; no symbol produces a point with every letter
        exact = CompositeCode([(third, 2 * third, 0), (2 * third, third, 0), (0, 0, 1)])
        mixed = CompositeCode([exact.symbols[0], *exact.as_float().symbols[1:]])
        tables = ({(6, 6, 0): 2, (4, 4, 4): 1, (12, 0, 0): 0}, {(6, 6, 0): 0, (1, 1, 10): 2, (3, 9, 0): 2})
        for key in (k for table in tables for k in table):
            assert codes._grid_rank(key, n) >= codes._grid_rows(3, 3)
        for code in (exact, mixed):
            for table in tables:
                decoder = custom_decoder_from_table(code, n, table)
                assert_same_evaluation(code, n, decoder)
                assert_regions_are_the_reference(code, n, decoder)


#: (n, q) grids larger than one chunk of the default size, and the 1,201-point
#: binary grid whose central coefficients exceed the float range
GRIDS = ((7, 1), (2100, 2), (60, 3), (20, 4), (12, 5), (1200, 2))


def grid_chunks(monkeypatch, n, q, rows):
    """The counts of the grid pass's chunks of ``rows`` points, under a constant decision and no overrides."""
    monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", rows * q)  # a one-symbol code: rows points per chunk

    def decide(k):
        return np.zeros(len(k), dtype=np.intp)

    chunks = list(codes._decisions(np, decide, n, 1, q, math.comb(n + q - 1, q - 1), {}))
    assert all(decoded.tolist() == [0] * len(k) for k, decoded in chunks)
    return [k for k, _ in chunks]


class TestGridArrays:
    """The one array form of the grid against enumerate_observed and the per-point formulas."""

    @pytest.mark.parametrize("n, q", GRIDS)
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_chunks_are_the_enumeration(self, monkeypatch, n, q, rows):
        rows, size = rows or codes._grid_rows(1, q), math.comb(n + q - 1, q - 1)
        chunks = grid_chunks(monkeypatch, n, q, rows)
        assert [len(k) for k in chunks] == [min(rows, size - start) for start in range(0, size, rows)]
        assert all(k.dtype == np.int64 and k.shape[1] == q for k in chunks)
        points = [tuple(point) for k in chunks for point in k.tolist()]
        assert points == enumerate_observed(n, q)

    @pytest.mark.parametrize("n, q", GRIDS)
    def test_weights_are_the_per_point_formulas(self, n, q):
        # two codes of the same symbols, in opposite orders: a 1.0 and a 0.0
        # entry, the uniform symbol and uneven weights; overrides send each
        # point to the symbol of its grid index, modulo m, so every hit and
        # miss of the kernel is a known sum of the per-point formula
        symbols = [CompositeSymbol([1.0] + [0.0] * (q - 1))]
        if q > 1:
            symbols += [uniform_symbol(q), CompositeSymbol([(i + 1) / (q * (q + 1) / 2) for i in range(q)])]
        m, points = len(symbols), enumerate_observed(n, q)
        orders = (symbols, symbols[::-1])
        block = [[s.probs for s in order] for order in orders]
        success, miss = codes._float_success(block, n, len(points), {r: r % m for r in range(len(points))})
        for g, order in enumerate(orders):
            code = CompositeCode(order)
            for j, s in enumerate(order):
                lcm, scaled = reference_rationals(s.probs)
                hit = reference_region_weight(scaled, points[j::m])
                exact_hit, exact_miss = Fraction(hit, lcm**n), Fraction(sum(scaled) ** n - hit, lcm**n)
                error, bound = float_success_error(code, n, s, success[g, j], exact_hit)
                assert success[g, j] <= 1.0 and error <= bound, (n, q, g, j)
                if miss[g, j] <= 0.5:  # the miss itself is within eps of the exact miss, relatively
                    assert abs(Fraction(miss[g, j]) - exact_miss) <= Fraction(float_path_bound(code, n)) * exact_miss
                    assert success[g, j] == 1.0 - miss[g, j]

    @pytest.mark.parametrize("block", [1, 7, 4096, codes._BLOCK_ELEMENTS])
    def test_grid_code_figures_are_the_self_decoding_loop(self, monkeypatch, block):
        # the figures walk the compositions one point at a time: no chunk size changes them
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", block)
        for n, q in ((1, 1), (3, 1), (1, 3), (2, 2), (7, 2), (6, 3), (5, 4), (4, 5)):
            betas = [self_decoding_probability(theta) for theta in enumerate_observed(n, q)]
            assert codes._grid_code_success(n, q) == (min(betas), sum(betas) / len(betas))

    def test_one_letter_grid_weighs_no_point(self, monkeypatch):
        # its one point (n,) decodes to itself with probability 1; n**n is never built
        def refused(scaled, point):
            raise AssertionError("a one-letter grid needs no self-decoding mass")

        monkeypatch.setattr(codes, "_integer_mass", refused)
        assert codes._grid_code_success(10**6, 1) == (Fraction(1), Fraction(1))


class TestIntegerArguments:
    """Counts and alphabet sizes must be ints: a bool or a float is refused, never
    taken for the int it looks like (each of these was accepted or raised another
    error before)."""

    CALLS = {
        "evaluate_code(code, True)": lambda: evaluate_code(COUNTEREXAMPLE, True),
        "evaluate_code(code, 3.0)": lambda: evaluate_code(COUNTEREXAMPLE, 3.0),
        "evaluate_code(code, '3')": lambda: evaluate_code(COUNTEREXAMPLE, "3"),
        "enumerate_observed(True, 2)": lambda: enumerate_observed(True, 2),
        "enumerate_observed(2, 2.0)": lambda: enumerate_observed(2, 2.0),
        "observed_grid_size(2.5, 2)": lambda: observed_grid_size(2.5, 2),
        "observed_grid_size(2, True)": lambda: observed_grid_size(2, True),
        "decoding_region(code, s, 2.5)": lambda: decoding_region(COUNTEREXAMPLE, COUNTEREXAMPLE.symbols[0], 2.5),
        "decoding_region(code, s, True)": lambda: decoding_region(COUNTEREXAMPLE, COUNTEREXAMPLE.symbols[0], True),
        "construct_grid_code(True, 2)": lambda: construct_grid_code(True, 2),
        "construct_grid_code(2, 2.0)": lambda: construct_grid_code(2, 2.0),
        "optimize_binary4_grid(True, 1e-3)": lambda: optimize_binary4_grid(True, 1e-3),
        "optimize_binary4_grid(3.0, 1e-3)": lambda: optimize_binary4_grid(3.0, 1e-3),
        "binary4_beta(3.0)": lambda: binary4_beta(3.0),
        "binary4_alpha(3.0)": lambda: binary4_alpha(3.0),
        "binary4_alpha(True)": lambda: binary4_alpha(True),
        "construct_binary4(5.0)": lambda: construct_binary4(5.0),
        "uniform_symbol(True)": lambda: uniform_symbol(True),
        "uniform_symbol(2.0)": lambda: uniform_symbol(2.0),
        "base_symbol(True, 1)": lambda: base_symbol(True, 1),
        "base_symbol(2.0, 1)": lambda: base_symbol(2.0, 1),
        "construct_base_plus_uniform(True)": lambda: construct_base_plus_uniform(True),
        "construct_base_plus_uniform(2.0)": lambda: construct_base_plus_uniform(2.0),
        "custom_decoder_from_table(code, 2.0, {})": lambda: custom_decoder_from_table(COUNTEREXAMPLE, 2.0, {}),
        "custom_decoder_from_table(code, True, {})": lambda: custom_decoder_from_table(COUNTEREXAMPLE, True, {}),
        "construct_distinct_support(True, [(1,)])": lambda: construct_distinct_support(True, [(1,)]),
        "construct_distinct_support(4.0, parts)": lambda: construct_distinct_support(4.0, [(1, 2), (3, 4)]),
        "construct_distinct_support(4, [(1.0, 2), (3, 4)])": lambda: construct_distinct_support(4, [(1.0, 2), (3, 4)]),
        "construct_distinct_support(4, [(True, 2), (3, 4)])": lambda: construct_distinct_support(4, [(True, 2), (3, 4)]),
        "self_decoding_probability((True, 9))": lambda: self_decoding_probability((True, 9)),
        "mld_decode(code, (9, 1.0))": lambda: mld_decode(COUNTEREXAMPLE, (9, 1.0)),
        "base_symbol(3, True)": lambda: base_symbol(3, True),
        "base_symbol(3, 1.0)": lambda: base_symbol(3, 1.0),
        "_base_plus_uniform_success(True, 3)": lambda: codes._base_plus_uniform_success(True, 3),
        "_base_plus_uniform_success(2, 2.5)": lambda: codes._base_plus_uniform_success(2, 2.5),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_refused(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    #: Other scalars a bool or a string passed for: each was accepted or raised TypeError.
    OTHER_CALLS = {
        "CompositeCode.binary([True, 0.5])": (lambda: CompositeCode.binary([True, 0.5]), "must be numbers"),
        "optimize_binary4_grid(3, '1e-4')": (lambda: optimize_binary4_grid(3, "1e-4"), "grid_step"),
        "optimize_binary4_grid(3, None)": (lambda: optimize_binary4_grid(3, None), "grid_step"),
    }

    @pytest.mark.parametrize("call, message", OTHER_CALLS.values(), ids=OTHER_CALLS.keys())
    def test_other_scalars_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_counts_beyond_int64_are_refused(self):
        # a one-letter grid has one point at any n; its count must fit the arrays
        one = CompositeCode([(1,)])
        assert evaluate_code(one, 2**63 - 1).f_min == 1
        # the float kernel builds no table of n log-factorials for it
        assert evaluate_code(one.as_float(), 2**63 - 1).f_min == 1.0
        for call in (
            lambda: evaluate_code(one, 2**63),
            lambda: evaluate_code(one.as_float(), 10**30),
            lambda: enumerate_observed(2**63, 1),
            lambda: codes._grid_code_success(2**63, 1),
        ):
            with pytest.raises(UnsupportedRangeError, match="largest count"):
                call()

    def test_numpy_integers_are_ints(self):
        # an int64 n once wrapped D**n to 0 on the exact path
        for code, n in ((construct_base_plus_uniform(4), 40), (COUNTEREXAMPLE, 10)):
            assert evaluate_code(code, np.int64(n)) == evaluate_code(code, n)
        assert observed_grid_size(np.int64(5), np.int32(3)) == observed_grid_size(5, 3)
        # an int64 n once wrapped n**n in the grid code's figures: f_avg read about 2.7e26
        assert codes._grid_code_success(np.int64(30), 2) == codes._grid_code_success(30, 2)
        # an int64 n once wrapped n**n in one point's figure (it read about 1.16e25); numpy
        # counts, once refused, are taken as ints
        assert self_decoding_probability(np.array([15, 15])) == Fraction(9694845, 67108864)
        assert mld_decode(COUNTEREXAMPLE, (np.int64(5), np.int32(5))) == COUNTEREXAMPLE.symbols[1]
        # and a one-letter grid of a numpy n holds an int count
        [[count]] = enumerate_observed(np.int64(3), 1)
        assert type(count) is int and count == 3
        assert uniform_symbol(np.int64(3)) == uniform_symbol(3)


class TestCustomDecoder:
    def test_counterexample_override_golden(self):
        decoder = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 1})
        result = evaluate_code(COUNTEREXAMPLE, 10, decoder=decoder)
        succ = [result.per_symbol_success[s] for s in COUNTEREXAMPLE.symbols]
        assert result.f_min == pytest.approx(0.247, abs=5e-4)
        assert result.f_min > evaluate_code(COUNTEREXAMPLE, 10).f_min
        assert succ[0] == pytest.approx(0.627, abs=5e-4)

    def test_empty_override_matches_mld(self):
        decoder = custom_decoder_from_table(COUNTEREXAMPLE, 10, {})
        a = evaluate_code(COUNTEREXAMPLE, 10, decoder=decoder)
        b = evaluate_code(COUNTEREXAMPLE, 10)
        assert a.per_symbol_success == b.per_symbol_success

    def test_constant_decoder(self):
        target = COUNTEREXAMPLE.symbols[1]
        table = {theta: 1 for theta in enumerate_observed(10, 2)}
        decoder = custom_decoder_from_table(COUNTEREXAMPLE, 10, table)
        result = evaluate_code(COUNTEREXAMPLE, 10, decoder=decoder)
        assert result.per_symbol_success[target] == 1.0
        assert result.f_min == 0.0

    def test_override_to_non_codeword_rejected(self):
        with pytest.raises(ValueError):
            custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): CompositeSymbol((0.45, 0.55))})

    def test_override_key_validation(self):
        with pytest.raises(ValueError):
            custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 9): 1})
        with pytest.raises(ValueError):
            custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 7})

    #: (key, target) overrides refused with ValueError, by the table constructor
    #: and by a Decoder built directly: none is taken for the override it resembles.
    HOSTILE = {
        "float key": ((1.5, 9.0), 2),
        "integral float key": ((0.0, 10.0), 1),
        "string key": ("0,10", 1),
        "string counts": (("0", "10"), 1),
        "bool count": ((True, 9), 1),
        "negative count": ((-1, 11), 1),
        "non-iterable key": (10, 1),
        "all-zero key": ((0, 0), 1),
        "key of another n": ((0, 12), 1),
        "key of three letters": ((0, 5, 5), 1),
        "observation key": (((0, 10), 10), 1),  # an observation in the old form (counts, n)
        "target True": ((0, 10), True),
        "target 1.0": ((0, 10), 1.0),
        "target 'x'": ((0, 10), "x"),
        "target None": ((0, 10), None),
        "index past the code": ((0, 10), 3),
        "negative index": ((0, 10), -1),
        "target not a codeword": ((0, 10), CompositeSymbol((0.45, 0.55))),
        "target of three letters": ((0, 10), (0.2, 0.3, 0.5)),
        "codeword target": ((0, 10), COUNTEREXAMPLE.symbols[1]),
        "distribution target": ((0, 10), (0.5, 0.5)),
    }

    @pytest.mark.parametrize("key, target", HOSTILE.values(), ids=HOSTILE.keys())
    def test_hostile_override_refused(self, key, target):
        with pytest.raises(ValueError):
            custom_decoder_from_table(COUNTEREXAMPLE, 10, {key: target})
        with pytest.raises(ValueError):
            Decoder(COUNTEREXAMPLE, 10, ((key, target),))

    #: overrides only a Decoder built directly can be handed
    HOSTILE_PAIRS = {
        "list key of floats": (([1.5, 8.5], 1),),
        "pair without a target": (((0, 10),),),
        "entry that is not a pair": (5,),
        "no pairs at all": None,
    }

    @pytest.mark.parametrize("overrides", HOSTILE_PAIRS.values(), ids=HOSTILE_PAIRS.keys())
    def test_hostile_pairs_refused(self, overrides):
        with pytest.raises(ValueError):
            Decoder(COUNTEREXAMPLE, 10, overrides)

    def test_direct_decoder_is_the_table_decoder(self):
        # an index target once raised KeyError in evaluate_code and left its
        # point outside every decoding region
        direct = Decoder(COUNTEREXAMPLE, 10, (((0, 10), 1),))
        table = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 1})
        assert direct == table and direct.overrides == (((0, 10), 1),)
        result = evaluate_code(COUNTEREXAMPLE, 10, direct)
        assert result == evaluate_code(COUNTEREXAMPLE, 10, table)
        # f_min is the middle symbol's, whose exact success is 253/1024
        error, bound = float_success_error(COUNTEREXAMPLE, 10, COUNTEREXAMPLE.symbols[1], result.f_min, Fraction(253, 1024))
        assert result.f_min == result.per_symbol_success[COUNTEREXAMPLE.symbols[1]] and error <= bound
        regions = [decoding_region(COUNTEREXAMPLE, s, 10, direct) for s in COUNTEREXAMPLE.symbols]
        assert sorted(theta for region in regions for theta in region) == enumerate_observed(10, 2)
        assert (0, 10) in regions[1]
        # every form of the same override is stored as the same pair, and the last of equal keys wins
        for pairs in ((([0, 10], 1),), (((np.int64(0), np.int64(10)), np.int64(1)),), (((0, 10), 2), ([0, 10], 1))):
            assert Decoder(COUNTEREXAMPLE, np.int64(10), pairs) == direct

    def test_decoder_of_another_n_refused(self):
        # such a decoder once dropped its overrides and gave the figures of maximum likelihood
        decoder = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(0, 10): 1})
        with pytest.raises(ValueError, match="read count"):
            evaluate_code(COUNTEREXAMPLE, 12, decoder)
        with pytest.raises(ValueError, match="read count"):
            decoding_region(COUNTEREXAMPLE, COUNTEREXAMPLE.symbols[1], 12, decoder)
        with pytest.raises(ValueError, match="another code"):
            evaluate_code(CompositeCode.binary([0.3, 0.5, 0.7]), 10, decoder)

    def test_overrides_stored_as_indices_in_grid_order(self):
        decoder = custom_decoder_from_table(COUNTEREXAMPLE, 10, {(7, 3): 0, (0, 10): 1, (5, 5): 2})
        assert decoder.overrides == (((0, 10), 1), ((5, 5), 2), ((7, 3), 0))
        assert [codes._grid_rank(k, 10) for k, _ in decoder.overrides] == [0, 5, 7]


class TestConstructions:
    def test_distinct_support_pairs(self):
        code = construct_distinct_support(4, [(1, 2), (3, 4)])
        assert code.symbols[0].probs == (0, 0, Fraction(1, 2), Fraction(1, 2))
        assert code.symbols[1].probs == (Fraction(1, 2), Fraction(1, 2), 0, 0)

    def test_distinct_support_singletons_is_base_alphabet(self):
        code = construct_distinct_support(3, [(1,), (2,), (3,)])
        assert code.symbols == tuple(sorted(base_symbol(3, i) for i in (1, 2, 3)))

    def test_distinct_support_single_part(self):
        code = construct_distinct_support(3, [(1, 2, 3)])
        assert code.symbols[0] == uniform_symbol(3, exact=True)
        assert evaluate_code(code, 2).f_min == 1

    def test_distinct_support_validation(self):
        with pytest.raises(ValueError):
            construct_distinct_support(4, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            construct_distinct_support(4, [(1, 2), ()])
        with pytest.raises(ValueError):
            construct_distinct_support(2, [(1,), (2,), (3,)])

    def test_base_plus_uniform_closed_forms(self):
        for q in (2, 3):
            code = construct_base_plus_uniform(q)
            assert code.m == q + 1
            for n in range(1, 7):
                result = evaluate_code(code, n)
                assert result.f_min == 1 - Fraction(1, q ** (n - 1))
                assert result.f_avg == 1 - Fraction(1, q ** (n - 1) * (q + 1))

    def test_base_plus_uniform_single_read_cannot_identify_uniform(self):
        assert evaluate_code(construct_base_plus_uniform(2), 1).f_min == 0

    def test_base_plus_uniform_collapses_at_q1(self):
        assert construct_base_plus_uniform(1).m == 1

    def test_base_plus_uniform_success_is_evaluate_code(self):
        # the closed forms, and (1, 1) for the single symbol at q = 1
        for q in range(1, 5):
            code = construct_base_plus_uniform(q)
            # at n = 40, D**n (D = lcm of the denominators) reaches 80 bits for q = 4
            for n in (*range(1, 9), 20, 40):
                result = evaluate_code(code, n)
                figures = codes._base_plus_uniform_success(q, n)
                assert figures == (result.f_min, result.f_avg), (q, n)
                assert all(isinstance(v, Fraction) for v in figures)

    def test_base_plus_uniform_success_refuses_no_reads(self):
        for q, n in ((2, 0), (2, -1), (1, 0), (0, 3)):
            with pytest.raises(ValueError):
                codes._base_plus_uniform_success(q, n)

    def test_grid_code_two_reads(self):
        code = construct_grid_code(2, 2)
        assert code.values == (0, Fraction(1, 2), 1)
        result = evaluate_code(code, 2)
        assert result.f_min == Fraction(1, 2)
        assert result.f_avg == Fraction(5, 6)

    def test_grid_code_single_read_is_base_alphabet(self):
        for q in (2, 3, 4):
            code = construct_grid_code(1, q)
            assert set(code.symbols) == {base_symbol(q, i) for i in range(1, q + 1)}
            assert evaluate_code(code, 1).f_min == 1

    def test_grid_code_matches_self_decoding_stats(self):
        for n, q in ((3, 2), (5, 2), (2, 3)):
            code = construct_grid_code(n, q)
            betas = [self_decoding_probability(t) for t in enumerate_observed(n, q)]
            result = evaluate_code(code, n)
            assert result.f_min == min(betas)
            assert result.f_avg == sum(betas) / len(betas)


class TestSelfDecodingProbability:
    def test_balanced_two_reads(self):
        assert self_decoding_probability((1, 1)) == Fraction(1, 2)

    def test_deterministic(self):
        assert self_decoding_probability((4, 0)) == 1

    def test_minimum_on_small_grid(self):
        betas = {t: self_decoding_probability(t) for t in enumerate_observed(2, 2)}
        assert min(betas.values()) == betas[(1, 1)]

    def test_balanced_minimum_theorem(self):
        properties.check_balanced_minimum()

    def test_cap(self, monkeypatch):
        # the cap on the bits of n**n, n * n.bit_length(), admits every n < 2**16 and no larger n
        assert (2**16 - 1) * 16 <= codes._MAX_SELF_BITS < 2**16 * 17
        assert self_decoding_probability((2**16 - 1, 0)) == 1

        def refused(scaled, point):
            raise AssertionError("no mass is formed past the cap")

        # past it the refusal comes at once, before any big integer
        monkeypatch.setattr(codes, "_integer_mass", refused)
        for counts in ((2**16, 0), (2**15, 2**15), (500_000, 500_000), (10**30, 1)):
            with pytest.raises(UnsupportedRangeError, match="beyond the cap"):
                self_decoding_probability(counts)


class TestDecoderProperties:
    def test_region_partition(self, rng):
        for _ in range(10):
            code = random_exact_code(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            properties.check_region_partition(code, int(rng.integers(1, 5)))

    def test_n_independence(self, rng):
        for _ in range(10):
            code = random_exact_code(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            n1 = int(rng.integers(1, 7))
            properties.check_n_independence(code, n1, n1 * int(rng.integers(2, max(3, 24 // n1 + 1))))

    def test_self_decoding(self, rng):
        for _ in range(10):
            properties.check_self_decoding(random_exact_code(rng, 4, 2, denom=12), 12)

    def test_favg_dominance_sample(self, rng):
        properties.check_favg_dominance(rng, n_codes=25, n_decoders=5)

    def test_base_perfection_sample(self, rng):
        properties.check_base_perfection(rng, trials=20)

    def test_base_substitution_sample(self, rng):
        properties.check_base_substitution(rng, trials=20)

    def test_neighbor_regions_sample(self, rng):
        properties.check_neighbor_regions(rng, trials=15)

    def test_oversize_degenerate_sample(self, rng):
        properties.check_oversize_degenerate(rng, trials=10)
