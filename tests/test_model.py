import math
from fractions import Fraction
from itertools import combinations

import pytest

from cdna import (
    BaseAlphabet,
    CompositeSymbol,
    ObservedDistribution,
    SubsetSequence,
    SubsetSymbol,
    base_symbol,
    enumerate_observed,
    observed_grid_size,
    uniform_symbol,
)


class TestUniformSymbol:
    def test_binary(self):
        assert uniform_symbol(2).probs == (0.5, 0.5)

    def test_quaternary(self):
        assert uniform_symbol(4).probs == (0.25, 0.25, 0.25, 0.25)

    def test_degenerate(self):
        assert uniform_symbol(1).probs == (1.0,)

    def test_exact(self):
        assert uniform_symbol(3, exact=True).probs == (Fraction(1, 3),) * 3

    def test_zero_alphabet_rejected(self):
        with pytest.raises(ValueError):
            uniform_symbol(0)


class TestBaseSymbol:
    @pytest.mark.parametrize(
        "q,i,expected",
        [(2, 1, (1, 0)), (4, 3, (0, 0, 1, 0)), (1, 1, (1,))],
    )
    def test_examples(self, q, i, expected):
        assert base_symbol(q, i).probs == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            base_symbol(3, 4)
        with pytest.raises(IndexError):
            base_symbol(3, 0)


class TestCompositeSymbol:
    def test_sum_within_tolerance_renormalized(self):
        s = CompositeSymbol((0.5, 0.5 + 5e-13))
        assert math.isclose(sum(s.probs), 1.0, abs_tol=1e-15)

    def test_sum_outside_tolerance_rejected(self):
        with pytest.raises(ValueError):
            CompositeSymbol((0.5, 0.6))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CompositeSymbol((-0.1, 1.1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CompositeSymbol((math.nan, 1.0))
        with pytest.raises(ValueError):
            CompositeSymbol((math.inf, 0.0))

    def test_exact_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CompositeSymbol((Fraction(1, 3), Fraction(1, 3)))

    def test_support(self):
        assert CompositeSymbol((0.5, 0.0, 0.5)).support == (1, 3)

    def test_lexicographic_order(self):
        a = CompositeSymbol((0.4, 0.6))
        b = CompositeSymbol((0.5, 0.5))
        c = CompositeSymbol((0.6, 0.4))
        assert a < b < c

    def test_exact_float_agreement(self):
        assert CompositeSymbol((Fraction(1, 2), Fraction(1, 2))) == CompositeSymbol((0.5, 0.5))


class TestSubsetSymbol:
    def test_support_roundtrip_exhaustive(self):
        # conversion to a composite symbol and back is the identity on supports
        for q in range(1, 6):
            for w in range(1, q + 1):
                for sup in combinations(range(1, q + 1), w):
                    sym = SubsetSymbol(sup, q)
                    assert sym.to_composite().support == sup
                    assert sym.to_composite(exact=True).support == sup

    def test_uniform_on_support(self):
        comp = SubsetSymbol((1, 3), 4).to_composite(exact=True)
        assert comp.probs == (Fraction(1, 2), 0, Fraction(1, 2), 0)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            SubsetSymbol((0, 1), 3)
        with pytest.raises(ValueError):
            SubsetSymbol((1, 1), 3)
        with pytest.raises(ValueError):
            SubsetSymbol((), 3)


class TestSubsetSequence:
    def test_uniform_constructor(self):
        seq = SubsetSequence.uniform(3, 2)
        assert seq.ell == 3 and seq.omega == 2 and seq.q == 2
        assert all(e.support == (1, 2) for e in seq.entries)

    def test_mixed_support_sizes_rejected(self):
        with pytest.raises(ValueError):
            SubsetSequence((SubsetSymbol((1,), 3), SubsetSymbol((1, 2), 3)))

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ValueError):
            SubsetSequence((SubsetSymbol((1, 2), 2), SubsetSymbol((1, 2), 3)))


class TestObservedDistribution:
    def test_counts_and_n(self):
        theta = ObservedDistribution((3, 2), 5)
        assert theta.q == 2 and theta.distribution == (0.6, 0.4)

    def test_n_inferred(self):
        assert ObservedDistribution((1, 2)).n == 3

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            ObservedDistribution((1, 2), 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ObservedDistribution((-1, 2), 1)

    def test_as_symbol_exact(self):
        sym = ObservedDistribution((1, 2), 3).as_symbol()
        assert sym.probs == (Fraction(1, 3), Fraction(2, 3))

    def test_lexicographic_order(self):
        assert ObservedDistribution((0, 2)) < ObservedDistribution((1, 1))


class TestEnumerateObserved:
    def test_two_two(self):
        grid = enumerate_observed(2, 2)
        assert [t.counts for t in grid] == [(0, 2), (1, 1), (2, 0)]

    def test_single_read(self):
        for q in range(1, 5):
            grid = enumerate_observed(1, q)
            assert len(grid) == q
            assert all(sum(t.counts) == 1 for t in grid)

    def test_three_three(self):
        assert len(enumerate_observed(3, 3)) == 10

    def test_size_and_uniqueness_grid(self):
        for n in range(1, 9):
            for q in range(1, 5):
                grid = enumerate_observed(n, q)
                assert len(grid) == observed_grid_size(n, q) == math.comb(n + q - 1, q - 1)
                assert len(set(grid)) == len(grid)
                assert grid == sorted(grid)

    def test_cap(self):
        from cdna import UnsupportedRangeError

        with pytest.raises(UnsupportedRangeError):
            enumerate_observed(100, 4, max_size=1000)


class TestBaseAlphabet:
    def test_labels_dna(self):
        a = BaseAlphabet(4)
        assert [a.label(i) for i in a.symbols()] == ["A", "C", "G", "T"]

    def test_labels_numeric(self):
        assert BaseAlphabet(3).label(2) == "2"

    def test_invalid(self):
        with pytest.raises(ValueError):
            BaseAlphabet(0)
