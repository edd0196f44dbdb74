import math
from fractions import Fraction

import pytest

from cdna import (
    CompositeCode,
    CompositeSymbol,
    base_symbol,
    construct_grid_code,
    custom_decoder_from_table,
    enumerate_observed,
    mld_decode,
    observed_grid_size,
    self_decoding_probability,
    uniform_symbol,
)
from cdna import model


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

    def test_lexicographic_order(self):
        a = CompositeSymbol((0.4, 0.6))
        b = CompositeSymbol((0.5, 0.5))
        c = CompositeSymbol((0.6, 0.4))
        assert a < b < c

    def test_exact_float_agreement(self):
        assert CompositeSymbol((Fraction(1, 2), Fraction(1, 2))) == CompositeSymbol((0.5, 0.5))


class TestObservedDistribution:
    """An observed distribution is a tuple of int counts, its n their sum and its q their
    number; the functions that take one check it the same way, with ``model._counts``."""

    #: counts refused with that check's ValueError
    HOSTILE = {
        "empty": (),
        "negative": (-1, 2),
        "bool": (True, 9),
        "float": (1.0, 2),
        "string": ("1", 2),
        "None": (None, 2),
        "all zero": (0, 0),
    }

    def test_counts_and_n(self):
        # five reads of (3/5, 2/5) show (3, 2) with probability C(5, 3) 3**3 2**2 / 5**5
        assert self_decoding_probability((3, 2)) == Fraction(10 * 3**3 * 2**2, 5**5)

    def test_n_inferred(self):
        assert mld_decode(construct_grid_code(3, 2), (1, 2)) == CompositeSymbol((Fraction(1, 3), Fraction(2, 3)))

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError, match="summing to n=4"):
            custom_decoder_from_table(construct_grid_code(3, 2), 4, {(1, 2): 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            self_decoding_probability((-1, 2))

    def test_lexicographic_order(self):
        assert enumerate_observed(2, 3) == sorted(enumerate_observed(2, 3))

    @pytest.mark.parametrize("counts", HOSTILE.values(), ids=HOSTILE.keys())
    def test_hostile_counts_refused(self, counts):
        with pytest.raises(ValueError) as want:
            model._counts(counts)
        for call in (self_decoding_probability, lambda k: mld_decode(CompositeCode.binary([0.4, 0.6]), k)):
            with pytest.raises(ValueError) as got:
                call(counts)
            assert type(got.value) is ValueError and str(got.value) == str(want.value)


class TestEnumerateObserved:
    def test_two_two(self):
        grid = enumerate_observed(2, 2)
        assert grid == [(0, 2), (1, 1), (2, 0)]

    def test_single_read(self):
        # 1,500 letters: the grid's generator once recursed once per letter
        for q in (*range(1, 5), 1500):
            grid = enumerate_observed(1, q)
            assert len(grid) == q
            assert all(sum(t) == 1 for t in grid)
            assert grid == sorted(grid)

    def test_three_three(self):
        assert len(enumerate_observed(3, 3)) == 10

    def test_size_and_uniqueness_grid(self):
        for n in range(1, 9):
            for q in range(1, 7):
                grid = enumerate_observed(n, q)
                assert len(grid) == observed_grid_size(n, q) == math.comb(n + q - 1, q - 1)
                assert len(set(grid)) == len(grid)
                assert grid == sorted(grid)

    def test_cap(self):
        from cdna import UnsupportedRangeError

        with pytest.raises(UnsupportedRangeError):
            enumerate_observed(100, 4, max_size=1000)

    def test_counts_are_capped_too(self):
        from cdna import DEFAULT_MAX_ENUM, UnsupportedRangeError
        from cdna.model import _checked_grid_size

        # 1.1M points pass the point cap but hold 1.7G counts; refused before any is made
        with pytest.raises(UnsupportedRangeError, match="1688625000 counts"):
            enumerate_observed(2, 1500)
        # four counts per point of the cap: every grid of q <= 4 under the point cap passes
        for q, n in ((2, DEFAULT_MAX_ENUM - 1), (3, 1998), (4, 226)):
            assert _checked_grid_size(n, q, DEFAULT_MAX_ENUM)[1] <= DEFAULT_MAX_ENUM
            assert observed_grid_size(n + 1, q) > DEFAULT_MAX_ENUM
        assert _checked_grid_size(1, 20, 100) == (1, 20)  # 400 counts, at the cap of 4 * 100
        with pytest.raises(UnsupportedRangeError, match="441 counts"):
            _checked_grid_size(1, 21, 100)



class TestEnumerationCap:
    """An enumeration cap must be an int >= 1: every grid entry point refuses anything else
    with ValueError before any grid work (NaN and the infinities once lifted both caps,
    ``None`` the point cap, ``True`` passed for 1 and ``2.5`` for a float cap)."""

    @staticmethod
    def entry_points():
        from cdna import (
            CompositeCode,
            construct_grid_code,
            decoding_region,
            evaluate_code,
            optimize_binary4_grid,
        )
        from cdna.codes import _grid_code_success
        from cdna.model import _checked_grid_size

        float_code = CompositeCode.binary([0.1, 0.5, 0.9])
        exact_code = CompositeCode.binary([Fraction(1, 5), Fraction(4, 5)])
        return {
            "_checked_grid_size": lambda cap: _checked_grid_size(300, 4, cap),
            "evaluate_code float": lambda cap: evaluate_code(float_code, 5, max_enum=cap),
            "evaluate_code exact": lambda cap: evaluate_code(exact_code, 5, max_enum=cap),
            "decoding_region": lambda cap: decoding_region(float_code, float_code.symbols[0], 5, max_enum=cap),
            "construct_grid_code": lambda cap: construct_grid_code(3, 2, max_enum=cap),
            "_grid_code_success": lambda cap: _grid_code_success(3, 2, cap),
            "optimize_binary4_grid": lambda cap: optimize_binary4_grid(3, 1e-3, max_enum=cap),
            "enumerate_observed": lambda cap: enumerate_observed(3, 2, max_size=cap),
        }

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, None, "5", True, False, 2.5, 1e6, 0, -3])
    def test_refused_everywhere(self, monkeypatch, cap):
        from cdna import model

        def no_grid(*args):
            raise AssertionError("grid work before the cap was checked")

        monkeypatch.setattr(model, "observed_grid_size", no_grid)
        for name, call in self.entry_points().items():
            with pytest.raises(ValueError, match="max_enum") as refused:
                call(cap)
            assert type(refused.value) is ValueError, name

    def test_int_caps_keep_their_meaning(self):
        import numpy as np

        from cdna import UnsupportedRangeError
        from cdna.model import _checked_grid_size

        for cap in (1001, np.int64(1001), 10**400):
            assert _checked_grid_size(1000, 2, cap) == (1000, 1001)
            assert type(_checked_grid_size(np.int64(1000), np.int32(2), cap)[0]) is int
            assert len(enumerate_observed(1000, 2, max_size=cap)) == 1001
        for cap in (1000, np.int64(1000), np.uint8(3)):
            with pytest.raises(UnsupportedRangeError, match="exceeds the cap"):
                _checked_grid_size(1000, 2, cap)
        # enumerate_observed has the point cap of every grid entry point
        with pytest.raises(UnsupportedRangeError, match="exceeds the cap 2000000"):
            enumerate_observed(4_000_000, 2)
