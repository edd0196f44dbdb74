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

        with pytest.raises(UnsupportedRangeError, match="exceeds the cap 2000000"):
            enumerate_observed(4_000_000, 2)

    def test_counts_are_capped_too(self):
        from cdna import UnsupportedRangeError

        # 1.1M points pass the point cap but hold 1.7G counts; refused before any is made
        with pytest.raises(UnsupportedRangeError, match="1688625000 counts"):
            enumerate_observed(2, 1500)


class TestEnumerationCap:
    """Every grid entry point refuses the same grids, above ``DEFAULT_MAX_ENUM`` points or
    ``4 * DEFAULT_MAX_ENUM`` counts, before any grid work; no argument moves those caps."""

    @staticmethod
    def entry_points(n, q):
        """Each grid entry point, called on the grid of ``n`` reads over ``q`` letters."""
        from cdna import construct_grid_code, decoding_region, evaluate_code, optimize_binary4_grid
        from cdna.codes import _grid_code_success
        from cdna.model import _checked_grid_size

        float_code = CompositeCode([uniform_symbol(q), base_symbol(q, 1).as_float()])
        exact_code = CompositeCode([uniform_symbol(q, exact=True), base_symbol(q, 1)])
        calls = {
            "_checked_grid_size": lambda: _checked_grid_size(n, q),
            "enumerate_observed": lambda: enumerate_observed(n, q),
            "evaluate_code float": lambda: evaluate_code(float_code, n),
            "evaluate_code exact": lambda: evaluate_code(exact_code, n),
            "decoding_region": lambda: decoding_region(float_code, float_code.symbols[0], n),
            "construct_grid_code": lambda: construct_grid_code(n, q),
            "_grid_code_success": lambda: _grid_code_success(n, q),
        }
        if q == 2:
            calls["optimize_binary4_grid"] = lambda: optimize_binary4_grid(n, 1e-3)
        return calls

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, None, "5", True, False, 2.5, 1e6, 0, -3])
    def test_refused_everywhere(self, cap):
        # no entry point takes a cap, whatever its value (NaN, the infinities and None once lifted both)
        from cdna import decoding_region, evaluate_code, optimize_binary4_grid
        from cdna.codes import _grid_code_success
        from cdna.model import _checked_grid_size

        code = CompositeCode.binary([0.1, 0.5, 0.9])
        calls = {
            "_checked_grid_size": lambda: _checked_grid_size(3, 2, cap),
            "evaluate_code": lambda: evaluate_code(code, 3, max_enum=cap),
            "decoding_region": lambda: decoding_region(code, code.symbols[0], 3, max_enum=cap),
            "construct_grid_code": lambda: construct_grid_code(3, 2, max_enum=cap),
            "_grid_code_success": lambda: _grid_code_success(3, 2, cap),
            "optimize_binary4_grid": lambda: optimize_binary4_grid(3, 1e-3, max_enum=cap),
            "enumerate_observed": lambda: enumerate_observed(3, 2, max_size=cap),
        }
        for call in calls.values():
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize(
        "n,q,message",
        [
            (2_000_000, 2, "|grid(n=2000000, q=2)| = 2000001 exceeds the cap 2000000; lower n or q"),
            (1_999, 3, "|grid(n=1999, q=3)| = 2001000 exceeds the cap 2000000; lower n or q"),
            (227, 4, "|grid(n=227, q=4)| = 2001460 exceeds the cap 2000000; lower n or q"),
            (
                1,
                2829,
                "grid(n=1, q=2829) holds 8003241 counts (2829 points of 2829), "
                "beyond the cap of 8000000 counts; lower n or q",
            ),
        ],
    )
    def test_first_grid_over_a_cap_refused(self, monkeypatch, n, q, message):
        from cdna import UnsupportedRangeError, binary, codes

        def no_grid(*args):
            raise AssertionError("grid work before the cap was checked")

        for module, name in ((model, "_compositions"), (codes, "_compositions"), (binary, "_float_success")):
            monkeypatch.setattr(module, name, no_grid)
        for name, call in self.entry_points(n, q).items():
            with pytest.raises(UnsupportedRangeError) as refused:
                call()
            assert str(refused.value) == message, name

    def test_binary4_work_cap(self, monkeypatch):
        # ceil(0.5 / step) candidates of n + 1 points each: 500,000 codes of 4 points fill the
        # cap at step 1e-6, and 500,501 pass it at 9.99e-7, refused before any work
        from cdna import UnsupportedRangeError, binary, optimize_binary4_grid

        class Searched(Exception):
            pass

        def searched(*args):
            raise Searched

        monkeypatch.setattr(binary, "_float_success", searched)
        with pytest.raises(Searched):
            optimize_binary4_grid(3, 1e-6)
        with pytest.raises(UnsupportedRangeError, match="codes of 4 points each, beyond the enumeration cap 2000000"):
            optimize_binary4_grid(3, 9.99e-7)

    def test_last_grids_under_the_caps_pass(self):
        from cdna import DEFAULT_MAX_ENUM
        from cdna.model import _checked_grid_size

        # four counts per point of the point cap: every grid of q <= 4 under it passes
        for n, q in ((1_999_999, 2), (1_998, 3), (226, 4), (1, 2828)):
            assert _checked_grid_size(n, q) == (n, observed_grid_size(n, q))
            assert observed_grid_size(n, q) <= DEFAULT_MAX_ENUM
            assert observed_grid_size(n, q) * q <= 4 * DEFAULT_MAX_ENUM
        assert _checked_grid_size(1_999_999, 2)[1] == DEFAULT_MAX_ENUM
