import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cdna import (
    CompositeCode,
    ObservedDistribution,
    binary4_alpha,
    binary4_beta,
    binary_threshold,
    construct_binary4,
    evaluate_code,
    optimize_binary4_grid,
)
from cdna import binary, codes
from cdna.model import CompositeSymbol, UnsupportedRangeError
from conftest import reference_prob_observed
import properties
from properties import symmetric_reflect


class TestBinaryThreshold:
    def test_symmetric_pair(self):
        assert binary_threshold(0.4, 0.6) == pytest.approx(0.5, abs=1e-15)

    def test_counterexample_pair(self):
        assert binary_threshold(0.4, 0.5) == pytest.approx(
            math.log(10 / 12) / math.log(4 / 6), abs=1e-12
        )
        assert binary_threshold(0.4, 0.5) == pytest.approx(0.449, abs=1e-3)

    def test_sign_flip_scan(self, rng):
        # likelihood order must flip exactly at the threshold on every grid
        for _ in range(25):
            x = float(rng.uniform(0.05, 0.9))
            y = float(rng.uniform(x + 0.01, 0.98))
            t_star = binary_threshold(x, y)
            sx = CompositeSymbol((x, 1 - x))
            sy = CompositeSymbol((y, 1 - y))
            for n in (1, 7, 30):
                for i in range(n + 1):
                    theta = ObservedDistribution((i, n - i), n)
                    diff = reference_prob_observed(sx, theta) - reference_prob_observed(sy, theta)
                    if i / n < t_star:
                        assert diff > 0
                    elif i / n > t_star:
                        assert diff < 0

    def test_validation(self):
        for x, y in ((0.0, 0.5), (0.5, 1.0), (0.6, 0.4), (0.5, 0.5)):
            with pytest.raises(ValueError):
                binary_threshold(x, y)


class TestBinary4ClosedForm:
    def test_three_reads(self):
        assert binary4_beta(3) == pytest.approx(2.0, abs=1e-12)
        assert binary4_alpha(3) == pytest.approx(1 / 3, abs=1e-12)
        code = construct_binary4(3)
        assert code.values == pytest.approx((0.0, 1 / 3, 2 / 3, 1.0), abs=1e-12)

    def test_four_reads(self):
        # worst inner symbol success is 4x(1-x)^3, maximized at x = 1/4
        assert binary4_beta(4) == pytest.approx(3.0, abs=1e-12)
        assert binary4_alpha(4) == pytest.approx(0.25, abs=1e-12)

    def test_five_reads(self):
        assert binary4_beta(5) == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_converges_to_one_fifth(self):
        odd = [binary4_alpha(n) for n in range(3, 201, 2)]
        even = [binary4_alpha(n) for n in range(4, 201, 2)]
        assert all(a > b for a, b in zip(odd, odd[1:]))
        assert all(a > b for a, b in zip(even, even[1:]))
        assert all(a > 0.2 for a in odd + even)
        assert binary4_alpha(199) == pytest.approx(0.2, abs=0.01)
        assert binary4_alpha(200) == pytest.approx(0.2, abs=0.01)

    def test_two_reads_degenerate(self):
        # 4 codewords cannot all decode among 3 observable distributions
        with pytest.raises(ValueError, match="degenerate"):
            binary4_beta(2)
        with pytest.raises(ValueError):
            construct_binary4(2)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            binary4_beta(1)


class TestBinary4Grid:
    def test_matches_closed_form_small(self):
        for n in (3, 4, 5):
            x_star, f_star = optimize_binary4_grid(n, 1e-3)
            assert x_star == pytest.approx(binary4_alpha(n), abs=1.5e-3)
            code = CompositeCode.binary([0.0, x_star, 1 - x_star, 1.0])
            assert f_star == evaluate_code(code, n).f_min

    def test_same_result_as_evaluating_each_candidate(self):
        # the search as a loop of evaluate_code calls, one per candidate code
        for n, step in ((2, 1e-3), (3, 1e-3), (4, 7e-4), (7, 1e-3)):
            best_x = best_f = None
            i = 1
            while i * step < 0.5:
                x = i * step
                f_min = evaluate_code(CompositeCode.binary([0.0, x, 1.0 - x, 1.0]), n).f_min
                if best_f is None or f_min > best_f:
                    best_x, best_f = x, f_min
                i += 1
            x_star, f_star = optimize_binary4_grid(n, step)
            assert (x_star, f_star) == (best_x, best_f)
            assert type(x_star) is float and type(f_star) is float

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_same_result_at_group_edges(self, monkeypatch, n):
        # candidate counts one below, at and one above a multiple of the codes
        # the kernel decodes at once; step 0.5 / (count + 0.5) gives count of them.
        # The screened codes are the candidates, once each; the certified ones
        # are candidates, none twice; no call takes more than one group
        screened, certified, calls = [], [], []

        def counted(block, *args, screen=False):
            (screened if screen else certified).extend(np.asarray(block)[:, 1, 0].tolist())
            calls.append(len(block))
            return codes._float_success(block, *args, screen=screen)

        monkeypatch.setattr(binary, "_float_success", counted)
        group = codes._codes_per_group(4, 2, n + 1)
        multiple = -(-500 // group) * group  # the first multiple with steps <= 1e-3
        for count in (multiple - 1, multiple, multiple + 1):
            step = 0.5 / (count + 0.5)
            candidates = list(grid_candidates(step))
            assert len(candidates) == count
            for record in (screened, certified, calls):
                record.clear()
            assert optimize_binary4_grid(n, step) == search_by_candidate(n, step)
            assert screened == candidates
            assert certified == sorted(set(certified)) and set(certified) <= set(candidates)
            assert max(calls) <= group
            if n == 2:  # flat: every candidate survives its screen
                assert certified == candidates
            else:
                assert 1 <= len(certified) <= 3

    #: (n, step) pairs of the sweep: small n, where every point is weighed directly,
    #: and n = 1000, where the middle points' coefficients exceed 1e280 and are
    #: weighed in log space
    SWEEP = [(n, step) for n in [*range(2, 13), 20, 40] for step in (1e-3, 7e-4)] + [(1000, 1e-3)]

    @pytest.mark.parametrize("n, step", SWEEP)
    def test_screened_search_is_the_candidate_loop(self, n, step):
        assert optimize_binary4_grid(n, step) == search_by_candidate(n, step)

    @pytest.mark.parametrize("n, step", SWEEP)
    def test_screen_is_within_an_eighth_of_its_bound(self, n, step):
        # delta = 64 (n + 8) 2**-53 is the pruning margin optimize_binary4_grid
        # states; the screen must keep an eightfold margin inside it
        delta = 64 * (n + 8) * 2.0**-53
        assert codes._screen_margin(n) == delta
        x, certified = zip(*candidate_f_mins(n, step))
        group = codes._codes_per_group(4, 2, n + 1)
        for first in range(0, len(x), group):
            v = np.array([[0.0, c, 1.0 - c, 1.0] for c in x[first : first + group]])
            block = np.stack([v, 1 - v], axis=2)
            screened = codes._float_success(block, n, n + 1, screen=True).min(axis=1)
            for s, f in zip(screened.tolist(), certified[first : first + group]):
                assert abs(s - f) <= delta / 8, (n, step, s, f)

    @pytest.mark.parametrize("block", [1, 7])
    def test_tiny_blocks_leave_the_search_unchanged(self, monkeypatch, block):
        monkeypatch.setattr(codes, "_BLOCK_ELEMENTS", block)
        for n in (2, 3, 6, 10):
            assert optimize_binary4_grid(n, 1e-3) == search_by_candidate(n, 1e-3)

    def test_work_beyond_the_enumeration_cap_is_refused(self):
        # ceil(0.5 / step) candidates of n + 1 points each, refused before any work
        for step in (1e-300, 5e-324, 1e-7):
            with pytest.raises(UnsupportedRangeError, match="enumeration cap"):
                optimize_binary4_grid(3, step)
        step = 1e-4
        work = math.ceil(0.5 / step) * 4
        assert optimize_binary4_grid(3, step, max_enum=work) == optimize_binary4_grid(3, step)
        with pytest.raises(UnsupportedRangeError, match="enumeration cap"):
            optimize_binary4_grid(3, step, max_enum=work - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_libm_calls_only_where_python_makes_them(self, monkeypatch, n):
        # The screen calls no pow.  A certified {0, x, 1-x, 1}: the interior
        # points of x and 1-x take two powers each, (0, n) and (n, 0) decode to
        # 0 and 1 and take none (p**0 and 1.0**n).  Each log table, the screen's
        # and the kernel's, takes log(x) and log(1-x) twice, never log(1.0) or
        # log(0.0)
        mapped = {pow: 0, math.log: 0}
        real = codes._mapped
        certified = []

        def counted(np_, function, *arrays):
            if function in mapped:
                mapped[function] += arrays[0].size
            return real(np_, function, *arrays)

        def kernel(block, *args, screen=False):
            if not screen:
                certified.append(len(block))
            return codes._float_success(block, *args, screen=screen)

        monkeypatch.setattr(codes, "_mapped", counted)
        monkeypatch.setattr(binary, "_float_success", kernel)
        optimize_binary4_grid(n, 1e-4)
        survivors = sum(certified)
        assert 1 <= survivors <= 3
        assert mapped == {pow: survivors * 2 * (n - 1), math.log: (4999 + survivors) * 4}

    def test_memory_is_bounded_by_the_block(self):
        # 5,000 and 500,000 candidates: the traced peak is that of one block
        bound = 16 * 8 * codes._BLOCK_ELEMENTS
        optimize_binary4_grid(3, 1e-3)  # numpy's one-time state stays out of the peak
        for step in (1e-4, 1e-6):
            tracemalloc.start()
            try:
                optimize_binary4_grid(3, step)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (step, peak, bound)

    def test_candidate_symbols_are_not_renormalized(self):
        # optimize_binary4_grid builds the probabilities (v, 1 - v) directly
        for i in range(1, 5000):
            x = i * 1e-4
            code = CompositeCode.binary([0.0, x, 1.0 - x, 1.0])
            assert [s.probs for s in code.symbols] == [(v, 1 - v) for v in (0.0, x, 1.0 - x, 1.0)]
        rng = np.random.default_rng(7)
        for v in rng.uniform(0.0, 1.0, size=20000).tolist():
            assert v + (1 - v) == 1.0

    def test_even_case_arbitration(self):
        # the even-read closed form beta = C(n-1, n/2-1)^(2/(n-2)) is the one
        # the exhaustive oracle confirms
        for n in (4, 6, 8):
            x_star, _ = optimize_binary4_grid(n, 1e-3)
            assert x_star == pytest.approx(binary4_alpha(n), abs=1.5e-3)

    def test_flat_objective_at_two_reads(self):
        x_star, f_star = optimize_binary4_grid(2, 1e-3)
        assert f_star == 0.0
        assert x_star == pytest.approx(1e-3)  # every grid point ties at zero

    def test_objective_value_is_worst_symbol(self):
        x_star, f_star = optimize_binary4_grid(3, 1e-3)
        assert f_star == pytest.approx(4 / 9, abs=1e-2)  # 3x(1-x)^2 at x=1/3

    def test_step_validation(self):
        with pytest.raises(ValueError):
            optimize_binary4_grid(3, 0.0)
        with pytest.raises(ValueError):
            optimize_binary4_grid(3, 0.1)
        # as floats: 1.00000005e-3, 0.0 and beyond the float range
        for step in (np.float32(1e-3), Fraction(1, 10**400), 10**400, True):
            with pytest.raises(ValueError, match="grid_step"):
                optimize_binary4_grid(3, step)

    def test_other_real_steps_are_searched_as_their_float(self):
        # a float32 step once returned i * np.float32(step), a point never
        # evaluated, and a Fraction step an exact x the search never weighed
        for step in (np.float32(5e-4), Fraction(1, 3000), np.float64(1e-3)):
            x_star, f_star = optimize_binary4_grid(3, step)
            assert type(x_star) is float and type(f_star) is float
            assert (x_star, f_star) == optimize_binary4_grid(3, float(step))
            code = CompositeCode.binary([0.0, x_star, 1.0 - x_star, 1.0])
            assert f_star == evaluate_code(code, 3).f_min


def grid_candidates(step):
    i = 1
    while i * step < 0.5:
        yield i * step
        i += 1


@functools.lru_cache(maxsize=None)
def candidate_f_mins(n, step):
    """Every grid candidate x with evaluate_code's f_min of {0, x, 1-x, 1} at n reads."""
    return tuple(
        (x, evaluate_code(CompositeCode.binary([0.0, x, 1.0 - x, 1.0]), n).f_min) for x in grid_candidates(step)
    )


def search_by_candidate(n, step):
    """The grid search as a loop of evaluate_code calls, one per candidate code."""
    best_x = best_f = None
    for x, f_min in candidate_f_mins(n, step):
        if best_f is None or f_min > best_f:
            best_x, best_f = x, f_min
    return best_x, best_f


class TestSymmetricReflect:
    def test_simple(self):
        code = CompositeCode.binary([0.0, 0.3, 1.0])
        assert symmetric_reflect(code).values == (0.0, 0.7, 1.0)

    def test_symmetric_code_fixed(self):
        code = CompositeCode.binary([Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)])
        assert symmetric_reflect(code) == code

    def test_involution(self, rng):
        for _ in range(10):
            values = sorted(set(float(v) for v in rng.uniform(0.01, 0.99, size=4)))
            code = CompositeCode.binary(values)
            assert symmetric_reflect(symmetric_reflect(code)) == code

    def test_f_min_preserved_generic(self, rng):
        # no exact likelihood ties for generic float values, so the reflected
        # code has the mirrored success profile
        for _ in range(10):
            values = sorted(set(float(v) for v in rng.uniform(0.02, 0.98, size=4)))
            code = CompositeCode.binary(values)
            n = int(rng.integers(1, 11))
            a = evaluate_code(code, n)
            b = evaluate_code(symmetric_reflect(code), n)
            assert b.f_min == pytest.approx(a.f_min, abs=1e-12)

    def test_non_binary_rejected(self):
        from cdna import construct_base_plus_uniform

        with pytest.raises(ValueError):
            symmetric_reflect(construct_base_plus_uniform(3))


class TestSymmetryProperties:
    def test_reflection_equivariance_sample(self, rng):
        properties.check_reflection_equivariance(rng, trials=10)

    def test_symmetric_pairing_sample(self, rng):
        properties.check_symmetric_pairing(rng, trials=10)

    def test_symmetrization_improvement_sample(self, rng):
        properties.check_symmetrization_improvement(rng, trials=10)
