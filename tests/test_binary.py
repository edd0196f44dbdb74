import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cdna import (
    CompositeCode,
    binary4_alpha,
    binary4_beta,
    binary_threshold,
    construct_binary4,
    decoding_region,
    evaluate_code,
    optimize_binary4_grid,
)
from cdna import binary, codes
from cdna.model import CompositeSymbol, UnsupportedRangeError
from conftest import float_path_bound, reference_prob_observed, reference_rationals, reference_region_weight
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
                    theta = (i, n - i)
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

    def test_cap(self, monkeypatch):
        # the last n answers (in about 1.3 s); past it no binomial is formed
        assert 3.99 < binary4_beta(binary._MAX_BINARY4_N) < 4

        def no_comb(*args):
            raise AssertionError("binomial formed before the cap was checked")

        monkeypatch.setattr(binary, "comb", no_comb)
        for call in (binary4_beta, binary4_alpha, construct_binary4):
            for n in (binary._MAX_BINARY4_N + 1, binary._MAX_BINARY4_N + 2, 10**30):
                with pytest.raises(UnsupportedRangeError, match=f"n={n} exceeds the cap 300000"):
                    call(n)


class TestBinary4Grid:
    def test_matches_closed_form_small(self):
        for n in (3, 4, 5):
            x_star, f_star = optimize_binary4_grid(n, 1e-3)
            assert x_star == pytest.approx(binary4_alpha(n), abs=1.5e-3)
            code = CompositeCode.binary([0.0, x_star, 1 - x_star, 1.0])
            assert f_star == evaluate_code(code, n).f_min

    def test_same_result_as_evaluating_each_candidate(self):
        # the search as a loop of evaluate_code calls, one per candidate code:
        # where f_min stays below 1.0, the smallest worst miss is its largest f_min
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
        # The kernel weighs every candidate once, in index order, and no call
        # takes more than one group
        weighed, calls = [], []

        def counted(block, *args):
            weighed.extend(np.asarray(block)[:, 1, 0].tolist())
            calls.append(len(block))
            return codes._float_success(block, *args)

        monkeypatch.setattr(binary, "_float_success", counted)
        group = codes._codes_per_group(4, 2, n + 1)
        multiple = -(-500 // group) * group  # the first multiple with steps <= 1e-3
        for count in (multiple - 1, multiple, multiple + 1):
            step = 0.5 / (count + 0.5)
            candidates = list(grid_candidates(step))
            assert len(candidates) == count
            weighed.clear()
            calls.clear()
            assert optimize_binary4_grid(n, step) == search_by_candidate(n, step)
            assert weighed == candidates
            assert max(calls) <= group

    #: (n, step) pairs of the sweep: small n, and n = 1000, where f_min rounds
    #: to 1.0 over a range of candidates and only the misses rank them
    SWEEP = [(n, step) for n in [*range(2, 13), 20, 40] for step in (1e-3, 7e-4)] + [(1000, 1e-3)]

    @pytest.mark.parametrize("n, step", SWEEP)
    def test_screened_search_is_the_candidate_loop(self, n, step):
        assert optimize_binary4_grid(n, step) == search_by_candidate(n, step)

    def test_answered_where_the_best_value_rounds_to_one(self):
        # every candidate whose f_min rounds to 1.0 once tied, and the first won:
        # (0.194, 1.0) at n = 170 against alpha = 0.2040, (0.178, 1.0) at n = 200;
        # the worst miss still tells them apart
        for n in (170, 200, 1000):
            x_star, f_star = optimize_binary4_grid(n, 1e-3)
            assert f_star == 1.0 and abs(x_star - binary4_alpha(n)) <= 1e-3, (n, x_star)
        x_star, f_star = optimize_binary4_grid(150, 1e-3)
        assert x_star == 204 * 1e-3 and f_star < 1.0  # the grid point nearest alpha = 0.2044

    def test_refused_where_the_best_miss_underflows(self):
        # past UNDERFLOW_N the best worst miss at step 1e-3 is no normal float
        n = UNDERFLOW_N
        x_star, _ = optimize_binary4_grid(n - 1, 1e-3)
        assert abs(x_star - binary4_alpha(n - 1)) <= 1e-3
        with pytest.raises(UnsupportedRangeError, match="no oracle"):
            optimize_binary4_grid(n, 1e-3)

    def test_within_one_step_of_the_closed_form(self):
        # every n = 3..1000 at step 1e-3 passes, in about 63 s (2 CPUs, Python
        # 3.11, numpy 2.4); every n to 40, n = 157 and 158 (where ranking by
        # f_min once went astray) and every 50th n to 1000 take about 2 s
        for n in (*range(3, 41), 157, 158, *range(50, 1001, 50)):
            x_star, _ = optimize_binary4_grid(n, 1e-3)
            assert abs(x_star - binary4_alpha(n)) <= 1e-3, (n, x_star, binary4_alpha(n))

    @pytest.mark.parametrize("n, step", SWEEP)
    def test_screen_is_within_an_eighth_of_its_bound(self, n, step):
        # the search screens its candidates by the kernel's misses, in groups;
        # at the winner and its neighbours, each symbol's miss (or, where the
        # miss exceeds 1/2, its success) is within an eighth of the bound
        # evaluate_code states of the exact one
        x_star, _ = optimize_binary4_grid(n, step)
        i = round(x_star / step)
        group = np.arange(max(1, i - 1), i + 2) * step
        v = np.stack([np.zeros_like(group), group, 1.0 - group, np.ones_like(group)], axis=1)
        success, miss = codes._float_success(np.stack([v, 1 - v], axis=2), n, n + 1)
        for g, x in enumerate(group.tolist()):
            code = CompositeCode.binary([0.0, x, 1.0 - x, 1.0])
            eps = Fraction(float_path_bound(code, n)) / 8
            for j, s in enumerate(code.symbols):
                lcm, scaled = reference_rationals(s.probs)
                hit = reference_region_weight(scaled, decoding_region(code, s, n))
                exact_hit, exact_miss = Fraction(hit, lcm**n), Fraction(sum(scaled) ** n - hit, lcm**n)
                if miss[g, j] <= 0.5:
                    assert abs(Fraction(miss[g, j]) - exact_miss) <= eps * exact_miss, (n, x, j)
                else:
                    assert abs(Fraction(success[g, j]) - exact_hit) <= eps * exact_hit, (n, x, j)

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_libm_calls_only_where_python_makes_them(self, monkeypatch, n):
        # The kernel calls no pow: numpy exponentiates every log mass.  The log
        # table of each candidate {0, x, 1-x, 1} takes log(x) and log(1-x) twice,
        # never log(1.0) or log(0.0), and each candidate is weighed once
        mapped = {pow: 0, math.log: 0}
        real = codes._mapped

        def counted(np_, function, *arrays):
            if function in mapped:
                mapped[function] += arrays[0].size
            return real(np_, function, *arrays)

        monkeypatch.setattr(codes, "_mapped", counted)
        optimize_binary4_grid(n, 1e-4)
        assert mapped == {pow: 0, math.log: 4999 * 4}

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


#: The first n at which optimize_binary4_grid(n, 1e-3) refuses: its best worst
#: miss is below the smallest normal float there (2.06e-308), and above it at n - 1.
UNDERFLOW_N = 3175


def search_by_candidate(n, step):
    """The grid search as a loop over the candidates, one code per kernel call: the
    first candidate of smallest worst miss, with evaluate_code's f_min of its code."""
    best_x = best_miss = None
    for x in grid_candidates(step):
        success, miss = codes._float_success([[(v, 1 - v) for v in (0.0, x, 1.0 - x, 1.0)]], n, n + 1)
        if best_miss is None or miss.max() < best_miss:
            best_x, best_miss, best_f = x, miss.max(), success.min()
    assert best_f == evaluate_code(CompositeCode.binary([0.0, best_x, 1.0 - best_x, 1.0]), n).f_min
    return best_x, float(best_f)


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
