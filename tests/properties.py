"""Decoder-level property checks shared by the unit tests and the acceptance suite.

All randomized checks build codes from exact rational grid symbols so that
success probabilities compare exactly, with no float tolerances to argue about.
Each function raises AssertionError on the first violation.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from cdna import (
    CompositeCode,
    CompositeSymbol,
    base_symbol,
    custom_decoder_from_table,
    decoding_region,
    enumerate_observed,
    evaluate_code,
    mld_decode,
    observed_grid_size,
    self_decoding_probability,
)
from conftest import random_exact_code


def symmetric_reflect(code: CompositeCode) -> CompositeCode:
    """The binary code with every value x replaced by 1-x, re-sorted.

    A code equal to its reflection is symmetric.  Reflection mirrors decoding
    regions and per-symbol success probabilities exactly, except at observation
    points where two codewords are precisely tied (the lexicographic tie-break
    favors the smaller codeword on both sides); generic codes have no such
    points.
    """
    if code.q != 2:
        raise ValueError("reflection is defined for binary codes only")
    return CompositeCode(tuple(reversed(s.probs)) for s in code.symbols)


def check_region_partition(code: CompositeCode, n: int) -> None:
    """Decoding regions are pairwise disjoint and cover the whole grid."""
    grid = enumerate_observed(n, code.q)
    seen: dict = {}
    for symbol in code.symbols:
        for theta in decoding_region(code, symbol, n):
            assert theta not in seen, f"{theta} in two regions"
            seen[theta] = symbol
    assert len(seen) == len(grid)


def check_n_independence(code: CompositeCode, n1: int, n2: int) -> None:
    """A distribution observable at two read counts decodes identically at both."""
    assert n2 % n1 == 0
    scale = n2 // n1
    for theta in enumerate_observed(n1, code.q):
        scaled = tuple(k * scale for k in theta)
        a = mld_decode(code, theta)
        b = mld_decode(code, scaled)
        assert a == b, f"decode differs between n={n1} and n={n2} at {theta}"


def check_self_decoding(code: CompositeCode, n: int) -> None:
    """Observations equal to a codeword's distribution decode to that codeword."""
    for symbol in code.symbols:
        counts = []
        on_grid = True
        for p in symbol.probs:
            scaled = Fraction(p) * n
            if scaled.denominator != 1:
                on_grid = False
                break
            counts.append(int(scaled))
        if not on_grid:
            continue
        assert mld_decode(code, counts) == symbol


def check_favg_dominance(rng: np.random.Generator, n_codes: int, n_decoders: int) -> None:
    """No decoder beats maximum likelihood on average success probability."""
    for _ in range(n_codes):
        m = int(rng.integers(2, 6))
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        code = random_exact_code(rng, m, q)
        grid = enumerate_observed(n, q)
        mld_avg = evaluate_code(code, n).f_avg
        for _ in range(n_decoders):
            table = {theta: int(rng.integers(0, m)) for theta in grid}
            decoder = custom_decoder_from_table(code, n, table)
            assert evaluate_code(code, n, decoder=decoder).f_avg <= mld_avg


def check_base_perfection(rng: np.random.Generator, trials: int) -> None:
    """A code containing a base indicator decodes that indicator perfectly."""
    for _ in range(trials):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        i = int(rng.integers(1, q + 1))
        code = CompositeCode(
            set(random_exact_code(rng, int(rng.integers(1, 4)), q).symbols) | {base_symbol(q, i)}
        )
        result = evaluate_code(code, n)
        assert result.per_symbol_success[base_symbol(q, i)] == 1


def check_base_substitution(rng: np.random.Generator, trials: int) -> None:
    """Swapping in the base symbol that owns its observation never hurts."""
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 6))
        code = random_exact_code(rng, m, 2)
        e = base_symbol(2, 1)
        owner = mld_decode(code, (n, 0))
        replaced = CompositeCode((set(code.symbols) - {owner}) | {e})
        before = evaluate_code(code, n)
        after = evaluate_code(replaced, n)
        assert after.f_min >= before.f_min
        assert after.f_avg >= before.f_avg


def check_neighbor_regions(rng: np.random.Generator, trials: int) -> None:
    """Sorted binary codes decode every observation to one of its two neighbors."""
    for _ in range(trials):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 17))
        code = random_exact_code(rng, m, 2, denom=40)
        values = [Fraction(s.probs[0]) for s in code.symbols]
        for theta in enumerate_observed(n, 2):
            t = Fraction(theta[0], n)
            decoded = Fraction(mld_decode(code, theta).probs[0])
            if t <= values[0]:
                assert decoded == values[0]
            elif t >= values[-1]:
                assert decoded == values[-1]
            else:
                hi = next(i for i, v in enumerate(values) if v >= t)
                assert decoded in (values[hi - 1], values[hi]) or t in values


def check_reflection_equivariance(rng: np.random.Generator, trials: int, n_max: int = 12) -> None:
    """Reflecting a binary code reflects its decoding regions.

    Holds pointwise wherever no two codewords are exactly tied at an observable
    grid point (a tie breaks toward the smaller codeword on both sides, which
    reflection maps to the larger).  Generic float codes have no such ties.
    """
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, n_max + 1))
        values = sorted(float(v) for v in rng.uniform(0.02, 0.98, size=m))
        code = CompositeCode.binary(values)
        mirrored = symmetric_reflect(code)
        for symbol in code.symbols:
            region = decoding_region(code, symbol, n)
            reflected_symbol = CompositeSymbol(tuple(reversed(symbol.probs)))
            mirrored_region = decoding_region(mirrored, reflected_symbol, n)
            assert {theta[::-1] for theta in region} == set(mirrored_region)


def check_symmetric_pairing(rng: np.random.Generator, trials: int) -> None:
    """In a symmetric binary code, mirrored codewords succeed equally often.

    Checked at odd read counts: even counts make the central observation 1/2
    observable, and the lexicographic tie-break hands it to the lower codeword,
    offsetting the pair by exactly that observation's mass.
    """
    for _ in range(trials):
        half = int(rng.integers(1, 4))
        n = int(rng.integers(0, 8)) * 2 + 1
        lows = set()
        while len(lows) < half:
            lows.add(Fraction(int(rng.integers(1, 32)), 64))
        values = sorted(lows) + sorted(1 - v for v in lows)
        code = CompositeCode.binary(values)
        result = evaluate_code(code, n)
        succ = [result.per_symbol_success[s] for s in code.symbols]
        for i in range(len(succ)):
            assert succ[i] == succ[len(succ) - 1 - i]


def check_symmetrization_improvement(rng: np.random.Generator, trials: int) -> None:
    """Mirroring the lower half of a binary code never lowers f_min.

    Applies to codes of even size 2m with c_m < 1/2 and c_{m+1} <= 1 - c_m.
    """
    done = 0
    while done < trials:
        half = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        lows = set()
        while len(lows) < half:
            lows.add(Fraction(int(rng.integers(1, 32)), 64))
        lows = sorted(lows)
        cap = 1 - lows[-1]
        uppers = set()
        attempts = 0
        while len(uppers) < half and attempts < 200:
            v = Fraction(int(rng.integers(1, 64)), 64)
            attempts += 1
            if v > lows[-1] and (uppers or v <= cap):
                uppers.add(v)
        if len(uppers) < half or min(uppers) > cap:
            continue
        original = CompositeCode.binary(lows + sorted(uppers))
        symmetrized = CompositeCode.binary(lows + [1 - v for v in lows])
        assert evaluate_code(symmetrized, n).f_min >= evaluate_code(original, n).f_min
        done += 1


def check_oversize_degenerate(rng: np.random.Generator, trials: int) -> None:
    """More codewords than observable distributions forces f_min = 0.

    A code containing the whole grid additionally attains average success
    (sum of self-decoding probabilities) / m exactly.
    """
    for _ in range(trials):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        size = observed_grid_size(n, q)
        extra = int(rng.integers(1, 3))
        symbols = {CompositeSymbol(Fraction(k, n) for k in theta) for theta in enumerate_observed(n, q)}
        while len(symbols) < size + extra:
            symbols.add(random_exact_code(rng, 1, q, denom=24).symbols[0])
        code = CompositeCode(symbols)
        result = evaluate_code(code, n)
        assert result.f_min == 0
        betas = sum(self_decoding_probability(theta) for theta in enumerate_observed(n, q))
        assert result.f_avg == betas / code.m


def check_balanced_minimum() -> None:
    """For q | n the smallest self-decoding probability sits at the balanced point."""
    from cdna.model import multinomial_coefficient

    for q, ns in ((2, (2, 4, 6, 8)), (3, (3, 6))):
        for n in ns:
            r = n // q
            grid = enumerate_observed(n, q)
            betas = {theta: self_decoding_probability(theta) for theta in grid}
            balanced = (r,) * q
            expected = Fraction(multinomial_coefficient(balanced), q**n)
            assert betas[balanced] == expected
            assert min(betas.values()) == expected
