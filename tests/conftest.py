"""Shared independent oracles and generators for the test suite.

The oracles here deliberately avoid the library's own derivations: coverage
expectations come from exact surjection counts, from the rational expansion
of the series or from a float covered-count Markov chain, covering-family
counts from brute-force subset enumeration (against the inclusion-exclusion
form, ``covering_family_count``), and random codes are built as
exact rational grid points so comparisons need no tolerances.  Where the library
evaluates a formula by a faster route, the formula as written lives here as the
reference it must match: the code evaluator's is a loop that decodes and
weighs one observation at a time in exact rationals, and imports no decision or
mass code from ``cdna`` (``tests/test_public_api.py`` checks its imports).  Exact
codes must equal it; float codes must decide as it does and come within the
bound ``evaluate_code`` states of its exact evaluation of their floats.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from cdna import (
    TIE_TOLERANCE,
    CompositeCode,
    CompositeSymbol,
    enumerate_observed,
    expected_coverage_exact,
)
from cdna.codes import CodeEvaluation
from cdna.simulate import _FIRST_BLOCK, _MAX_BLOCK


def dp_expected_coverage(ell: int, omega: int, tol: float = 1e-13) -> float:
    """Coverage expectation from the covered-count Markov chain.

    Tracks the distribution of how many distinct symbols one index has shown
    after m reads (transition c -> c+1 with probability 1 - c/omega), raises it
    to the ell-th power for the maximum over indices, and tail-sums.  No
    inclusion-exclusion anywhere.
    """
    probs = [1.0] + [0.0] * omega
    total = 0.0
    m = 0
    while True:
        tail = 1.0 - probs[omega] ** ell
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


def brute_covering_count(m: int, r: int, j: int) -> int:
    """Count j-element sets of r-subsets of {0..m-1} covering everything, by enumeration."""
    subsets = list(combinations(range(m), r))
    count = 0
    for family in combinations(subsets, j):
        union = set()
        for s in family:
            union.update(s)
        if len(union) == m:
            count += 1
    return count


def covering_family_count(m: int, r: int, j: int) -> int:
    """Number of j-element sets of distinct r-subsets of an m-set covering the whole set.

    Standard inclusion-exclusion over the elements left uncovered:

        sum_{i=0..m} (-1)^i C(m, i) C(C(m-i, r), j)

    Exact integer arithmetic throughout; checked against brute_covering_count.
    """
    return sum((-1) ** i * comb(m, i) * comb(comb(m - i, r), j) for i in range(m + 1))


def brute_miss_probability(w: int, m: int) -> Fraction:
    """Probability that m uniform draws from w symbols miss one, by full enumeration."""
    missed = 0
    for word in range(w**m):
        seen = set()
        x = word
        for _ in range(m):
            seen.add(x % w)
            x //= w
        if len(seen) < w:
            missed += 1
    return Fraction(missed, w**m)


def reference_expected_coverage_exact(ell: int, omega: int) -> Fraction:
    """The multinomial expansion of the coverage series, added one term at a time.

    Each multi-index k of the expansion of (1 - gamma_m)^ell contributes
    -coef * lam / (1 - lam) to E = 1 + sum_{m>=1} (1 - (1-gamma_m)^ell); the
    all-zero multi-index (ratio 1) cancels the leading 1 and is skipped.
    """
    if omega == 1:
        return Fraction(1)
    signed = [(-1) ** i * comb(omega, i) for i in range(omega)]
    ratios = [Fraction(omega - i, omega) for i in range(omega)]
    total = Fraction(1)
    for k in product(range(ell + 1), repeat=omega):
        if sum(k) != ell or k[0] == ell:
            continue
        coef = Fraction(math.factorial(ell))
        lam = Fraction(1)
        for k_i, a_i, l_i in zip(k, signed, ratios):
            coef /= math.factorial(k_i)
            coef *= a_i**k_i
            lam *= l_i**k_i
        total -= coef * lam / (1 - lam)
    return total


#: exact_expected_coverage truncates the series for lengths up to this.
MAX_EXACT_ELL = 2**21


@lru_cache(maxsize=None)
def surjection_cover_probabilities(omega: int) -> tuple[Decimal, ...]:
    """``1 - u_m = omega! S(m, omega) / omega^m`` for m = 0, 1, ..., to 60 decimal places.

    ``omega! S(m, omega)`` counts the surjections of m reads onto the omega
    symbols, in exact integers from surj_m(k) = k (surj_{m-1}(k) + surj_{m-1}(k-1)).
    The list runs until the union bound u_m <= omega ((omega-1)/omega)^m puts
    the series tail ``MAX_EXACT_ELL * omega^2 ((omega-1)/omega)^m`` below 1e-20.
    """
    reads = math.ceil(math.log(MAX_EXACT_ELL * omega**2 * 1e20) / -math.log1p(-1 / omega))
    surj = [1] + [0] * omega
    power = 1  # omega^m
    covers = []
    with localcontext() as ctx:
        ctx.prec = 70
        for _ in range(reads):
            covers.append(Decimal(surj[omega] * 10**60 // power).scaleb(-60))
            surj = [0] + [k * (surj[k] + surj[k - 1]) for k in range(1, omega + 1)]
            power *= omega
    return tuple(covers)


def exact_expected_coverage(ell: int, omega: int) -> Decimal:
    """``sum_m 1 - (1 - u_m)^ell`` from exact cover probabilities, each term in 50-digit decimal."""
    assert omega >= 2 and ell <= MAX_EXACT_ELL
    with localcontext() as ctx:
        ctx.prec = 50
        return sum((1 - c**ell for c in surjection_cover_probabilities(omega)), Decimal(0))


def partial_weight(m: int, r: int) -> int:
    """Weight of the maximum over m indices in the r-th smallest recovery time: (-1)^(m-r) C(m-1, r-1)."""
    return (-1) ** (m - r) * comb(m - 1, r - 1) if m >= r else 0


def exact_expected_coverage_partial(ell: int, omega: int, r: int) -> Fraction:
    """The r-th smallest of ell iid index recovery times as a signed sum of maxima, exactly.

    The max-min inclusion-exclusion identity for order statistics gives
    ``sum_{m=r..ell} (-1)^(m-r) C(m-1, r-1) C(ell, m) E(m, omega)``; each
    E(m, omega) is the rational expansion of the series.  No caps.
    """
    return sum(
        (partial_weight(m, r) * comb(ell, m) * expected_coverage_exact(m, omega) for m in range(r, ell + 1)),
        Fraction(0),
    )


def reference_multinomial(counts) -> int:
    """n! / (k_1! ... k_q!) as a product of binomials."""
    out, total = 1, 0
    for k in counts:
        total += k
        out *= comb(total, k)
    return out


def _check_same_q(q: int, counts) -> None:
    if len(counts) != q:
        raise ValueError(f"alphabet mismatch: q={q}, observation has q={len(counts)}")


def reference_rationals(probs) -> tuple[int, list[int]]:
    """``D``, the lcm of the denominators of ``probs`` taken as exact rationals (a float
    is the dyadic rational it holds), and each probability times ``D``."""
    exact = [Fraction(c) for c in probs]
    lcm = math.lcm(*(c.denominator for c in exact))
    return lcm, [c.numerator * (lcm // c.denominator) for c in exact]


def reference_weight(scaled, counts) -> int:
    """``C(n; k) * prod_i b_i**k_i``: a multinomial mass times ``D**n``, with 0**0 = 1."""
    return reference_multinomial(counts) * math.prod(b**k for b, k in zip(scaled, counts))


def reference_region_weight(scaled, points) -> int:
    """The sum of :func:`reference_weight` over ``points``, all of ``n`` reads.  Binary points
    are walked in order of their first count: the weight at ``(k + 1, n - k - 1)`` is the
    one at ``(k, n - k)`` times the exact ratio ``(n - k) * b_0 / ((k + 1) * b_1)``, which
    costs one short multiplication and division where ``reference_weight`` takes powers."""
    points = sorted(points)
    if len(scaled) != 2 or not scaled[1] or not points:
        return sum(reference_weight(scaled, point) for point in points)
    wanted, n, (k, _) = set(points), sum(points[0]), points[0]
    weight, total = reference_weight(scaled, points[0]), 0
    while True:
        total += weight if (k, n - k) in wanted else 0
        if k == points[-1][0]:
            return total
        weight = weight * (n - k) * scaled[0] // ((k + 1) * scaled[1])
        k += 1


def reference_prob_observed(symbol, counts) -> Fraction:
    """Probability that ``n = sum(counts)`` reads of ``symbol`` show exactly ``counts``.

    Multinomial mass ``C(n; k_1..k_q) * prod_i p_i^k_i`` with the convention
    0^0 = 1, as an exact ``Fraction``: each ``p_i`` weighs as ``Fraction(p_i)``,
    so a float symbol weighs exactly the rationals its floats hold.
    """
    _check_same_q(symbol.q, counts)
    lcm, scaled = reference_rationals(symbol.probs)
    return Fraction(reference_weight(scaled, counts), lcm ** sum(counts))


def reference_mld_decode(code, counts):
    """Maximum-likelihood decoding of one observation, its counts, symbol by symbol.

    Exact codes compare ``prod_i p_i**k_i`` as Fractions, the first strict
    maximum winning; float codes compare per-read log-likelihoods
    ``sum_i (k_i / n) log p_i`` over the letters with k_i > 0 (-inf off the
    support), the first symbol within ``TIE_TOLERANCE`` of the best winning.
    """
    _check_same_q(code.q, counts)
    n = sum(counts)
    if code.is_exact:
        best = None
        best_symbol = None
        for s in code.symbols:
            p = Fraction(1)
            for c, k in zip(s.probs, counts):
                if k:
                    p *= Fraction(c) ** k
            if best is None or p > best:
                best = p
                best_symbol = s
        return best_symbol
    lls = []
    for s in code.symbols:
        total = 0.0
        for c, k in zip(s.probs, counts):
            if k:
                c = float(c)
                if c == 0.0:
                    total = -math.inf
                    break
                total += (k / n) * math.log(c)
        lls.append(total)
    best = max(lls)
    return next(s for s, ll in zip(code.symbols, lls) if ll >= best - TIE_TOLERANCE)


def reference_evaluate_code(code, n, decoder=None):
    """evaluate_code as a loop over observations: decode each one (the decoder's
    overrides as a plain dict from counts to codewords, maximum likelihood elsewhere),
    and sum each symbol's exact masses over the points decoded to it.  Every success is
    an exact ``Fraction``: a float or mixed code's symbols weigh as the floats the float
    path holds (an exact entry rounded once), each mass an integer over ``D**n`` as in
    :func:`reference_prob_observed`."""
    if decoder is not None and (decoder.code != code or decoder.n != n):
        raise ValueError("decoder belongs to a different code or read count")
    overrides = {} if decoder is None else {k: code.symbols[i] for k, i in decoder.overrides}
    regions = {s: [] for s in code.symbols}
    for counts in enumerate_observed(n, code.q):
        regions[overrides.get(counts) or reference_mld_decode(code, counts)].append(counts)
    success = {}
    for s, points in regions.items():
        lcm, scaled = reference_rationals(s.probs if code.is_exact else map(float, s.probs))
        success[s] = Fraction(reference_region_weight(scaled, points), lcm**n)
    f_min = min(success.values())
    f_avg = sum(success.values()) / code.m
    return CodeEvaluation(per_symbol_success=success, f_min=f_min, f_avg=f_avg, n=n)


def float_path_bound(code, n: int) -> float:
    """``eps``, the relative bound ``evaluate_code`` states for a float or mixed code at ``n`` reads:
    ``(2q + 12) * (2 L + n * lam) * u + (P + 8) * u``, with ``L = lgamma(n + 1)``, ``lam`` the largest
    ``|log p|`` over the code's nonzero probabilities as floats, ``P`` the grid size and ``u = 2**-53``."""
    logs = [abs(math.log(float(c))) for s in code.symbols for c in s.probs if float(c) > 0.0]
    points = comb(n + code.q - 1, code.q - 1)
    return ((2 * code.q + 12) * (2 * math.lgamma(n + 1) + n * max(logs)) + points + 8) * 2.0**-53


def float_success_error(code, n: int, symbol, success: float, exact: Fraction) -> tuple[Fraction, Fraction]:
    """|success - exact| and the bound ``evaluate_code`` states for it: ``eps * min(H, M) + |s**n - 1| + u``,
    where ``H`` is the exact success, ``s`` the exact sum of the symbol's floats and ``M = s**n - H`` its exact miss."""
    total = sum(map(Fraction, map(float, symbol.probs))) ** n
    bound = Fraction(float_path_bound(code, n)) * min(exact, total - exact) + abs(total - 1) + Fraction(2.0**-53)
    return abs(Fraction(success) - exact), bound


def reference_reads_until(rng, ell: int, omega: int, r: int, k: int, cap: int) -> int | None:
    """The simulator's read loop as whole doubling blocks: every block's symbols
    are drawn at once, and every index is tracked until the trial stops; None
    when ``cap`` reads pass without stopping."""
    full = np.uint64((1 << omega) - 1)
    masks = np.zeros(ell, dtype=np.uint64)
    taken = 0
    block = _FIRST_BLOCK
    while taken < cap:
        rows = min(block, cap - taken)
        hits = np.arange(rows) if k == 1 else np.flatnonzero(rng.integers(0, k, size=rows) == 0)
        if hits.size:
            symbols = rng.integers(0, omega, size=(hits.size, ell), dtype=np.uint64)
            acc = np.bitwise_or.accumulate(np.left_shift(np.uint64(1), symbols), axis=0)
            np.bitwise_or(acc, masks, out=acc)
            done = np.flatnonzero((acc == full).sum(axis=1) >= r)
            if done.size:
                return taken + int(hits[done[0]]) + 1
            masks = acc[-1]
        taken += rows
        block = min(block * 2, _MAX_BLOCK)
    return None


def random_exact_symbol(rng: np.random.Generator, q: int, denom: int) -> CompositeSymbol:
    """A uniformly random grid distribution with the given denominator, as exact rationals."""
    cuts = sorted(rng.integers(0, denom + 1, size=q - 1).tolist()) if q > 1 else []
    counts = []
    prev = 0
    for c in cuts:
        counts.append(c - prev)
        prev = c
    counts.append(denom - prev)
    return CompositeSymbol(Fraction(k, denom) for k in counts)


def random_exact_code(rng: np.random.Generator, m: int, q: int, denom: int = 12) -> CompositeCode:
    """A random code of m distinct exact grid symbols."""
    symbols = set()
    while len(symbols) < m:
        symbols.add(random_exact_symbol(rng, q, denom))
    return CompositeCode(symbols)


def random_float_binary_code(rng: np.random.Generator, m: int) -> CompositeCode:
    """A random binary code with generic float values (no exact likelihood ties)."""
    values = set()
    while len(values) < m:
        values.add(float(rng.uniform(0.02, 0.98)))
    return CompositeCode.binary(sorted(values))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
