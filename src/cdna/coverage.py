"""Expected coverage depth of subset-symbol sequences: exact formulas and bounds.

The central quantity is the expected number of whole-sequence reads until every
index of a length-``ell`` sequence has shown all ``omega`` symbols of its
support.  Each read draws one symbol per index, uniformly from that index's
support, independently across indices and reads.

Three variants are covered: full recovery, recovery of at least ``r`` of the
``ell`` indices (as when an erasure code tolerates missing indices), and random
access to one labeled sequence out of ``k``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Optional

from .model import UnsupportedRangeError, _compositions

#: expected_coverage_partial refuses when C(ell, r) exceeds this.  The sum
#: itself has only ell closed-form weights, so the cap no longer bounds its
#: work; it keeps the accepted domain where it has always been, with the Monte
#: Carlo simulator as the supported path beyond it.
MAX_PARTIAL_SETS = 5000

#: Additional cap on ell for expected_coverage_partial: beyond this the
#: alternating sum loses float accuracy even when C(ell, r) is small.
MAX_PARTIAL_LENGTH = 40

#: expected_coverage_exact refuses when its term count C(ell+omega-1, omega-1)
#: exceeds this.  The result grows with the term count (599k bits at 4,186
#: terms, 6.5M bits at 19,900), and the gcds of the balanced sum grow with it:
#: on a 2-CPU x86-64 machine with Python 3.11, (90, 3) takes 0.4 s, (150, 3)
#: 9 s, and (198, 3), just under the cap, 46 s.  The float series is the
#: supported path beyond the cap.
MAX_EXACT_TERMS = 20_000


@dataclass(frozen=True)
class CoverageParams:
    """Parameters of a coverage-depth question.

    ``r`` (optional) is the partial-recovery threshold; ``k`` (optional) is the
    number of labeled sequences in the random-access setup.
    """

    ell: int
    omega: int
    r: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if self.r is not None and not 1 <= self.r <= self.ell:
            raise ValueError(f"r must satisfy 1 <= r <= ell, got r={self.r}, ell={self.ell}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class BoundPair:
    """A lower/upper bound pair with lower <= upper."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def miss_probability(support_size: int, draws: int) -> float:
    """Probability that ``draws`` uniform picks from a ``support_size``-set miss some element.

    Inclusion-exclusion over the set of missed elements:

        sum_{i=1..w} C(w, i) (-1)^(i+1) ((w-i)/w)^m

    with the convention 0^0 = 1, so zero draws miss with probability 1.
    """
    w, m = support_size, draws
    if w < 1:
        raise ValueError(f"support size must be >= 1, got {w}")
    if m < 0:
        raise ValueError(f"draw count must be >= 0, got {m}")
    coefs, bases = _series_row(w)
    total = 0.0
    for coef, base in zip(coefs, bases):
        total += coef * base**m
    # Alternating cancellation can leave tiny out-of-range noise.
    return min(1.0, max(0.0, total))


@lru_cache(maxsize=64, typed=True)
def _series_row(w: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients C(w, i) (-1)^(i+1) and bases (w-i)/w of miss_probability, i = 1..w.

    Converting each coefficient to float here rounds it exactly as the product
    ``int * float`` does, so the series keeps its bits; a coefficient too large
    for a float raises the same OverflowError.
    """
    coefs = tuple(float(comb(w, i) * (-1) ** (i + 1)) for i in range(1, w + 1))
    bases = tuple((w - i) / w for i in range(1, w + 1))
    return coefs, bases


def expected_coverage(ell: int, omega: int, tol: float = 1e-12) -> float:
    """Expected reads to recover a length-``ell`` sequence of ``omega``-subset symbols.

    Evaluates the tail-sum series ``sum_{m>=0} 1 - (1 - gamma_m)^ell`` where
    ``gamma_m = miss_probability(omega, m)``.  Truncation is rigorous: the union
    bound gamma_m <= omega ((omega-1)/omega)^m makes the tail beyond m at most
    ``ell * omega^2 * ((omega-1)/omega)^m``, and summation stops only once that
    bound drops below ``tol`` and m has passed the point m* where per-term
    geometric decay is guaranteed.  The returned value is within ``tol`` of the
    true series.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if omega == 1:
        # A single read covers a singleton support at every index.
        return 1.0
    ratio = (omega - 1) / omega
    # Smallest m with ell * omega * ratio^m <= 1; terms decay geometrically after it.
    m_star = max(0, math.ceil(math.log(omega * ell) / math.log(omega / (omega - 1))))
    total = 0.0
    m = 0
    while True:
        g = miss_probability(omega, m)
        if g >= 1.0:
            term = 1.0
        else:
            term = -math.expm1(ell * math.log1p(-g))
        total += term
        m += 1
        if m > m_star and ell * omega * omega * ratio**m < tol:
            return total


@lru_cache(maxsize=64)
def expected_coverage_exact(ell: int, omega: int) -> Fraction:
    """Exact rational value of the coverage-depth series.

    For m >= 1 the cover probability 1 - gamma_m is a signed sum of geometric
    terms ((omega-i)/omega)^m, so (1 - gamma_m)^ell expands multinomially into
    finitely many geometric sequences whose tail sums are rational.  The
    expansion has C(ell+omega-1, omega-1) terms; requests beyond
    ``MAX_EXACT_TERMS`` are refused (use the float series instead).

    The terms are summed as unreduced integer pairs in a balanced tree, and the
    result is reduced once at the root.
    """
    if ell < 1 or omega < 1:
        raise ValueError("need ell >= 1 and omega >= 1")
    if omega == 1:
        return Fraction(1)
    n_terms = comb(ell + omega - 1, omega - 1)
    if n_terms > MAX_EXACT_TERMS:
        raise UnsupportedRangeError(
            f"exact expansion needs {n_terms} terms (cap {MAX_EXACT_TERMS}); use expected_coverage"
        )
    # E = 1 + sum_{m>=1} (1 - (1-gamma_m)^ell); the all-zero multi-index term
    # (coefficient 1, ratio 1) cancels the leading 1 of each summand.
    num, den = _balanced_sum(_exact_terms(ell, omega))
    return Fraction(num + den, den)


def _exact_terms(ell: int, omega: int) -> Iterator[tuple[int, int]]:
    """The expansion's terms other than the all-zero one, as pairs (numerator, denominator).

    The multi-index k = (k_0, ..., k_{omega-1}) contributes
    -coef * lam / (1 - lam) with the multinomial coefficient
    coef = ell! / prod k_i! * prod ((-1)^i C(omega, i))^k_i and the ratio
    lam = prod ((omega-i)/omega)^k_i = N / omega^s, where
    N = prod_{i>=1} (omega-i)^k_i and s = ell - k_0.  So the term is
    -coef * N / (omega^s - N), with a positive denominator since s >= 1.
    """
    factorial = [math.factorial(i) for i in range(ell + 1)]
    signed = [(-1) ** i * comb(omega, i) for i in range(omega)]
    for k in _compositions(ell, omega):
        s = ell - k[0]
        if s == 0:
            continue
        coef = factorial[ell] // math.prod(factorial[k_i] for k_i in k)
        n = 1
        for i in range(1, omega):
            coef *= signed[i] ** k[i]
            n *= (omega - i) ** k[i]
        yield -coef * n, omega**s - n


def _balanced_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of the fractions num/den of a nonempty stream, as an unreduced pair.

    Pairs merge like a binary counter: only sums of equally many terms are
    added, over the lcm of their denominators, so the operands of each
    addition have similar size and at most log2(terms) partial sums are live.
    """
    stack: list[tuple[int, int, int]] = []  # (level, num, den); 2^level terms each
    for num, den in pairs:
        level = 0
        while stack and stack[-1][0] == level:
            _, num_2, den_2 = stack.pop()
            num, den = _add_fractions(num_2, den_2, num, den)
            level += 1
        stack.append((level, num, den))
    _, num, den = stack.pop()
    while stack:  # the tail: partial sums of different sizes, smallest first
        _, num_2, den_2 = stack.pop()
        num, den = _add_fractions(num_2, den_2, num, den)
    return num, den


def _add_fractions(num_1: int, den_1: int, num_2: int, den_2: int) -> tuple[int, int]:
    """num_1/den_1 + num_2/den_2 over lcm(den_1, den_2), unreduced."""
    g = math.gcd(den_1, den_2)
    return num_1 * (den_2 // g) + num_2 * (den_1 // g), den_1 // g * den_2


def expected_coverage_closed_pairs(ell: int) -> float:
    """Closed form for support size 2: ``2 + sum_{r=1..ell} C(ell,r) (-1)^(r+1) / (2^r - 1)``.

    The alternating binomial sum is evaluated in exact rational arithmetic
    because float evaluation cancels catastrophically once ell approaches 50.
    Lengths beyond 64 are refused; use :func:`expected_coverage`, whose series
    is numerically benign at any length.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if ell > 64:
        raise UnsupportedRangeError(
            f"closed form supported for ell <= 64 (got {ell}); use expected_coverage(ell, 2)"
        )
    total = Fraction(2)
    for r in range(1, ell + 1):
        total += Fraction(comb(ell, r) * (-1) ** (r + 1), 2**r - 1)
    return float(total)


def coverage_bounds(ell: int, omega: int) -> BoundPair:
    """Analytic lower/upper bounds on expected_coverage(ell, omega).

    For omega == 2 the specialized pair

        1 + log2(ell) + 1/(ell ln 2)  <=  E  <=  2 + log2(ell) + 1/ln 2

    is tighter than the general one on both sides, so it is returned.  For
    omega >= 3 the general bounds apply, with d = log2(omega/(omega-1)):

        log2(ell)/d + log2(e)/(ell d)  <=  E  <=  1 + log2(omega*ell)/d + omega.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if omega < 2:
        raise ValueError(f"bounds are stated for omega >= 2, got {omega}")
    if omega == 2:
        lower = 1.0 + math.log2(ell) + 1.0 / (ell * math.log(2))
        upper = 2.0 + math.log2(ell) + 1.0 / math.log(2)
    else:
        d = math.log2(omega / (omega - 1))
        lower = math.log2(ell) / d + math.log2(math.e) / (ell * d)
        upper = 1.0 + math.log2(omega * ell) / d + omega
    return BoundPair(lower, upper)


def covering_family_count(m: int, r: int, j: int) -> int:
    """Number of j-element sets of distinct r-subsets of an m-set covering the whole set.

    Standard inclusion-exclusion over the elements left uncovered:

        sum_{i=0..m} (-1)^i C(m, i) C(C(m-i, r), j)

    Exact integer arithmetic throughout; validated against brute-force subset
    enumeration in the test suite.
    """
    if m < 1 or r < 1 or j < 1:
        raise ValueError(f"need m, r, j >= 1, got m={m}, r={r}, j={j}")
    return sum((-1) ** i * comb(m, i) * comb(comb(m - i, r), j) for i in range(m + 1))


def _order_statistic_weight(m: int, r: int) -> int:
    """Signed covering-family sum of m indices for threshold r: (-1)^(m-r) C(m-1, r-1), 0 below r."""
    return (-1) ** (m - r) * comb(m - 1, r - 1) if m >= r else 0


def expected_coverage_partial(ell: int, omega: int, r: int, tol: float = 1e-12) -> float:
    """Expected reads until at least ``r`` of the ``ell`` indices are recovered.

    The r-th smallest of the ``ell`` index recovery times is a signed sum of
    maxima over index sets (the max-min inclusion-exclusion identity for order
    statistics), and the maximum over m indices has mean E(m, omega):

        sum_{m=r..ell} (-1)^(m-r) C(m-1, r-1) C(ell, m) E(m, omega)

    The weight (-1)^(m-r) C(m-1, r-1) is the closed form of the signed
    covering-family sum sum_{j>=1} (-1)^(j+1) covering_family_count(m, r, j)
    of inclusion-exclusion over j-element families of r-index targets: the
    j-sum collapses to sum_{i=0..m-r} (-1)^i C(m, i).  The integer weights
    alternate and grow like C(ell, m), so whenever the rational expansion of
    E(m, omega) is feasible the whole sum is evaluated exactly, which sidesteps
    the float cancellation.  When the expansion is infeasible (large omega) a
    float fallback is used, but only if its worst-case cancellation stays below
    max(tol, 1e-9); pass a looser ``tol`` to accept the correspondingly looser
    guarantee.

    Refused when C(ell, r) > ``MAX_PARTIAL_SETS``, when ell >
    ``MAX_PARTIAL_LENGTH``, or when no path can meet the tolerance; the Monte
    Carlo simulator is the supported path there.
    """
    if ell < 1 or omega < 1:
        raise ValueError("need ell >= 1 and omega >= 1")
    if not 1 <= r <= ell:
        raise ValueError(f"r must satisfy 1 <= r <= ell, got r={r}, ell={ell}")
    n_families = comb(ell, r)
    if n_families > MAX_PARTIAL_SETS:
        raise UnsupportedRangeError(
            f"C(ell={ell}, r={r}) = {n_families} exceeds the cap {MAX_PARTIAL_SETS}; "
            "estimate with the simulator instead"
        )
    if ell > MAX_PARTIAL_LENGTH:
        raise UnsupportedRangeError(
            f"ell = {ell} exceeds the cap {MAX_PARTIAL_LENGTH} for the exact partial-recovery sum; "
            "estimate with the simulator instead"
        )
    weights = [comb(ell, m) * _order_statistic_weight(m, r) for m in range(1, ell + 1)]

    if omega == 1 or comb(ell + omega - 1, omega - 1) <= MAX_EXACT_TERMS:
        total = Fraction(0)
        for m, weight in enumerate(weights, start=1):
            if weight:
                total += weight * expected_coverage_exact(m, omega)
        return float(total)
    # Rational expansion infeasible (large omega): fall back to the float
    # series, refusing when the alternating weights would amplify float
    # rounding beyond the requested tolerance.
    scale = sum(abs(w) for w in weights) or 1
    rounding = scale * coverage_bounds(ell, omega).upper * 1e-15
    if rounding > max(tol, 1e-9):
        raise UnsupportedRangeError(
            f"float evaluation would carry ~{rounding:.1e} cancellation error at "
            f"ell={ell}, omega={omega}; estimate with the simulator instead"
        )
    term_tol = min(tol, 1e-12) / scale
    return math.fsum(
        weight * expected_coverage(m, omega, term_tol)
        for m, weight in enumerate(weights, start=1)
        if weight
    )


def random_access_expectation(ell: int, omega: int, k: int) -> float:
    """Expected reads to recover one target sequence among k uniformly sampled ones.

    Uniform sampling with labels multiplies the single-sequence expectation by
    exactly k: ``k * expected_coverage(ell, omega)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k * expected_coverage(ell, omega)
