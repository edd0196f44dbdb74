"""Expected coverage depth of subset-symbol sequences: exact formulas and bounds.

The central quantity is the expected number of whole-sequence reads until every
index of a length-``ell`` sequence has shown all ``omega`` symbols of its
support.  Each read draws one symbol per index, uniformly from that index's
support, independently across indices and reads.

Three variants are covered: full recovery, recovery of at least ``r`` of the
``ell`` indices (as when an erasure code tolerates missing indices), and random
access to one labeled sequence out of ``k``.

All three read one kernel, the covered-count chain of a single index
(:func:`_chain`); a question whose predicted work exceeds ``MAX_CHAIN_WORK``
is refused with ``UnsupportedRangeError`` before any work.

The chain depends on ``omega`` alone, so each process keeps what it walked
per support size (:class:`_Walk`): ``u_m`` and ``f_m`` of every read some
admitted request has needed, and no further, and ``R_m`` where a request asked
for it.  A later question at the same ``omega`` reads those floats and walks on
only past them; one that needs ``R_m`` at a read walked without it walks again
from read 0, as it would alone.  The answers are the same floats whichever
questions came before.  The last ``_WALKS_KEPT`` support sizes asked are kept;
each entry is bounded (see :class:`_Walk`), and each walks under its own lock,
so the functions here are safe to call from many threads.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .model import UnsupportedRangeError, _compositions, _integer

#: Truncation tolerance of the float series when the caller gives none.
DEFAULT_TOL = 1e-12

#: Cap on a chain question's predicted work: reads, from the union bound u_m <=
#: omega ((omega-1)/omega)^m, times states and binomial terms per read.  The cap
#: holds per request, walked or not.  Near the cap, on a 2-CPU x86-64 machine
#: with Python 3.11, binomial terms take about 2 s (expected_coverage_partial(
#: 2 * 10**6, 2, 1_500_000), 9e6 steps) and a walk about 0.35 s
#: (miss_probability(1000, 9000), 9e6 steps); the walk is paid once per omega
#: and process (see _Walk).  Beyond the cap, use the simulator.
MAX_CHAIN_WORK = 10_000_000

#: expected_coverage_exact refuses when its term count C(ell+omega-1, omega-1)
#: exceeds this.  The result grows with the term count (599k bits at 4,186
#: terms, 6.5M bits at 19,900), and the gcds of the balanced sum grow with it:
#: on a 2-CPU x86-64 machine with Python 3.11, (90, 3) takes 0.17 s, (150, 3)
#: 2.2 s, and (198, 3), just under the cap, 14 s.  expected_coverage is the
#: supported path beyond the cap.
MAX_EXACT_TERMS = 20_000

#: Terms expected_coverage_exact sums as unreduced integer pairs before it
#: reduces them into one Fraction.  Smaller blocks spend more gcds where few
#: factors are shared, larger ones reduce larger sums.  On a 2-CPU x86-64
#: machine with Python 3.11, one-term blocks (a Fraction sum alone) took
#: 0.114 s at (10, 7) and 0.155 s at (40, 4), against 0.081 and 0.105 s here;
#: 1,024-term blocks took 0.249 s at (90, 3) and 1.23 s at (120, 3), against
#: 0.186 and 1.02 s here.  Sizes 16 to 256 measured within noise of 64.
_EXACT_BLOCK = 64

#: log of the smallest normal float; the chain drops states below it.
_LOG_NORMAL_MIN = math.log(sys.float_info.min)

#: Support sizes whose walks are kept; asking a new one beyond this drops the
#: least recently asked.
_WALKS_KEPT = 8

_T = TypeVar("_T")


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
        object.__setattr__(self, "ell", _integer("ell", self.ell, 1))
        object.__setattr__(self, "omega", _integer("omega", self.omega, 1))
        if self.r is not None:
            object.__setattr__(self, "r", _integer("r", self.r, 1))
            if self.r > self.ell:
                raise ValueError(f"r must satisfy 1 <= r <= ell, got r={self.r}, ell={self.ell}")
        if self.k is not None:
            object.__setattr__(self, "k", _integer("k", self.k, 1))


@dataclass(frozen=True)
class BoundPair:
    """A lower/upper bound pair with lower <= upper."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def miss_probability(support_size: int, draws: int) -> float:
    """Probability that ``draws`` uniform picks from a ``support_size``-set miss some element.

    The chain's ``u_m`` after ``m`` reads, at O(w) per read not yet walked (see
    :class:`_Walk`).  Fewer than ``w`` draws always miss; once the union bound is
    below the normal floats, 0.0.
    """
    w = _integer("support size", support_size, 1)
    m = _integer("draw count", draws, 0)
    if m < w:
        return 1.0
    if w == 1 or m > _reads_until(w, _LOG_NORMAL_MIN):
        return 0.0
    _check_work(m, w)
    walk = _walk(w)
    walk.extend(m + 1)
    return walk.uncovered[m]


def _chain(w: int) -> Iterator[tuple[float, float, list[float]]]:
    """Covered-count chain of one index with support ``w`` >= 2 (Flajolet, Gardy and
    Thimonier, 1992): a read moves c covered symbols to c+1 with probability (w-c)/w.

    Yields ``(u_m, f_m, states)`` for m = 0, 1, ...: ``states`` holds the top counts c < w,
    ``u_m`` (uncovered) is their sum and ``f_m`` the full state, all sums of positive
    products.  Bottom states below the smallest normal float leave the list (w * 2.3e-308
    of mass at most): subnormals are ten times as slow, and times c/w > 1/2 never reach 0.
    """
    stay = [c / w for c in range(w)]
    enter = [0.0] + [(w - c) / w for c in range(w - 1)]  # enter[c]: from c-1 into c
    states, full, normal_min = [1.0] + [0.0] * (w - 1), 0.0, sys.float_info.min
    while True:  # stay and enter are aligned with states at their top ends
        yield sum(states), full, states
        full += states[-1] / w
        states = [p * s + q * t for p, s, q, t in zip(states, stay, [0.0] + states, enter)]
        if states[0] < normal_min and len(states) > 1:
            while len(states) > 1 and states[0] < normal_min:
                del states[0]
            stay, enter = stay[-len(states) :], enter[-len(states) :]


class _Walk:
    """The chain of one support size ``w`` >= 2, walked as far as admitted requests needed.

    ``uncovered`` and ``full`` hold ``u_m`` and ``f_m`` of every read walked, and
    ``rest`` holds ``R_m = sum_{j>=m} u_j`` of the reads where some request asked
    for it (:meth:`remaining`), NaN elsewhere: ``R_m`` costs an exact sum over the
    states, which most reads never need.  A cursor keeps one read's states; it
    walks on to a later read, or from read 0 again to an earlier one, so each
    request costs at most the walk it would cost alone.  Only the locked methods
    write; ``rest`` grows last and no stored float ever moves, so a reader indexes
    below ``len(rest)`` without the lock.  If a walk is interrupted, what it stored
    stays and the cursor starts again from read 0.

    Size: with L reads stored, at most ``24 (17/16) L + 200 w + 4096`` bytes: three
    doubles per read, which ``array`` over-allocates by at most 1/16, then the
    chain's O(w) lists of floats and a fixed part.  An admitted request reads at
    most ``MAX_CHAIN_WORK / w`` reads (its ``_check_work``), and at most
    ``N_w = _reads_until(w, _LOG_NORMAL_MIN)``, about ``w (709 + ln w)`` reads,
    plus one on a stop rule that misses by a rounding error.  So an entry holds
    ``L <= min(MAX_CHAIN_WORK / w, N_w + 1) + 1`` reads.  The two limits meet at
    w = 119, where L <= 84,034 reads, or 2.2 MB at the default cap; the
    ``_WALKS_KEPT`` entries together stay below 18 MB.
    """

    def __init__(self, w: int):
        self.uncovered, self.full, self.rest = array("d"), array("d"), array("d")
        self._w = w
        self._harmonic = list(accumulate((1 / i for i in range(1, w + 1)), initial=0.0))[::-1]  # H_w..H_0
        self._cursor: Optional[tuple[int, list[float], Iterator]] = None  # read m, its states, the chain after it
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """``(u_m, f_m)`` for m = 0, 1, ..., walking one read on past the stored ones."""
        uncovered, full = self.uncovered, self.full
        m = 0
        while True:
            if m == len(self.rest):
                self.extend(m + 1)
            yield uncovered[m], full[m]
            m += 1

    def extend(self, reads: int) -> None:
        """Walk on until at least ``reads`` reads are stored."""
        with self._lock:
            if len(self.rest) < reads:
                self._seek(reads - 1)

    def remaining(self, m: int) -> float:
        """``R_m`` of a stored read ``m``: count c is ``w H_{w-c}`` reads from full."""
        rest = self.rest[m]
        if math.isnan(rest):
            with self._lock:
                if math.isnan(rest := self.rest[m]):
                    states = self._seek(m)
                    rest = self._w * math.fsum(p * h for p, h in zip(states, self._harmonic[self._w - len(states) :]))
                    self.rest[m] = rest
        return rest

    def _seek(self, m: int) -> list[float]:
        """The states at read ``m``, storing ``u`` and ``f`` of each read first walked on the way."""
        index, states, chain = self._cursor or (-1, [], _chain(self._w))
        if index > m:
            index, chain = -1, _chain(self._w)
        self._cursor = None  # until the walk below is done
        stored = len(self.rest)
        try:
            for _, _, states in islice(chain, max(0, min(m + 1, stored) - index - 1)):
                pass  # stored reads: only their states are needed
            index = max(index, min(m, stored - 1))
            store_u, store_f = self.uncovered.append, self.full.append
            for uncovered, full, states in islice(chain, m - index):
                store_u(uncovered)
                store_f(full)
            self.rest.extend(repeat(math.nan, len(self.full) - stored))  # last: a read is stored once its rest is
        except BaseException:
            del self.uncovered[len(self.rest) :], self.full[len(self.rest) :]
            raise
        self._cursor = m, states, chain
        return states


#: The kept walks, least recently asked dropped first.  Two threads asking a new
#: support size at once may each build a walk; both give the same floats.
_walk = functools.lru_cache(maxsize=_WALKS_KEPT)(_Walk)


def _reads_until(w: int, log_bound: float) -> int:
    """Reads until the union bound ``w ((w-1)/w)^m`` on u_m is ``exp(log_bound)``; refused below normal floats."""
    if log_bound < _LOG_NORMAL_MIN:
        raise UnsupportedRangeError("the stop rule needs probabilities below the normal floats; raise tol or lower ell")
    return max(0, math.ceil((math.log(w) - log_bound) / -math.log1p(-1 / w)))


def _reads_above(w: int, log_bound: float) -> int:
    """Reads at which ``u_m >= ((w-1)/w)^m`` is still above ``exp(log_bound)``, less one for rounding."""
    return max(0, math.floor(log_bound / math.log1p(-1 / w)) - 1)


def _check_float_range(value: int, name: str = "ell") -> None:
    if value > sys.float_info.max:
        raise UnsupportedRangeError(f"{name} beyond the float range (1.8e308) is not supported")


def _check_work(reads: int, per_read: int) -> None:
    if (work := (reads + 1) * per_read) > MAX_CHAIN_WORK:
        raise UnsupportedRangeError(f"{work:.3g} chain steps exceed the cap {MAX_CHAIN_WORK}; use the simulator")


def _truncation_target(tol: float, omega: int) -> float:
    """Truncation error a chain sum settles to: ``tol``, but at most ``omega * 2^-53``,
    below the float resolution of every answer (each is at least omega reads)."""
    if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return min(tol, omega * 2.0**-53)


def expected_coverage(ell: int, omega: int, tol: float = DEFAULT_TOL) -> float:
    """Expected reads to recover a length-``ell`` sequence of ``omega``-subset symbols.

    Sums ``1 - (1 - u_m)^ell`` over the chain, as ``-expm1(ell * log1p(-u_m))``
    or via ``log f_m`` while ``u_m >= 1/2``.  The terms from m on sum to
    ``ell * R_m`` within ``C(ell, 2) * u_m * R_m`` (Bonferroni); summation stops
    once that is within ``min(tol, omega 2^-53)`` and adds ``ell * R_m``.  ``ell = 1`` is
    ``omega * H_omega``, one O(omega) pass; otherwise each read costs O(omega),
    over about ``omega * (log omega + log(ell^2 omega / tol) / 2)`` reads, walked
    once per omega (see :class:`_Walk`).
    """
    ell, omega = _integer("ell", ell, 1), _integer("omega", omega, 1)
    log_target = math.log(_truncation_target(tol, omega))
    if ell == 1 or omega == 1:  # one index, or one read covers a singleton support at every index
        _check_work(0, omega)
        return omega * math.fsum(1 / i for i in range(1, omega + 1))
    log_pairs = math.log(ell) + math.log(ell - 1) - math.log(2)
    # stop rule under u_m <= U_m and R_m <= omega H_omega u_m <= omega (1 + log omega) U_m
    log_omega = math.log(omega)
    log_scale = log_pairs + math.log(omega * (1 + log_omega))
    _check_work(_reads_until(omega, (log_target - log_scale) / 2), omega)
    terms = []
    walk = _walk(omega)
    walk.extend(_reads_above(omega, (log_target - log_pairs - log_omega) / 2))  # reads before the test can hold
    for m, (uncovered, full) in enumerate(walk):
        # R_m >= omega * u_m, so the stop rule cannot hold before this does.
        if log_pairs + 2 * math.log(uncovered) + log_omega <= log_target:
            rest = walk.remaining(m)
            if log_pairs + math.log(uncovered) + math.log(rest) <= log_target:
                return math.fsum(terms) + ell * rest
        log_cover = math.log1p(-uncovered) if uncovered < 0.5 else math.log(full) if full else -math.inf
        terms.append(-math.expm1(ell * log_cover))


def expected_coverage_exact(ell: int, omega: int) -> Fraction:
    """Exact rational value of the coverage-depth series.

    For m >= 1 the cover probability 1 - gamma_m is a signed sum of geometric
    terms ((omega-i)/omega)^m, so (1 - gamma_m)^ell expands multinomially into
    finitely many geometric sequences whose tail sums are rational.  The
    expansion has C(ell+omega-1, omega-1) terms; requests beyond
    ``MAX_EXACT_TERMS`` are refused (use expected_coverage instead).

    The terms come family by family (see :func:`_exact_terms`).  Each run of
    ``_EXACT_BLOCK`` terms is summed as unreduced integer pairs and reduced
    once; the blocks' reduced fractions are then added in a balanced tree by
    ``Fraction.__add__`` (Henrici's addition: gcds of the denominators only,
    and a reduced sum), so no gcd ever runs on the full-size result.
    """
    ell, omega = _integer("ell", ell, 1), _integer("omega", omega, 1)
    if omega == 1:
        return Fraction(1)
    n_terms = comb(ell + omega - 1, omega - 1)
    if n_terms > MAX_EXACT_TERMS:
        raise UnsupportedRangeError(
            f"exact expansion needs {n_terms} terms (cap {MAX_EXACT_TERMS}); use expected_coverage"
        )
    terms = _exact_terms(ell, omega)
    blocks = iter(lambda: list(islice(terms, _EXACT_BLOCK)), [])
    # E = 1 + sum_{m>=1} (1 - (1-gamma_m)^ell); the all-zero multi-index term
    # (coefficient 1, ratio 1) cancels the leading 1 of each summand.
    return 1 + _balanced_sum((Fraction(*_balanced_sum(block, _add_pairs)) for block in blocks), operator.add)


def _exact_terms(ell: int, omega: int) -> Iterator[tuple[int, int]]:
    """The expansion's terms other than the all-zero one, as pairs (numerator, denominator).

    The multi-index k = (k_0, ..., k_{omega-1}) contributes
    -coef * lam / (1 - lam) with the multinomial coefficient
    coef = ell! / prod k_i! * prod ((-1)^i C(omega, i))^k_i and the ratio
    lam = prod ((omega-i)/omega)^k_i = N / omega^s, where
    N = prod_{i>=1} (omega-i)^k_i and s = ell - k_0.  So the term is
    -coef * N / (omega^s - N), with a positive denominator since s >= 1.

    The terms come family by family.  A direction k' = (k_1, ..., k_{omega-1})
    is primitive when its entries have gcd 1; each nonzero (k_1, ...) is
    t * k' for exactly one primitive k' and t >= 1.  The primitive directions
    come in lexicographic order, each followed at once by its multiples t * k'
    from t = ell // |k'| down to 1.  The ratio of t * k' is lam'^t, so with
    s' = |k'| and N' the N of k', the denominator omega^(t s') - N'^t is
    divisible by omega^s' - N': a family's shared factors meet in the first
    additions of the sum, while the partial sums are still small.
    """
    factorial = [math.factorial(i) for i in range(ell + 1)]
    signed = [(-1) ** i * comb(omega, i) for i in range(1, omega)]
    bases = range(omega - 1, 0, -1)  # omega - i for i >= 1
    powers = [omega**s for s in range(ell + 1)]
    for *direction, k_0 in _compositions(ell, omega):
        if math.gcd(*direction) != 1:
            continue  # the zero vector, or a multiple of a smaller direction
        s = ell - k_0
        sign = math.prod(map(pow, signed, direction))
        n = math.prod(map(pow, bases, direction))
        for t in range(ell // s, 0, -1):
            coef = factorial[ell] // factorial[ell - t * s]
            for k_i in direction:
                if k_i:
                    coef //= factorial[t * k_i]
            n_t = n**t
            yield -coef * sign**t * n_t, powers[t * s] - n_t


def _balanced_sum(terms: Iterable[_T], add: Callable[[_T, _T], _T]) -> _T:
    """Sum of a nonempty stream of terms under ``add``.

    Terms merge like a binary counter: only sums of equally many terms are
    added, so the operands of each addition have similar size and at most
    log2(terms) partial sums are live.
    """
    stack: list[tuple[int, _T]] = []  # (level, sum of 2^level terms)
    for term in terms:
        level = 0
        while stack and stack[-1][0] == level:
            term = add(stack.pop()[1], term)
            level += 1
        stack.append((level, term))
    _, total = stack.pop()
    while stack:  # the tail: partial sums of different sizes, smallest first
        total = add(stack.pop()[1], total)
    return total


def _add_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """num_1/den_1 + num_2/den_2 over lcm(den_1, den_2), unreduced."""
    (num_1, den_1), (num_2, den_2) = a, b
    g = math.gcd(den_1, den_2)
    return num_1 * (den_2 // g) + num_2 * (den_1 // g), den_1 // g * den_2


def expected_coverage_closed_pairs(ell: int) -> float:
    """Closed form for support size 2: ``2 + sum_{r=1..ell} C(ell,r) (-1)^(r+1) / (2^r - 1)``.

    The alternating binomial sum is evaluated in exact rational arithmetic
    because float evaluation cancels catastrophically once ell approaches 50.
    Lengths beyond 64 are refused; use :func:`expected_coverage`, whose series
    is numerically benign at any length.
    """
    if (ell := _integer("ell", ell, 1)) > 64:
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

    ``d`` is computed as ``-log1p(-1/omega) / ln 2``, which keeps its digits
    at any omega.  An omega whose upper bound is not a finite float (from
    about 2.5e305 on) is refused with ``UnsupportedRangeError``.
    """
    ell, omega = _integer("ell", ell, 1), _integer("omega", omega, 1)
    if omega < 2:
        raise ValueError(f"bounds are stated for omega >= 2, got {omega}")
    _check_float_range(ell)
    _check_float_range(omega, "omega")
    if omega == 2:
        lower = 1.0 + math.log2(ell) + 1.0 / (ell * math.log(2))
        upper = 2.0 + math.log2(ell) + 1.0 / math.log(2)
    else:
        d = -math.log1p(-1 / omega) / math.log(2)
        lower = math.log2(ell) / d + math.log2(math.e) / (ell * d)
        upper = 1.0 + math.log2(omega * ell) / d + omega
        if not math.isfinite(upper):
            raise UnsupportedRangeError(f"the upper bound at omega={omega:.3g} is beyond the float range")
    return BoundPair(lower, upper)


def expected_coverage_partial(ell: int, omega: int, r: int, tol: float = DEFAULT_TOL) -> float:
    """Expected reads until at least ``r`` of the ``ell`` indices are recovered.

    Sums over the chain the probability ``P[Bin(ell, f_m) <= r-1]`` that fewer
    than r indices are covered, as positive binomial terms in log space.  Then
    some k = ell - r + 1 indices are uncovered, so by a union bound over
    k-sets the terms from m on sum to at most ``C(ell, k) u_m^(k-1) R_m``; summation
    stops once that is within ``min(tol, omega 2^-53)``.  Each read costs O(omega + r).
    ``r = ell`` is full recovery, answered by :func:`expected_coverage`.
    """
    ell, omega = _integer("ell", ell, 1), _integer("omega", omega, 1)
    if (r := _integer("r", r, 1)) > ell:
        raise ValueError(f"r must satisfy 1 <= r <= ell, got r={r}, ell={ell}")
    log_target = math.log(_truncation_target(tol, omega))
    if r == ell or omega == 1:  # full recovery, or one read covers every index
        return expected_coverage(ell, omega, tol)
    _check_float_range(ell)
    k = ell - r + 1
    # log C(ell, k) = log C(ell, r-1): by lgamma to predict the work, then as a sum of logs
    log_sets = math.lgamma(ell + 1) - math.lgamma(k + 1) - math.lgamma(r)
    log_omega = math.log(omega)
    log_scale = log_sets + math.log(omega * (1 + log_omega))  # as in expected_coverage
    _check_work(_reads_until(omega, (log_target - log_scale) / k), omega + r)
    log_choose = list(accumulate((math.log((ell - j) / (j + 1)) for j in range(r - 1)), initial=0.0))
    log_sets = log_choose[-1]
    terms = []
    walk = _walk(omega)
    walk.extend(_reads_above(omega, (log_target - log_sets - log_omega) / k))  # reads before the test can hold
    for m, (uncovered, full) in enumerate(walk):
        if full == 0.0:  # under omega reads, or a chance below the float range
            terms.append(1.0)
            continue
        log_u = math.log1p(-full) if full < 0.5 else math.log(uncovered)
        log_f = math.log1p(-uncovered) if uncovered < 0.5 else math.log(full)
        # R_m >= omega * u_m, so the stop rule cannot hold before this does.
        if log_sets + k * log_u + log_omega <= log_target:
            rest = walk.remaining(m)
            if log_sets + (k - 1) * log_u + math.log(rest) <= log_target:
                return math.fsum(terms)
        terms.append(math.fsum(math.exp(c + j * log_f + (ell - j) * log_u) for j, c in enumerate(log_choose)))


def random_access_expectation(ell: int, omega: int, k: int) -> float:
    """Expected reads to recover one target sequence among k uniformly sampled ones.

    Uniform sampling with labels multiplies the single-sequence expectation by
    exactly k: ``k * expected_coverage(ell, omega)``.  A ``k`` for which that
    product is not a finite float is refused with ``UnsupportedRangeError``.
    """
    k = _integer("k", k, 1)
    single = expected_coverage(ell, omega)
    try:
        value = k * single
    except OverflowError:  # an int k beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise UnsupportedRangeError(
            f"k * E(ell={ell}, omega={omega}) = k * {single!r} exceeds the largest float {sys.float_info.max!r}"
        )
    return value
