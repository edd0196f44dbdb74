"""Composite codes, maximum-likelihood decoding, and exact success probabilities.

A code is a finite set of composite symbols over one base alphabet.  The
decoder sees only the empirical distribution of ``n`` reads; its success
probability per symbol is computed exactly by enumerating every observed
distribution and summing multinomial masses over decoding regions.

Codes built from exact rationals evaluate in exact rational arithmetic end to
end; float codes evaluate in floats with a fixed tie tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .model import (
    CompositeSymbol,
    ObservedDistribution,
    base_symbol,
    enumerate_observed,
    multinomial_coefficient,
    uniform_symbol,
)

#: evaluate_code and decoding_region refuse grids larger than this.
DEFAULT_MAX_ENUM = 2_000_000

#: Two float log-likelihoods within this distance (per read) count as tied and
#: fall back to the lexicographic tie-break.
TIE_TOLERANCE = 1e-12

#: Multinomial coefficients above this magnitude switch the float path of
#: prob_observed to log-space evaluation to avoid overflow.
_COEF_FLOAT_LIMIT = 1e280
_LOG_COEF_FLOAT_LIMIT = math.log(_COEF_FLOAT_LIMIT)

SymbolLike = Union[CompositeSymbol, Sequence]


def _as_symbol(value: SymbolLike) -> CompositeSymbol:
    if isinstance(value, CompositeSymbol):
        return value
    return CompositeSymbol(value)


@dataclass(frozen=True)
class CompositeCode:
    """An ordered set of distinct composite symbols over one alphabet.

    Symbols are stored sorted lexicographically by their distributions; for
    binary codes this is ascending order of the first coordinate, and it is the
    order used to break decoding ties.
    """

    symbols: tuple[CompositeSymbol, ...]

    def __init__(self, symbols: Iterable[SymbolLike]):
        symbols = tuple(sorted(_as_symbol(s) for s in symbols))
        if not symbols:
            raise ValueError("a code needs at least one symbol")
        q = symbols[0].q
        for s in symbols:
            if s.q != q:
                raise ValueError("all code symbols must share one alphabet size")
        for a, b in zip(symbols, symbols[1:]):
            if a == b:
                raise ValueError(f"duplicate code symbol {a}")
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def binary(cls, values: Iterable[Union[int, float, Fraction]]) -> "CompositeCode":
        """Build a binary code from first-coordinate shorthand values x -> (x, 1-x)."""
        return cls((v, 1 - v) for v in values)

    @property
    def q(self) -> int:
        return self.symbols[0].q

    @property
    def m(self) -> int:
        return len(self.symbols)

    @property
    def is_exact(self) -> bool:
        return all(s.is_exact for s in self.symbols)

    @property
    def values(self) -> tuple:
        """First-coordinate shorthand of a binary code."""
        if self.q != 2:
            raise ValueError("shorthand values exist only for binary codes")
        return tuple(s.probs[0] for s in self.symbols)

    def as_float(self) -> "CompositeCode":
        return CompositeCode(s.as_float() for s in self.symbols)

    def index(self, symbol: SymbolLike) -> int:
        return self.symbols.index(_as_symbol(symbol))

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, CompositeSymbol) and symbol in self.symbols

    def __iter__(self):
        return iter(self.symbols)


def _check_same_q(code_q: int, theta: ObservedDistribution) -> None:
    if theta.q != code_q:
        raise ValueError(f"alphabet mismatch: code has q={code_q}, observation has q={theta.q}")


def prob_observed(symbol: CompositeSymbol, theta: ObservedDistribution):
    """Probability that ``theta.n`` reads of ``symbol`` show exactly ``theta``.

    Multinomial mass ``C(n; k_1..k_q) * prod_i p_i^k_i`` with the convention
    0^0 = 1, so symbols outside the observation's support contribute probability
    zero and unused zero-probability letters are harmless.  Exact symbols give
    an exact ``Fraction``; float symbols give a float.
    """
    symbol = _as_symbol(symbol)
    _check_same_q(symbol.q, theta)
    if symbol.is_exact:
        p = Fraction(multinomial_coefficient(theta.counts))
        for c, k in zip(symbol.probs, theta.counts):
            if k:
                p *= Fraction(c) ** k
        return p
    log_coef = math.lgamma(theta.n + 1) - sum(math.lgamma(k + 1) for k in theta.counts)
    if log_coef < _LOG_COEF_FLOAT_LIMIT:
        p = float(multinomial_coefficient(theta.counts))
        for c, k in zip(symbol.probs, theta.counts):
            if k:
                p *= float(c) ** k
        return p
    # Huge coefficient: evaluate in log space rather than exact integers.
    log_p = log_coef
    for c, k in zip(symbol.probs, theta.counts):
        if k:
            c = float(c)
            if c == 0.0:
                return 0.0
            log_p += k * math.log(c)
    return math.exp(log_p)


def _log_likelihood_per_read(symbol: CompositeSymbol, theta: ObservedDistribution) -> float:
    """(1/n) log P[theta | symbol], with -inf when the observation leaves the support."""
    total = 0.0
    n = theta.n
    for c, k in zip(symbol.probs, theta.counts):
        if k:
            c = float(c)
            if c == 0.0:
                return -math.inf
            total += (k / n) * math.log(c)
    return total


def mld_decode(code: CompositeCode, theta: ObservedDistribution) -> CompositeSymbol:
    """Maximum-likelihood decoding of an observed distribution.

    Returns the code symbol maximizing P[theta | symbol]; the multinomial
    coefficient is common to all symbols, so only the product of symbol
    probabilities matters, which also makes the answer independent of how many
    reads produced a given empirical distribution.  Ties go to the symbol that
    comes first in lexicographic order of distributions.

    Exact codes are compared in exact rational arithmetic; float codes compare
    per-read log-likelihoods with tolerance ``TIE_TOLERANCE``.
    """
    _check_same_q(code.q, theta)
    if code.is_exact:
        best = None
        best_symbol = None
        for s in code.symbols:
            p = Fraction(1)
            for c, k in zip(s.probs, theta.counts):
                if k:
                    p *= Fraction(c) ** k
            if best is None or p > best:
                best = p
                best_symbol = s
        return best_symbol
    lls = [_log_likelihood_per_read(s, theta) for s in code.symbols]
    best = max(lls)
    for s, ll in zip(code.symbols, lls):
        if ll >= best - TIE_TOLERANCE:
            return s
    raise AssertionError("unreachable: max not attained")


@dataclass(frozen=True)
class Decoder:
    """A total decoding map from observed distributions to code symbols.

    ``kind`` is either ``"mld"`` (pure maximum likelihood) or ``"table"``
    (explicit overrides on selected count vectors, maximum likelihood
    elsewhere).
    """

    code: CompositeCode
    kind: str
    overrides: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mld", "table"):
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        object.__setattr__(self, "_table", dict(self.overrides))

    def __call__(self, theta: ObservedDistribution) -> CompositeSymbol:
        hit = self._table.get(theta.counts)
        if hit is not None:
            return hit
        return mld_decode(self.code, theta)


def mld_decoder(code: CompositeCode) -> Decoder:
    return Decoder(code=code, kind="mld")


def custom_decoder_from_table(
    code: CompositeCode,
    n: int,
    overrides: Mapping,
) -> Decoder:
    """Decoder equal to maximum likelihood except on explicitly overridden observations.

    ``overrides`` maps count vectors (tuples or :class:`ObservedDistribution`
    instances with ``n`` reads) to code symbols, given either as symbols or as
    0-based indices into the sorted code.  Override targets must be codewords.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    normalized = {}
    for key, value in overrides.items():
        if isinstance(key, ObservedDistribution):
            counts = key.counts
        else:
            counts = tuple(int(k) for k in key)
        probe = ObservedDistribution(counts)  # validates nonnegative integers
        if probe.n != n:
            raise ValueError(f"override key {counts} sums to {probe.n}, expected n={n}")
        if probe.q != code.q:
            raise ValueError(f"override key {counts} has q={probe.q}, code has q={code.q}")
        if isinstance(value, int) and not isinstance(value, bool):
            if not 0 <= value < code.m:
                raise ValueError(f"override index {value} outside 0..{code.m - 1}")
            symbol = code.symbols[value]
        else:
            symbol = _as_symbol(value)
            if symbol not in code:
                raise ValueError(f"override target {symbol} is not a codeword")
        normalized[counts] = symbol
    return Decoder(code=code, kind="table", overrides=tuple(sorted(normalized.items())))


def decoding_region(
    code: CompositeCode,
    symbol: SymbolLike,
    n: int,
    decoder: Optional[Decoder] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[ObservedDistribution, ...]:
    """All observed distributions of ``n`` reads that decode to ``symbol``.

    Regions over all codewords partition the full grid.  Refuses grids larger
    than ``max_enum``.
    """
    symbol = _as_symbol(symbol)
    if symbol not in code:
        raise ValueError(f"{symbol} is not a codeword")
    if decoder is None:
        decoder = mld_decoder(code)
    if decoder.code != code:
        raise ValueError("decoder belongs to a different code")
    grid = enumerate_observed(n, code.q, max_size=max_enum)
    return tuple(theta for theta in grid if decoder(theta) == symbol)


@dataclass
class CodeEvaluation:
    """Exact per-symbol success probabilities of one (code, decoder, n) triple."""

    per_symbol_success: dict
    f_min: Union[float, Fraction]
    f_avg: Union[float, Fraction]
    n: int


def evaluate_code(
    code: CompositeCode,
    n: int,
    decoder: Optional[Decoder] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> CodeEvaluation:
    """Per-symbol decoding success probabilities, their minimum, and their mean.

    Sums ``prob_observed`` over each symbol's decoding region by enumerating
    every observed distribution of ``n`` reads once.  Exact codes yield exact
    rationals; float codes yield floats.
    """
    if decoder is None:
        decoder = mld_decoder(code)
    if decoder.code != code:
        raise ValueError("decoder belongs to a different code")
    zero = Fraction(0) if code.is_exact else 0.0
    success = {s: zero for s in code.symbols}
    for theta in enumerate_observed(n, code.q, max_size=max_enum):
        decoded = decoder(theta)
        success[decoded] += prob_observed(decoded, theta)
    f_min = min(success.values())
    f_avg = sum(success.values()) / code.m
    return CodeEvaluation(per_symbol_success=success, f_min=f_min, f_avg=f_avg, n=n)


def construct_distinct_support(q: int, m: int, partition: Sequence[Iterable[int]]) -> CompositeCode:
    """Code of uniform symbols on ``m`` pairwise disjoint nonempty subsets of 1..q.

    Distinct supports make every observation attributable to exactly one
    codeword, so the code decodes perfectly at every read count.
    """
    parts = [tuple(sorted(set(part))) for part in partition]
    if len(parts) != m:
        raise ValueError(f"expected m={m} parts, got {len(parts)}")
    if m < 1 or m > q:
        raise ValueError(f"need 1 <= m <= q, got m={m}, q={q}")
    seen: set[int] = set()
    for part in parts:
        if not part:
            raise ValueError("empty part in partition")
        if part[0] < 1 or part[-1] > q:
            raise ValueError(f"part {part} not inside 1..{q}")
        if seen & set(part):
            raise ValueError(f"parts overlap at {sorted(seen & set(part))}")
        seen |= set(part)
    symbols = []
    for part in parts:
        members = set(part)
        w = len(part)
        probs = [Fraction(1, w) if i + 1 in members else Fraction(0) for i in range(q)]
        symbols.append(CompositeSymbol(probs))
    return CompositeCode(symbols)


def construct_base_plus_uniform(q: int) -> CompositeCode:
    """The q+1 symbol code: all base indicator symbols plus the uniform symbol.

    This is the optimal (q+1)-symbol code for both the minimum and the average
    success probability; its exact figures of merit are

        f_min = 1 - (1/q)^(n-1)        f_avg = 1 - 1/(q^(n-1) (q+1)).

    For q = 1 the uniform symbol coincides with the single base symbol and the
    code collapses to one symbol (the closed forms above assume q >= 2).
    """
    symbols = {base_symbol(q, i) for i in range(1, q + 1)}
    symbols.add(uniform_symbol(q, exact=True))
    return CompositeCode(symbols)


def construct_grid_code(n: int, q: int, max_enum: int = DEFAULT_MAX_ENUM) -> CompositeCode:
    """The code whose symbols are all empirical distributions of n reads.

    Every observation decodes to itself, so the per-symbol success probability
    equals that grid point's self-decoding probability.
    """
    grid = enumerate_observed(n, q, max_size=max_enum)
    return CompositeCode(theta.as_symbol(exact=True) for theta in grid)


def self_decoding_probability(dist: Union[ObservedDistribution, CompositeSymbol], n: Optional[int] = None) -> Fraction:
    """Probability that n reads of a grid distribution reproduce it exactly.

    ``dist`` must lie on the grid with denominator ``n`` (automatic for an
    :class:`ObservedDistribution`); the value is the multinomial mass of the
    distribution under itself, returned exactly.
    """
    if isinstance(dist, ObservedDistribution):
        if n is not None and n != dist.n:
            raise ValueError(f"n={n} conflicts with observation denominator {dist.n}")
        counts = dist.counts
        n = dist.n
    else:
        if n is None or n < 1:
            raise ValueError("n >= 1 is required when passing a composite symbol")
        counts = []
        for p in dist.probs:
            if dist.is_exact:
                scaled = Fraction(p) * n
                if scaled.denominator != 1:
                    raise ValueError(f"{dist} is not on the grid with denominator {n}")
                counts.append(int(scaled))
            else:
                scaled = float(p) * n
                if abs(scaled - round(scaled)) > 1e-9:
                    raise ValueError(f"{dist} is not on the grid with denominator {n}")
                counts.append(int(round(scaled)))
        counts = tuple(counts)
        if sum(counts) != n:
            raise ValueError(f"{dist} is not on the grid with denominator {n}")
    result = Fraction(multinomial_coefficient(counts))
    for k in counts:
        if k:
            result *= Fraction(k, n) ** k
    return result
