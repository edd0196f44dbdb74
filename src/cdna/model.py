"""Core types for the composite channel: composite symbols and observed distributions.

A composite symbol is a probability distribution over a base alphabet
``{1, ..., q}``, given by its ``q`` entries.  Reading a composite position
many times yields an empirical distribution on a grid with denominator ``n``;
those grids are what decoders operate on.  Coverage questions need no symbol
objects: :mod:`cdna.coverage` takes the support size ``omega`` as an integer.
Everything here is immutable and safe to share across threads.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Optional, Sequence, Union

Prob = Union[int, float, Fraction]

#: Constructors accept float distributions whose entries sum to 1 within this
#: tolerance (and renormalize); anything further off is rejected as a caller bug.
SUM_TOLERANCE = 1e-12


#: Every grid entry point, enumerate_observed included, refuses larger grids by default.
DEFAULT_MAX_ENUM = 2_000_000

#: A grid of ``size`` points over ``q`` letters holds ``size * q`` counts, 8
#: bytes each in the evaluators' int64 arrays and in the slots of count tuples.
#: A grid request is also refused above this many counts per point of its cap
#: (``DEFAULT_MAX_ENUM`` when none is given): 8M counts, 64 MB, at the default.
#: Every grid of q <= 4 under the point cap passes; (n, q) = (2, 1500), 1.1M
#: points under the 2M cap but 1.7G counts (13.6 GB), does not.
_COUNTS_PER_CAPPED_POINT = 4


class UnsupportedRangeError(ValueError):
    """A request exceeds a documented feasibility cap (not a usage mistake)."""


def _integer(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``, refused with ValueError unless it is an integer >= ``minimum``.

    Bools and floats are refused however integral they look: ``True`` would pass
    for 1 and ``2.0`` for 2, and a float count silently changes an answer.
    Other integer types (numpy's, say) are taken through ``__index__``.  Without
    ``minimum`` only the type is checked, for callers that refuse their own range.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _is_exact(value: Prob) -> bool:
    return isinstance(value, Rational) and not isinstance(value, bool)


def multinomial_coefficient(counts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (k_1! ... k_q!) for n = sum(counts)."""
    total = 0
    out = 1
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


@dataclass(frozen=True, order=True)
class CompositeSymbol:
    """A probability distribution over the base alphabet.

    Entries may be floats or exact rationals (``int`` / ``Fraction``).  Exact
    entries must sum to exactly 1; float entries are renormalized when the sum
    deviates from 1 by at most ``SUM_TOLERANCE`` and rejected otherwise.

    Ordering and equality are lexicographic on the probability vector, which is
    the canonical tie-break order used by the decoder.
    """

    probs: tuple

    def __init__(self, probs: Iterable[Prob]):
        probs = tuple(probs)
        if len(probs) < 1:
            raise ValueError("a composite symbol needs at least one entry")
        for p in probs:
            if not (_is_exact(p) or isinstance(p, float)):
                raise ValueError(f"probability entries must be numbers, got {p!r}")
            if isinstance(p, float) and not math.isfinite(p):
                raise ValueError(f"non-finite probability entry {p!r}")
            if p < 0:
                raise ValueError(f"negative probability entry {p!r}")
        total = sum(probs)
        if all(_is_exact(p) for p in probs):
            if total != 1:
                raise ValueError(f"exact probabilities must sum to 1, got {total!r}")
            probs = tuple(Fraction(p) for p in probs)
        else:
            total = float(total)
            if abs(total - 1.0) > SUM_TOLERANCE:
                raise ValueError(f"probabilities sum to {total!r}, outside tolerance {SUM_TOLERANCE}")
            if total != 1.0:
                probs = tuple(float(p) / total for p in probs)
            else:
                probs = tuple(float(p) for p in probs)
        object.__setattr__(self, "probs", probs)

    @property
    def q(self) -> int:
        return len(self.probs)

    @property
    def is_exact(self) -> bool:
        """True when every entry is an exact rational."""
        return all(_is_exact(p) for p in self.probs)

    def as_float(self) -> "CompositeSymbol":
        return CompositeSymbol(float(p) for p in self.probs)

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in self.probs)
        return f"CompositeSymbol(({inner}))"


@dataclass(frozen=True, order=True)
class ObservedDistribution:
    """Empirical distribution of n reads: per-symbol counts with denominator n.

    Ordering is lexicographic on the count vector, the canonical iteration and
    tie-break order.
    """

    counts: tuple[int, ...]
    n: int

    def __init__(self, counts: Iterable[int], n: Optional[int] = None):
        counts = tuple(counts)
        if not counts:
            raise ValueError("counts must be nonempty")
        for k in counts:
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"counts must be nonnegative integers, got {k!r}")
        total = sum(counts)
        n = _integer("n", total if n is None else n, 1)  # a numpy n would wrap n**n
        if total != n:
            raise ValueError(f"counts sum to {total}, expected n={n}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    @property
    def q(self) -> int:
        return len(self.counts)

    def as_symbol(self, exact: bool = True) -> CompositeSymbol:
        """The grid point counts/n as a composite symbol (exact by default)."""
        if exact:
            return CompositeSymbol(Fraction(k, self.n) for k in self.counts)
        return CompositeSymbol(k / self.n for k in self.counts)


def uniform_symbol(q: int, exact: bool = False) -> CompositeSymbol:
    """The uniform composite symbol (1/q, ..., 1/q)."""
    q = _integer("q", q, 1)
    if exact:
        return CompositeSymbol(Fraction(1, q) for _ in range(q))
    return CompositeSymbol(1.0 / q for _ in range(q))


def base_symbol(q: int, i: int) -> CompositeSymbol:
    """The indicator symbol with all mass on base symbol i (1-based)."""
    q, i = _integer("q", q, 1), _integer("i", i)
    if not 1 <= i <= q:
        raise IndexError(f"symbol index {i} outside 1..{q}")
    return CompositeSymbol(Fraction(1 if j == i else 0) for j in range(1, q + 1))


def observed_grid_size(n: int, q: int) -> int:
    """Number of empirical distributions with denominator n: C(n+q-1, q-1)."""
    n, q = _integer("n", n, 1), _integer("q", q, 1)
    return math.comb(n + q - 1, q - 1)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total, lex order.

    An odometer over the first ``parts - 2`` counts, without recursion, so any
    ``parts`` works; each prefix yields its last two counts from one ``range``.
    """
    if parts == 1:
        yield (total,)
        return
    prefix = [0] * (parts - 2)
    rest = total  # total minus the prefix's sum
    while True:
        yield from map(tuple(prefix).__add__, zip(range(rest + 1), range(rest, -1, -1)))
        if rest and prefix:
            prefix[-1] += 1
            rest -= 1
            continue
        # the prefix sums to total (or is empty): zero its last nonzero count, carry one to the left
        last = next((i for i in range(len(prefix) - 1, 0, -1) if prefix[i]), 0)
        if last == 0:
            return
        rest += prefix[last] - 1
        prefix[last] = 0
        prefix[last - 1] += 1


def enumerate_observed(n: int, q: int, max_size: int = DEFAULT_MAX_ENUM) -> list[ObservedDistribution]:
    """All observed distributions of n reads over q symbols, in lexicographic count order.

    The result has exactly C(n+q-1, q-1) elements.  It is capped as every grid
    entry point is (``_checked_grid_size``): above ``max_size`` points or 4 counts
    per point of it, with UnsupportedRangeError; a ``max_size`` that is not an
    int >= 1 (``None`` included) is refused with ValueError.
    """
    n, _ = _checked_grid_size(n, q, max_size)
    return [ObservedDistribution(counts, n) for counts in _compositions(n, q)]


def _checked_grid_size(n: int, q: int, max_enum: int) -> tuple[int, int]:
    """The one check of a grid request: ``n`` as an int and ``observed_grid_size(n, q)``, refused
    with UnsupportedRangeError above ``max_enum`` points or ``_COUNTS_PER_CAPPED_POINT`` counts per
    point of that cap.  Every grid entry point calls this first and runs on the ``n`` it returns.

    A ``max_enum`` that is not an int >= 1 is refused with ValueError, before any grid work: NaN
    or an infinity would lift both caps, ``None`` the point cap, and a bool or a float would pass
    for a number it only resembles.
    """
    max_enum = _integer("max_enum", max_enum, 1)
    n, q = _integer("n", n, 1), _integer("q", q, 1)
    size = observed_grid_size(n, q)
    if size > max_enum:
        raise UnsupportedRangeError(f"|grid(n={n}, q={q})| = {size} exceeds the cap {max_enum}; lower n or q")
    max_counts = _COUNTS_PER_CAPPED_POINT * max_enum
    if size * q > max_counts:
        raise UnsupportedRangeError(
            f"grid(n={n}, q={q}) holds {size * q} counts ({size} points of {q}), beyond the "
            f"cap of {max_counts} counts; lower n or q"
        )
    if n >= 2**63:  # the evaluators hold counts in int64 arrays
        raise UnsupportedRangeError(f"n={n} exceeds the largest count of the grid, 2**63 - 1")
    return n, size
