"""Core types for the composite channel: composite symbols and the grids of observations.

A composite symbol is a probability distribution over a base alphabet
``{1, ..., q}``, given by its ``q`` entries.  Reading a composite position
``n`` times yields an observed distribution: a tuple of ``q`` int counts
summing to ``n``, whose one check is ``_counts``.  The grid of all of them,
in lexicographic order, is what decoders operate on, within fixed caps that no
caller moves (``_checked_grid_size``).  Coverage questions
need no symbol objects: :mod:`cdna.coverage` takes the support size
``omega`` as an integer.
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


#: Every grid entry point, enumerate_observed included, refuses a grid of more points.
DEFAULT_MAX_ENUM = 2_000_000

#: A grid of ``size`` points over ``q`` letters holds ``size * q`` counts, 8
#: bytes each in the evaluators' int64 arrays and in the slots of count tuples.
#: A grid is also refused above this many counts, 64 MB: every grid of q <= 4
#: under the point cap passes; (n, q) = (2, 1500), 1.1M points but 1.7G
#: counts (13.6 GB), does not.
_MAX_GRID_COUNTS = 4 * DEFAULT_MAX_ENUM


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


def _counts(counts: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The one check of an observation: ``counts`` as a tuple of ints, and ``n``, their sum.

    Refused with ValueError unless ``counts`` is a nonempty sequence of integers >= 0 (each
    through ``_integer``) with a sum of at least 1.  Callers that expect a length or an ``n``
    check it themselves.
    """
    counts = tuple(_integer("count", k, 0) for k in counts)
    if (n := sum(counts)) < 1:
        raise ValueError(f"an observation needs nonempty counts with a sum of at least 1, got {counts}")
    return counts, n


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


def enumerate_observed(n: int, q: int) -> list[tuple[int, ...]]:
    """All observed distributions of n reads over q symbols: tuples of q int counts, in lexicographic order.

    The result has exactly C(n+q-1, q-1) elements.  It is capped as every grid
    entry point is (``_checked_grid_size``): above ``DEFAULT_MAX_ENUM`` points or
    ``4 * DEFAULT_MAX_ENUM`` counts, with UnsupportedRangeError.
    """
    n, _ = _checked_grid_size(n, q)
    return list(_compositions(n, q))


def _checked_grid_size(n: int, q: int) -> tuple[int, int]:
    """The one check of a grid request: ``n`` as an int and ``observed_grid_size(n, q)``, refused
    with UnsupportedRangeError above ``DEFAULT_MAX_ENUM`` points or ``_MAX_GRID_COUNTS`` counts.
    Every grid entry point calls this first and runs on the ``n`` it returns; no caller moves
    the caps, so every grid answer is stated over one fixed domain.
    """
    n, q = _integer("n", n, 1), _integer("q", q, 1)
    size = observed_grid_size(n, q)
    if size > DEFAULT_MAX_ENUM:
        raise UnsupportedRangeError(f"|grid(n={n}, q={q})| = {size} exceeds the cap {DEFAULT_MAX_ENUM}; lower n or q")
    if size * q > _MAX_GRID_COUNTS:
        raise UnsupportedRangeError(
            f"grid(n={n}, q={q}) holds {size * q} counts ({size} points of {q}), beyond the "
            f"cap of {_MAX_GRID_COUNTS} counts; lower n or q"
        )
    if n >= 2**63:  # the evaluators hold counts in int64 arrays
        raise UnsupportedRangeError(f"n={n} exceeds the largest count of the grid, 2**63 - 1")
    return n, size
