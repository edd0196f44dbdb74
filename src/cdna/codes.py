"""Composite codes, maximum-likelihood decoding, and exact success probabilities.

A code is a finite set of composite symbols over one base alphabet.  The
decoder sees only the empirical distribution of ``n`` reads; its success
probability per symbol is computed exactly by enumerating every observed
distribution and summing multinomial masses over decoding regions.

Codes built from exact rationals evaluate exactly end to end; float codes
evaluate in floats with a fixed tie tolerance.

Both numeric paths decide with one kernel, ``_decode``, on arrays of counts:
the first symbol within a slack of the best float score wins, the slack being
``TIE_TOLERANCE`` for float codes (``_float_rule``) and a certified margin for
exact ones, whose near-ties integer likelihoods then settle (``_exact_rule``).  One grid pass,
``_decisions``, reads the grid as integer count arrays, chunk by chunk, in the
lexicographic order of ``model._compositions``; it decides each chunk and
writes the decoder's overrides.  A chunk holds at most ``_BLOCK_ELEMENTS``
scores, unless one row of a code's scores is longer.  :func:`evaluate_code`
and :func:`decoding_region` iterate that pass, and :func:`mld_decode` decides
one row.  The decisions equal, bit for bit, those of the per-observation loop
the tests keep as their reference (``reference_evaluate_code`` in
``tests/conftest.py``).

Float codes are weighed by one numpy kernel of a group of codes
(``_float_success``), which the binary4 grid search shares: the decoder's
confusion matrix over the channel, each point's mass under every symbol from
its log, split into each symbol's hit (points decoded to it) and miss (points
decoded elsewhere).  A success is ``1 - miss`` where the miss is at most 1/2,
so it never exceeds 1, and it is within the bound stated in
:func:`evaluate_code` of the exact value of the code's floats.

Every exact weight is one integer mass, ``_integer_mass(b, k) = C(n; k) *
prod_i b_i**k_i``, where ``b`` holds a symbol's probabilities times ``D``, the
lcm of the denominators; it is 0, with no coefficient computed, where the
symbol cannot produce ``k``.  An exact code sums each symbol's masses and
divides once by ``D**n`` (``_exact_success``), so its results equal the
reference loop's exact rationals.  The grid code weighs each point under
itself (``b = k``, ``D = n``), so its figures need only the counts
(``_grid_code_success``) and ``cdna design --family omega`` builds no symbol
per grid point.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import (
    DEFAULT_MAX_ENUM,
    CompositeSymbol,
    UnsupportedRangeError,
    _checked_grid_size,
    _compositions,
    _counts,
    _integer,
    base_symbol,
    multinomial_coefficient,
    uniform_symbol,
)

# numpy is imported where it is used, as in every module of the package, so
# that ``import cdna`` and the coverage questions never load it.  Imported
# here, ahead of the rest of the package, it also left the process about 1 MB
# larger.
if TYPE_CHECKING:
    import numpy as np

#: Two float log-likelihoods within this distance (per read) count as tied and
#: fall back to the lexicographic tie-break.
TIE_TOLERANCE = 1e-12

#: Exact one-point decoding refuses ``n * D.bit_length()`` above this, with
#: ``D`` the lcm of the code's denominators: each candidate's likelihood
#: ``N_j`` has up to that many bits.  At the cap the code of denominators 10, 3
#: and 2 decodes (n/3, 2n/3) in 0.64 s, and at twice the cap in 2.0 s (2 CPUs,
#: Python 3.11, numpy 2.4); the cost grows faster than the bits.
_MAX_POINT_BITS = 2**23

#: :func:`self_decoding_probability` refuses ``n * n.bit_length()`` above this,
#: a bound on the bits of its denominator ``n**n``: it admits every n < 2**16.
#: At n = 65,535 the shapes tried took 0.7-1.7 s, (n/4, ..., n/4) the slowest;
#: at twice the cap (n = 123,361) 5-6 s (2 CPUs, Python 3.11), most of it the
#: reduction of the Fraction.
_MAX_SELF_BITS = 2**20

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

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, CompositeSymbol) and symbol in self.symbols


def mld_decode(code: CompositeCode, counts: Sequence[int]) -> CompositeSymbol:
    """Maximum-likelihood decoding of an observed distribution, ``code.q`` int counts of ``n`` reads.

    Returns the code symbol maximizing P[counts | symbol]; the multinomial
    coefficient is common to all symbols, so only the product of symbol
    probabilities matters, which also makes the answer independent of how many
    reads produced a given empirical distribution.  Ties go to the symbol that
    comes first in lexicographic order of distributions.

    Exact codes are compared in exact integer likelihoods; float codes compare
    per-read log-likelihoods with tolerance ``TIE_TOLERANCE``.  The decision
    is the one :func:`evaluate_code` makes, on one row of counts.  Counts that
    are not ``code.q`` integers >= 0 with a sum of at least 1 are refused with
    ``ValueError``.  Refused with ``UnsupportedRangeError``: ``n >= 2**53``
    reads, and on an exact code ``n * D.bit_length()`` above
    ``_MAX_POINT_BITS`` (``D`` the lcm of its denominators), whose integer
    likelihoods would grow without bound.
    """
    import numpy as np

    counts, n = _counts(counts)
    if len(counts) != code.q:
        raise ValueError(f"alphabet mismatch: code has q={code.q}, observation has q={len(counts)}")
    if n >= 2**53:  # below it every count fits int64 and k_i / n in floats rounds correctly
        raise UnsupportedRangeError(f"n={n} reads exceed one-point decoding's cap of 2**53 - 1")
    lcm, decide = _decider(np, code, n)
    bits = n * lcm.bit_length()
    if bits > _MAX_POINT_BITS:
        message = f"n={n} reads give exact likelihoods of up to {bits} bits, beyond the cap of {_MAX_POINT_BITS}"
        raise UnsupportedRangeError(f"{message}; one-point decoding refuses them")
    [index] = decide(np.array([counts], dtype=np.int64))
    return code.symbols[index]


@dataclass(frozen=True)
class Decoder:
    """A decoder of ``n`` reads as its override table: maximum likelihood, but where it says otherwise.

    ``overrides`` pairs observations (``code.q`` int counts summing to ``n``,
    checked as :func:`mld_decode` checks them) with the 0-based index of the
    codeword they decode to; every other observation of ``n``
    reads decodes by maximum likelihood (:func:`mld_decode`).  Anything else is
    refused with ``ValueError``, and so is an evaluation of the decoder at
    another ``n``.  This is the one check of the table: it is kept as ``(counts,
    index)`` pairs in grid order, the last of equal keys winning.
    """

    code: CompositeCode
    n: int
    overrides: tuple = ()

    def __post_init__(self) -> None:
        n, q, m, table = _integer("n", self.n, 1), self.code.q, self.code.m, {}
        try:
            for key, target in self.overrides:
                counts, total = _counts(key)
                if len(counts) != q or total != n:
                    raise ValueError(f"override key {counts} is not {q} counts summing to n={n}")
                if isinstance(target, bool) or not isinstance(target, Integral) or not 0 <= target < m:
                    raise ValueError(f"override target {target!r} must be a codeword index, 0..{m - 1}")
                table[counts] = int(target)
        except TypeError as exc:  # a key that is not a sequence, an entry that is not a pair
            raise ValueError(f"overrides must pair count vectors with codeword indices: {exc}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "overrides", tuple(sorted(table.items())))


def custom_decoder_from_table(code: CompositeCode, n: int, overrides: Mapping) -> Decoder:
    """Decoder equal to maximum likelihood except on explicitly overridden observations.

    ``overrides`` maps observations of ``n`` reads (``code.q`` int counts) to
    0-based codeword indices; it is checked and stored as :class:`Decoder` does.
    """
    return Decoder(code, n, tuple(overrides.items()))


def decoding_region(
    code: CompositeCode,
    symbol: SymbolLike,
    n: int,
    decoder: Optional[Decoder] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[tuple[int, ...], ...]:
    """All observed distributions of ``n`` reads that decode to ``symbol``: count tuples in grid order.

    Regions over all codewords partition the full grid.  The grid is decoded
    chunk by chunk as :func:`evaluate_code` decodes it, and refused as that
    refuses it; only the region's points become tuples.
    """
    import numpy as np

    symbol = _as_symbol(symbol)
    if symbol not in code:
        raise ValueError(f"{symbol} is not a codeword")
    n, size, overrides = _grid_request(code, n, decoder, max_enum)
    target, region = bisect_left(code.symbols, symbol), []
    for k, decoded in _decisions(np, _decider(np, code, n)[1], n, code.m, code.q, size, overrides):
        region += map(tuple, k[decoded == target].tolist())
    return tuple(region)


def _grid_request(code: CompositeCode, n: int, decoder: Optional[Decoder], max_enum: int) -> tuple[int, int, dict]:
    """The refusals of a grid evaluation, ahead of any other work, then ``n`` as an int, the
    grid's size and the decoder's overrides as grid index -> codeword index."""
    if decoder is not None and (decoder.code != code or decoder.n != n):
        raise ValueError(f"decoder belongs to another code or read count (its n={decoder.n}, evaluated at n={n})")
    n, size = _checked_grid_size(n, code.q, max_enum)
    return n, size, {} if decoder is None else {_grid_rank(k, n): index for k, index in decoder.overrides}


def _decider(np, code: CompositeCode, n: int) -> tuple[int, Callable[["np.ndarray"], "np.ndarray"]]:
    """``D``, the lcm of an exact code's denominators (0 for any other code), and the decision
    rule of ``code`` at ``n`` reads, from (points, q) int64 counts to (points,) codeword
    indices: ``_exact_rule`` for an exact code, ``_decode`` for any other.  The code's
    properties are derived once here, not per point."""
    if code.is_exact:
        lcm, scaled = _integers(code.symbols)
        return lcm, _exact_rule(np, scaled, n)
    decide = _float_rule(np, _log_table(np, np.array([[s.probs for s in code.symbols]], dtype=float)), n)
    return 0, lambda k: decide(k)[0]


def _float_rule(np, logs: "np.ndarray", n: int) -> Callable[["np.ndarray"], "np.ndarray"]:
    """The decision rule of float codes at ``n`` reads, from their (codes, m, q) ``_log_table``:
    from (points, q) int64 counts to the (codes, points) index of the first symbol within
    ``TIE_TOLERANCE`` of each point's best per-read score."""
    return lambda k: _decode(np, logs, k / n, TIE_TOLERANCE)[0]  # k_i and n are exact floats: rounds as k_i / n


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

    Decodes every observed distribution of ``n`` reads once, in grid order,
    and sums multinomial masses over the decoding regions.  The work runs in
    numpy over blocks of at most ``_BLOCK_ELEMENTS`` scores (one row of
    scores when the code has more symbols than that), so memory does not
    grow with the grid; the grid itself is generated one block at a time,
    and no per-observation object is built.  Every decision equals, bit for
    bit, that of the per-observation loop the tests keep as their reference
    (``reference_evaluate_code`` in ``tests/conftest.py``).

    * Exact codes take the exact path and yield exact rationals, equal to
      the reference loop's.  A point with one symbol within a certified
      margin of the best float score decodes to it; integer likelihoods
      settle the near-ties, the first strict maximum winning (see
      ``_exact_rule``).  Each symbol sums its points' integer masses,
      divided once by ``D**n``.
    * Other codes take the float path: per-read log-likelihoods within
      ``TIE_TOLERANCE`` of the best tie and go to the first symbol, and
      every probability is a float (an exact entry of a mixed code is
      rounded once).  The kernel (``_float_success``) weighs each point under
      every symbol, ``exp(lgamma(n + 1) - sum_i lgamma(k_i + 1) + sum_i k_i *
      log p_i)``, and sums each symbol's masses into its hit ``h_j`` (points
      decoded to it) and its miss ``m_j`` (points decoded elsewhere).  The
      success is ``1 - m_j`` where ``m_j <= 1/2`` and ``h_j`` elsewhere, so
      it lies in [0, 1].

    The float path's bound.  Let ``H_j`` be the exact success of symbol ``j``
    under the same decisions with its floats taken as the rationals they
    hold, ``s_j`` the exact sum of its floats and ``M_j = s_j**n - H_j`` its
    exact miss.  With ``u = 2**-53``, ``L = lgamma(n + 1)``, ``lam`` the
    largest ``|log p|`` over the code's nonzero probabilities, ``P`` the
    number of grid points and

        eps = ((2q + 12) * (2L + n * lam) + P + 8) * u,

    each success satisfies ``|f_j - H_j| <= eps * min(H_j, M_j) + |s_j**n -
    1| + u``.  The miss behind a success ``1 - m_j`` is within ``eps * M_j``
    of ``M_j`` (plus ``P * 2**-1074`` where masses underflow), so a success
    near 1 keeps its miss's relative accuracy.  The terms: a log mass is
    within ``(2q + 12) * (2L + n * lam) * u`` of the true one (``lgamma``
    within 5 ulps on integers, ``math.log`` within one, and the column sums
    of at most ``2q + 1`` terms of magnitude at most ``2L + n * lam``), numpy's
    ``exp`` adds a few ulps, and each symbol's two sums add at most ``P`` ulps
    of their terms (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3-4).  The ``|s_j**n - 1|`` term is the mass that floats not summing
    to exactly 1 leave out of ``1 - m_j``; it is 0 where they do.
    """
    n, size, overrides = _grid_request(code, n, decoder, max_enum)
    if code.is_exact:
        values = _exact_success(code.symbols, n, size, overrides)
    else:
        values = _float_success([[s.probs for s in code.symbols]], n, size, overrides)[0][0].tolist()
    success = dict(zip(code.symbols, values))
    f_min = min(success.values())
    f_avg = sum(success.values()) / code.m
    return CodeEvaluation(per_symbol_success=success, f_min=f_min, f_avg=f_avg, n=n)


#: The evaluator works in numpy blocks of at most this many scores (codes x
#: points x symbols); only a code with more symbols than this widens a block to
#: one row of scores.  A block pays about 40 numpy calls besides its elementwise
#: work: at 16,384 the binary4 search of a ``code-design`` benchmark round
#: runs 34 groups (129 at 4,096) and the benchmark's peak RSS is about 0.9 MB
#: higher (2 CPUs, Python 3.11, numpy 2.4); 65,536 was no faster and added
#: about 2 MB more.
_BLOCK_ELEMENTS = 16384


def _decisions(
    np, decide: Callable, n: int, m: int, q: int, size: int, overrides: Mapping[int, int]
) -> Iterator[tuple["np.ndarray", "np.ndarray"]]:
    """The one pass over the ``size`` points of the grid of ``n`` reads over ``q`` letters, in
    the order of ``model._compositions``, for codes of ``m`` symbols: each chunk's (points, q)
    int64 counts and the (..., points) codeword indices that ``decide`` gives them, with
    ``overrides`` (grid index -> codeword index) written in."""
    counts, rows, keys = chain.from_iterable(_compositions(n, q)), _grid_rows(m, q), sorted(overrides)
    targets = np.array([overrides[key] for key in keys], dtype=np.intp)
    for start in range(0, size, rows):
        k = np.fromiter(islice(counts, rows * q), dtype=np.int64).reshape(-1, q)
        decoded = decide(k)
        lo, hi = bisect_left(keys, start), bisect_left(keys, start + len(k))
        decoded[..., np.array(keys[lo:hi], dtype=np.intp) - start] = targets[lo:hi]
        yield k, decoded


def _grid_rank(counts: Sequence[int], n: int) -> int:
    """Index of a count vector in the lexicographic order of its grid, one hockey-stick sum per position."""
    rank, remaining = 0, n
    for rest, k in zip(range(len(counts) - 1, 0, -1), counts):
        rank += math.comb(remaining + rest, rest) - math.comb(remaining - k + rest, rest)
        remaining -= k
    return rank


#: Finite stand-in for log(0) in the vectorized scores, so that a letter with
#: zero count adds ``0 * _LOG_ZERO = -0.0``, as the skipped term of the
#: per-observation sum adds nothing.  A symbol that cannot produce an
#: observation scores below ``_IMPOSSIBLE`` (at most ``_LOG_ZERO / n`` per
#: read), and one that can scores above it (a per-read score is at least
#: ``log(5e-324) > -745``; an exact-path score is at least 0).
_LOG_ZERO = -1e200
_IMPOSSIBLE = -1e6


def _float_success(
    block: Sequence, n: int, size: int, overrides: Mapping[int, int] = {}  # read only
) -> tuple["np.ndarray", "np.ndarray"]:
    """Float-path successes and misses of one group of codes over the ``size`` points of one grid.

    ``block`` is array-like of shape (codes, m, q): every code's symbol
    probabilities in code order, as floats (an exact entry of a mixed code
    is rounded once).  It holds at most ``_codes_per_group(m, q, size)``
    codes, so that its scores over one chunk of the grid fill at most
    ``_BLOCK_ELEMENTS`` (or one row): several codes when the whole grid fits
    one chunk, one code otherwise.  ``overrides`` (grid index -> symbol
    index) apply to every code.  Returns two (codes, m) arrays: each
    symbol's success ``f_j`` and its miss, ``1 - f_j`` in the form that
    keeps its relative accuracy.

    The kernel takes each chunk's decisions, overrides written, from the
    grid pass (:func:`_decisions`) and computes the decoder's confusion
    matrix over the channel: each point's log mass under *every* symbol,
    ``L[n] - sum_i L[k_i] + sum_i k_i * log p_ji`` with ``L[k] = lgamma(k +
    1)`` (``math.lgamma`` of each distinct count of the chunk, so that a
    one-point grid of huge ``n`` builds no table of ``n`` entries; the
    columns added in turn, as ``_decode`` adds them), exponentiated by
    numpy.  Each symbol sums its masses at the points decoded to it (its
    hit) and at the points decoded elsewhere (its miss), in point order.
    Where ``miss <= 1/2`` the success is ``1 - miss``, which never exceeds 1
    and keeps the miss's relative accuracy however close the success is to
    1; elsewhere it is the hit, and the miss is ``1 - hit``.  The bound this
    meets is stated in :func:`evaluate_code`.
    """
    import numpy as np

    codes = np.array(block, dtype=float)
    _, m, q = codes.shape
    logs = _log_table(np, codes)
    symbol = np.arange(m)[None, :, None]
    hit, miss = np.zeros((m, len(codes))), np.zeros((m, len(codes)))
    for k, decoded in _decisions(np, _float_rule(np, logs, n), n, m, q, size, overrides):
        # (points, symbols, codes): the sums run over the leading axis, in
        # contiguous rows (over a trailing axis of a few points they ran one
        # short row at a time); a zero probability adds k_i * _LOG_ZERO and
        # weighs 0.0 where k_i > 0
        counts, index = np.unique(k, return_inverse=True)
        log_mass = math.lgamma(n + 1) - _mapped(np, math.lgamma, counts + 1.0)[index.reshape(k.shape)].sum(axis=1)
        log_mass = log_mass[:, None, None] + k[:, 0, None, None] * logs.T[0]
        for i in range(1, q):
            log_mass += k[:, i, None, None] * logs.T[i]
        mass = np.exp(log_mass, out=log_mass)
        mine = decoded.T[:, None, :] == symbol
        hit += mass.sum(axis=0, where=mine)
        miss += mass.sum(axis=0, where=~mine)
    small = miss <= 0.5
    return np.where(small, 1.0 - miss, hit).T, np.where(small, miss, 1.0 - hit).T


def _grid_rows(m: int, q: int) -> int:
    """Grid points per chunk: a chunk's scores and counts fit ``_BLOCK_ELEMENTS`` (or one row)."""
    return max(1, _BLOCK_ELEMENTS // max(m, q))


def _codes_per_group(m: int, q: int, size: int) -> int:
    """Codes that :func:`_float_success` decodes at once over a grid of ``size`` points."""
    return max(1, _BLOCK_ELEMENTS // (min(size, _grid_rows(m, q)) * m))


def _log_table(np, probs: "np.ndarray") -> "np.ndarray":
    """``math.log`` of each probability; ``_LOG_ZERO`` for 0 and ``0.0 = math.log(1.0)`` for 1."""
    table = np.full(probs.shape, _LOG_ZERO)
    table[probs == 1.0] = 0.0
    inner = (probs > 0.0) & (probs != 1.0)
    table[inner] = _mapped(np, math.log, probs[inner])
    return table


def _mapped(np, function, *arrays: "np.ndarray") -> "np.ndarray":
    """``function`` (a Python builtin) applied elementwise, without a list of Python numbers."""
    flat = [memoryview(np.ascontiguousarray(a).ravel()) for a in arrays]
    return np.fromiter(map(function, *flat), dtype=float, count=len(flat[0])).reshape(arrays[0].shape)


def _decode(np, logs: "np.ndarray", fractions: "np.ndarray", slack) -> tuple["np.ndarray", "np.ndarray"]:
    """The decision kernel: from the scores ``sum_i fractions_i * logs_ji``, the (codes, points)
    index of the first symbol within ``slack`` (a float, or one per point) of each point's best
    score, and the (symbols, codes, points) mask of the symbols within it.  A point no symbol
    can produce has an empty mask and goes to symbol 0: all tie at -inf, and the first wins."""
    # (symbols, codes, points): numpy reduces a leading axis in contiguous
    # runs, but a trailing axis of a few symbols one short row at a time (the
    # maximum of 4 symbols over 4,096 rows took 8 us this way, 220 us that way)
    scores = np.zeros((logs.shape[1], len(logs), len(fractions)))
    for i in range(fractions.shape[1]):
        scores += fractions[None, None, :, i] * logs.T[i, :, :, None]
    best = scores.max(axis=0)
    within = (scores >= best - slack) & (best >= _IMPOSSIBLE)
    return within.argmax(axis=0), within


#: The exact path keeps as candidates the symbols whose float score is within
#: ``(q + 8) * _MARGIN_UNIT`` times the row's score scale of the best score.
_MARGIN_UNIT = 2.0**-48


def _integers(symbols: Sequence[CompositeSymbol]) -> tuple[int, list[list[int]]]:
    """``D``, the lcm of the exact ``symbols``' denominators, and each one's integers ``b_ji = p_ji * D``."""
    lcm = math.lcm(*(c.denominator for s in symbols for c in s.probs))
    return lcm, [[c.numerator * (lcm // c.denominator) for c in s.probs] for s in symbols]


def _likelihood(scaled: Sequence[int], point: Sequence[int]) -> int:
    """``N_j = prod_i b_ji**k_i`` of one symbol's integers ``b_ji`` at the point ``k``, with ``0**0 = 1``."""
    return math.prod(map(pow, scaled, point))


def _integer_mass(scaled: Sequence[int], point: Sequence[int]) -> int:
    """``C(n; k) * N_j``: the mass of the point ``k`` under a symbol of integers ``b_ji``, times
    ``D**n``.  Where the likelihood ``N_j`` is 0 this is 0, and ``C(n; k)`` is not computed."""
    likelihood = _likelihood(scaled, point)
    return likelihood and multinomial_coefficient(point) * likelihood


def _exact_rule(np, scaled: Sequence[Sequence[int]], n: int) -> Callable:
    """The decision rule of an exact code at ``n`` reads, from its symbols'
    integers ``b_ji = p_ji * D`` (``_integers``): a function from a chunk's
    (points, q) counts to the (points,) index of the symbol each point decodes
    to.

    Symbol ``j`` gives observation ``k`` the likelihood ``N_j / D**n`` with
    ``N_j = prod_i b_ji**k_i``, and the float score ``sum_i (k_i / n) *
    math.log(b_ji)`` approximates ``log(N_j) / n``.  ``math.log`` of a
    positive integer is within ``2**-50`` of the true value, relatively (a
    rounding to float or a frexp split, then a log within one ulp); the
    quotient ``k_i / n``, each product and each of the at most ``q - 1``
    additions add at most ``2**-53`` each, relatively.  So a score is within
    ``(q + 8) * 2**-52 * s`` of ``log(N_j) / n``, where the row's scale is
    ``s = sum_i (k_i / n) * max(0, max_j log b_ji)``.  ``_decode`` keeps the
    symbols within ``(q + 8) * 2**-48 * s`` of the best score: eight times
    the two-sided error, which also covers the rounding of the margin itself,
    so no true maximizer is left out.  Each chunk's margins are summed column
    by column, in the order of the per-point sum they replace, so they keep
    its bits (a matrix product would add about 150 kB to the peak resident
    set on its first use).

    A point with one symbol within the margin decodes to it; at a near-tie
    (two or more) the first strict maximum of their integers ``N_j`` wins.
    A point no symbol can produce goes to symbol 0, as ``_decode`` sends it.
    """
    m, q = len(scaled), len(scaled[0])
    logs = np.array([math.log(b) if b else _LOG_ZERO for row in scaled for b in row]).reshape(1, m, q)
    scale = np.maximum(logs[0].max(axis=0), 0.0)
    slack = (q + 8) * _MARGIN_UNIT / n

    def decide(k: "np.ndarray") -> "np.ndarray":
        margins = np.zeros(len(k))
        for i in range(q):
            margins += k[:, i] * scale[i]
        [decoded], within = _decode(np, logs, k / n, slack * margins)
        for r in np.flatnonzero(within.sum(axis=0)[0] > 1).tolist():
            point = k[r].tolist()
            # max keeps the first of equal maxima
            decoded[r] = max(np.flatnonzero(within[:, 0, r]).tolist(), key=lambda j: _likelihood(scaled[j], point))
        return decoded

    return decide


def _exact_success(
    symbols: Sequence[CompositeSymbol], n: int, size: int, overrides: Mapping[int, int]
) -> list[Fraction]:
    """Exact-path success of an exact code over the ``size`` points of its grid.

    The grid pass (:func:`_decisions`) decides each chunk by ``_exact_rule``
    and writes the overrides, as on the float path; each point then adds its
    integer mass under its decoded symbol (``_integer_mass``) to that
    symbol's total.  Each success is its total over ``D**n``, one exact
    division per symbol, which equals the sum of the points' exact
    multinomial masses.
    """
    import numpy as np

    lcm, scaled = _integers(symbols)
    decide = _exact_rule(np, scaled, n)
    totals = [0] * len(symbols)
    for k, decoded in _decisions(np, decide, n, len(symbols), symbols[0].q, size, overrides):
        for point, j in zip(k.tolist(), decoded.tolist()):
            totals[j] += _integer_mass(scaled[j], point)
    denominator = lcm**n
    return [Fraction(total, denominator) for total in totals]


def construct_distinct_support(q: int, partition: Sequence[Iterable[int]]) -> CompositeCode:
    """Code of uniform symbols on the ``m = len(partition)`` disjoint nonempty subsets of 1..q it lists.

    Distinct supports make every observation attributable to exactly one
    codeword, so the code decodes perfectly at every read count.  ``q`` and
    the part entries must be ints.
    """
    q = _integer("q", q)
    parts = [tuple(sorted({_integer("part entry", i) for i in part})) for part in partition]
    if not 1 <= (m := len(parts)) <= q:
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
    success probability; for q >= 2 its exact figures of merit at n reads are

        f_min = 1 - (1/q)^(n-1)        f_avg = 1 - 1/(q^(n-1) (q+1)).

    For q = 1 the uniform symbol coincides with the single base symbol and the
    code collapses to one symbol, which always decodes: f_min = f_avg = 1.
    ``_base_plus_uniform_success`` gives both figures for every q.
    """
    q = _integer("q", q, 1)
    symbols = {base_symbol(q, i) for i in range(1, q + 1)}
    symbols.add(uniform_symbol(q, exact=True))
    return CompositeCode(symbols)


def _base_plus_uniform_success(q: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact ``(f_min, f_avg)`` of ``construct_base_plus_uniform(q)`` at ``n`` reads.

    Equal to the ``f_min`` and ``f_avg`` of :func:`evaluate_code` on that code,
    from the closed forms; refuses q < 1, n < 1 and non-int arguments with ``ValueError``.
    ``q**(n - 1)`` has at most ``(n - 1) * ceil(log2 q) + 1`` bits, exactly that many
    where q is a power of two; above ``_MAX_POINT_BITS`` it is refused with
    ``UnsupportedRangeError`` before it is formed.
    """
    q, n = _integer("q", q), _integer("n", n)
    if q < 1 or n < 1:
        raise ValueError(f"need q >= 1 and n >= 1, got q={q}, n={n}")
    if q == 1:
        return Fraction(1), Fraction(1)
    if (bits := (n - 1) * (q - 1).bit_length() + 1) > _MAX_POINT_BITS:
        raise UnsupportedRangeError(f"q**(n-1) of up to {bits} bits exceeds the cap of {_MAX_POINT_BITS}")
    miss = Fraction(1, q ** (n - 1))
    return 1 - miss, 1 - miss / (q + 1)


def construct_grid_code(n: int, q: int, max_enum: int = DEFAULT_MAX_ENUM) -> CompositeCode:
    """The code whose symbols are all empirical distributions of n reads.

    Every observation decodes to itself, so the per-symbol success probability
    equals that grid point's self-decoding probability.
    """
    n, _ = _checked_grid_size(n, q, max_enum)
    return CompositeCode(CompositeSymbol(Fraction(k, n) for k in counts) for counts in _compositions(n, q))


def self_decoding_probability(counts: Sequence[int]) -> Fraction:
    """Probability that ``n = sum(counts)`` reads of the grid point ``counts / n`` reproduce ``counts``.

    The multinomial mass of the observation under its own distribution, in
    integers over one denominator: ``C(n; k) * prod_i k_i**k_i / n**n``,
    returned exactly.  Counts are checked as :func:`mld_decode` checks them.
    ``n * n.bit_length()``, at least the bits of ``n**n``, above
    ``_MAX_SELF_BITS`` (every n >= 2**16) is refused with
    ``UnsupportedRangeError`` before any big integer is formed.
    """
    counts, n = _counts(counts)
    if (bits := n * n.bit_length()) > _MAX_SELF_BITS:
        raise UnsupportedRangeError(f"n**n for n={n} reads has up to {bits} bits, beyond the cap of {_MAX_SELF_BITS}")
    return Fraction(_integer_mass(counts, counts), n**n)


def _grid_code_success(n: int, q: int, max_enum: int = DEFAULT_MAX_ENUM) -> tuple[Fraction, Fraction]:
    """Exact ``(f_min, f_avg)`` of ``construct_grid_code(n, q, max_enum)`` at ``n`` reads.

    Every grid point decodes to itself, so these are the minimum and the mean of the
    points' :func:`self_decoding_probability`, kept in integer masses and divided once.
    Grids above ``max_enum`` points are refused as :func:`construct_grid_code` refuses them.
    """
    n, size = _checked_grid_size(n, q, max_enum)
    if q == 1:  # the one point (n,) decodes to itself with probability 1
        return Fraction(1), Fraction(1)
    whole = n**n  # no mass exceeds it: each is a probability times n**n
    low, total = whole, 0
    for k in _compositions(n, q):
        mass = _integer_mass(k, k)
        low, total = min(low, mass), total + mass
    return Fraction(low, whole), Fraction(total, whole * size)
