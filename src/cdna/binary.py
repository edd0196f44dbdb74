"""Binary-alphabet results: likelihood thresholds and the optimal size-4 code.

Binary codewords are written in scalar shorthand: the symbol (x, 1-x) is just
``x``.  A sorted binary code places its codewords on [0, 1], and any observed
fraction decodes to one of its two neighbors on that line.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import comb
from numbers import Real
from typing import Union

from .codes import DEFAULT_MAX_ENUM, CompositeCode, _codes_per_group, _float_success
from .model import UnsupportedRangeError, _checked_grid_size, _integer

Number = Union[int, float, Fraction]


def binary_threshold(x: Number, y: Number) -> float:
    """Observed fraction at which binary symbols x < y are equally likely.

    For 0 < x < y < 1, reads of x are more likely than reads of y exactly for
    observed fractions below

        log((1-y)/(1-x)) / log(x(1-y) / ((1-x)y)),

    obtained by equating per-read log-likelihoods
    t log x + (1-t) log(1-x) = t log y + (1-t) log(1-y) and solving for t.
    """
    x, y = float(x), float(y)
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError(f"need x, y strictly inside (0, 1), got x={x}, y={y}")
    if not x < y:
        raise ValueError(f"need x < y, got x={x}, y={y}")
    return math.log((1 - y) / (1 - x)) / math.log(x * (1 - y) / ((1 - x) * y))


def _int_root(value: Fraction, k: int) -> float:
    """float(value) ** (1/k) via big-integer logarithms, safe for huge values."""
    if k == 1:
        return float(value)
    return math.exp((math.log(value.numerator) - math.log(value.denominator)) / k)


def binary4_beta(n: int) -> float:
    """The odds ratio (1-x)/x at the optimal inner value of {0, x, 1-x, 1}.

    At read count n, the worst codeword of the symmetric code {0, x, 1-x, 1}
    under maximum-likelihood decoding is one of the inner pair; maximizing its
    success probability gives a unique stationary odds ratio:

    * odd n = 2m+1: the inner symbol's success is P[1 <= Bin(n, x) <= m], and
      stationarity gives beta^m = (m+1) C(2m+1, m) / (2m+1);

    * even n = 2m with m >= 2: the observed fraction 1/2 ties and goes to the
      lexicographically smaller inner symbol, so the worst symbol's success is
      P[1 <= Bin(n, x) <= m-1]; stationarity gives beta^(m-1) = C(2m-1, m-1).

    n = 2 is refused: a 4-symbol binary code sees only 3 observed distributions
    there, so every choice of x has minimum success probability 0 and no
    optimal inner value exists.

    beta -> 4 as n grows, so the optimal code converges to {0, 1/5, 4/5, 1}.
    """
    n = _integer("n", n, 2)
    if n == 2:
        raise ValueError(
            "n=2 is degenerate: only 3 observed distributions exist, so every "
            "4-symbol binary code has minimum success probability 0"
        )
    if n % 2:
        m = (n - 1) // 2
        return _int_root(Fraction(m + 1, 2 * m + 1) * comb(2 * m + 1, m), m)
    m = n // 2
    return _int_root(Fraction(comb(2 * m - 1, m - 1)), m - 1)


def binary4_alpha(n: int) -> float:
    """Optimal inner value of the size-4 symmetric binary code: 1 / (1 + beta_n)."""
    return 1.0 / (1.0 + binary4_beta(n))


def construct_binary4(n: int) -> CompositeCode:
    """The minimum-success-optimal 4-symbol binary code {0, alpha, 1-alpha, 1} at read count n."""
    alpha = binary4_alpha(n)
    return CompositeCode.binary([0.0, alpha, 1.0 - alpha, 1.0])


def optimize_binary4_grid(
    n: int,
    grid_step: float,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[float, float]:
    """Grid-search oracle for the size-4 optimum: exhaustive argmin of the worst miss.

    Evaluates {0, x, 1-x, 1} under maximum-likelihood decoding for every grid
    point x = i * grid_step in (0, 0.5) and returns the first candidate whose
    worst miss, the largest ``1 - f_j`` over its symbols, is smallest,
    together with its f_min.  This is the independent check for
    :func:`construct_binary4`; it makes no use of the closed forms.
    ``grid_step`` is taken as a float once, and both the candidates and
    ``x_star`` are built from that float.  The returned value is
    ``evaluate_code(code, n).f_min`` bit for bit: the kernel weighs each
    code of a group as it weighs that code alone, and sums each symbol's
    masses in point order.

    The search screens every candidate once through the float kernel of
    :func:`~cdna.codes.evaluate_code`, ``codes._float_success``, as arrays,
    one group at a time (as many codes as fill one block of at most
    ``codes._BLOCK_ELEMENTS`` scores over the grid), so memory stays that
    of about one block however many candidates there are.  It ranks by the
    misses the kernel returns, not by f_min: a miss keeps its relative
    accuracy where f_min rounds to 1.0 (at step 1e-3 from n = 159 on), so
    the ranking does not saturate there.

    Refuses with ``UnsupportedRangeError``, before any work, a grid of ``n``
    reads above ``max_enum`` points, and a search whose candidates times grid
    points, ``ceil(0.5 / grid_step) * (n + 1)``, exceed ``max_enum``.  It
    also refuses, after the search, where the best worst miss is below
    ``sys.float_info.min`` (at step 1e-3 from n = 3,175 on): a miss that
    small is subnormal or zero, and the candidates tie in its rounding.
    """
    try:
        step = float(grid_step) if isinstance(grid_step, Real) else math.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        step = math.inf
    if not 0.0 < step <= 1e-3:
        as_float = "" if type(grid_step) is float or math.isnan(step) else f", {step!r} as a float"
        raise ValueError(f"grid_step must lie in (0, 1e-3], got {grid_step!r}{as_float}")
    n, size = _checked_grid_size(n, 2, max_enum)
    # ceil(c) * size > max_enum exactly when c > max_enum // size; c may be inf
    if 0.5 / step > max_enum // size:
        raise UnsupportedRangeError(
            f"grid search at step {grid_step} evaluates about {0.5 / step:.3g} codes of "
            f"{size} points each, beyond the enumeration cap {max_enum}"
        )
    # the candidates are i * step for i in 1..stop-1, stop the first i with
    # i * step >= 0.5 (i * step grows with i)
    stop = math.ceil(0.5 / step)
    while stop > 1 and (stop - 1) * step >= 0.5:
        stop -= 1
    while stop * step < 0.5:
        stop += 1

    import numpy as np

    best_i = best_miss = best_f = None
    group = _codes_per_group(4, 2, size)
    for first in range(1, stop, group):
        # The symbols of CompositeCode.binary([0.0, x, 1.0 - x, 1.0]) in its
        # sorted order, the order of the values for 0 < x < 0.5.  Their
        # probabilities are (v, 1 - v) as given: v + (1 - v) rounds to exactly
        # 1 for every float v in [0, 1], so CompositeSymbol never renormalizes.
        x = np.arange(first, min(first + group, stop)) * step
        v = np.stack([np.zeros_like(x), x, 1.0 - x, np.ones_like(x)], axis=1)
        success, miss = _float_success(np.stack([v, 1 - v], axis=2), n, size)
        worst = miss.max(axis=1)
        j = int(worst.argmin())  # the first minimizer of the group
        if best_miss is None or worst[j] < best_miss:
            best_i, best_miss, best_f = first + j, float(worst[j]), float(success[j].min())
    if best_miss < sys.float_info.min:
        raise UnsupportedRangeError(
            f"the best worst miss is {best_miss!r} at n={n}, below the smallest normal float: "
            "the grid search's candidates tie there, so it is no oracle"
        )
    return best_i * step, best_f
