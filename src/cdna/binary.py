"""Binary-alphabet results: likelihood thresholds and the optimal size-4 code.

Binary codewords are written in scalar shorthand: the symbol (x, 1-x) is just
``x``.  A sorted binary code places its codewords on [0, 1], and any observed
fraction decodes to one of its two neighbors on that line.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from numbers import Real
from typing import Union

from .codes import DEFAULT_MAX_ENUM, CompositeCode, _codes_per_group, _float_success, _screen_margin
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
    """Grid-search oracle for the size-4 optimum: exhaustive argmax of f_min.

    Evaluates the minimum success probability of {0, x, 1-x, 1} under
    maximum-likelihood decoding for every grid point x = i * grid_step in
    (0, 0.5) and returns the first maximizer together with its objective
    value.  This is the independent check for :func:`construct_binary4`; it
    makes no use of the closed forms.  ``grid_step`` is taken as a float once,
    and both the candidates and ``x_star`` are built from that float.  The
    returned value is ``evaluate_code(code, n).f_min`` bit for bit.

    The search screens, then certifies.  The candidates go as arrays, one
    group at a time (as many codes as fill one block of at most
    ``codes._BLOCK_ELEMENTS`` scores over the grid), through the float
    kernel of :func:`~cdna.codes.evaluate_code`, ``codes._float_success``,
    with ``screen=True``: a direct mass takes its powers ``p**k`` from
    numpy's ``power``, not from libm's ``pow``.  Decisions, the log table
    and log-space masses are the kernel's, bit for bit.  Only the candidates
    whose screened ``f_min`` is within ``2 * delta`` of the best screened
    value so far, and within ``delta`` of the best certified value so far,
    go through the unchanged kernel, and certified values alone pick the
    result, the first strict maximum winning.  Pending survivors are certified, in index order, whenever they
    fill a group, so memory stays that of about one block however many
    candidates there are.  Where the objective is flat, every candidate
    survives and is weighed twice: at n = 2, where f_min is 0 everywhere,
    and at large n, where it rounds to 1.0 over a range of x (refused below).

    ``delta = codes._screen_margin(n) = 64 * (n + 8) * 2**-53`` bounds
    |screened - certified| ``f_min`` more than 15 times over: to first
    order the two differ by at most ``(2n + 36) * 2**-53``, if libm's
    ``pow`` and numpy's ``power`` are each within 4 ulps (the derivation is
    ``_screen_margin``'s).  So the first maximizer of the certified values
    is never pruned: its screened value is less than ``2 * delta`` below any
    screened or certified value, and less than ``delta`` below any certified
    one.

    Refuses with ``UnsupportedRangeError``, before any work, a grid of ``n``
    reads above ``max_enum`` points, and a search whose candidates times grid
    points, ``ceil(0.5 / grid_step) * (n + 1)``, exceed ``max_enum``.  It
    also refuses, after the search, where the best f_min rounds to 1.0 (at
    step 1e-3 from n = 159 on): every candidate that rounds to 1.0 ties
    there, and the first of them, far from the optimum, would win.
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

    def f_min(i: "np.ndarray", screen: bool = False) -> "np.ndarray":
        # The symbols of CompositeCode.binary([0.0, x, 1.0 - x, 1.0]) in its
        # sorted order, the order of the values for 0 < x < 0.5.  Their
        # probabilities are (v, 1 - v) as given: v + (1 - v) rounds to exactly
        # 1 for every float v in [0, 1], so CompositeSymbol never renormalizes.
        x = i * step
        v = np.stack([np.zeros_like(x), x, 1.0 - x, np.ones_like(x)], axis=1)
        return _float_success(np.stack([v, 1 - v], axis=2), n, size, screen=screen).min(axis=1)

    def certify(i: "np.ndarray") -> None:
        nonlocal best_i, best_f
        values = f_min(i)
        j = int(values.argmax())  # the first maximizer of the group
        if best_f is None or values[j] > best_f:
            best_i, best_f = int(i[j]), float(values[j])

    group, delta = _codes_per_group(4, 2, size), _screen_margin(n)
    best_i = best_f = top = None
    pending, screened = np.empty(0, dtype=np.int64), np.empty(0)  # survivors in index order
    for first in range(1, stop, group):
        i = np.arange(first, min(first + group, stop))
        values = f_min(i, screen=True)
        pending, screened = np.append(pending, i), np.append(screened, values)
        top = values.max() if top is None else max(top, values.max())
        floor = top - 2 * delta if best_f is None else max(top - 2 * delta, best_f - delta)
        pending, screened = pending[screened >= floor], screened[screened >= floor]
        while len(pending) >= group or (len(pending) and first + group >= stop):
            certify(pending[:group])
            pending, screened = pending[group:], screened[group:]
    if best_f >= 1.0:
        raise UnsupportedRangeError(
            f"f_min rounds to {best_f!r} at n={n}: the grid search's candidates tie there, so it is no oracle"
        )
    return best_i * step, best_f
