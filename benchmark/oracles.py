"""Independent oracles for the cdna benchmark.

Nothing here imports ``cdna``: each answer the benchmark checks is recomputed
by a route the library does not take.

* Coverage depth comes from the covered-count Markov chain of one index
  (``c -> c+1`` with probability ``1 - c/omega``), the classical occupancy /
  coupon-collector treatment (Flajolet, Gardy and Thimonier, 1992).  The
  probability that an index is still uncovered is the sum of the chain's
  non-full states, so every term is positive and nothing cancels.
* Partial recovery is the ``r``-th order statistic of ``ell`` independent
  index-recovery times; random access multiplies by ``k``; at ``ell = 1`` the
  answer is ``omega * H_omega``.
* Grid codes decode every observation to itself, so each symbol's success is
  its exact multinomial self-decoding mass.
* Binary codes decode by comparing exact rational likelihoods, ties going to
  the smaller codeword, and succeed with binomial sums over those regions.
* The optimal size-4 binary code sits at the stationary odds ratio ``beta_n``.

``self_check()`` tests these oracles against values derived by hand.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

#: the chain stops once ``ell * u_m`` drops below this; the remaining tail is
#: geometric with ratio at most (omega-1)/omega.
_TAIL = 1e-17


class CoverageChain:
    """Distribution of the covered count of one index, read by read.

    ``uncovered[m]`` is the probability that ``m`` reads have not yet shown all
    ``omega`` symbols of the index; ``full[m]`` is its complement, tracked as
    its own chain state so neither is formed by subtraction.
    """

    def __init__(self, omega: int):
        if omega < 1:
            raise ValueError(f"omega must be >= 1, got {omega}")
        self.omega = omega
        self._probs = [1.0] + [0.0] * omega
        self.uncovered = [1.0]
        self.full = [0.0]

    def extend(self, ell: int) -> None:
        """Advance until ``ell * uncovered[m]`` is negligible."""
        w = self.omega
        probs = self._probs
        while not (len(self.uncovered) > w + 1 and ell * self.uncovered[-1] < _TAIL):
            nxt = [0.0] * (w + 1)
            for c, p in enumerate(probs):
                if p:
                    nxt[c] += p * (c / w)
                    if c < w:
                        nxt[c + 1] += p * ((w - c) / w)
            probs = nxt
            self.uncovered.append(math.fsum(probs[:w]))
            self.full.append(probs[w])
        self._probs = probs

    def expected(self, ell: int) -> float:
        """Expected reads until all ``ell`` indices are covered."""
        self.extend(ell)
        terms = []
        for u, f in zip(self.uncovered, self.full):
            if f == 0.0:
                terms.append(1.0)
            elif u < 0.5:
                terms.append(-math.expm1(ell * math.log1p(-u)))
            else:
                terms.append(-math.expm1(ell * math.log(f)))
        return math.fsum(terms)

    def expected_partial(self, ell: int, r: int) -> float:
        """Expected reads until at least ``r`` of ``ell`` indices are covered.

        The ``r``-th smallest of ``ell`` independent recovery times exceeds
        ``m`` exactly when fewer than ``r`` indices are covered at ``m``.
        """
        if not 1 <= r <= ell:
            raise ValueError(f"need 1 <= r <= ell, got r={r}, ell={ell}")
        self.extend(ell)
        terms = []
        for u, f in zip(self.uncovered, self.full):
            terms.append(
                math.fsum(math.comb(ell, j) * f**j * u ** (ell - j) for j in range(r))
            )
        return math.fsum(terms)


class CoverageOracle:
    """Chains per support size, shared by every question of a workload."""

    def __init__(self) -> None:
        self._chains: dict[int, CoverageChain] = {}

    def chain(self, omega: int) -> CoverageChain:
        if omega not in self._chains:
            self._chains[omega] = CoverageChain(omega)
        return self._chains[omega]

    def expected(self, ell: int, omega: int) -> float:
        if ell == 1:
            return float(coupon_collector(omega))
        return self.chain(omega).expected(ell)

    def partial(self, ell: int, omega: int, r: int) -> float:
        return self.chain(omega).expected_partial(ell, r)

    def random_access(self, ell: int, omega: int, k: int) -> float:
        return k * self.expected(ell, omega)


def coupon_collector(omega: int) -> Fraction:
    """``omega * H_omega``: expected draws to see all of ``omega`` coupons."""
    return omega * sum(Fraction(1, i) for i in range(1, omega + 1))


def multinomial(counts: Sequence[int]) -> int:
    out = math.factorial(sum(counts))
    for k in counts:
        out //= math.factorial(k)
    return out


def self_decoding_mass(counts: Sequence[int]) -> Fraction:
    """Probability that ``n = sum(counts)`` reads of the grid point counts/n reproduce it."""
    n = sum(counts)
    mass = Fraction(multinomial(counts))
    for k in counts:
        if k:
            mass *= Fraction(k, n) ** k
    return mass


def qplus1_success(q: int, n: int) -> tuple[Fraction, Fraction]:
    """(base-symbol success, uniform-symbol success) of the q+1 code at n reads.

    A base symbol's reads are all one letter, which the base symbol explains
    with probability 1; the uniform symbol wins every other observation and
    loses the ``q`` constant ones.
    """
    return Fraction(1), 1 - Fraction(q, q**n)


def qplus1_closed_forms(q: int, n: int) -> tuple[Fraction, Fraction]:
    """(f_min, f_avg) = (1 - q^-(n-1), 1 - 1/(q^(n-1) (q+1)))."""
    return 1 - Fraction(1, q ** (n - 1)), 1 - Fraction(1, q ** (n - 1) * (q + 1))


def binary_success(
    values: Sequence[float],
    n: int,
    overrides: Optional[Mapping[int, int]] = None,
) -> list[Fraction]:
    """Per-codeword success of a binary code under maximum likelihood.

    ``values`` are the first coordinates, ascending.  Observation ``k`` (reads
    of the first letter) decodes to the codeword of largest exact likelihood
    ``x^k (1-x)^(n-k)``, ties to the smaller ``x``; ``overrides`` maps ``k``
    to a codeword index instead.  Success is the binomial mass of each region.
    """
    xs = [Fraction(v) for v in values]
    success = [Fraction(0)] * len(xs)
    overrides = overrides or {}
    for k in range(n + 1):
        likes = [x**k * (1 - x) ** (n - k) for x in xs]
        if k in overrides:
            best = overrides[k]
        else:
            best = max(range(len(xs)), key=lambda i: (likes[i], -i))
        success[best] += math.comb(n, k) * likes[best]
    return success


def binary4_alpha(n: int) -> float:
    """Inner value ``1/(1+beta_n)`` of the optimal code {0, x, 1-x, 1}.

    Odd ``n = 2m+1``: the inner symbol succeeds on ``1 <= Bin(n, x) <= m`` and
    its stationary point has ``beta^m = (m+1) C(2m+1, m) / (2m+1)``.  Even
    ``n = 2m``: the tie at 1/2 goes to the smaller inner symbol, so the worst
    succeeds on ``1 <= Bin(n, x) <= m-1`` and ``beta^(m-1) = C(2m-1, m-1)``.
    """
    if n < 3:
        raise ValueError(f"stationary point defined for n >= 3, got {n}")
    if n % 2:
        m = (n - 1) // 2
        power, value = m, Fraction((m + 1) * math.comb(2 * m + 1, m), 2 * m + 1)
    else:
        m = n // 2
        power, value = m - 1, Fraction(math.comb(2 * m - 1, m - 1))
    beta = float(value) ** (1.0 / power)
    return 1.0 / (1.0 + beta)


def rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def self_check() -> list[str]:
    """Names of the hand-derived identities the oracles fail (empty when all hold)."""
    oracle = CoverageOracle()
    failures = []

    def expect(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    # One index of two symbols: one read plus a Geometric(1/2) wait, 1 + 2 = 3.
    expect("E(1,2)=3", rel_close(oracle.chain(2).expected(1), 3.0, 1e-14))
    # The first of two such indices: 1 + Geometric(3/4), 1 + 4/3 = 7/3.
    expect("E_partial(2,2,1)=7/3", rel_close(oracle.partial(2, 2, 1), 7 / 3, 1e-14))
    for k in (1, 2, 5):
        expect(f"E_ra(1,2,{k})={3 * k}", rel_close(oracle.random_access(1, 2, k), 3.0 * k, 1e-14))
    # The chain itself, not the closed form, must give omega * H_omega.
    for omega in (2, 3, 5, 16, 40, 64):
        want = float(coupon_collector(omega))
        expect(f"E(1,{omega})=omega*H_omega", rel_close(oracle.chain(omega).expected(1), want, 1e-12))
    # Partial with r = ell is full recovery.
    expect("E_partial(3,3,3)=E(3,3)", rel_close(oracle.partial(3, 3, 3), oracle.expected(3, 3), 1e-12))
    # n = 3: beta^1 = 2 * C(3, 1) / 3 = 2, so alpha = 1/3.
    expect("alpha_3=1/3", rel_close(binary4_alpha(3), 1 / 3, 1e-15))
    # Two reads of a binary grid point (1/2, 1/2) reproduce it with probability 1/2.
    expect("self_mass(1,1)=1/2", self_decoding_mass((1, 1)) == Fraction(1, 2))
    # {0, 1} decodes perfectly: each symbol's reads are constant.
    expect("binary{0,1} perfect", binary_success([0.0, 1.0], 4) == [1, 1])
    return failures


if __name__ == "__main__":
    failed = self_check()
    print("oracle self-check:", "ok" if not failed else "FAILED " + ", ".join(failed))
    raise SystemExit(1 if failed else 0)
