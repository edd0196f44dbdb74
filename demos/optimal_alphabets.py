#!/usr/bin/env python3
"""Optimal composite alphabets at three code sizes.

Small codes (m <= q) decode perfectly with disjoint supports; at m = q + 1 the
best addition is the uniform mixture; and at the maximal useful size the grid
of observable distributions is itself optimal.
"""
from fractions import Fraction

from cdna import (
    construct_base_plus_uniform,
    construct_distinct_support,
    construct_grid_code,
    enumerate_observed,
    evaluate_code,
    self_decoding_probability,
)

print("1. Disjoint supports decode perfectly at any read count.")
code = construct_distinct_support(4, [(1, 2), (3, 4)])
for n in (1, 3, 6):
    result = evaluate_code(code, n)
    print(f"   n={n}: f_min = {result.f_min}, f_avg = {result.f_avg}")

print("\n2. One more symbol than the alphabet: base indicators plus the uniform mixture.")
for q in (2, 3):
    code = construct_base_plus_uniform(q)
    print(f"   q={q}: {[tuple(map(str, s.probs)) for s in code.symbols]}")
    print("      n   f_min (exact)        f_avg (exact)")
    for n in (1, 2, 3, 5):
        result = evaluate_code(code, n)
        closed_min = 1 - Fraction(1, q ** (n - 1))
        closed_avg = 1 - Fraction(1, q ** (n - 1) * (q + 1))
        assert (result.f_min, result.f_avg) == (closed_min, closed_avg)
        print(f"     {n:2d}   {str(result.f_min):18s}   {result.f_avg}")

print("\n3. The full observation grid as a code: every observation decodes to itself,")
print("   so each symbol's success is its self-decoding probability.")
n, q = 4, 2
code = construct_grid_code(n, q)
betas = {t: self_decoding_probability(t) for t in enumerate_observed(n, q)}
result = evaluate_code(code, n)
for theta, beta in betas.items():
    print(f"   {theta}: beta = {beta}")
print(f"   f_min = {result.f_min} = min beta;  f_avg = {result.f_avg} = mean beta")
print("   (the minimum sits at the balanced observation, the hardest to reproduce)")
