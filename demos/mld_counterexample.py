#!/usr/bin/env python3
"""Maximum likelihood is optimal on average, but not for the worst codeword.

The three-symbol binary code {0.4, 0.5, 0.6} read 10 times shows both facts:
no decoder beats maximum likelihood on the average success probability, yet a
one-observation override raises the minimum.
"""
from cdna import (
    CompositeCode,
    binary_threshold,
    custom_decoder_from_table,
    decoding_region,
    evaluate_code,
    mld_decode,
)

code = CompositeCode.binary([0.4, 0.5, 0.6])
N = 10

print("Code {0.4, 0.5, 0.6}, n = 10 reads.\n")
print(f"The 0.4-vs-0.5 likelihood crossover sits at {binary_threshold(0.4, 0.5):.4f},")
print("so observed fractions up to 0.4 decode to 0.4, and 0.5 keeps only")
print("the exact middle observation:\n")
for symbol in code.symbols:
    region = decoding_region(code, symbol, N)
    fractions = [f"{t[0]}/10" for t in region]
    print(f"  region of {symbol.probs[0]:.1f}: {', '.join(fractions)}")

mld = evaluate_code(code, N)
print("\nPer-symbol success under maximum likelihood:")
for symbol in code.symbols:
    print(f"  {symbol.probs[0]:.1f}: {mld.per_symbol_success[symbol]:.6f}")
print(f"  f_min = {mld.f_min:.6f}, f_avg = {mld.f_avg:.6f}")

print("\nNow override the all-second-symbol observation (0,10) to decode to 0.5.")
decoder = custom_decoder_from_table(code, N, {(0, 10): 1})
alt = evaluate_code(code, N, decoder=decoder)
for symbol in code.symbols:
    print(f"  {symbol.probs[0]:.1f}: {alt.per_symbol_success[symbol]:.6f}")
print(f"  f_min = {alt.f_min:.6f}  (> {mld.f_min:.6f}: the minimum improved)")
print(f"  f_avg = {alt.f_avg:.6f}  (< {mld.f_avg:.6f}: the average cannot improve)")

print("\nSanity check of one decode: observing counts (3, 7) ...")
print(f"  decodes to {mld_decode(code, (3, 7)).probs[0]:.1f} (3/10 < 0.4497 threshold)")
