"""Reference figures for benchmark/README.md, measured on the machine at hand.

    python3 benchmark/reference.py          # about a minute on 2 CPUs

Prints one line per figure: bare interpreter start, ``import numpy`` and
``import cdna.cli`` in a fresh interpreter (median of 5), the largest exact
coverage expansion the workloads ask for, and one that the term cap accepts
but that takes tens of seconds.
"""
from __future__ import annotations

import math
import sys
from time import perf_counter

from worker import SRC, fresh_interpreter_ms, timed_import


def main() -> None:
    print(f"bare interpreter start (python -c pass): {fresh_interpreter_ms('pass', inner=False):.0f} ms")
    for module in ("numpy", "cdna.cli"):
        ms = fresh_interpreter_ms(timed_import(module), inner=True)
        print(f"import {module}, timed inside a fresh interpreter: {ms:.0f} ms")
    sys.path.insert(0, SRC)
    from cdna.coverage import MAX_EXACT_TERMS, expected_coverage_exact

    for ell, omega in ((90, 3), (150, 3)):
        terms = math.comb(ell + omega - 1, omega - 1)
        start = perf_counter()
        value = expected_coverage_exact(ell, omega)
        seconds = perf_counter() - start
        bits = value.numerator.bit_length() + value.denominator.bit_length()
        print(
            f"expected_coverage_exact({ell}, {omega}): {seconds:.1f} s, {terms} terms "
            f"(cap {MAX_EXACT_TERMS}), {bits} bits"
        )


if __name__ == "__main__":
    main()
