"""Fixed reference tasks that show how fast the machine runs at the moment.

On a shared virtual machine the speed of everything drifts with the
neighbours' load, by up to 1.4x over minutes, and the speed of imports by up
to 2x.  The median time of a probe tracks that drift for work of the probe's
own kind, so each end-to-end time is reported as ``measured * reference /
median probe time``: seconds at the speed at which the probe takes its
reference time.

- ``ComputeProbe`` (half interpreted Python, half small numpy calls) scales
  ``wall_s``.  Over 20-second windows, dividing ``mc-validate``'s window
  medians by it cut their spread (interquartile range over median) from 0.23
  to under 0.09.
- ``import_s("numpy")``, a fresh interpreter timing its own import of numpy,
  scales ``setup_s``, which is mostly imports.  Over ten runs of
  ``code-design``'s set-up, one of them in a spell when imports ran 1.9x
  faster, the medians scaled by it stayed within 0.199-0.229 s; raw they
  ranged over 0.135-0.238 s, and scaled by the compute probe over
  0.131-0.187 s.

The probes use nothing from cdna, so no change to the library moves them.
"""
from __future__ import annotations

import subprocess
import sys
from statistics import median
from time import perf_counter

#: compute-probe samples taken after each measured round
SAMPLES = 4
# The reference times are near the probes' medians on the 2-CPU machine the
# figures in README.md come from.
#: compute-probe time at the reference speed
REFERENCE_S = 0.015
#: seconds a fresh interpreter takes to import numpy at the reference speed
IMPORT_REFERENCE_S = 0.15


def scale(samples: list[float], reference_s: float = REFERENCE_S) -> float:
    """Factor that turns a time measured alongside ``samples`` into seconds at the reference speed."""
    return reference_s / median(samples)


def timed_import(module: str) -> str:
    """Code that imports ``module`` and prints the seconds the import took."""
    return f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"


def import_s(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module``, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", timed_import(module)], check=True, capture_output=True, text=True, timeout=60
    )
    return float(out.stdout)


class ComputeProbe:
    """Half interpreted Python, half small numpy calls, like the in-process workloads."""

    def __init__(self) -> None:
        # numpy is imported here, after cdna: loaded ahead of cdna it leaves a
        # resident set about 2 MB larger.  The arrays are small and fixed, so
        # the probe neither loads numpy.random nor adds to the peak memory.
        import numpy as np

        self._np = np
        self._draws = (np.arange(8 * 256, dtype=np.uint64) * 7919 % 16).reshape(8, 256)
        self.samples: list[float] = []

    def _task(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        np = self._np
        for _ in range(600):
            np.bitwise_or.accumulate(np.left_shift(np.uint64(1), self._draws), axis=0)

    def sample(self, count: int = SAMPLES) -> None:
        for _ in range(count):
            start = perf_counter()
            self._task()
            self.samples.append(perf_counter() - start)
