"""Seeded Monte Carlo simulation of the transmission process.

This module is the empirical oracle for the closed-form coverage results: it
draws actual uniform symbols from each index's support, tracks observed sets
as bitmasks, and counts reads until the stopping rule holds.  Nothing here
reuses the analytic formulas.

All three coverage settings are one process: read until ``r`` of ``ell``
indices are covered, where each read belongs to the target sequence with
probability ``1/k``.  Full recovery is ``r = ell, k = 1``, partial recovery is
``k = 1`` and random access is ``r = ell``; one loop, :func:`_reads_until`,
runs all of them.  At every ``k`` the driver first draws the first block of
many trials with the loop's own calls and settles them at once
(:func:`_settle_first_block`), since on short sequences one trial costs far
more in numpy calls than in draws; the trials that block leaves undecided run
the loop.  Trials too wide for that block run the loop on one thread per usable
CPU, as numpy draws with the GIL released.

Memory per trial is O(max(``_CHUNK_DRAWS``, ``ell``)) elements whatever the
block sizes: symbols are drawn at most ``_CHUNK_DRAWS`` at a time (one read
of ``ell`` symbols when that is more, and such one-read chunks skip the
running OR down the reads), and the loop keeps observed sets only for indices
not yet fully covered.  A run holds one trial per thread at once, so its
memory is the thread count times one trial's.  :class:`SimConfig` refuses
``ell`` and ``trials`` whose arrays would not fit in memory.

Determinism contract: trial ``t`` of a run with master seed ``s`` consumes a
private stream from a counter-based generator (Philox) keyed by ``(s, t)``, and
its count goes to slot ``t``.  Reports therefore do not depend on which thread
ran a trial or when: they are bit-identical whatever the thread count.

numpy is imported at first use, inside the functions that draw, so importing
this module (and with it ``cdna``) leaves numpy unloaded.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .coverage import CoverageParams
from .model import UnsupportedRangeError, _integer

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_TRANSMISSIONS = 10**6
#: The stopping rules :func:`run_simulation` knows, the values of ``SimConfig.mode``.
MODES = ("recovery", "partial", "ra")

_MASK64 = (1 << 64) - 1
_FIRST_BLOCK = 32
_MAX_BLOCK = 8192
#: symbol draws per chunk, in the loop and in the batched first block.  Every
#: draw array holds at most this many, or one read of ``ell`` when that is more.
_CHUNK_DRAWS = 1 << 14
#: The largest sequence and trial count a simulation accepts, so that no
#: request asks for arrays it cannot hold.  A trial peaks at about 26 bytes
#: per index, 38 at ``omega > 32`` (a read's 4-byte draws, the open indices'
#: masks and columns, and their comparisons): 26 MB at ``ell = 10**6``, per thread.
_MAX_ELL = 10**6
#: Counts take 8 bytes per trial, and the list of trials left to the loop, which
#: the threads share, at most about 48 more: 0.56 GB at ``10**7``.
_MAX_TRIALS = 10**7
#: normal 97.5% quantile, for two-sided 95% confidence intervals
_Z95 = 1.959963984540054

#: simulations below this many trials report no confidence interval; the
#: normal approximation is not trustworthy there.
MIN_TRIALS_FOR_CI = 30


def _workers() -> int:
    """Threads for the trials that skip the batched first block: one per usable CPU."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _word(name: str, value) -> int:
    """``value`` as an ``int`` in ``[0, 2**64)``, one word of a trial's Philox key."""
    value = _integer(name, value)
    # masked to 64 bits instead, values equal modulo 2**64 would share their samples
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic generator for one trial: Philox keyed by (seed, trial).

    Both must be integers in ``[0, 2**64)``; others raise ValueError.
    """
    import numpy as np

    key = np.array([_word("seed", seed), _word("trial", trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _TrialStreams:
    """Reusable equivalent of :func:`trial_rng` that avoids per-trial object churn.

    One Philox generator is reseeded per trial by assigning a state dict of
    plain Python ints, in which only the trial's key word changes: the state
    setter reads plain ints several times faster than numpy scalars.  The
    state is that of a fresh ``Philox(key=(seed, trial))``: counter zero and
    an empty buffer.
    """

    def __init__(self, seed: int):
        import numpy as np

        self._bg = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bg)
        self._key = [seed & _MASK64, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def trial(self, index: int) -> np.random.Generator:
        self._key[1] = index & _MASK64
        self._bg.state = self._state
        return self._rng


def _reads_until(
    rng: np.random.Generator, ell: int, omega: int, r: int, k: int, cap: int
) -> Optional[int]:
    """Number of reads until ``r`` of ``ell`` indices have shown all ``omega`` symbols.

    Each read belongs to the target sequence with probability ``1/k``; only
    target reads draw one symbol per index, uniformly from its support.  Reads
    come in doubling blocks, which fix where the label draws sit in the stream
    at ``k > 1``.  A block's symbols are one sequential stream, drawn at most
    ``_CHUNK_DRAWS`` at a time (one read when ``ell`` is larger), so the count
    does not depend on the chunking and memory stays O(max(``_CHUNK_DRAWS``,
    ``ell``)).  Each chunk is one flat uint32 ``integers`` call: for
    ``omega <= 2**32`` numpy fills it with the same bounded draws as int64,
    so values and stream match, in half the bytes.  Masks are uint32 where
    ``omega <= 32``.  After each chunk, the fully covered indices
    drop out: the loop keeps observed-set bitmasks for the open indices only
    and lowers ``r`` by the number just finished.  Returns ``None`` when
    ``cap`` reads pass without stopping.
    """
    import numpy as np

    word = np.uint32 if omega <= 32 else np.uint64
    full = word((1 << omega) - 1)
    one = word(1)
    masks = np.zeros(ell, dtype=word)
    cols = np.arange(ell)
    step = max(1, _CHUNK_DRAWS // ell)
    taken = 0
    block = _FIRST_BLOCK
    while taken < cap:
        rows = min(block, cap - taken)
        if k == 1:
            # rng.integers(0, 1) draws nothing from the stream, so skipping the
            # labels at k == 1 leaves every trial's stream unchanged.
            hits = np.arange(rows)
        else:
            hits = np.flatnonzero(rng.integers(0, k, size=rows) == 0)
        for lo in range(0, hits.size, step):
            n = min(step, hits.size - lo)
            symbols = rng.integers(0, omega, size=n * ell, dtype=np.uint32).reshape(n, ell)
            if cols.size < ell:
                symbols = symbols.take(cols, axis=1)
            acc = symbols.astype(word, copy=False)
            np.left_shift(one, acc, out=acc)
            if n > 1:
                acc = np.bitwise_or.accumulate(acc, axis=0)
            np.bitwise_or(acc, masks, out=acc)
            covered = acc == full
            # covered only grows down the rows, so the last row tells whether
            # any read in the chunk stops and how many indices it finished
            finished = np.count_nonzero(covered[-1])
            if finished >= r:
                done = (covered.sum(axis=1) >= r).argmax()
                return taken + int(hits[lo + done]) + 1
            masks = acc[-1]
            if finished:
                still_open = ~covered[-1]
                masks = masks[still_open]
                cols = cols[still_open]
                r -= finished
        taken += rows
        block = min(block * 2, _MAX_BLOCK)
    return None


def _settle_first_block(
    streams: _TrialStreams, trials: range, rows: int, ell: int, omega: int, r: int, k: int
) -> np.ndarray:
    """Reads to stop for each trial its first ``rows`` reads decide, else 0.

    Each trial's first block is drawn by the same ``integers`` calls as in
    :func:`_reads_until` (the read labels at ``k > 1``, then the target reads'
    symbols), so a settled count equals the loop's.  The chunk is settled in
    one array laid out (index, trial, read): a read that misses the target
    adds no symbol bits, so the first read that meets the rule is a target
    read and its row is the count.
    """
    import numpy as np

    symbols = np.zeros((len(trials), rows * ell), dtype=np.int64)
    target = None if k == 1 else np.empty((len(trials), rows), dtype=bool)
    for i, t in enumerate(trials):
        rng = streams.trial(t)
        if k == 1:
            symbols[i] = rng.integers(0, omega, size=rows * ell)
        else:
            target[i] = hit = rng.integers(0, k, size=rows) == 0
            hits = np.count_nonzero(hit)
            symbols[i, : hits * ell] = rng.integers(0, omega, size=hits * ell)
    drawn = symbols.view(np.uint64).reshape(len(trials), rows, ell).transpose(2, 0, 1)
    acc = np.left_shift(np.uint64(1), drawn, out=np.empty(drawn.shape, dtype=np.uint64))
    if k > 1:
        # trial i's target reads are its first count_nonzero(target[i]) rows;
        # move them to their reads and leave the other reads without bits
        placed = np.zeros_like(acc)
        placed[:, target] = acc[:, np.arange(rows) < target.sum(axis=1)[:, None]]
        acc = placed
    np.bitwise_or.accumulate(acc, axis=2, out=acc)
    covered = acc == np.uint64((1 << omega) - 1)
    done = covered.all(axis=0) if r == ell else covered.sum(axis=0) >= r
    return np.where(done.any(axis=1), done.argmax(axis=1) + 1, 0)


@dataclass(frozen=True)
class SimConfig:
    """One simulation request: estimator parameters, trial count, and seeding."""

    params: CoverageParams
    trials: int
    seed: int
    max_transmissions: int = DEFAULT_MAX_TRANSMISSIONS
    mode: str = "recovery"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _word("seed", self.seed))
        object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
        object.__setattr__(self, "max_transmissions", _integer("max_transmissions", self.max_transmissions, 1))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "partial" and self.params.r is None:
            raise ValueError("partial mode needs params.r")
        if self.mode == "ra" and self.params.k is None:
            raise ValueError("ra mode needs params.k")
        if self.mode != "partial" and self.params.r is not None:
            raise ValueError(f"params.r applies to partial mode only, got r={self.params.r} in mode {self.mode!r}")
        if self.mode != "ra" and self.params.k is not None:
            raise ValueError(f"params.k applies to ra mode only, got k={self.params.k} in mode {self.mode!r}")
        if self.params.ell > _MAX_ELL:
            raise UnsupportedRangeError(
                f"the simulator draws each read's symbols at once and supports ell <= {_MAX_ELL}, "
                f"got ell={self.params.ell}; use expected_coverage for longer sequences"
            )
        if self.trials > _MAX_TRIALS:
            raise UnsupportedRangeError(
                f"the simulator keeps every trial's count and supports trials <= {_MAX_TRIALS}, "
                f"got trials={self.trials}"
            )
        if self.params.omega > 64:
            raise UnsupportedRangeError(
                f"the simulator tracks observed sets as 64-bit masks and supports omega <= 64, "
                f"got omega={self.params.omega}; use expected_coverage for larger supports"
            )


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimate with its uncertainty and reproduction metadata.

    ``std_error`` and ``ci95`` are ``None`` when the trial count is too small
    to estimate them (fewer than 2 and ``MIN_TRIALS_FOR_CI`` respectively).
    Truncated trials contribute their cap value to the mean, which therefore
    underestimates the truth whenever ``truncated_trials > 0``.
    """

    mean: float
    std_error: Optional[float]
    ci95: Optional[tuple[float, float]]
    trials: int
    truncated_trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.truncated_trials > self.trials:
            raise ValueError("truncated_trials cannot exceed trials")
        if self.ci95 is not None and not self.ci95[0] <= self.mean <= self.ci95[1]:
            raise ValueError("confidence interval must contain the mean")


def run_simulation(config: SimConfig) -> SimReport:
    """Run the configured estimator over independent, individually seeded trials.

    Every trial counts reads of the canonical sequence (support ``{1..omega}``
    at each of ``ell`` indices) until the mode's stopping rule holds:

    * ``recovery``: every index has shown its full support;
    * ``partial``: at least ``params.r`` indices have;
    * ``ra``: every index of the target has, where each read belongs to the
      target with probability ``1/params.k`` and only target reads advance it.

    A trial that reaches ``max_transmissions`` counts as that cap and as
    truncated.  An exception in any thread stops the others at their next
    trial; the first reaches the caller once every thread has ended.
    """
    import numpy as np

    params = config.params
    r = params.r if config.mode == "partial" else params.ell
    k = params.k if config.mode == "ra" else 1
    cap = config.max_transmissions
    streams = _TrialStreams(config.seed)
    counts = np.zeros(config.trials, dtype=np.float64)
    rows = min(_FIRST_BLOCK, cap)
    if rows * params.ell <= _CHUNK_DRAWS:
        # Draw the first block of many trials as _reads_until would and settle
        # them at once; trials left at 0 run the loop below.  A batched trial
        # costs about half a scalar one (at k > 1 too: two integers calls
        # against the loop's two and its bookkeeping), so once a chunk settles
        # fewer than half its trials the batch no longer pays and the rest
        # skip it.  Trials whose first block exceeds a chunk go straight to
        # the loop.
        chunk = _CHUNK_DRAWS // (rows * params.ell)
        for start in range(0, config.trials, chunk):
            trials = range(start, min(start + chunk, config.trials))
            settled = _settle_first_block(streams, trials, rows, params.ell, params.omega, r, k)
            counts[start : trials.stop] = settled
            if 2 * np.count_nonzero(settled) < len(trials):
                break
    left = np.flatnonzero(counts == 0).tolist()
    workers = min(_workers(), len(left)) if rows * params.ell > _CHUNK_DRAWS else 1
    todo = iter(left)
    stop = threading.Event()
    failed = []
    cuts = []

    def work(streams: _TrialStreams) -> None:
        cut = 0
        try:
            for t in todo:
                if stop.is_set():
                    break
                count = _reads_until(streams.trial(t), params.ell, params.omega, r, k, cap)
                counts[t] = cap if count is None else count
                cut += count is None
        except BaseException as exc:  # raised again in the caller once every worker has stopped
            failed.append(exc)
            stop.set()
        cuts.append(cut)

    threads = [threading.Thread(target=work, args=(_TrialStreams(config.seed),)) for _ in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(streams)
    finally:
        stop.set()
        for thread in filter(threading.Thread.is_alive, threads):  # one that failed to start never ran
            thread.join()
    if failed:
        raise failed[0]
    truncated = sum(cuts)
    mean = float(counts.mean())
    std_error = None
    ci95 = None
    if config.trials >= 2:
        std_error = float(counts.std(ddof=1) / math.sqrt(config.trials))
    if config.trials >= MIN_TRIALS_FOR_CI and std_error is not None:
        ci95 = (mean - _Z95 * std_error, mean + _Z95 * std_error)
    return SimReport(
        mean=mean,
        std_error=std_error,
        ci95=ci95,
        trials=config.trials,
        truncated_trials=truncated,
        seed=config.seed,
    )
