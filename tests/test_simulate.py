import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from cdna import (
    CoverageParams,
    SimConfig,
    SimReport,
    UnsupportedRangeError,
    expected_coverage,
    expected_coverage_partial,
    run_simulation,
    trial_rng,
)
from cdna import simulate
from cdna.simulate import (
    _CHUNK_DRAWS,
    _FIRST_BLOCK,
    _MAX_ELL,
    _MAX_TRIALS,
    DEFAULT_MAX_TRANSMISSIONS,
    _reads_until,
    _settle_first_block,
    _TrialStreams,
)
from conftest import reference_reads_until

CAP = DEFAULT_MAX_TRANSMISSIONS


def _agrees(report, truth, sigmas=4.0):
    return abs(report.mean - truth) <= sigmas * report.std_error


class TestTrialStreams:
    def test_fresh_and_reused_generators_match(self):
        streams = _TrialStreams(99)
        for t in (0, 1, 17, 2**40):
            a = trial_rng(99, t).integers(0, 1000, size=32)
            b = streams.trial(t).integers(0, 1000, size=32)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 - 1])
    def test_reseed_leaves_the_state_of_a_fresh_generator(self, seed):
        # _TrialStreams takes seeds SimConfig has checked and keeps only their
        # low 64 bits; trial_rng refuses -1, so its fresh twin is keyed 2**64 - 1
        streams = _TrialStreams(seed)
        for t in (0, 1, 2**64 - 1):
            fresh, reused = trial_rng(seed % 2**64, t), streams.trial(t)
            assert np.array_equal(fresh.integers(0, 7, size=50), reused.integers(0, 7, size=50))
            assert repr(fresh.bit_generator.state) == repr(reused.bit_generator.state), (seed, t)

    def test_trials_are_distinct_streams(self):
        a = trial_rng(99, 0).integers(0, 1000, size=32)
        b = trial_rng(99, 1).integers(0, 1000, size=32)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = trial_rng(1, 0).integers(0, 1000, size=32)
        b = trial_rng(2, 0).integers(0, 1000, size=32)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**64 + 7, -(2**64)])
    def test_key_words_outside_64_bits_refused(self, bad):
        # each of these would share its samples with the value in range that it
        # equals modulo 2**64
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\), got " + str(bad)):
            trial_rng(bad, 0)
        with pytest.raises(ValueError, match=r"trial must lie in \[0, 2\*\*64\), got " + str(bad)):
            trial_rng(0, bad)

    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "3", None])
    def test_key_words_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            trial_rng(bad, 0)
        with pytest.raises(ValueError, match="trial must be an integer"):
            trial_rng(0, bad)

    def test_key_words_at_both_ends_of_64_bits_accepted(self):
        low, high = trial_rng(0, 0), trial_rng(2**64 - 1, 2**64 - 1)
        assert low.bit_generator.state["state"]["key"].tolist() == [0, 0]
        assert high.bit_generator.state["state"]["key"].tolist() == [2**64 - 1, 2**64 - 1]
        assert not np.array_equal(low.integers(0, 1000, size=32), high.integers(0, 1000, size=32))
        numpy_words = trial_rng(np.uint64(2**64 - 1), np.int64(5)).integers(0, 1000, size=32)
        assert np.array_equal(numpy_words, trial_rng(2**64 - 1, 5).integers(0, 1000, size=32))


class TestBatchedFirstBlock:
    @pytest.mark.parametrize("ell, omega, r", [(1, 2, 1), (3, 3, 3), (5, 4, 2), (8, 4, 8), (2, 7, 2)])
    def test_settled_trials_match_the_scalar_loop(self, ell, omega, r):
        settled = _settle_first_block(_TrialStreams(17), range(300), _FIRST_BLOCK, ell, omega, r, 1)
        for t, count in enumerate(settled.tolist()):
            scalar = _reads_until(trial_rng(17, t), ell, omega, r, 1, CAP)
            assert count == scalar if count else scalar > _FIRST_BLOCK, (t, count, scalar)

    @pytest.mark.parametrize(
        "ell, omega, r, k, cap, trials",
        [
            (1, 2, 1, 1, CAP, 300),
            (4, 3, 2, 1, CAP, 300),
            (3, 1, 3, 2, CAP, 50),
            (2, 2, 2, 2, CAP, 300),
            (3, 3, 3, 5, CAP, 300),
            (5, 4, 2, 5, CAP, 300),
            (2, 64, 2, 2, CAP, 30),
            (1, 64, 1, 1, CAP, 30),
            (3, 2, 3, 2, 7, 200),
            (4, 3, 4, 1, 31, 200),
            (2, 2, 1, 5, 1, 100),
            # 32 reads of 512 symbols fill one chunk exactly
            (512, 2, 512, 1, CAP, 3),
            (512, 3, 300, 2, CAP, 3),
        ],
    )
    def test_settled_trials_match_the_loop_at_every_k(self, ell, omega, r, k, cap, trials):
        seed = 1000 * ell + omega + k
        rows = min(_FIRST_BLOCK, cap)
        settled = _settle_first_block(_TrialStreams(seed), range(trials), rows, ell, omega, r, k)
        for t, count in enumerate(settled.tolist()):
            loop = _outcome(_reads_until, seed, t, ell, omega, r, k, cap)
            assert count == loop if count else loop is None or loop > rows, (t, count, loop)


def _scalar_report(config, reads_until=_reads_until):
    """What run_simulation reports when every trial runs ``reads_until``."""
    params = config.params
    r = params.r if config.mode == "partial" else params.ell
    k = params.k if config.mode == "ra" else 1
    counts = np.empty(config.trials)
    truncated = 0
    for t in range(config.trials):
        count = reads_until(trial_rng(config.seed, t), params.ell, params.omega, r, k, config.max_transmissions)
        if count is None:
            count = config.max_transmissions
            truncated += 1
        counts[t] = count
    mean = float(counts.mean())
    std_error = float(counts.std(ddof=1) / math.sqrt(config.trials))
    ci95 = (mean - 1.959963984540054 * std_error, mean + 1.959963984540054 * std_error)
    return SimReport(mean, std_error, ci95, config.trials, truncated, config.seed)


@pytest.mark.parametrize("cap", [1, 3, 31, 32, 33, CAP])
@pytest.mark.parametrize(
    "params, mode",
    [
        (CoverageParams(1, 2), "recovery"),
        (CoverageParams(3, 3), "recovery"),
        (CoverageParams(4, 1), "recovery"),
        (CoverageParams(2, 16), "recovery"),
        (CoverageParams(5, 3, r=2), "partial"),
        (CoverageParams(7, 4, r=7), "partial"),
        (CoverageParams(2, 3, k=3), "ra"),
    ],
)
def test_reports_equal_the_scalar_driver(params, mode, cap):
    config = SimConfig(params, trials=200, seed=cap + params.ell, max_transmissions=cap, mode=mode)
    assert run_simulation(config) == _scalar_report(config)


def _outcome(reads_until, seed, t, ell, omega, r, k, cap):
    """Trial ``t``'s count under ``reads_until``, or None when it is truncated."""
    return reads_until(trial_rng(seed, t), ell, omega, r, k, cap)


class TestChunkedLoop:
    """The chunked loop against whole doubling blocks (``reference_reads_until``)."""

    @pytest.mark.parametrize(
        "ell, omega, r, k, cap, trials",
        [
            (1, 1, 1, 1, CAP, 5),
            (5, 1, 5, 3, CAP, 5),
            (3, 64, 3, 1, CAP, 10),
            (2, 64, 1, 1, CAP, 10),
            (2, 64, 2, 2, CAP, 10),
            (6, 4, 3, 1, CAP, 40),
            (4, 3, 4, 5, CAP, 40),
            (7, 3, 7, 1, 40, 40),
            (6, 4, 3, 1, 33, 40),
            (3, 3, 3, 5, 40, 40),
            (4, 2, 2, 3, 1, 20),
            # wider than one chunk's worth of reads: several chunks per block
            (3000, 4, 3000, 1, CAP, 3),
            (3000, 16, 1500, 1, CAP, 3),
            (3000, 3, 3000, 2, CAP, 3),
            (3000, 5, 2999, 4, CAP, 3),
            (2500, 64, 2500, 1, 100, 2),
            # wider than a whole chunk: one read per chunk
            (20000, 2, 20000, 1, CAP, 2),
            (20000, 3, 19000, 3, CAP, 2),
        ],
    )
    def test_counts_equal_whole_blocks(self, ell, omega, r, k, cap, trials):
        seed = 1000 * ell + omega
        for t in range(trials):
            args = (seed, t, ell, omega, r, k, cap)
            assert _outcome(_reads_until, *args) == _outcome(reference_reads_until, *args), args

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("cap", [1, 3, CAP])
    @pytest.mark.parametrize(
        "params, mode",
        [
            (CoverageParams(3, 3), "recovery"),
            (CoverageParams(1, 5), "recovery"),
            (CoverageParams(4, 1), "recovery"),
            (CoverageParams(5, 3, r=2), "partial"),
            (CoverageParams(2, 3, k=3), "ra"),
            (CoverageParams(1, 2, k=5), "ra"),
        ],
    )
    def test_tiny_chunks_leave_reports_unchanged(self, monkeypatch, params, mode, cap, chunk):
        config = SimConfig(params, trials=50, seed=cap + chunk, max_transmissions=cap, mode=mode)
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", chunk)
        assert run_simulation(config) == _scalar_report(config, reference_reads_until)

    @pytest.mark.parametrize(
        "params, mode, workers",
        [
            pytest.param(CoverageParams(20000, 16), "recovery", 1, id="params0-recovery"),
            pytest.param(CoverageParams(20000, 16, k=3), "ra", 1, id="params1-ra"),
            pytest.param(CoverageParams(10**5, 1), "recovery", 1, id="params2-recovery"),
            pytest.param(CoverageParams(20000, 16), "recovery", 2, id="params0-recovery-two-workers"),
            pytest.param(CoverageParams(20000, 16, k=3), "ra", 2, id="params1-ra-two-workers"),
            pytest.param(CoverageParams(10**5, 1), "recovery", 2, id="params2-recovery-two-workers"),
        ],
    )
    def test_trial_memory_is_bounded_by_the_chunk(self, monkeypatch, params, mode, workers):
        # eight uint64 arrays of one chunk; whole blocks traced 52.5, 71.2 and 76.8 MB.
        # uint32 draws and masks trace 26.3 B per index for one trial at omega = 16
        # and 48.5-52.6 for two at once; at omega = 64 (8-byte masks), not checked
        # here, one trial traced 38.3 and two 72.6.
        bound = 8 * 8 * max(_CHUNK_DRAWS, params.ell)
        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        # the first calls allocate numpy's one-time state; keep it out of the peak
        run_simulation(SimConfig(CoverageParams(3, 2, k=2), trials=2, seed=0, mode="ra"))
        tracemalloc.start()
        try:
            run_simulation(SimConfig(params, trials=2, seed=1, mode=mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


@pytest.mark.parametrize("omega", [1, 2, 3, 16, 32, 33, 64])
@pytest.mark.parametrize("size", [1, 7, 1000, _CHUNK_DRAWS + 1])
def test_uint32_draws_equal_int64_draws(omega, size):
    # _reads_until draws uint32 symbols; the reference loop and the batched
    # first block draw 64-bit ones.  Both must read the same words.
    wide, narrow = trial_rng(omega, size), trial_rng(omega, size)
    drawn = narrow.integers(0, omega, size=size, dtype=np.uint32)
    assert drawn.dtype == np.uint32
    assert drawn.tolist() == wide.integers(0, omega, size=size).tolist()
    assert repr(narrow.bit_generator.state) == repr(wide.bit_generator.state)
    follow = [(rng.integers(0, 5, size=3).tolist(), int(rng.integers(0, 2**40)), rng.random()) for rng in (wide, narrow)]
    assert follow[0] == follow[1]


#: Configurations whose trials skip the batched first block (rows * ell >
#: _CHUNK_DRAWS), so they run on the threads: all three modes, k > 1, and caps
#: that truncate some trials.
WIDE_CONFIGS = [
    (CoverageParams(600, 3), "recovery", CAP),
    (CoverageParams(1400, 2), "recovery", 12),
    (CoverageParams(1000, 4, r=900), "partial", CAP),
    (CoverageParams(2000, 2, r=1990), "partial", 9),
    (CoverageParams(600, 2, k=3), "ra", CAP),
    (CoverageParams(1500, 2, k=2), "ra", 20),
]


class TestThreads:
    """Trials too wide for the batched first block run on several threads."""

    @pytest.mark.parametrize("params, mode, cap", WIDE_CONFIGS)
    def test_reports_do_not_depend_on_the_thread_count(self, monkeypatch, params, mode, cap):
        config = SimConfig(params, trials=30, seed=params.ell + cap, max_transmissions=cap, mode=mode)
        expected = _scalar_report(config, reference_reads_until)
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(simulate, "_workers", lambda: workers)
            assert run_simulation(config) == expected, workers
        if cap < CAP:
            assert 0 < expected.truncated_trials < config.trials

    def test_every_trial_runs_once_under_contention(self, monkeypatch):
        # more threads than CPUs and a short switch interval: a trial taken
        # twice or lost would show in the calls and in the report
        config = SimConfig(CoverageParams(600, 2, k=3), trials=40, seed=5, mode="ra")
        expected = _scalar_report(config)
        ran = []

        def recorded(rng, *args):
            ran.append(int(rng.bit_generator.state["state"]["key"][1]))
            return _reads_until(rng, *args)

        monkeypatch.setattr(simulate, "_workers", lambda: 7)
        monkeypatch.setattr(simulate, "_reads_until", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_simulation(config)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(config.trials))
        assert report == expected

    def test_narrow_trials_stay_on_the_calling_thread(self, monkeypatch):
        # rows * ell fits a chunk, so the trials the first block leaves run serially
        threads = set()

        def recorded(*args):
            threads.add(threading.get_ident())
            return _reads_until(*args)

        monkeypatch.setattr(simulate, "_workers", lambda: 7)
        monkeypatch.setattr(simulate, "_reads_until", recorded)
        run_simulation(SimConfig(CoverageParams(3, 3, k=5), trials=200, seed=3, mode="ra"))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("where", ["worker", "caller"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_exception_stops_every_thread(self, monkeypatch, where, workers):
        class Boom(Exception):
            pass

        calls = itertools.count()
        caller = threading.get_ident()

        def failing(*args):
            on_caller = threading.get_ident() == caller
            if next(calls) >= 2 and (on_caller if where == "caller" or workers == 1 else not on_caller):
                raise KeyboardInterrupt if where == "caller" else Boom
            return _reads_until(*args)

        monkeypatch.setattr(simulate, "_workers", lambda: workers)
        monkeypatch.setattr(simulate, "_reads_until", failing)
        before = threading.active_count()
        config = SimConfig(CoverageParams(600, 3), trials=60, seed=2)
        with pytest.raises(KeyboardInterrupt if where == "caller" else Boom):
            run_simulation(config)
        assert threading.active_count() == before
        # the others stop at their next trial instead of running out the list
        assert next(calls) < config.trials


#: run_simulation reports pinned per seed, as the separate recovery, partial
#: and random-access kernels produced them: (ell, omega, r, k, mode, trials,
#: seed, cap) -> (mean, std_error, ci95, truncated_trials).  Any change in how
#: a trial consumes its stream changes these.
GOLDEN_REPORTS = [
    ((4, 3, None, None, "recovery", 200, 7, 10**6),
     (8.46, 0.21996345059575226, (8.02887955891717, 8.891120441082832), 0)),
    ((5, 1, None, None, "recovery", 50, 3, 10**6), (1.0, 0.0, (1.0, 1.0), 0)),
    ((2, 64, None, None, "recovery", 40, 11, 10**6),
     (359.75, 12.120482240554198, (335.99429133325646, 383.50570866674354), 0)),
    ((1, 2, None, None, "recovery", 200, 3, 2), (2.0, 0.0, (2.0, 2.0), 106)),
    ((5, 3, 2, None, "partial", 200, 8, 10**6),
     (4.06, 0.06286301610621185, (3.936790752472263, 4.183209247527736), 0)),
    ((3, 2, 3, None, "partial", 200, 9, 10**6),
     (4.125, 0.10725855203630442, (3.914777100974928, 4.335222899025072), 0)),
    ((3, 64, 1, None, "partial", 30, 10, 10**6),
     (242.5, 8.466261642950597, (225.90643209612392, 259.0935679038761), 0)),
    ((4, 4, 3, None, "partial", 100, 12, 10),
     (8.07, 0.15259042690758282, (7.770928258875546, 8.369071741124454), 16)),
    ((2, 2, None, 1, "ra", 200, 13, 10**6),
     (3.805, 0.11335396156736242, (3.5828303178230323, 4.027169682176968), 0)),
    ((2, 3, None, 5, "ra", 200, 21, 10**6),
     (32.44, 1.2569133445782548, (29.976495112938835, 34.90350488706116), 0)),
    ((1, 1, None, 5, "ra", 50, 22, 10**6),
     (5.88, 0.6531806013341055, (4.5997895459849385, 7.160210454015061), 0)),
    ((3, 3, None, 5, "ra", 100, 23, 40),
     (32.67, 0.8957875604937555, (30.914288643633245, 34.425711356366755), 39)),
]


#: (ell, omega, r, k, mode, trials, cap) in all three modes, with k > 1, caps
#: below and above the first block, and ell up to 10,000; each runs with seed
#: ell + 7 * omega.  REPORT_MATRIX_SHA256 is the sha256 of the reports' reprs,
#: computed before the first block was batched at k > 1.
REPORT_MATRIX = [
    (1, 2, None, None, "recovery", 300, 10**6),
    (4, 3, None, None, "recovery", 300, 10**6),
    (8, 4, None, None, "recovery", 300, 31),
    (3, 64, None, None, "recovery", 40, 10**6),
    (512, 2, None, None, "recovery", 20, 10**6),
    (10_000, 16, None, None, "recovery", 3, 10**6),
    (5, 3, 2, None, "partial", 300, 10**6),
    (6, 1, 4, None, "partial", 50, 10**6),
    (4, 4, 3, None, "partial", 200, 9),
    (10_000, 4, 9_000, None, "partial", 3, 10**6),
    (1, 2, None, 2, "ra", 300, 10**6),
    (3, 3, None, 5, "ra", 300, 10**6),
    (2, 64, None, 2, "ra", 30, 10**6),
    (8, 4, None, 3, "ra", 200, 40),
    (1, 1, None, 5, "ra", 100, 33),
    (10_000, 2, None, 3, "ra", 3, 10**6),
    (512, 3, None, 2, "ra", 10, 10**6),
    (512, 2, 300, None, "partial", 10, 10**6),
    (2, 16, None, 2, "ra", 300, 20),
]
REPORT_MATRIX_SHA256 = "2c64fa31ab7fc64d411cb358f90e6a07e78040453cb6d0ca9cb00d743eba9da3"


def test_report_matrix_hash_is_pinned():
    digest = hashlib.sha256()
    for ell, omega, r, k, mode, trials, cap in REPORT_MATRIX:
        config = SimConfig(CoverageParams(ell, omega, r=r, k=k), trials, ell + 7 * omega, cap, mode)
        report = run_simulation(config)
        digest.update(repr((report.mean, report.std_error, report.ci95, report.truncated_trials)).encode())
    assert digest.hexdigest() == REPORT_MATRIX_SHA256


@pytest.mark.parametrize("case, expected", GOLDEN_REPORTS)
def test_reports_are_pinned_per_seed(case, expected):
    ell, omega, r, k, mode, trials, seed, cap = case
    mean, std_error, ci95, truncated = expected
    config = SimConfig(CoverageParams(ell, omega, r=r, k=k), trials, seed, cap, mode)
    assert run_simulation(config) == SimReport(mean, std_error, ci95, trials, truncated, seed)


class TestSimulateRecovery:
    def test_single_support_always_one(self):
        for t in range(50):
            assert _reads_until(trial_rng(3, t), 5, 1, 5, 1, CAP) == 1

    def test_count_at_least_support_size(self):
        for t in range(100):
            assert _reads_until(trial_rng(5, t), 1, 4, 1, 1, CAP) >= 4

    def test_mean_matches_formula(self):
        for ell, omega in ((1, 2), (2, 2), (4, 3)):
            config = SimConfig(CoverageParams(ell, omega), trials=20000, seed=42)
            report = run_simulation(config)
            assert _agrees(report, expected_coverage(ell, omega)), (ell, omega)

    def test_truncation_returns_none(self):
        outcomes = [_reads_until(trial_rng(11, t), 1, 2, 1, 1, cap=2) for t in range(50)]
        assert None in outcomes  # P[not covered after 2 reads] = 1/2
        assert set(outcomes) <= {None, 2}


class TestSimulatePartial:
    def test_full_threshold_equals_recovery_samplewise(self):
        # with identical streams and r = ell the two stopping rules coincide
        partial = SimConfig(CoverageParams(3, 2, r=3), trials=200, seed=7, mode="partial")
        recovery = SimConfig(CoverageParams(3, 2), trials=200, seed=7)
        assert run_simulation(partial) == run_simulation(recovery)
        # on one stream, needing more indices never stops earlier
        for t in range(200):
            counts = [_reads_until(trial_rng(7, t), 3, 2, r, 1, CAP) for r in (1, 2, 3)]
            assert counts == sorted(counts)

    def test_mean_matches_formula(self):
        config = SimConfig(CoverageParams(2, 2, r=1), trials=20000, seed=8, mode="partial")
        report = run_simulation(config)
        assert _agrees(report, expected_coverage_partial(2, 2, 1))

    def test_single_index(self):
        config = SimConfig(CoverageParams(1, 2, r=1), trials=20000, seed=9, mode="partial")
        report = run_simulation(config)
        assert _agrees(report, 3.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SimConfig(CoverageParams(2, 2, r=3), trials=1, seed=0, mode="partial")


class TestSimulateRandomAccess:
    def test_single_sequence_matches_recovery_mean(self):
        ra = np.array([_reads_until(trial_rng(13, t), 2, 2, 2, 1, CAP) for t in range(20000)])
        truth = expected_coverage(2, 2)
        se = ra.std(ddof=1) / math.sqrt(len(ra))
        assert abs(ra.mean() - truth) <= 4 * se

    def test_pool_scaling(self):
        config = SimConfig(CoverageParams(1, 2, k=2), trials=20000, seed=21, mode="ra")
        report = run_simulation(config)
        assert _agrees(report, 6.0)

    def test_factorization_ratio(self):
        base = run_simulation(SimConfig(CoverageParams(2, 2), trials=20000, seed=5))
        ra = run_simulation(SimConfig(CoverageParams(2, 2, k=3), trials=20000, seed=6, mode="ra"))
        ratio_se = 3 * (ra.std_error / base.mean + base.std_error * ra.mean / base.mean**2)
        assert abs(ra.mean / base.mean - 3) <= 3 * ratio_se + 3 * 1e-9


class TestRunSimulation:
    def test_deterministic(self):
        config = SimConfig(CoverageParams(3, 3), trials=500, seed=1234)
        assert run_simulation(config) == run_simulation(config)

    def test_seed_matters(self):
        a = run_simulation(SimConfig(CoverageParams(3, 3), trials=500, seed=1))
        b = run_simulation(SimConfig(CoverageParams(3, 3), trials=500, seed=2))
        assert a.mean != b.mean

    def test_single_trial_has_no_error_estimate(self):
        report = run_simulation(SimConfig(CoverageParams(1, 2), trials=1, seed=0))
        assert report.std_error is None and report.ci95 is None
        assert report.mean == float(_reads_until(trial_rng(0, 0), 1, 2, 1, 1, CAP))

    def test_small_sample_has_no_ci(self):
        report = run_simulation(SimConfig(CoverageParams(1, 2), trials=10, seed=0))
        assert report.std_error is not None and report.ci95 is None

    def test_ci_contains_mean(self):
        report = run_simulation(SimConfig(CoverageParams(1, 2), trials=100, seed=0))
        assert report.ci95[0] <= report.mean <= report.ci95[1]

    def test_truncation_reported(self):
        config = SimConfig(CoverageParams(1, 2), trials=200, seed=3, max_transmissions=2)
        report = run_simulation(config)
        assert 0 < report.truncated_trials <= report.trials
        # truncated trials contribute the cap, biasing the mean low
        assert report.mean < 3.0

    def test_monotone_in_length(self):
        means = [
            run_simulation(SimConfig(CoverageParams(ell, 2), trials=10000, seed=77)).mean
            for ell in (1, 2, 3, 4)
        ]
        assert means == sorted(means)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(CoverageParams(1, 2), trials=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(CoverageParams(1, 2), trials=10, seed=0, mode="partial")
        with pytest.raises(ValueError):
            SimConfig(CoverageParams(1, 2), trials=10, seed=0, mode="ra")
        with pytest.raises(ValueError):
            SimConfig(CoverageParams(1, 2), trials=10, seed=0, mode="bogus")

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_refused(self, seed):
        # the seed is one 64-bit word of the Philox key: each of these would share
        # its samples with the seed in range that it equals modulo 2**64
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimConfig(CoverageParams(3, 3), trials=50, seed=seed)

    def test_seeds_at_both_ends_of_64_bits_accepted(self):
        low, high = (run_simulation(SimConfig(CoverageParams(3, 3), trials=50, seed=s)) for s in (0, 2**64 - 1))
        assert (low.seed, high.seed) == (0, 2**64 - 1)
        assert low.mean != high.mean

    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, "7", None])
    def test_counts_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(CoverageParams(2, 2), trials=10, seed=bad)
        with pytest.raises(ValueError, match="trials must be an integer"):
            SimConfig(CoverageParams(2, 2), trials=bad, seed=1)
        with pytest.raises(ValueError, match="max_transmissions must be an integer"):
            SimConfig(CoverageParams(2, 2), trials=10, seed=1, max_transmissions=bad)

    @pytest.mark.parametrize(
        "params, mode",
        [
            ((3, 40, None, None), "recovery"),
            ((2, 64, None, None), "recovery"),
            ((3, 63, 2, None), "partial"),
            ((2, 4, None, 3), "ra"),
        ],
    )
    def test_numpy_integers_are_ints(self, params, mode):
        # a numpy seed once overflowed seed & _MASK64, and a numpy omega of 63
        # or 64 the simulator's bitmasks
        ints = SimConfig(CoverageParams(*params), trials=50, seed=5, max_transmissions=CAP, mode=mode)
        numpy_params = CoverageParams(*(None if v is None else np.int64(v) for v in params))
        config = SimConfig(
            numpy_params, trials=np.int32(50), seed=np.int64(5), max_transmissions=np.int64(CAP), mode=mode
        )
        assert config == ints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_simulation(config)
        assert report == run_simulation(ints)
        assert type(report.seed) is int and type(report.trials) is int

    def test_parameters_of_other_modes_refused(self):
        # a threshold or pool size the mode would ignore is a caller bug
        with pytest.raises(ValueError, match="params.r applies to partial mode only"):
            SimConfig(CoverageParams(3, 2, r=1), trials=200, seed=5)
        with pytest.raises(ValueError, match="params.r"):
            SimConfig(CoverageParams(3, 2, r=1, k=2), trials=10, seed=0, mode="ra")
        with pytest.raises(ValueError, match="params.k applies to ra mode only"):
            SimConfig(CoverageParams(3, 2, k=2), trials=10, seed=0)
        with pytest.raises(ValueError, match="params.k"):
            SimConfig(CoverageParams(3, 2, r=1, k=2), trials=10, seed=0, mode="partial")
        SimConfig(CoverageParams(3, 2, r=1), trials=10, seed=0, mode="partial")
        SimConfig(CoverageParams(3, 2, k=2), trials=10, seed=0, mode="ra")

    def test_array_sizes_are_capped_before_anything_is_allocated(self):
        SimConfig(CoverageParams(_MAX_ELL, 2), trials=_MAX_TRIALS, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRangeError, match="ell <= "):
                SimConfig(CoverageParams(_MAX_ELL + 1, 2), trials=1, seed=0)
            with pytest.raises(UnsupportedRangeError, match="trials <= "):
                SimConfig(CoverageParams(2, 2), trials=_MAX_TRIALS + 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bitmask_width_caps_omega(self):
        SimConfig(CoverageParams(1, 64), trials=1, seed=0)
        with pytest.raises(UnsupportedRangeError, match="expected_coverage"):
            SimConfig(CoverageParams(1, 65), trials=1, seed=0)

