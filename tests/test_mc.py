"""The chunked Monte Carlo kernels against their plain numpy forms."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import bounds, mc
from oracles import fingerprint_monte_carlo_values


def _concatenated(fn, n_trials, seed, path, chunk):
    """Every chunk's values, concatenated in chunk order."""
    parts = [fn(mc.substream(seed, *path, c), min(chunk, n_trials - c * chunk))
             for c in range((n_trials + chunk - 1) // chunk)]
    return np.concatenate(parts) if parts else np.empty(0)


class TestChunkedTrials:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n_trials", [0, 1, 16, 2 * 16 + 5])
    def test_matches_concatenated_chunks(self, monkeypatch, threads, k, n_trials):
        monkeypatch.setenv(mc.THREADS_ENV, threads)

        def fn(rng, size):
            return rng.random(size * k)

        got = mc.chunked_trials(fn, n_trials, 3, 11, chunk=16)
        want = _concatenated(fn, n_trials, 3, (11,), 16)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_keeps_the_chunks_dtype(self, monkeypatch, threads):
        monkeypatch.setenv(mc.THREADS_ENV, threads)

        def fn(rng, size):
            return rng.integers(0, 9, size=2 * size)

        got = mc.chunked_trials(fn, 50, 4, chunk=16)
        want = _concatenated(fn, 50, 4, (), 16)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


class TestMeanAndSe:
    @given(n=st.integers(1, 300), d=st.sampled_from([None, 1, 2, 5]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, n, d, seed):
        rng = np.random.default_rng(seed)
        shape = (n,) if d is None else (n, d)
        # a large offset against a small spread, where the SE cancels most
        values = rng.uniform(-1e3, 1e3) + rng.standard_normal(shape) * rng.uniform(1e-6, 10)
        mean = values.mean(axis=0)
        se = (values.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
              else np.zeros(shape[1:]))
        got_mean, got_se = mc.mean_and_se(values.copy())
        if d is None:
            assert type(got_mean) is float and type(got_se) is float
            assert (got_mean, got_se) == (float(mean), float(se))
        else:
            assert got_mean.tobytes() == mean.tobytes() and got_se.tobytes() == se.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (2, 1), (1, 3), (2, 3)])
    def test_one_and_two_values(self, shape):
        values = np.arange(math.prod(shape), dtype=float).reshape(shape) * 0.3 - 0.1
        mean = values.mean(axis=0)
        se = (values.std(axis=0, ddof=1) / math.sqrt(shape[0]) if shape[0] > 1
              else np.zeros(shape[1:]))
        got_mean, got_se = mc.mean_and_se(values.copy())
        assert np.asarray(got_mean).tobytes() == mean.tobytes()
        assert np.asarray(got_se).tobytes() == se.tobytes()

    @given(blocks=st.integers(0, 3), edge=st.integers(-2, 2), d=st.integers(1, 12),
           levels=st.integers(1, 300), wide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_counts_and_table_match_the_gathered_values(self, blocks, edge, d, levels, wide,
                                                        seed):
        # n runs from 1 to three blocks and one row, near the block edges;
        # uint8 counts below 256 levels, int64 counts (as beyond m = 255)
        n = max(1, blocks * mc.GATHER_ROWS + edge)
        rng = np.random.default_rng(seed)
        dtype = np.int64 if wide or levels > 256 else np.uint8
        counts = rng.integers(0, levels, size=(n, d)).astype(dtype)
        # a large offset against a small spread, where the SE cancels most
        table = rng.uniform(-1e3, 1e3) + rng.standard_normal((levels, d)) * rng.uniform(1e-6, 10)
        want_mean, want_se = mc.mean_and_se(np.take_along_axis(table, counts, axis=0))
        got_mean, got_se = mc.mean_and_se(counts, table)
        assert got_mean.tobytes() == want_mean.tobytes()
        assert got_se.tobytes() == want_se.tobytes()


def _mixed_values(rng, n):
    """n values over one magnitude or up to 60 decades, some near a large
    offset where sums cancel, and signed zeros: none, a few or all of the
    values."""
    span = rng.choice([0.0, 8.0, 30.0])
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-span, span, size=n)
    values[rng.random(n) < 0.3] += rng.uniform(-1e6, 1e6)
    zeros = np.flatnonzero(rng.random(n) < rng.choice([0.0, 0.01, 0.1, 1.0],
                                                      p=[0.4, 0.25, 0.25, 0.1]))
    values[zeros] = np.where(rng.random(zeros.shape[0]) < 0.5, -0.0, 0.0)
    return values


def _part_sizes(rng, n, kind):
    """Sizes of consecutive parts of n values: single values (the first few
    hundred), parts that end inside a leaf, parts over several leaves, or a
    mix of all three."""
    leaf = mc.PAIRWISE_LEAF
    ranges = {"ones": [(1, 1)], "inside": [(1, leaf - 1)],
              "across": [(leaf + 1, 10 * leaf)],
              "mixed": [(1, 1), (1, leaf - 1), (leaf + 1, 10 * leaf)]}[kind]
    sizes, fed = [], 0
    while fed < n:
        if kind == "ones" and fed >= 300:
            size = n - fed
        else:
            low, high = ranges[rng.integers(len(ranges))]
            size = min(int(rng.integers(low, high + 1)), n - fed)
        sizes.append(size)
        fed += size
    return sizes


def _streamed(values, sizes):
    total, at = mc.PairwiseSum(values.shape[0]), 0
    for size in sizes:
        total.add(values[at:at + size])
        at += size
    return np.float64(total.total())


class TestPairwiseSum:
    @given(n=st.one_of(st.integers(1, 3 * mc.CHUNK), st.sampled_from([7, 8, 9, 127, 128, 129, 136])),
           kind=st.sampled_from(["ones", "inside", "across", "mixed"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_byte_for_byte(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        values = _mixed_values(rng, n)
        got = _streamed(values, _part_sizes(rng, n, kind))
        assert got.tobytes() == np.add.reduce(values).tobytes()

    def test_four_million_values_in_chunk_sized_parts(self):
        n = 4 * 10 ** 6
        values = _mixed_values(np.random.default_rng(36), n)
        got = _streamed(values, [mc.CHUNK] * -(-n // mc.CHUNK))
        assert got.tobytes() == np.add.reduce(values).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zeros(self, sign):
        values = np.full(300, sign * 0.0)
        assert _streamed(values, [1] * 300).tobytes() == np.add.reduce(values).tobytes()

    def test_total_refuses_a_short_feed(self):
        total = mc.PairwiseSum(10)
        total.add(np.ones(9))
        with pytest.raises(ValueError, match="9 of 10"):
            total.total()


class TestStreamedFingerprint:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("trials", [1, 2, mc.CHUNK, mc.CHUNK + 1])
    @pytest.mark.parametrize("m", [4, 100, 300])
    def test_matches_the_value_array(self, monkeypatch, threads, trials, m):
        # m = 300 keeps int64 counts, m <= 255 one byte per trial
        monkeypatch.setenv(mc.THREADS_ENV, threads)
        rep = bounds.fingerprint_expectation(bounds.EST_CLIPPED_MEAN, m, mode="monte_carlo",
                                             trials=trials, seed=7)
        mean, se = fingerprint_monte_carlo_values(bounds.EST_CLIPPED_MEAN, m, trials, 7)
        assert np.float64(rep.lhs).tobytes() == np.float64(mean).tobytes()
        assert np.float64(rep.ci_halfwidth).tobytes() == np.float64(3.0 * se).tobytes()

    def test_many_chunks_under_a_short_switch_interval(self, monkeypatch):
        # two workers swapped every microsecond: each result still lands at
        # its chunk's place
        monkeypatch.setenv(mc.THREADS_ENV, "2")
        trials = 9 * mc.CHUNK + 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = bounds.fingerprint_expectation(bounds.EST_SIGN, 30, mode="monte_carlo",
                                                 trials=trials, seed=8)
        finally:
            sys.setswitchinterval(interval)
        mean, se = fingerprint_monte_carlo_values(bounds.EST_SIGN, 30, trials, 8)
        assert (rep.lhs, rep.ci_halfwidth) == (mean, 3.0 * se)

    def test_sums_run_on_the_main_thread(self, monkeypatch):
        # the workers only draw: every PairwiseSum call, in both passes,
        # comes from the thread that takes the chunks in order
        monkeypatch.setenv(mc.THREADS_ENV, "2")
        if mc.worker_count() < 2:
            pytest.skip("needs two usable CPUs")
        calls = []
        for name, method in list(vars(mc.PairwiseSum).items()):
            if callable(method):
                def spy(*args, _name=name, _method=method, **kwargs):
                    calls.append((_name, threading.current_thread() is threading.main_thread()))
                    return _method(*args, **kwargs)
                monkeypatch.setattr(mc.PairwiseSum, name, spy)
        trials = 9 * mc.CHUNK + 5
        bounds.fingerprint_expectation(bounds.EST_SIGN, 30, mode="monte_carlo",
                                       trials=trials, seed=8)
        assert [name for name, _ in calls].count("add") == 2 * 10
        assert [name for name, main in calls if not main] == []

    def test_refuses_no_trials(self):
        with pytest.raises(ValueError, match="n_trials"):
            mc.streamed_mean_and_se(None, None, 0, 1)


class TestWorkerCount:
    def test_capped_at_the_usable_cpus(self, monkeypatch):
        # worker_count only reads the setting, so no thread starts here
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        monkeypatch.setenv(mc.THREADS_ENV, str(10 ** 6))
        assert mc.worker_count() == cpus
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        assert mc.worker_count() == 1

    @pytest.mark.parametrize("raw", ["", "0", "-3", "two"])
    def test_at_least_one(self, monkeypatch, raw):
        monkeypatch.setenv(mc.THREADS_ENV, raw)
        assert mc.worker_count() == 1
