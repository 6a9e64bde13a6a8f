"""The chunked Monte Carlo kernels against their plain numpy forms."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import mc


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
