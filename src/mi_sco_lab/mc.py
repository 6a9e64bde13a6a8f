"""Seeding discipline and chunked Monte Carlo loops.

Every stochastic routine derives its generator from a master seed plus an
integer path, so results are reproducible bit-for-bit. Long trial loops are
split into fixed-size chunks whose streams depend only on (seed, chunk index);
worker count changes scheduling but never the reduction order, so parallel
and serial runs agree byte-for-byte. Each trial's values are held once: the
chunks are written, in chunk order, into one result array, and
``mean_and_se`` takes its standard error in place, consuming that array.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 1 << 14

THREADS_ENV = "MI_SCO_THREADS"


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *path)."""
    return np.random.default_rng([int(master_seed), *[int(p) for p in path]])


def worker_count() -> int:
    """``MI_SCO_THREADS`` (1 if not an integer) within 1 and the CPUs this
    process may use: ``chunked_trials`` starts a thread per worker."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(n, cpus or 1))


def chunked_trials(fn, n_trials: int, master_seed: int, *path: int,
                   chunk: int = CHUNK) -> np.ndarray:
    """Run ``fn(rng, size) -> 1-D array`` over n_trials in deterministic chunks.

    Chunk c uses the stream (master_seed, *path, c), and ``fn`` returns the
    same number k of values per trial in every chunk. Each chunk is copied,
    in chunk order and whatever the number of workers, into one array of
    n_trials * k values allocated when the first chunk returns; no list of
    parts is kept and nothing is concatenated.
    """
    n_trials = int(n_trials)
    bounds = [(c, min(chunk, n_trials - c * chunk))
              for c in range((n_trials + chunk - 1) // chunk)]
    if not bounds:
        return np.empty(0)

    def run(cb):
        c, size = cb
        return fn(substream(master_seed, *path, c), size)

    def write(parts):
        out, at = None, 0
        for (_, size), part in zip(bounds, parts):
            if out is None:
                out = np.empty(n_trials * (part.shape[0] // size), dtype=part.dtype)
            out[at:at + part.shape[0]] = part
            at += part.shape[0]
        return out

    workers = worker_count()
    if workers == 1 or len(bounds) == 1:
        return write(map(run, bounds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return write(pool.map(run, bounds))


def mean_and_se(values: np.ndarray):
    """Sample mean and its standard error (ddof=1; SE=0 for a single value)
    of (n,) values, as floats, or of each column of (n, d) values, as (d,)
    arrays.

    A float64 array is taken as the function's own: the standard error is
    computed in place, in the steps of numpy's ``std(ddof=1)`` (deviations
    from the mean, squared, summed, divided by n - 1, square root), so the
    bytes are numpy's but ``values`` is overwritten. Pass a copy to keep it.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n < 2:
        se = np.zeros_like(mean)
    else:
        values -= mean
        values *= values
        se = np.sqrt(values.sum(axis=0) / (n - 1)) / math.sqrt(n)
    if values.ndim == 1:
        return float(mean), float(se)
    return mean, se
