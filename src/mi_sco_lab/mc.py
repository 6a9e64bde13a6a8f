"""Seeding discipline and chunked Monte Carlo loops.

Every stochastic routine derives its generator from a master seed plus an
integer path, so results are reproducible bit-for-bit. Long trial loops are
split into fixed-size chunks whose streams depend only on (seed, chunk index);
worker count changes scheduling but never the reduction order, so parallel
and serial runs agree byte-for-byte. Each trial's values are held once: the
chunks are written, in chunk order, into one result array, and
``mean_and_se`` takes its standard error in place, consuming that array.
Where every value is an entry of a small table read at an integer count
(a learner whose outputs are its levels, read at plus-counts), the array
holds the counts, and ``mean_and_se`` reads the table at them block by
block in numpy's own summation order, so no value array is built and no
byte moves.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 1 << 14
GATHER_ROWS = 1 << 12  # rows of counts read per block of a counts-plus-table reduction

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


def _column_sums(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(d,) column sums of the values table[counts[i, t], t] of (n, d)
    integer counts, d >= 2, in numpy's own order for a C-contiguous (n, d)
    array summed over axis 0: row by row. GATHER_ROWS rows at a time are
    read by one flat take at indices count * d + t into the rows of a block
    below its row 0, which carries the running sums."""
    n, d = counts.shape
    flat = np.ravel(table)
    rows, cols = min(n, GATHER_ROWS), np.arange(d)
    index = np.empty((rows, d), dtype=np.intp)
    block = np.empty((rows + 1, d))
    sums = None
    for start in range(0, n, rows):
        k = min(rows, n - start)
        np.multiply(counts[start:start + k], d, out=index[:k], dtype=np.intp)
        index[:k] += cols
        np.take(flat, index[:k], out=block[1:k + 1], mode="clip")  # in range: no copy of out
        if sums is None:
            sums = np.add.reduce(block[1:k + 1], axis=0)
        else:
            block[0] = sums
            sums = np.add.reduce(block[:k + 1], axis=0)
    return sums


def mean_and_se(values: np.ndarray, table: np.ndarray | None = None):
    """Sample mean and its standard error (ddof=1; SE=0 for a single value)
    of (n,) values, as floats, or of each column of (n, d) values, as (d,)
    arrays.

    A float64 array is taken as the function's own: the standard error is
    computed in place, in the steps of numpy's ``std(ddof=1)`` (deviations
    from the mean, squared, summed, divided by n - 1, square root), so the
    bytes are numpy's but ``values`` is overwritten. Pass a copy to keep it.

    With a (k, d) float ``table``, ``values`` are (n, d) integer counts
    standing for the values table[values[i, t], t], and the result has the
    bytes of ``mean_and_se(np.take_along_axis(table, values, axis=0))``
    with no (n, d) float array built: the mean sums the values read block
    by block (``_column_sums``), and the deviations are squared once per
    table entry, the same IEEE operations per value, then read and summed
    the same way. A single column, summed pairwise by numpy, and an empty
    one are read whole and reduced as floats.
    """
    if table is not None:
        n, d = values.shape
        if n == 0 or d == 1:
            values = np.take_along_axis(table, values, axis=0)
        else:
            mean = _column_sums(values, table) / n
            if n < 2:
                return mean, np.zeros_like(mean)
            dev = table - mean
            dev *= dev
            return mean, np.sqrt(_column_sums(values, dev) / (n - 1)) / math.sqrt(n)
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
