"""Seeding discipline and chunked Monte Carlo loops.

Every stochastic routine derives its generator from a master seed plus an
integer path, so results are reproducible bit-for-bit. Long trial loops are
split into fixed-size chunks whose streams depend only on (seed, chunk index).
One rule holds for every routine here: the workers run a chunk's draw, from
its stream to its values, and the main thread takes the chunks in chunk order
and does every reduction. So the worker count changes scheduling but never
the reduction order, and parallel and serial runs agree byte-for-byte.
Workers run at most two chunks each ahead of the one the main thread takes
next, so finished chunks do not pile up. ``chunked_trials`` writes the
chunks into one result array, and ``mean_and_se`` takes its standard error
in place, consuming that array. Where every value is an entry of a small
table read at an integer count (a learner whose outputs are its levels, read
at plus-counts), the array holds the counts, and ``mean_and_se`` reads the
table at them block by block in numpy's own summation order. Where each
trial keeps a count and its one value can be drawn again from it,
``streamed_mean_and_se`` holds no value at all: ``PairwiseSum`` adds the
values, fed in order, in numpy's pairwise order, once for the mean and once
more, redrawn, for the squared deviations. No route moves a byte.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 1 << 14
GATHER_ROWS = 1 << 12  # rows of counts read per block of a counts-plus-table reduction
PAIRWISE_LEAF = 128  # numpy's pairwise summation adds at most this many values in one loop

THREADS_ENV = "MI_SCO_THREADS"


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *path)."""
    return np.random.default_rng([int(master_seed), *[int(p) for p in path]])


def worker_count() -> int:
    """``MI_SCO_THREADS`` (1 if not an integer) within 1 and the CPUs this
    process may use: a chunked loop starts a thread per worker."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(n, cpus or 1))


def _in_order(run, items):
    """``run(item)`` for each item, yielded in order. With more than one
    worker, at most two results per worker wait, done or running, beyond
    the one yielded, however long the consumer takes with each."""
    workers = worker_count()
    if workers == 1 or len(items) < 2:
        yield from map(run, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(run, item))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _chunks(n_trials: int, chunk: int) -> list:
    """(index, first trial, size) of each chunk of n_trials."""
    return [(c, start, min(chunk, n_trials - start))
            for c, start in enumerate(range(0, n_trials, chunk))]


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
    chunks = _chunks(n_trials, chunk)
    if not chunks:
        return np.empty(0)
    out = None
    for part, (_, start, size) in zip(_in_order(
            lambda cb: fn(substream(master_seed, *path, cb[0]), cb[2]), chunks), chunks):
        k = part.shape[0] // size
        if out is None:
            out = np.empty(n_trials * k, dtype=part.dtype)
        out[start * k:(start + size) * k] = part
    return out


def _pairwise_split(k: int) -> int:
    """How many of k > PAIRWISE_LEAF values numpy's pairwise sum adds up
    first: half of them, rounded down to a multiple of 8."""
    return k // 2 - k // 2 % 8


class PairwiseSum:
    """``np.add.reduce`` of n float64 values fed in order, in parts of any
    size, with the bytes numpy gives when it sums them in one contiguous
    array: 0.0 + T(0, n), where T of at most PAIRWISE_LEAF values (a leaf)
    is numpy's own loop and T of k more values is T(first h) + T(the other
    k - h), h = ``_pairwise_split(k)``. The tree's nodes depend on n alone,
    and numpy's sum of a node's values alone is 0.0 + T(node). That differs
    from T(node) at most in the sign of a zero, so every sum above it
    differs at most so too, and the final 0.0 + drops the sign. So ``add``
    has numpy sum each largest node that lies whole in a part, and each leaf
    that crosses a part's edge once its last value is in; ``total`` adds the
    nodes above, in Python floats."""

    def __init__(self, n: int):
        self.n = int(n)
        self.sums = {}  # (first value, size) of a node summed -> its sum
        self.head = np.empty(PAIRWISE_LEAF)  # values of the leaf fed in parts
        self.fed = 0  # values fed so far

    def add(self, part: np.ndarray) -> None:
        """Feed the next values: one walk down the tree to the nodes that
        part, values fed to fed + len(part), holds whole or in part."""
        start, end = self.fed, self.fed + part.shape[0]
        todo = [(0, self.n)]
        while todo:
            lo, k = todo.pop()
            if start <= lo and lo + k <= end:
                self.sums[lo, k] = float(np.add.reduce(part[lo - start:lo - start + k]))
            elif k > PAIRWISE_LEAF:  # the children that hold some of the part's values
                h = _pairwise_split(k)
                todo += [(c, j) for c, j in ((lo + h, k - h), (lo, h)) if c < end and start < c + j]
            elif start < end:  # a leaf that crosses the part's edge: copy its values in
                a, b = max(lo, start), min(lo + k, end)
                self.head[a - lo:b - lo] = part[a - start:b - start]
                if b == lo + k:
                    self.sums[lo, k] = float(np.add.reduce(self.head[:k]))
        self.fed = end

    def total(self) -> float:
        """The sum of the n values, once all are fed."""
        if self.fed != self.n:
            raise ValueError(f"{self.fed} of {self.n} values fed")

        def node(lo, k):
            if (lo, k) in self.sums:
                return self.sums[lo, k]
            h = _pairwise_split(k)
            return node(lo, h) + node(lo + h, k - h)

        return 0.0 + node(0, self.n)


def streamed_mean_and_se(draw, redraw, n_trials: int, master_seed: int, *path: int):
    """``mean_and_se`` of one value per trial, as floats with its bytes,
    holding what each trial keeps and no value.

    ``draw(rng, size) -> (kept, values)`` draws a chunk's trials from its
    stream (master_seed, *path, c), as in ``chunked_trials``, and returns
    one entry to keep per trial, say its count, and one float64 value per
    trial. ``redraw(rng, kept)`` rebuilds the same values from chunk c's
    stream, fresh again, and the chunk's kept entries. Pass 1 keeps the
    entries in one array and sums the values; pass 2 sums the squared
    deviations from the mean, each by a ``PairwiseSum`` fed in chunk order.
    """
    n = int(n_trials)
    if n < 1:
        raise ValueError("n_trials must be >= 1")
    chunks = _chunks(n, CHUNK)
    values_sum, kept = PairwiseSum(n), None
    for (keep, values), (_, start, size) in zip(_in_order(
            lambda cb: draw(substream(master_seed, *path, cb[0]), cb[2]), chunks), chunks):
        if kept is None:
            kept = np.empty(n, dtype=keep.dtype)
        kept[start:start + size] = keep
        values_sum.add(values)
    mean = values_sum.total() / n
    if n < 2:
        return mean, 0.0
    squares_sum = PairwiseSum(n)

    def pass_two(cb):
        c, start, size = cb
        dev = redraw(substream(master_seed, *path, c), kept[start:start + size])
        dev -= mean
        dev *= dev
        return dev

    for dev in _in_order(pass_two, chunks):
        squares_sum.add(dev)
    return mean, math.sqrt(squares_sum.total() / (n - 1)) / math.sqrt(n)


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
    arrays. This route holds the values or their counts; where each trial's
    one value can be drawn again from a count it keeps,
    ``streamed_mean_and_se`` gives the same bytes and holds no value.

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
