"""Discrete-output learners and exact enumeration of their output channels.

Every learner maps a sample to a parameter vector in a finite codebook, so
the joint law of (output, sample) can be enumerated exactly. Learners are
pure given (sample, seed) and never take the instance, so none can read its
bias; grid rounding breaks ties toward the smaller value, so outputs are
bit-stable across runs and worker counts.

The learner protocol is a set of attributes, with no base class. Every
learner has a ``kind``, the label used in report names, and
``deterministic``, whether its output is a function of the sample. A
deterministic base learner is one coordinate's levels and one optional row
map, the same for every coordinate:
  * ``reads_counts``: whether coordinate t's level is indexed by its
    plus-count C_t, so the output bytes depend on the sample only through
    its plus-counts; otherwise by its column pattern, the code
    sum_i 2^i plus(i, t) (SGD, the one learner that reads the points in
    order);
  * ``levels(m, d)``: the 1-D levels of one output coordinate at scale
    1/sqrt(d), m+1 of them for a count learner and 2^m for SGD;
  * ``finish(rows, m)``: the outputs on (n, d) rows of levels, or None where
    the outputs are the levels (the mean and the quantized mean). RERM and
    SGD project the rows onto the ball, the epsilon-net ERM takes the
    nearest net point.
SGD also defines ``fit_batch(plus)`` on (n, m, d) plus booleans, whose
in-loop projection decides exact half-grid ties beyond the budget. Two
wrappers hold a deterministic ``base`` and fit nothing: a subsample reads
only the points S_1..k (``reduce_subsample``), and randomized response
replaces the base's output by a uniform codebook atom with probability
``rho``. ``fit`` is the one fit on plus booleans and applies both wrapper
rules.

Exact channels run over the 2^(d*m) sign patterns (at most FULL_ENUM_BUDGET)
in pattern order, pattern i plus in point j, coordinate t iff bit j d + t of
i is set, and build no sign tensor: ``output_atoms`` indexes every
deterministic learner's atoms by one sample code, which ``sample_codes``
builds for every pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .infotheory import entropy_of, row_entropies
from .sco import HardInstance, counts_of_plus

FULL_ENUM_BUDGET = 1 << 24
DENSE_LAW_BYTES = 1 << 30  # a dense (samples x codebook) law with its MI's and gap's temporaries
NET_BLOCK_CELLS = 1 << 18  # floats in one distance block of EpsilonNetErm
GAP_BLOCK_ROWS = 1 << 14  # patterns per block of a deterministic pattern channel's gap
CODE_LIMIT = 1 << 62  # lexicographic row codes stay below this, so int64 never wraps


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed FULL_ENUM_BUDGET, or a dense law DENSE_LAW_BYTES."""


def mean_levels(m: int, d: int) -> np.ndarray:
    """(m+1,) sample means of one coordinate at plus-counts c = 0..m out of
    m, in points signs/sqrt(d): the sign sum is 2c - m, exact in floats, so
    these are the bytes of the mean over the signs themselves."""
    return (2.0 * np.arange(m + 1) - m) / m / math.sqrt(d)


def grid_step(delta: float | None, m: int) -> float:
    """Quantization step ``delta``, or 1/m^2 (risk perturbation O(sqrt(d)/m^2))."""
    return delta if delta is not None else 1.0 / (m * m)


def product_grid(axes) -> np.ndarray:
    """All points of the product of 1-D ``axes``, one per row, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def round_half_down(x, delta: float) -> np.ndarray:
    """Round to the grid delta*Z, ties toward the smaller grid value: the
    quotient is a fresh array, and the shift, ceil and scale run in place."""
    q = np.divide(x, delta, out=np.empty(np.shape(x)))
    q -= 0.5
    np.ceil(q, out=q)
    q *= delta
    return q


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and each row's atom index: the
    atoms, order and inverse of ``np.unique(rows, axis=0)``, rows compared by
    value (0.0 and -0.0 in one atom), with no sort of float rows.

    Each column is ranked among its distinct values and the ranks folded
    into one int64 code per row, re-ranked before a fold could pass
    CODE_LIMIT. Each atom keeps the row of its first occurrence, numpy's own
    choice unless an atom's rows differ in the sign of a zero. Rows must hold
    no NaN.
    """
    rows = np.asarray(rows)
    code = np.zeros(rows.shape[0], dtype=np.int64)
    bound = 1  # every code is below bound
    for column in rows.T:
        levels = np.unique(column)
        if bound * levels.shape[0] > CODE_LIMIT:
            seen, code = np.unique(code, return_inverse=True)
            bound = seen.shape[0]
        code = code * levels.shape[0] + np.searchsorted(levels, column)
        bound *= levels.shape[0]
    first, inverse = np.unique(code, return_index=True, return_inverse=True)[1:]
    return rows[first], inverse


def _project_rows(w: np.ndarray) -> np.ndarray:
    """Project each row of an (n, d) array onto the unit ball, in place."""
    norms = np.linalg.norm(w, axis=1)
    over = norms > 1.0
    if np.any(over):
        w[over] /= norms[over, None]
    return w


@dataclass(frozen=True)
class MeanLearner:
    """Outputs the sample mean zbar: the exact empirical risk minimizer."""

    kind = "mean"
    deterministic = True
    reads_counts = True
    levels = staticmethod(mean_levels)
    finish = None


@dataclass(frozen=True)
class QuantizedMeanLearner:
    """Sample mean rounded to the delta grid, per coordinate.

    Each coordinate is clipped to [-1/sqrt(d), 1/sqrt(d)] (the range of every
    reachable mean), which keeps the output in the ball without a joint
    projection, so the outputs are the levels, with no row map.
    """

    delta: float | None = None  # None: 1/m^2 at fit time

    kind = "quantized_mean"
    deterministic = True
    reads_counts = True
    finish = None

    def levels(self, m: int, d: int) -> np.ndarray:
        lim = 1.0 / math.sqrt(d)
        return np.clip(round_half_down(mean_levels(m, d), grid_step(self.delta, m)), -lim, lim)


def epsilon_net(d: int, m: int) -> np.ndarray:
    """Axis grid over [-1,1]^d (ceil(sqrt(m))+1 points per axis, so spacing
    <= 2/sqrt(m) and covering radius <= sqrt(d/m)), ball-projected and
    deduplicated, in lexicographic order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    axis = np.linspace(-1.0, 1.0, math.ceil(math.sqrt(m)) + 1)
    return unique_rows(_project_rows(product_grid([axis] * d)))[0]


@dataclass(frozen=True)
class EpsilonNetErm:
    """Empirical risk minimizer restricted to the ball net.

    The empirical risk is ||w - zbar||^2 plus a constant, so the minimizer is
    the net point nearest to zbar; ties go to the lexicographically smallest
    point. Empirical risk exceeds the ball minimum by at most the squared
    covering radius d/m <= sqrt(d/m) for d <= m, and the output entropy is
    capped by log of the net size.
    """

    kind = "epsilon_net_erm"
    deterministic = True
    reads_counts = True
    levels = staticmethod(mean_levels)

    def finish(self, zbar: np.ndarray, m: int) -> np.ndarray:
        """Nearest net point per row of means, in blocks of rows whose (rows,
        net size, d) distance temporary holds at most NET_BLOCK_CELLS floats."""
        net = epsilon_net(zbar.shape[1], m)
        rows = max(1, NET_BLOCK_CELLS // net.size)
        idx = np.empty(zbar.shape[0], dtype=np.intp)
        for start in range(0, zbar.shape[0], rows):
            diff = zbar[start:start + rows, None, :] - net[None, :, :]
            idx[start:start + rows] = np.argmin((diff * diff).sum(axis=2), axis=1)
        return net[idx]


@dataclass(frozen=True)
class SgdLearner:
    """One projected pass with step 1/(2t), iterate averaging, then quantization.

    The per-point gradient of the squared-distance loss is 2(w - z_t), so the
    update is w <- (1 - 1/t) w + z_t / t and every iterate stays a convex
    combination of data points (inside the ball). The average of the iterates
    is rounded to the 1/m^2 grid for a finite codebook.

    ``_pass`` holds the update once. ``fit_batch`` feeds it each sample's
    points and projects every step; ``levels`` feeds it one coordinate's two
    corner values and projects nothing inside the pass, which within the
    budget changes no output bit (``output_atoms``). Beyond the budget the
    in-loop projection decides exact half-grid ties, so ``fit_batch`` keeps
    it.
    """

    delta: float | None = None

    kind = "sgd"
    deterministic = True
    reads_counts = False  # the pass reads the points in order

    def _pass(self, points, m: int, d: int, project) -> np.ndarray:
        """Rounded iterate averages before the final projection, after m
        steps, step t reading the (k, n, d) points ``points(t)``: n = 1
        extends every iterate by each of k points, point the slow axis of the
        new rows; k = 1 gives iterate i point i. ``project`` takes each
        step's new iterates."""
        w, acc = np.zeros((1, d)), np.zeros((1, d))
        for t in range(1, m + 1):
            z = points(t)
            w = project(((1.0 - 1.0 / t) * w[None] + z / t).reshape(-1, d))
            acc = (acc[None] + w.reshape(z.shape[0], -1, d)).reshape(-1, d)
        del w  # so the rounding holds only the running sum and its quotient
        acc /= m
        return round_half_down(acc, grid_step(self.delta, m))

    def fit_batch(self, plus: np.ndarray) -> np.ndarray:
        _, m, d = plus.shape
        root_d = math.sqrt(d)
        return _project_rows(self._pass(
            lambda t: np.where(plus[None, :, t - 1], 1.0, -1.0) / root_d, m, d, _project_rows))

    def levels(self, m: int, d: int) -> np.ndarray:
        """One level per column pattern, with no projection inside the pass."""
        corners = (np.array([-1.0, 1.0]) / math.sqrt(d))[:, None, None]  # (2, 1, 1)
        return self._pass(lambda t: corners, m, 1, lambda w: w)[:, 0]

    def finish(self, rows: np.ndarray, m: int) -> np.ndarray:
        return _project_rows(rows)


@dataclass(frozen=True)
class RegularizedErm:
    """Exact minimizer zbar/(1+lam) of the ridge-regularized empirical risk,
    quantized at 1/m^2. lam=0 recovers the mean learner up to quantization."""

    lam: float = 0.0
    delta: float | None = None

    kind = "regularized_erm"
    deterministic = True
    reads_counts = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")

    def levels(self, m: int, d: int) -> np.ndarray:
        return round_half_down(mean_levels(m, d) / (1.0 + self.lam), grid_step(self.delta, m))

    def finish(self, rows: np.ndarray, m: int) -> np.ndarray:
        return _project_rows(rows)


@dataclass(frozen=True)
class SubsampleLearner:
    """Applies the base learner to the first k points only."""

    k: int
    base: object

    deterministic = True
    reads_counts = False  # the first k points, not the counts over all m

    def __post_init__(self):
        if not self.base.deterministic:
            raise ValueError("subsample wraps deterministic learners")

    @property
    def kind(self) -> str:
        return f"subsample[{self.base.kind}, k={self.k}]"


@dataclass(frozen=True)
class RandomizedResponse:
    """With probability rho, replace the base answer by a uniform codebook
    element; rho=0 is the base learner, rho=1 carries zero information."""

    base: object
    rho: float

    deterministic = False
    reads_counts = False  # exact channels read the base's attribute

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not self.base.deterministic:
            raise ValueError("randomized response wraps deterministic learners")

    @property
    def kind(self) -> str:
        return f"randomized_response[{self.base.kind}, rho={self.rho}]"

    def mix(self, base_law: np.ndarray) -> np.ndarray:
        """Output law given the base learner's law over the K codebook atoms
        (last axis): (1 - rho) * base_law + rho / K."""
        return (1.0 - self.rho) * base_law + self.rho / base_law.shape[-1]


LEARNER_KINDS = {
    "mean": MeanLearner,
    "quantized_mean": QuantizedMeanLearner,
    "epsilon_net_erm": EpsilonNetErm,
    "sgd": SgdLearner,
    "regularized_erm": RegularizedErm,
    "subsample": SubsampleLearner,
}


def make_learner(kind: str, **params):
    """Config-facing factory: the class of ``kind`` called with ``params``, so
    a parameter the class does not take raises TypeError. A subsample's
    ``base`` names its base kind (default mean), built with no parameters."""
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind: {kind!r}")
    if kind == "subsample":
        params["base"] = make_learner(params.get("base", "mean"))
    return LEARNER_KINDS[kind](**params)


def reduce_subsample(learner, m: int):
    """(learner, m) with every subsample layer replaced by (base, k): a
    subsample's output reads only its first k points, so its outputs, exact MI
    and supersample CMI are its base's at k."""
    if not isinstance(learner, SubsampleLearner):
        return learner, m
    if not 1 <= learner.k <= m:
        raise ValueError(f"subsample size k={learner.k} out of range for m={m}")
    return reduce_subsample(learner.base, learner.k)


def fit(learner, plus: np.ndarray, rng=None) -> np.ndarray:
    """(n, d) outputs of ``learner`` on the n samples of (n, m, d) plus
    booleans. A subsample fits its base on its first k points, a count
    learner reads its plus-counts (``count_statistic``) and SGD the points
    in order. Randomized response fits its base, then row by row draws
    ``rng.random()`` and, on a flip, ``rng.integers(K)`` for an atom of the
    base's codebook, built at the first flip only."""
    if not learner.deterministic:
        if rng is None:
            raise ValueError("randomized response needs an rng")
        out = fit(learner.base, plus)
        codebook = None
        for i in range(out.shape[0]):
            if rng.random() < learner.rho:
                if codebook is None:
                    codebook = output_atoms(learner.base, plus.shape[1], plus.shape[2])[0]
                out[i] = codebook[rng.integers(codebook.shape[0])]
        return out
    learner, m = reduce_subsample(learner, plus.shape[1])
    if learner.reads_counts:
        return count_statistic(learner, counts_of_plus(plus[:, :m]), m)
    return learner.fit_batch(plus[:, :m])


def code_radix(n: int, d: int) -> np.ndarray:
    """Radix n^(d-1-t) of coordinate t in the code sum_t c_t n^(d-1-t) of d
    indices c_t below n."""
    return n ** np.arange(d - 1, -1, -1, dtype=np.int64)


def sample_codes(scale: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """Each sign pattern's sample code sum_i scale[i] sum_t plus(i, t) radix[t],
    in pattern order: cell c = i d + t, bit c of the pattern index, adds
    scale[i] radix[t], so each cell doubles the codes. The budget bounds the
    2^(d m) patterns before any is built."""
    cells = scale.shape[0] * radix.shape[0]
    if 1 << cells > FULL_ENUM_BUDGET:
        raise BudgetExceededError(f"2^{cells} sign patterns exceed budget {FULL_ENUM_BUDGET}")
    code = np.zeros(1 << cells, dtype=np.int64)
    for c, weight in enumerate(np.outer(scale, radix).reshape(-1)):
        np.add(code[:1 << c], weight, out=code[1 << c:2 << c])
    return code


def lattice_codes(m: int, d: int) -> np.ndarray:
    """Each sign pattern's lattice code, its plus-counts read in base m+1."""
    return sample_codes(np.ones(m, dtype=np.int64), code_radix(m + 1, d))


def lattice_counts(m: int, d: int) -> np.ndarray:
    """The (m+1)^d plus-count vectors C, (L, d) in lattice code order."""
    return product_grid([np.arange(m + 1)] * d)


def count_probs(inst: HardInstance, m: int) -> np.ndarray:
    """(m+1, d) table: entry (c, t) is q_t^c (1 - q_t)^(m - c), q = (1 + p)/2,
    the probability under D(p)^m of any one column t of m signs with c plus."""
    q = (1.0 + inst.p) / 2.0
    ks = np.arange(m + 1)[:, None]
    return q ** ks * (1.0 - q) ** (m - ks)


def sign_space_probs(inst: HardInstance, counts: np.ndarray, m: int) -> np.ndarray:
    """Probability under D(p)^m of each sample with (n, d) plus-counts out of
    m: the product over t of its ``count_probs`` entries (C_t, t)."""
    return np.prod(np.take_along_axis(count_probs(inst, m), counts, axis=0), axis=1)


@dataclass(frozen=True)
class Channel:
    """Exact joint law of (sample, learner output) over the sign patterns.

    A deterministic channel's ``output_index`` holds each pattern's codebook
    row; a randomized one's ``cond`` holds one conditional pmf row per
    pattern. Neither depends on the bias, which only weighs the samples
    (``reweighted``). ``code_atom``, set for a count learner, maps each
    lattice code to its atom, so the gap takes each code's term once.
    """

    codes: np.ndarray = field(repr=False)          # (n,) lattice code per sign pattern
    counts: np.ndarray = field(repr=False)         # (L, d) plus-counts per lattice code
    m: int
    sample_probs: np.ndarray | None = field(repr=False)  # (n,); None before ``reweighted``
    codebook: np.ndarray = field(repr=False)       # (K, d) lexicographic
    output_index: np.ndarray | None = field(repr=False, default=None)
    cond: np.ndarray | None = field(repr=False, default=None)
    code_atom: np.ndarray | None = field(repr=False, default=None)  # (L,) or None

    @property
    def deterministic(self) -> bool:
        return self.cond is None

    def reweighted(self, inst: HardInstance) -> "Channel":
        """This channel with each sample weighed by its probability under D(p)^m."""
        return replace(self, sample_probs=sign_space_probs(inst, self.counts, self.m)[self.codes])

    def plus_counts(self, t: int, out: np.ndarray) -> np.ndarray:
        """Each pattern's plus-count in coordinate t, written into the int64
        array ``out``; codes are in range, so "clip" copies no ``out``."""
        return np.take(self.counts[:, t], self.codes, out=out, mode="clip")

    def output_marginal(self) -> np.ndarray:
        if self.deterministic:
            return np.bincount(self.output_index, self.sample_probs, self.codebook.shape[0])
        return self.sample_probs @ self.cond

    def mutual_information(self) -> float:
        """I(output; sample) in nats: H(output) - E_S[H(output | sample)]."""
        h_out = self.output_entropy()
        if self.deterministic:
            return max(0.0, h_out)
        return max(0.0, h_out - float(self.sample_probs @ row_entropies(self.cond)))

    def output_entropy(self) -> float:
        return entropy_of(self.output_marginal())

    def expected_generalization_gap(self, inst: HardInstance) -> float:
        """E[L_D(w_S) - L_S(w_S)], exact over the enumeration.

        The quadratic risks telescope: L_D(w) - L_S(w, S) = 2 w . (zbar - w*),
        so the constant-output gap is exactly zero in floating point too.
        """
        drift = mean_levels(self.m, self.counts.shape[1])[self.counts] - inst.w_star  # (L, d)
        if self.code_atom is not None:
            term = 2.0 * (self.codebook[self.code_atom] * drift).sum(axis=1)
            return float(self.sample_probs @ term[self.codes])
        if self.deterministic:  # a pattern's term reads only its row: blocks keep the bytes
            term = np.empty(self.codes.shape[0])
            for start in range(0, term.shape[0], GAP_BLOCK_ROWS):
                rows = slice(start, start + GAP_BLOCK_ROWS)
                w = np.take(self.codebook, self.output_index[rows], axis=0)
                term[rows] = 2.0 * (w * np.take(drift, self.codes[rows], axis=0)).sum(axis=1)
            return float(self.sample_probs @ term)
        drift = drift[self.codes]  # (n, d)
        gap = 2.0 * drift @ self.codebook.T  # (n, K)
        return float(self.sample_probs @ (self.cond * gap).sum(axis=1))

    def expected_excess_risk(self, inst: HardInstance) -> float:
        """E[Delta_D(w_S)] = E||w_S - w*||^2, exact over the enumeration."""
        sub = ((self.codebook - inst.w_star) ** 2).sum(axis=1)  # (K,)
        if self.deterministic:
            return float(self.sample_probs @ sub[self.output_index])
        return float(self.sample_probs @ (self.cond @ sub))


def _column_atoms(learner, m: int, d: int):
    """(codebook, atom per level-tuple code) of a deterministic base learner:
    its outputs (``finish``) on each pattern's d ``levels``, the level-tuple
    code sum_t c_t n^(d-1-t) having coordinate t's level index c_t among the
    n levels as digit t.

    Only the K^d tuples of the K distinct levels (0.0 and -0.0 in one, each
    the bytes of its first index) are finished and grouped. A count
    learner's levels never fall as the count grows, and SGD's pattern index
    interleaves the column bits, so a tuple of first indices is its atom's
    first pattern, and the bytes are those of a fit per pattern. Each code
    takes the atom of its level ranks read in base K, built by d - 1 outer
    sums; K^d <= FULL_ENUM_BUDGET fits int32."""
    levels = learner.levels(m, d)
    _, first, level = np.unique(levels, return_index=True, return_inverse=True)
    k = first.shape[0]
    rows = product_grid([levels[first]] * d)
    codebook, tuple_atom = unique_rows(rows if learner.finish is None else learner.finish(rows, m))
    level = code = level.astype(np.int32)
    for _ in range(d - 1):
        code = np.add.outer(code * k, level).reshape(-1)
    return codebook, tuple_atom[code]


def output_atoms(learner, m: int, d: int):
    """(codebook, atom, scale, radix): a deterministic learner's lexicographic
    codebook and the atom of each sample code sum_i scale[i] sum_t plus(i, t)
    radix[t] (``sample_codes``), the only index of its atoms. Coordinate t's
    level index is sum_i scale[i] plus(i, t): its plus-count for a count
    learner (scale 1), its column pattern for SGD (scale 2^i). Radix
    n^(d-1-t), n the number of levels, reads the d indices as one code, and
    the atoms come from ``_column_atoms``; the budget bounds the n^d codes,
    the (m+1)^d lattice points or the 2^(d m) patterns, before any is built.
    Within it these are the bytes of a fit per pattern.

    A subsample takes its base's codebook, atoms and radix at k, and the
    base's scale with zero weight on points k+1..m, so it builds nothing of
    size 2^(d m)."""
    base, k = reduce_subsample(learner, m)
    if base is not learner:
        codebook, atom, scale, radix = output_atoms(base, k, d)
        return codebook, atom, np.concatenate([scale, np.zeros(m - k, dtype=np.int64)]), radix
    if learner.reads_counts:
        n, what, scale = m + 1, f"{m + 1}^{d} lattice points", np.ones(m, dtype=np.int64)
    else:
        n, what, scale = 1 << m, f"2^{m * d} sign patterns", 1 << np.arange(m, dtype=np.int64)
    if n ** d > FULL_ENUM_BUDGET:
        raise BudgetExceededError(f"{what} exceed budget {FULL_ENUM_BUDGET}")
    return (*_column_atoms(learner, m, d), scale, code_radix(n, d))


def exact_channel(learner, inst: HardInstance, m: int) -> Channel:
    """Exhaustive joint law of (sample, output) over supp(D(p)^m), each
    pattern reading its atom by its sample code. A randomized learner's dense
    (samples x codebook) law is the only array of its size built here, and it
    must fit in DENSE_LAW_BYTES with the temporaries its MI and gap build and
    the (L, d) lattice arrays that weigh the samples."""
    base = learner if learner.deterministic else learner.base
    codebook, atom, scale, radix = output_atoms(base, m, inst.d)  # fit first: lower peak
    codes = lattice_codes(m, inst.d)
    if base.reads_counts:
        code_atom, idx = atom, atom[codes]
    else:  # each sample code turns into its atom in place; mode "raise" buffers a copy
        code_atom, idx = None, sample_codes(scale, radix)
        np.take(atom, idx, out=idx, mode="clip")
    del atom  # SGD's 2^(d m) per-code atoms go before the samples are weighed
    counts = lattice_counts(m, inst.d)
    if learner.deterministic:
        return Channel(codes, counts, m, None, codebook, output_index=idx,
                       code_atom=code_atom).reweighted(inst)
    n, big_k = codes.shape[0], codebook.shape[0]
    # per cell the law and the two temporaries of its size that the MI (with a
    # one-byte mask) and the gap build; per sample the gap's two d-float
    # drifts and four more floats; per lattice count the kept int64 counts
    # and three words more, above the one gathered float of ``sign_space_probs``
    need = n * (25 * big_k + 16 * inst.d + 32) + 32 * counts.size
    if need > DENSE_LAW_BYTES:
        raise BudgetExceededError(f"dense {n} x {big_k} law with its temporaries needs "
                                  f"{need} bytes, above {DENSE_LAW_BYTES}")
    # each row mixes a point mass: mix of 0 off the base atom, mix of 1 on it
    on, off = learner.mix(np.eye(2, big_k))[:, 0]
    cond = np.full((n, big_k), off)
    cond[np.arange(n), idx] = on
    return Channel(codes, counts, m, None, codebook, cond=cond).reweighted(inst)


def keep_outputs(w: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The statistic that keeps the outputs w."""
    return w


def level_table(learner, m: int, d: int, stat=keep_outputs) -> np.ndarray | None:
    """The (m+1, d) table of ``stat(w, sums)``, as ``count_statistic``
    defines it, of a ``reads_counts`` learner with no row map: entry (c, t)
    is its statistic in coordinate t at plus-count C_t = c, so a sample's
    row reads entry (C_t, t). ``stat`` runs once, on the (m+1, 1) levels and
    sign sums 2c - m, broadcast against any (d,) operand. None for any other
    learner, whose outputs are not one coordinate's levels."""
    if not learner.reads_counts or learner.finish is not None:
        return None
    table = stat(learner.levels(m, d)[:, None], 2.0 * np.arange(m + 1)[:, None] - m)
    return np.broadcast_to(table, (m + 1, d))


def count_statistic(learner, counts: np.ndarray, m: int, stat=keep_outputs) -> np.ndarray:
    """``stat(w, sums)`` of a ``reads_counts`` learner at (n, d) plus-counts
    C out of m, w its outputs and sums the float sign sums 2 C - m: the one
    route from a count learner's counts to its outputs. ``stat`` must work
    elementwise, column t reading only column t of w and sums and (d,)
    operands such as a shared bias.

    Each sample's row reads level C_t in coordinate t: the same IEEE
    operations, in the same order, on the same operands as a fit on its own
    counts, so no byte moves. With no row map each sample reads its entries
    of the ``level_table``; otherwise ``finish`` maps the gathered rows
    (``RegularizedErm`` projects whole rows, ``EpsilonNetErm`` picks the
    nearest net point)."""
    table = level_table(learner, m, counts.shape[1], stat)
    if table is not None:
        return np.take_along_axis(table, counts, axis=0)
    levels = learner.levels(m, counts.shape[1])
    return stat(learner.finish(levels[counts], m), 2.0 * counts - m)


def exact_mutual_information(learner, d: int, m: int):
    """I(w_S; S) in nats as a function of the instance, with all that does not
    depend on its bias built here, so a budget error comes before any use.
    For a learner whose outputs are its levels (a ``level_table``) the MI
    sums per-coordinate entropies, the pairs (w_S(t), S column t) being
    independent across t: each of the 2^m column patterns adds its count's
    ``count_probs`` weight to the atom of its count's level (the table at
    d: the 1/sqrt(d) scale), in pattern order. Any other learner's channel
    is reweighted per bias."""
    learner, m = reduce_subsample(learner, m)
    table = level_table(learner, m, d)
    if table is None:
        ch = exact_channel(learner, HardInstance.zero(d), m)
        return lambda inst: ch.reweighted(inst).mutual_information()
    counts = lattice_codes(m, 1)  # each column pattern's plus-count
    atom = np.unique(table[:, 0], return_inverse=True)[1][counts]
    return lambda inst: max(0.0, float(sum(
        entropy_of(np.bincount(atom, probs[counts])) for probs in count_probs(inst, m).T)))
