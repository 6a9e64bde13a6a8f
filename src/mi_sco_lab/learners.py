"""Discrete-output learners and exact enumeration of their output channels.

Every learner maps a sample to a parameter vector drawn from a finite
codebook (grid quantization at step 1/m^2 unless stated), so the joint law of
(output, sample) can be enumerated exactly and fed to the information
machinery. Learners are pure given (sample, seed) and never take the
instance, so none can read its bias; tie-breaking is lexicographic
everywhere (grid rounding breaks ties toward the smaller value), so outputs
are bit-stable across runs and worker counts.

The learner contract is a set of attributes, with no base class:
  * ``kind``: the label used in report names;
  * ``deterministic``: whether the output is a function of the sample;
  * ``factorized``: whether output coordinate t depends only on column t of
    the sample;
  * ``reads_counts``: whether the output bytes depend on the sample only
    through its per-coordinate plus-counts;
  * ``fit_batch(signs)``: the (n, d) outputs for an (n, m, d) sign tensor;
  * ``fit_counts(counts, m)``, for a ``reads_counts`` learner only: the (n, d)
    outputs for (n, d) plus-counts out of m, the one computation of such a
    learner, which its ``fit_batch`` calls on the plus-counts of the signs.
The mean-based learners read the sample through ``count_mean``, and the
quantizing ones (quantized mean, SGD, regularized ERM) round to the step
``grid_step(delta, m)``, 1/m^2 unless their ``delta`` is set.
A randomized learner instead wraps a deterministic ``base``; it gives
``fit_batch(signs, rng)``, which draws from ``rng`` row by row, and
``mix(base_law)``, its output law given the base's law over the codebook.

Exact channels run over the 2^(d*m) sign patterns (at most FULL_ENUM_BUDGET).
One code-to-atom map, ``output_atoms``, gives every deterministic learner's
codebook and the atom of each sample code, which is either
  * the lattice code, plus-counts in base m+1: a ``reads_counts`` learner,
    fit once per (m+1)^d lattice point; or
  * the pattern index: any other learner, fit once per enumerated pattern.
``exact_channel``, ``reachable_outputs`` and the supersample CMI of ``bounds``
all read atoms by code. Factorized learners (coordinate t reads column t
only) also take per-coordinate entropies over the 2^m column patterns. The
Monte Carlo estimators draw plus booleans with ``sco.sample_plus`` and fit a
``reads_counts`` learner on their plus-counts, SGD and randomized response on
their signs.

Codebooks are found by ``unique_rows``, the one row dedup of the package: it
gives the atoms of numpy's row-wise ``np.unique`` (along axis 0) in the same
lexicographic order, with the same inverse, from per-column ranks folded into
integer codes instead of a sort of float rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .infotheory import entropy_of, row_entropies
from .sco import HardInstance, counts_of_plus

FULL_ENUM_BUDGET = 1 << 24
DENSE_LAW_BYTES = 1 << 30  # largest (samples x codebook) float64 law exact_channel builds
NET_BLOCK_CELLS = 1 << 18  # floats in one distance block of EpsilonNetErm
CODE_LIMIT = 1 << 62  # lexicographic row codes stay below this, so int64 never wraps


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed FULL_ENUM_BUDGET, or a dense law DENSE_LAW_BYTES."""


def count_mean(counts: np.ndarray, m: int) -> np.ndarray:
    """(n, d) sample means zbar of samples with (n, d) plus-counts out of m,
    in points signs/sqrt(d): a coordinate's sign sum is 2c - m, exact in
    floats, so these are the bytes of the mean over the signs themselves."""
    return (2.0 * counts - m) / m / math.sqrt(counts.shape[1])


def grid_step(delta: float | None, m: int) -> float:
    """Quantization step ``delta``, or 1/m^2 (risk perturbation O(sqrt(d)/m^2))."""
    return delta if delta is not None else 1.0 / (m * m)


def product_grid(axes) -> np.ndarray:
    """All points of the product of 1-D ``axes``, one per row, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def round_half_down(x, delta: float):
    """Round to the grid delta*Z, ties toward the smaller grid value."""
    return np.ceil(np.asarray(x, dtype=float) / delta - 0.5) * delta


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and each row's atom index.

    The atoms, their order and the inverse are those of numpy's row-wise
    ``np.unique`` (along axis 0, with ``return_inverse``): rows are compared
    by value, so 0.0 and -0.0 fall in one atom. Each column is ranked among
    its distinct values, and the ranks are folded left to right into one
    int64 code per row, re-ranked whenever the next fold could pass
    CODE_LIMIT; only 1-D arrays are sorted. Each atom's codebook row is its
    first occurrence in ``rows``, so the bytes are numpy's whenever an atom's
    rows are bit-identical (numpy picks among rows that differ only in the
    sign of a zero by its unstable sort). Rows must hold no NaN.
    """
    rows = np.asarray(rows)
    n = rows.shape[0]
    code = np.zeros(n, dtype=np.int64)
    bound = 1  # every code is below bound
    for column in rows.T:
        levels = np.unique(column)
        if bound * levels.shape[0] > CODE_LIMIT:
            seen, code = np.unique(code, return_inverse=True)
            bound = seen.shape[0]
        code = code * levels.shape[0] + np.searchsorted(levels, column)
        bound *= levels.shape[0]
    atoms, inverse = np.unique(code, return_inverse=True)
    first = np.full(atoms.shape[0], n, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n))
    return rows[first], inverse


def _project_rows(w: np.ndarray) -> np.ndarray:
    """Project each row of an (n, d) array onto the unit ball, in place."""
    norms = np.linalg.norm(w, axis=1)
    over = norms > 1.0
    if np.any(over):
        w[over] /= norms[over, None]
    return w


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanLearner:
    """Outputs the sample mean zbar: the exact empirical risk minimizer."""

    kind = "mean"
    deterministic = True
    factorized = True
    reads_counts = True

    def fit_counts(self, counts: np.ndarray, m: int) -> np.ndarray:
        return count_mean(counts, m)

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        return self.fit_counts(counts_of_plus(signs > 0), signs.shape[1])


@dataclass(frozen=True)
class QuantizedMeanLearner:
    """Sample mean rounded to the delta grid, per coordinate.

    Each coordinate is clipped to [-1/sqrt(d), 1/sqrt(d)] (the range of every
    reachable mean), which keeps the output in the ball without a joint
    projection, so the learner stays exactly coordinate-factorized.
    """

    delta: float | None = None  # None: 1/m^2 at fit time

    kind = "quantized_mean"
    deterministic = True
    factorized = True
    reads_counts = True

    def fit_counts(self, counts: np.ndarray, m: int) -> np.ndarray:
        lim = 1.0 / math.sqrt(counts.shape[1])
        return np.clip(round_half_down(count_mean(counts, m), grid_step(self.delta, m)),
                       -lim, lim)

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        return self.fit_counts(counts_of_plus(signs > 0), signs.shape[1])


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
    factorized = False
    reads_counts = True

    def fit_counts(self, counts: np.ndarray, m: int) -> np.ndarray:
        """Nearest net point per row, in blocks of rows whose (rows, net size,
        d) distance temporary holds at most NET_BLOCK_CELLS floats."""
        zbar = count_mean(counts, m)
        net = epsilon_net(zbar.shape[1], m)
        rows = max(1, NET_BLOCK_CELLS // net.size)
        idx = np.empty(zbar.shape[0], dtype=np.intp)
        for start in range(0, zbar.shape[0], rows):
            diff = zbar[start:start + rows, None, :] - net[None, :, :]
            idx[start:start + rows] = np.argmin((diff * diff).sum(axis=2), axis=1)
        return net[idx]

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        return self.fit_counts(counts_of_plus(signs > 0), signs.shape[1])


@dataclass(frozen=True)
class SgdLearner:
    """One projected pass with step 1/(2t), iterate averaging, then quantization.

    The per-point gradient of the squared-distance loss is 2(w - z_t), so the
    update is w <- (1 - 1/t) w + z_t / t and every iterate stays a convex
    combination of data points (inside the ball). The average of the iterates
    is rounded to the 1/m^2 grid for a finite codebook.
    """

    delta: float | None = None

    kind = "sgd"
    deterministic = True
    factorized = False
    reads_counts = False  # the pass reads the points in order

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        n, m, d = signs.shape
        root_d = math.sqrt(d)
        w = np.zeros((n, d))
        acc = np.zeros((n, d))
        for t in range(1, m + 1):
            point = signs[:, t - 1, :].astype(float) / root_d
            w = _project_rows((1.0 - 1.0 / t) * w + point / t)
            acc += w
        return _project_rows(round_half_down(acc / m, grid_step(self.delta, m)))


@dataclass(frozen=True)
class RegularizedErm:
    """Exact minimizer zbar/(1+lam) of the ridge-regularized empirical risk,
    quantized at 1/m^2. lam=0 recovers the mean learner up to quantization."""

    lam: float = 0.0
    delta: float | None = None

    kind = "regularized_erm"
    deterministic = True
    factorized = False
    reads_counts = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")

    def fit_counts(self, counts: np.ndarray, m: int) -> np.ndarray:
        zbar = count_mean(counts, m) / (1.0 + self.lam)
        return _project_rows(round_half_down(zbar, grid_step(self.delta, m)))

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        return self.fit_counts(counts_of_plus(signs > 0), signs.shape[1])


@dataclass(frozen=True)
class SubsampleLearner:
    """Applies the base learner to the first k points only."""

    k: int
    base: object

    deterministic = True
    reads_counts = False  # the first k points, not the counts over all m

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.base.deterministic:
            raise ValueError("subsample wraps deterministic learners")

    @property
    def kind(self) -> str:
        return f"subsample[{self.base.kind}, k={self.k}]"

    @property
    def factorized(self) -> bool:
        return self.base.factorized

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        if not 1 <= self.k <= signs.shape[1]:
            raise ValueError(f"k={self.k} out of range for m={signs.shape[1]}")
        return self.base.fit_batch(signs[:, : self.k, :])


@dataclass(frozen=True)
class RandomizedResponse:
    """With probability rho, replace the base answer by a uniform codebook
    element; rho=0 is the base learner, rho=1 carries zero information."""

    base: object
    rho: float

    deterministic = False
    factorized = False
    reads_counts = False  # exact channels read the base's attribute

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not self.base.deterministic:
            raise ValueError("randomized response wraps deterministic learners")

    @property
    def kind(self) -> str:
        return f"randomized_response[{self.base.kind}, rho={self.rho}]"

    def fit_batch(self, signs: np.ndarray, rng=None) -> np.ndarray:
        """Base outputs for an (n, m, d) sign tensor, each replaced with
        probability rho: row by row, ``rng.random()`` and, on a flip,
        ``rng.integers(K)`` picks a codebook atom. The codebook is built at
        the first flip only, once per call."""
        if rng is None:
            raise ValueError("randomized response needs an rng")
        n, m, d = signs.shape
        out = self.base.fit_batch(signs)
        codebook = None
        for i in range(n):
            if rng.random() < self.rho:
                if codebook is None:
                    codebook = reachable_outputs(self.base, d, m)
                out[i] = codebook[rng.integers(codebook.shape[0])]
        return out

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


# ---------------------------------------------------------------------------
# Exact channels
# ---------------------------------------------------------------------------


def _pattern_count(cells: int) -> int:
    if 1 << cells > FULL_ENUM_BUDGET:
        raise BudgetExceededError(f"2^{cells} sign patterns exceed budget {FULL_ENUM_BUDGET}")
    return 1 << cells


def enumerate_sign_space(m: int, d: int) -> np.ndarray:
    """All 2^(m*d) sign patterns as an (n, m, d) int8 tensor: pattern i holds
    bit c of i (as -1 or +1) in flat cell c, so column c is runs of 2^c equal
    signs, written through a view with no temporary."""
    cells = m * d
    n = _pattern_count(cells)
    out = np.empty((n, cells), dtype=np.int8)
    for c in range(cells):
        blocks = out[:, c].reshape(-1, 2, 1 << c)
        blocks[:, 0] = -1
        blocks[:, 1] = 1
    return out.reshape(n, m, d)


def lattice_radix(m: int, d: int) -> np.ndarray:
    """Radix (m+1)^(d-1-t) of coordinate t in the lattice code sum_t C_t (m+1)^(d-1-t)."""
    return (m + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)


def lattice_codes(m: int, d: int) -> np.ndarray:
    """Each sign pattern's lattice code, in ``enumerate_sign_space`` order:
    flat cell c = i d + t is bit c of the pattern index and adds the radix of
    coordinate t, so each cell doubles the codes."""
    code = np.zeros(_pattern_count(m * d), dtype=np.int64)
    for c, weight in enumerate(np.tile(lattice_radix(m, d), m)):
        np.add(code[:1 << c], weight, out=code[1 << c:2 << c])
    return code


def lattice_counts(m: int, d: int) -> np.ndarray:
    """The (m+1)^d plus-count vectors C, (L, d) in lattice code order."""
    return product_grid([np.arange(m + 1)] * d)


def sign_space_probs(inst: HardInstance, counts: np.ndarray, m: int) -> np.ndarray:
    """Probability under D(p)^m of each sample with (n, d) plus-counts out of m."""
    q = (1.0 + inst.p) / 2.0
    return np.prod(q[None, :] ** counts * (1.0 - q)[None, :] ** (m - counts), axis=1)


@dataclass(frozen=True)
class Channel:
    """Exact joint law of (sample, learner output) over an enumerated space.

    ``cond`` is None for deterministic learners, in which case
    ``output_index`` holds the codebook row per sample; otherwise ``cond``
    carries one conditional pmf row per sample. Neither depends on the bias,
    which only weighs the samples (``reweighted``).
    """

    codes: np.ndarray = field(repr=False)          # (n,) lattice code per sign pattern
    counts: np.ndarray = field(repr=False)         # (L, d) plus-counts per lattice code
    m: int
    sample_probs: np.ndarray | None = field(repr=False)  # (n,); None before ``reweighted``
    codebook: np.ndarray = field(repr=False)       # (K, d) lexicographic
    output_index: np.ndarray | None = field(repr=False, default=None)
    cond: np.ndarray | None = field(repr=False, default=None)

    @property
    def deterministic(self) -> bool:
        return self.cond is None

    def reweighted(self, inst: HardInstance) -> "Channel":
        """This channel with each sample weighed by its probability under D(p)^m."""
        return replace(self, sample_probs=sign_space_probs(inst, self.counts, self.m)[self.codes])

    def output_marginal(self) -> np.ndarray:
        if self.deterministic:
            marg = np.zeros(self.codebook.shape[0])
            np.add.at(marg, self.output_index, self.sample_probs)
            return marg
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
        zbar = count_mean(self.counts, self.m)
        drift = (zbar - inst.w_star)[self.codes]  # (n, d)
        if self.deterministic:
            w = self.codebook[self.output_index]
            return float(self.sample_probs @ (2.0 * (w * drift).sum(axis=1)))
        gap = 2.0 * drift @ self.codebook.T  # (n, K)
        return float(self.sample_probs @ (self.cond * gap).sum(axis=1))

    def expected_excess_risk(self, inst: HardInstance) -> float:
        """E[Delta_D(w_S)] = E||w_S - w*||^2, exact over the enumeration."""
        sub = ((self.codebook - inst.w_star) ** 2).sum(axis=1)  # (K,)
        if self.deterministic:
            return float(self.sample_probs @ sub[self.output_index])
        return float(self.sample_probs @ (self.cond @ sub))


def output_atoms(learner, m: int, d: int):
    """(codebook, atom, point_scale, coord_radix): a deterministic learner's
    lexicographic codebook and the atom of each sample code sum_i point_scale[i]
    sum_t plus(i, t) coord_radix[t]. A ``reads_counts`` learner takes the
    lattice code (scale 1, radix (m+1)^(d-1-t)), fit per point in its first
    pattern's order (plus signs lowest), so each atom keeps that pattern's row,
    signed zeros included; any other the pattern index (scale 2^(i d), radix 2^t)."""
    _pattern_count(m * d)  # the budget, checked before a weight 2^(i d) can wrap
    scale, radix = 1 << d * np.arange(m, dtype=np.int64), 1 << np.arange(d, dtype=np.int64)
    if not learner.reads_counts:
        codebook, atom = unique_rows(learner.fit_batch(enumerate_sign_space(m, d)))
        return codebook, atom, scale, radix
    counts = lattice_counts(m, d)
    # a first pattern's index sums the scales of its C_t lowest points, times 2^t
    order = np.argsort(np.concatenate([[0], np.cumsum(scale)])[counts] @ radix)
    codebook, inverse = unique_rows(learner.fit_counts(counts[order], m))
    return codebook, inverse[np.argsort(order)], np.ones(m, dtype=np.int64), lattice_radix(m, d)


def exact_channel(learner, inst: HardInstance, m: int) -> Channel:
    """Exhaustive joint law of (sample, output) over supp(D(p)^m); a randomized
    learner's dense (samples x codebook) law must fit in DENSE_LAW_BYTES, and
    is the only array of that size built."""
    base = learner if learner.deterministic else learner.base
    codebook, atom = output_atoms(base, m, inst.d)[:2]  # fit first: lower peak
    codes = lattice_codes(m, inst.d)
    # the sample code is the lattice code or, for any other learner, the pattern index
    idx = atom[codes] if base.reads_counts else atom
    counts = lattice_counts(m, inst.d)
    if learner.deterministic:
        return Channel(codes, counts, m, None, codebook, output_index=idx).reweighted(inst)
    n, big_k = codes.shape[0], codebook.shape[0]
    if 8 * n * big_k > DENSE_LAW_BYTES:
        raise BudgetExceededError(f"dense {n} x {big_k} law needs {8 * n * big_k} bytes, "
                                  f"above {DENSE_LAW_BYTES}")
    # each row mixes a point mass: mix of 0 off the base atom, mix of 1 on it
    on, off = learner.mix(np.eye(2, big_k))[:, 0]
    cond = np.full((n, big_k), off)
    cond[np.arange(n), idx] = on
    return Channel(codes, counts, m, None, codebook, cond=cond).reweighted(inst)


def reachable_outputs(learner, d: int, m: int) -> np.ndarray:
    """A deterministic learner's reachable codebook over {+-1}^(m*d),
    lexicographic: every valid bias gives every pattern positive mass, so this
    is the codebook under any instance."""
    return output_atoms(learner, m, d)[0]


def exact_mutual_information(learner, inst: HardInstance, m: int) -> float:
    """I(w_S; S) in nats, via the factorized fast path when available.

    For a coordinate-factorized learner the pairs (w_S(t), S column t) are
    independent across t, so the per-coordinate MIs (output entropies, the
    learner being deterministic) sum to the exact joint MI.
    """
    if learner.factorized:
        patterns = enumerate_sign_space(m, 1)
        # every coordinate sees the same column patterns, so column 0 of the
        # outputs over d equal columns is each coordinate's output
        outputs = learner.fit_batch(np.broadcast_to(patterns, (1 << m, m, inst.d)))
        _, inverse = np.unique(outputs[:, 0], return_inverse=True)
        counts = (patterns[:, :, 0] > 0).sum(axis=1)
        total = 0.0
        for q in (1.0 + inst.p) / 2.0:
            marg = np.zeros(inverse.max() + 1)
            np.add.at(marg, inverse, q ** counts * (1.0 - q) ** (m - counts))
            total += entropy_of(marg)
        return float(total)
    return exact_channel(learner, inst, m).mutual_information()
