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
    the sample; factorized learners also give ``coord_outputs(patterns, d)``
    for (n, m) column patterns;
  * ``delta_for(m)``: the quantization step at sample size m, or None;
  * ``fit(sample, rng=None)``: one output vector;
  * ``fit_batch(signs)``: outputs for an (n, m, d) sign tensor
    (deterministic learners).
A randomized learner instead wraps a deterministic ``base`` and gives
``mix(base_law)``, its output law given the base's law over the codebook.

Channel enumeration has two routes:
  * full: all 2^(d*m) sign patterns (at most FULL_ENUM_BUDGET);
  * factorized: for learners whose coordinate t depends only on column t of
    the sample, per-coordinate output entropies over the 2^m column patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import entropy_of, row_entropies
from .sco import HardInstance, Sample, project_ball

FULL_ENUM_BUDGET = 1 << 24
NET_BLOCK_ROWS = 1 << 12


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed FULL_ENUM_BUDGET."""


def default_delta(m: int) -> float:
    """Default quantization step 1/m^2; risk perturbation O(sqrt(d)/m^2)."""
    return 1.0 / (m * m)


def round_half_down(x, delta: float):
    """Round to the grid delta*Z, ties toward the smaller grid value."""
    return np.ceil(np.asarray(x, dtype=float) / delta - 0.5) * delta


def quantize(w: np.ndarray, delta: float) -> np.ndarray:
    """Coordinate-wise grid rounding followed by unit-ball projection."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return project_ball(round_half_down(w, delta))


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

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        return s.mean

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        d = signs.shape[2]
        return signs.mean(axis=1, dtype=float) / math.sqrt(d)

    def coord_outputs(self, patterns: np.ndarray, d: int) -> np.ndarray:
        return patterns.mean(axis=1, dtype=float) / math.sqrt(d)

    def delta_for(self, m: int) -> float | None:
        return None


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

    def delta_for(self, m: int) -> float:
        return self.delta if self.delta is not None else default_delta(m)

    def _quantize_coords(self, zbar: np.ndarray, d: int, m: int) -> np.ndarray:
        lim = 1.0 / math.sqrt(d)
        return np.clip(round_half_down(zbar, self.delta_for(m)), -lim, lim)

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        return self._quantize_coords(s.mean, s.d, s.m)

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        n, m, d = signs.shape
        return self._quantize_coords(signs.mean(axis=1, dtype=float) / math.sqrt(d), d, m)

    def coord_outputs(self, patterns: np.ndarray, d: int) -> np.ndarray:
        n, m = patterns.shape
        zbar = patterns.mean(axis=1, dtype=float) / math.sqrt(d)
        return self._quantize_coords(zbar, d, m)


def epsilon_net(d: int, m: int) -> np.ndarray:
    """Axis grid over [-1,1]^d (ceil(sqrt(m))+1 points per axis, so spacing
    <= 2/sqrt(m) and covering radius <= sqrt(d/m)), ball-projected and
    deduplicated, in lexicographic order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    per_axis = math.ceil(math.sqrt(m)) + 1
    axis = np.linspace(-1.0, 1.0, per_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    return np.unique(_project_rows(points), axis=0)


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

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        return self.fit_from_mean(s.mean[None, :], s.m)[0]

    def fit_from_mean(self, zbar: np.ndarray, m: int) -> np.ndarray:
        """Nearest net point per row, in blocks of NET_BLOCK_ROWS rows so the
        (rows, net size, d) distance temporary stays bounded."""
        zbar = np.asarray(zbar, dtype=float)
        net = epsilon_net(zbar.shape[1], m)
        idx = np.empty(zbar.shape[0], dtype=np.intp)
        for start in range(0, zbar.shape[0], NET_BLOCK_ROWS):
            diff = zbar[start:start + NET_BLOCK_ROWS, None, :] - net[None, :, :]
            idx[start:start + NET_BLOCK_ROWS] = np.argmin((diff * diff).sum(axis=2), axis=1)
        return net[idx]

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        n, m, d = signs.shape
        zbar = signs.mean(axis=1, dtype=float) / math.sqrt(d)
        return self.fit_from_mean(zbar, m)

    def delta_for(self, m: int) -> float | None:
        return None


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

    def delta_for(self, m: int) -> float:
        return self.delta if self.delta is not None else default_delta(m)

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        return self.fit_batch(s.signs[None, :, :])[0]

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        n, m, d = signs.shape
        points = signs.astype(float) / math.sqrt(d)
        w = np.zeros((n, d))
        acc = np.zeros((n, d))
        for t in range(1, m + 1):
            w = _project_rows((1.0 - 1.0 / t) * w + points[:, t - 1, :] / t)
            acc += w
        return _project_rows(round_half_down(acc / m, self.delta_for(m)))


@dataclass(frozen=True)
class RegularizedErm:
    """Exact minimizer zbar/(1+lam) of the ridge-regularized empirical risk,
    quantized at 1/m^2. lam=0 recovers the mean learner up to quantization."""

    lam: float = 0.0
    delta: float | None = None

    kind = "regularized_erm"
    deterministic = True
    factorized = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")

    def delta_for(self, m: int) -> float:
        return self.delta if self.delta is not None else default_delta(m)

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        return quantize(s.mean / (1.0 + self.lam), self.delta_for(s.m))

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        n, m, d = signs.shape
        zbar = signs.mean(axis=1, dtype=float) / math.sqrt(d) / (1.0 + self.lam)
        return _project_rows(round_half_down(zbar, self.delta_for(m)))


@dataclass(frozen=True)
class SubsampleLearner:
    """Applies the base learner to the first k points only."""

    k: int
    base: object

    deterministic = True

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

    def _check(self, m: int):
        if not 1 <= self.k <= m:
            raise ValueError(f"k={self.k} out of range for m={m}")

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        self._check(s.m)
        return self.base.fit(Sample(s.points[: self.k]), rng)

    def fit_batch(self, signs: np.ndarray) -> np.ndarray:
        self._check(signs.shape[1])
        return self.base.fit_batch(signs[:, : self.k, :])

    def coord_outputs(self, patterns: np.ndarray, d: int) -> np.ndarray:
        self._check(patterns.shape[1])
        return self.base.coord_outputs(patterns[:, : self.k], d)

    def delta_for(self, m: int) -> float | None:
        return self.base.delta_for(self.k)


@dataclass(frozen=True)
class RandomizedResponse:
    """With probability rho, replace the base answer by a uniform codebook
    element; rho=0 is the base learner, rho=1 carries zero information."""

    base: object
    rho: float

    deterministic = False
    factorized = False

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not self.base.deterministic:
            raise ValueError("randomized response wraps deterministic learners")

    @property
    def kind(self) -> str:
        return f"randomized_response[{self.base.kind}, rho={self.rho}]"

    def fit(self, s: Sample, rng=None) -> np.ndarray:
        if rng is None:
            raise ValueError("randomized response needs an rng")
        if rng.random() < self.rho:
            codebook = reachable_outputs(self.base, s.d, s.m)
            return codebook[rng.integers(codebook.shape[0])]
        return self.base.fit(s, rng)

    def mix(self, base_law: np.ndarray) -> np.ndarray:
        """Output law given the base learner's law over the K codebook atoms
        (last axis): (1 - rho) * base_law + rho / K."""
        return (1.0 - self.rho) * base_law + self.rho / base_law.shape[-1]

    def delta_for(self, m: int) -> float | None:
        return self.base.delta_for(m)


def make_learner(kind: str, **params):
    """Config-facing factory. Wrapper kinds take base=<kind> plus base params."""
    kind = kind.strip().lower()
    if kind == "mean":
        return MeanLearner()
    if kind == "quantized_mean":
        return QuantizedMeanLearner(delta=params.get("delta"))
    if kind == "epsilon_net_erm":
        return EpsilonNetErm()
    if kind == "sgd":
        return SgdLearner(delta=params.get("delta"))
    if kind == "regularized_erm":
        return RegularizedErm(lam=params.get("lam", 0.0), delta=params.get("delta"))
    if kind == "subsample":
        base = make_learner(params.pop("base", "mean"), **{k: v for k, v in params.items() if k != "k"})
        return SubsampleLearner(k=int(params["k"]), base=base)
    if kind == "randomized_response":
        base = make_learner(params.pop("base", "mean"),
                            **{k: v for k, v in params.items() if k != "rho"})
        return RandomizedResponse(base=base, rho=float(params["rho"]))
    raise ValueError(f"unknown learner kind: {kind!r}")


# ---------------------------------------------------------------------------
# Exact channels
# ---------------------------------------------------------------------------


def enumerate_sign_space(m: int, d: int) -> np.ndarray:
    """All 2^(m*d) sign patterns as an (n, m, d) int8 tensor."""
    cells = m * d
    n = 1 << cells
    if n > FULL_ENUM_BUDGET:
        raise BudgetExceededError(f"2^{cells} sign patterns exceed budget {FULL_ENUM_BUDGET}")
    idx = np.arange(n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(cells, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8).reshape(n, m, d)


def sign_space_probs(inst: HardInstance, signs: np.ndarray) -> np.ndarray:
    """Product-measure probability of each sign pattern under D(p)^m."""
    q = (1.0 + inst.p) / 2.0
    counts = (signs > 0).sum(axis=1)  # (n, d) plus-counts per coordinate
    m = signs.shape[1]
    return np.prod(q[None, :] ** counts * (1.0 - q)[None, :] ** (m - counts), axis=1)


@dataclass(frozen=True)
class Channel:
    """Exact joint law of (sample, learner output) over an enumerated space.

    ``cond`` is None for deterministic learners, in which case
    ``output_index`` holds the codebook row per sample; otherwise ``cond``
    carries one conditional pmf row per sample.
    """

    signs: np.ndarray = field(repr=False)          # (n, m, d) int8
    sample_probs: np.ndarray = field(repr=False)   # (n,)
    codebook: np.ndarray = field(repr=False)       # (K, d) lexicographic
    output_index: np.ndarray | None = field(repr=False, default=None)
    cond: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_samples(self) -> int:
        return self.signs.shape[0]

    @property
    def deterministic(self) -> bool:
        return self.cond is None

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
        d = self.signs.shape[2]
        zbar = self.signs.mean(axis=1, dtype=float) / math.sqrt(d)  # (n, d)
        drift = zbar - inst.w_star
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


def exact_channel(learner, inst: HardInstance, m: int) -> Channel:
    """Exhaustive joint law of (sample, output) over supp(D(p)^m)."""
    signs = enumerate_sign_space(m, inst.d)
    probs = sign_space_probs(inst, signs)
    if not learner.deterministic:
        codebook = reachable_outputs(learner.base, inst.d, m)
        base_idx = _index_in_codebook(learner.base.fit_batch(signs), codebook)
        base_law = np.zeros((signs.shape[0], codebook.shape[0]))
        base_law[np.arange(signs.shape[0]), base_idx] = 1.0
        return Channel(signs, probs, codebook, cond=learner.mix(base_law))
    outputs = learner.fit_batch(signs)
    codebook, idx = np.unique(outputs, axis=0, return_inverse=True)
    return Channel(signs, probs, codebook, output_index=idx.astype(np.int64))


def _index_in_codebook(outputs: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    key = {tuple(row): i for i, row in enumerate(codebook)}
    try:
        return np.array([key[tuple(row)] for row in outputs], dtype=np.int64)
    except KeyError as exc:
        raise ValueError("output outside the declared codebook") from exc


def reachable_outputs(learner, d: int, m: int) -> np.ndarray:
    """The learner's reachable codebook over {+-1}^(m*d), lexicographic.

    Every valid bias gives every sign pattern positive mass, so this is the
    codebook under any instance. Factorized learners use per-coordinate
    level products; others enumerate the sample space.
    """
    if not learner.deterministic:
        return reachable_outputs(learner.base, d, m)
    if learner.factorized:
        patterns = enumerate_sign_space(m, 1).reshape(-1, m)
        levels = np.unique(learner.coord_outputs(patterns, d))
        if levels.shape[0] ** d > FULL_ENUM_BUDGET:
            raise BudgetExceededError("codebook product grid exceeds budget")
        grids = np.meshgrid(*([levels] * d), indexing="ij")
        return np.unique(np.stack([g.reshape(-1) for g in grids], axis=1), axis=0)
    if isinstance(learner, EpsilonNetErm):
        return epsilon_net(d, m)
    signs = enumerate_sign_space(m, d)
    return np.unique(learner.fit_batch(signs), axis=0)


def exact_mutual_information(learner, inst: HardInstance, m: int) -> float:
    """I(w_S; S) in nats, via the factorized fast path when available.

    For a coordinate-factorized learner the pairs (w_S(t), S column t) are
    independent across t, so the per-coordinate MIs (output entropies, the
    learner being deterministic) sum to the exact joint MI.
    """
    if learner.factorized:
        patterns = enumerate_sign_space(m, 1).reshape(-1, m)
        _, inverse = np.unique(learner.coord_outputs(patterns, inst.d), return_inverse=True)
        counts = (patterns > 0).sum(axis=1)
        total = 0.0
        for q in (1.0 + inst.p) / 2.0:
            marg = np.zeros(inverse.max() + 1)
            np.add.at(marg, inverse, q ** counts * (1.0 - q) ** (m - counts))
            total += entropy_of(marg)
        return float(total)
    if (1 << (m * inst.d)) <= FULL_ENUM_BUDGET:
        return exact_channel(learner, inst, m).mutual_information()
    raise BudgetExceededError(
        f"2^{m * inst.d} samples exceed budget and {learner.kind} is not factorized")
