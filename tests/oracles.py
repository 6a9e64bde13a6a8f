"""Literal reference forms that tests check the program's closed forms against.

The program computes risks, entropies, the fingerprinting expectation and
its Monte Carlo estimate, the pattern order of the exact channels, SGD's
pass and its outputs on every pattern, exact channels, the per-coordinate
MI, the supersample CMI, the Monte Carlo estimators, the random coupling
search, the sub-Gaussian joint construction and the MI-bound check in
closed, vectorized, lattice-indexed, count-only, blocked, streamed, lockstep
or reweighted form; each function here writes one of them out the long
way, with no caller in the program. The learners' sign route (``fit_signs``,
``codebook_signs``) fits int8 sign tensors, where the program fits plus
booleans through ``learners.fit``. ``sample_signs`` draws sign tensors, where
the program draws plus booleans; ``Sample``, ``sample`` and
``empirical_risk`` draw and score one sample as a point array.
``fit_counts_per_sample`` fits a count learner on every sample's plus-counts,
its mean computed from the sample's own counts (``count_mean``), where the
program gathers one coordinate's levels and maps whole rows;
``count_statistic_per_sample`` evaluates a statistic on those outputs, and
``sign_space_probs_elementwise`` and ``count_probs_per_coordinate`` write the
pattern probability once per sample or per coordinate, where the program
gathers it from one (m+1, d) table.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mi_sco_lab import mc
from mi_sco_lab.bounds import (
    CMI_CHUNK_CELLS,
    FULL_ENUM_BUDGET,
    GOOD_STREAM,
    GOOD_THRESHOLD,
    P_MAX,
    PILOT_STREAM,
    RISK_STREAM,
    SECOND_MOMENT_INNER,
    GoodSetResult,
    _legendre_nodes,
    _fingerprint_statistic,
    _random_pmf_pair,
    attack_prefactor,
    make_report,
    xu_bound,
)
from mi_sco_lab.infotheory import (
    coupling_disagreement,
    entropy_of,
    optimal_coupling,
    row_entropies,
    total_variation,
)
from mi_sco_lab.learners import (
    DENSE_LAW_BYTES,
    BudgetExceededError,
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    _project_rows,
    epsilon_net,
    exact_channel,
    fit,
    grid_step,
    lattice_codes,
    lattice_counts,
    reduce_subsample,
    round_half_down,
    sign_space_probs,
    unique_rows,
)
from mi_sco_lab.sco import HardInstance, counts_of_plus, sample_plus

# ---------------------------------------------------------------------------
# Samples of the hard instance
# ---------------------------------------------------------------------------


def sample_signs(p: np.ndarray, m: int, rng: np.random.Generator,
                 trials: int) -> np.ndarray:
    """int8 signs of shape (trials, m, d) under the bias ``p`` ((d,), or
    (trials, d) for one bias per trial): a point's coordinate t is +1 where
    its ``rng.random`` uniform falls below (1 + p(t)) / 2. What
    ``sco.sample_plus`` draws as plus booleans."""
    p = np.asarray(p, dtype=float)
    u = rng.random(size=(trials, m, p.shape[-1]))
    q_plus = (1.0 + p) / 2.0
    return np.where(u < q_plus[..., None, :], 1, -1).astype(np.int8)


def plus_counts(signs: np.ndarray) -> np.ndarray:
    """(n, d) per-coordinate plus-counts of an (n, m, d) sign tensor, summed
    along the points: what ``sco.counts_of_plus`` adds up point by point."""
    return (signs > 0).sum(axis=1)


def signs_of_plus(plus: np.ndarray) -> np.ndarray:
    """int8 signs, +1 where ``plus`` holds and -1 elsewhere."""
    return np.where(plus, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class Sample:
    """m data points in {-1/sqrt(d), +1/sqrt(d)}^d, each on the unit sphere."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (m, d) array")
        d = pts.shape[1]
        if not np.allclose(np.abs(pts), 1.0 / np.sqrt(d), atol=1e-12):
            raise ValueError("every coordinate must be +-1/sqrt(d)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def signs(self) -> np.ndarray:
        """Integer sign matrix (m, d) with entries +-1."""
        return np.where(self.points > 0, 1, -1).astype(np.int8)

    @property
    def plus(self) -> np.ndarray:
        """Plus booleans (m, d): where the point's coordinate is positive."""
        return self.points > 0

    @property
    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "Sample":
        signs = np.asarray(signs)
        d = signs.shape[1]
        return cls(signs.astype(float) / np.sqrt(d))


def sample(inst: HardInstance, m: int, seed) -> Sample:
    """Draw m i.i.d. points; coordinate t is +1/sqrt(d) w.p. (1+p(t))/2.

    ``seed`` may be an int or a Generator; a fixed int gives identical samples.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Sample.from_signs(sample_signs(inst.p, m, rng, 1)[0])


def empirical_risk(s: Sample, w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape[0] != s.d:
        raise ValueError("dimension mismatch")
    diff = s.points - w
    return float((diff * diff).sum() / s.m)


# ---------------------------------------------------------------------------
# Risks of the hard instance
# ---------------------------------------------------------------------------


def loss(w: np.ndarray, z: np.ndarray) -> float:
    """Squared distance ||w - z||^2; in [0, 4] on ball x sphere."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.shape != z.shape:
        raise ValueError("dimension mismatch")
    diff = w - z
    return float(diff @ diff)


def population_risk(inst: HardInstance, w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != inst.d:
        raise ValueError("dimension mismatch")
    ws = inst.w_star
    return float(np.sum((w - ws) ** 2, axis=-1) + 1.0 - ws @ ws)


def suboptimality(inst: HardInstance, w: np.ndarray) -> float:
    """Excess population risk Delta_D(w) = ||w - w*||^2."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != inst.d:
        raise ValueError("dimension mismatch")
    diff = w - inst.w_star
    return float(np.sum(diff * diff, axis=-1))


def empirical_suboptimality(s: Sample, w: np.ndarray) -> float:
    """Delta_S(w) = ||w - zbar||^2; the empirical minimum sits at zbar."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != s.d:
        raise ValueError("dimension mismatch")
    diff = w - s.mean
    return float(diff @ diff)


def mean_excess_risk_exact(inst: HardInstance, m: int) -> float:
    """E[Delta_D(zbar)] = (1 - ||p||^2/d) / m, the per-coordinate variance sum."""
    return float((1.0 - (inst.p @ inst.p) / inst.d) / m)


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def fingerprint_statistic(fval: float, p: float, xs) -> float:
    """Pointwise integrand: prefactor * (f - p) * sum(x_i - p) + (f - p)^2."""
    if abs(fval) > P_MAX + 1e-12:
        raise ValueError("estimator value outside [-1/3, 1/3]")
    if abs(p) >= 1.0:
        raise ValueError("bias must satisfy |p| < 1")
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.abs(xs) == 1.0):
        raise ValueError("sample entries must be +-1")
    centered = float((xs - p).sum())
    return float(attack_prefactor(p) * (fval - p) * centered + (fval - p) ** 2)


def fingerprint_quadrature_table(f_table: np.ndarray, m: int) -> float:
    """``bounds.fingerprint_quadrature`` for an arbitrary estimator table over
    {+-1}^m, enumerating every pattern instead of the plus-count.

    ``f_table[i]`` is the value on the i-th pattern of
    ``enumerate_sign_space_shift_mask(m, 1)`` (m <= 12)."""
    if m > 12:
        raise BudgetExceededError("table quadrature enumerates 2^m patterns; m <= 12")
    patterns = enumerate_sign_space_shift_mask(m, 1).reshape(-1, m).astype(float)
    f_table = np.clip(np.asarray(f_table, dtype=float), -P_MAX, P_MAX)
    if f_table.shape != (patterns.shape[0],):
        raise ValueError("estimator table must have one value per pattern")
    ps, ws = _legendre_nodes()
    counts = (patterns > 0).sum(axis=1)
    total = 0.0
    for p, w in zip(ps, ws):
        q = (1.0 + p) / 2.0
        pattern_probs = q ** counts * (1.0 - q) ** (m - counts)
        delta = f_table - p
        stat = attack_prefactor(p) * delta * (patterns - p).sum(axis=1) + delta ** 2
        total += w * float(pattern_probs @ stat)
    return total


def fingerprint_monte_carlo_values(estimator, m: int, trials: int, seed: int):
    """``bounds.fingerprint_expectation``'s Monte Carlo (mean, SE) from every
    trial's value, held in one array and reduced by ``mc.mean_and_se``,
    where the program keeps each trial's plus-count and streams the sums."""
    def chunk(rng, size):
        p = rng.uniform(-P_MAX, P_MAX, size=size)
        sums = 2.0 * rng.binomial(m, (1.0 + p) / 2.0) - m
        return _fingerprint_statistic(estimator(sums, m), sums, p, m)

    return mc.mean_and_se(mc.chunked_trials(chunk, trials, seed, 1))


# ---------------------------------------------------------------------------
# Learners and enumeration
# ---------------------------------------------------------------------------


def sample_mean(signs: np.ndarray) -> np.ndarray:
    """(n, d) sample means zbar of an (n, m, d) sign tensor, in points
    signs/sqrt(d), averaged over the signs themselves: what
    ``learners.count_mean`` computes from the plus-counts."""
    return signs.mean(axis=1, dtype=float) / math.sqrt(signs.shape[2])


def enumerate_sign_space(m: int, d: int) -> np.ndarray:
    """All 2^(m*d) sign patterns as (n, m, d) plus booleans, in the pattern
    order of the exact channels: pattern i is plus in flat cell c = i d + t
    where bit c of i is set, so column c is runs of 2^c equal values, written
    through a view with no temporary. Past FULL_ENUM_BUDGET patterns it
    raises, as the program's exact routes do."""
    cells = m * d
    if 1 << cells > FULL_ENUM_BUDGET:
        raise BudgetExceededError(f"2^{cells} sign patterns exceed budget {FULL_ENUM_BUDGET}")
    n = 1 << cells
    out = np.zeros((n, cells), dtype=bool)
    for c in range(cells):
        out[:, c].reshape(-1, 2, 1 << c)[:, 1] = True
    return out.reshape(n, m, d)


def enumerate_sign_space_shift_mask(m: int, d: int) -> np.ndarray:
    """The patterns of ``enumerate_sign_space`` as an int8 sign
    tensor, by one shift-and-mask over all 2^(m*d) indices and m*d bit
    positions, with its (n, m*d) int64 temporaries."""
    cells = m * d
    n = 1 << cells
    idx = np.arange(n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(cells, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8).reshape(n, m, d)


@dataclass(frozen=True)
class FullChannel:
    """``learners.Channel`` over the enumerated signs themselves: every
    learner fit on every pattern, every probability from the pattern's own
    counts, and the gap from each pattern's own mean."""

    signs: np.ndarray = field(repr=False)          # (n, m, d) int8
    sample_probs: np.ndarray = field(repr=False)   # (n,)
    codebook: np.ndarray = field(repr=False)       # (K, d) lexicographic
    output_index: np.ndarray | None = field(repr=False, default=None)
    cond: np.ndarray | None = field(repr=False, default=None)

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
        h_out = self.output_entropy()
        if self.deterministic:
            return max(0.0, h_out)
        return max(0.0, h_out - float(self.sample_probs @ row_entropies(self.cond)))

    def output_entropy(self) -> float:
        return entropy_of(self.output_marginal())

    def expected_generalization_gap(self, inst: HardInstance) -> float:
        drift = sample_mean(self.signs) - inst.w_star  # (n, d)
        if self.deterministic:
            w = self.codebook[self.output_index]
            return float(self.sample_probs @ (2.0 * (w * drift).sum(axis=1)))
        gap = 2.0 * drift @ self.codebook.T  # (n, K)
        return float(self.sample_probs @ (self.cond * gap).sum(axis=1))

    def expected_excess_risk(self, inst: HardInstance) -> float:
        sub = ((self.codebook - inst.w_star) ** 2).sum(axis=1)  # (K,)
        if self.deterministic:
            return float(self.sample_probs @ sub[self.output_index])
        return float(self.sample_probs @ (self.cond @ sub))


def full_channel(learner, inst: HardInstance, m: int) -> FullChannel:
    """``learners.exact_channel`` with every learner fit on all 2^(d*m)
    enumerated sign patterns and deduplicated over all of them."""
    signs = enumerate_sign_space_shift_mask(m, inst.d)
    probs = sign_space_probs(inst, plus_counts(signs), m)
    if not learner.deterministic:
        codebook, base_idx = unique_rows(fit_signs(learner.base, signs))
        if 8 * signs.shape[0] * codebook.shape[0] > DENSE_LAW_BYTES:
            raise BudgetExceededError("dense law above DENSE_LAW_BYTES")
        base_law = np.zeros((signs.shape[0], codebook.shape[0]))
        base_law[np.arange(signs.shape[0]), base_idx] = 1.0
        return FullChannel(signs, probs, codebook, cond=learner.mix(base_law))
    codebook, idx = unique_rows(fit_signs(learner, signs))
    return FullChannel(signs, probs, codebook, output_index=idx)


def _group_labels(arr: np.ndarray) -> np.ndarray:
    return unique_rows(arr.reshape(arr.shape[0], -1))[1]


def _joint_sums_output(ch: FullChannel, x_labels: np.ndarray) -> np.ndarray:
    xi = _group_labels(x_labels)
    table = np.zeros((int(xi.max()) + 1, ch.codebook.shape[0]))
    np.add.at(table, (xi, ch.output_index), ch.sample_probs)
    return table


def full_chain_rule(ch: FullChannel):
    """``bounds.chain_rule_decomposition`` labelling each pattern by its own
    coordinate sums, grouped by a row dedup over all patterns: (report,
    total MI, per-coordinate MIs) of a deterministic learner's channel."""
    sums = ch.signs.sum(axis=1, dtype=np.int64)  # (n, d)
    total = max(0.0, mi_of_table_dense(_joint_sums_output(ch, sums)))
    _, m, d = ch.signs.shape
    per_coord = []
    for t in range(d):
        table_t = _joint_sums_output(ch, sums[:, t])
        col_labels = _group_labels(ch.codebook[:, t])
        collapsed = np.zeros((table_t.shape[0], int(col_labels.max()) + 1))
        np.add.at(collapsed.T, col_labels, table_t.T)
        per_coord.append(max(0.0, mi_of_table_dense(collapsed)))
    report = make_report("chain_rule", total, float(sum(per_coord)), tolerance=1e-9, d=d, m=m)
    return report, total, tuple(per_coord)


def sgd_full_copy(learner, signs: np.ndarray) -> np.ndarray:
    """``SgdLearner.fit_batch`` on an int8 sign tensor, with every point
    scaled up front, in one (n, m, d) float copy of the signs."""
    n, m, d = signs.shape
    points = signs.astype(float) / np.sqrt(d)
    w = np.zeros((n, d))
    acc = np.zeros((n, d))
    for t in range(1, m + 1):
        w = _project_rows((1.0 - 1.0 / t) * w + points[:, t - 1, :] / t)
        acc += w
    return _project_rows(round_half_down(acc / m, grid_step(learner.delta, m)))


def sgd_patterns(learner, m: int, d: int) -> np.ndarray:
    """SGD's (2^(d m), d) outputs on every sign pattern, in pattern order
    (row i is plus in point j, coordinate t iff bit j d + t of i is set), by
    prefix recursion. The first t points of a pattern are the low d t bits of
    its index, so step t extends each of the 2^(d (t-1)) prefix iterates by
    the 2^d corners, and every row meets the float operations of
    ``SgdLearner.fit_batch`` on its own pattern, each step's iterates
    projected (the sum of the iterates too adds them in step order, from
    0.0). What ``learners.output_atoms`` gives for SGD, pattern by pattern."""
    bit = 1 << np.arange(d, dtype=np.int32)
    corners = np.where(np.arange(1 << d, dtype=np.int32)[:, None] & bit, 1.0, -1.0)
    corners = corners[:, None] / math.sqrt(d)  # (2^d, 1, d)
    w, acc = np.zeros((1, d)), np.zeros((1, d))
    for t in range(1, m + 1):
        w = _project_rows(((1.0 - 1.0 / t) * w[None] + corners / t).reshape(-1, d))
        acc = (acc[None] + w.reshape(1 << d, -1, d)).reshape(-1, d)
    return _project_rows(round_half_down(acc / m, grid_step(learner.delta, m)))


def sgd_shell_exit(m: int, d: int):
    """The first step t <= m at which SGD's shell test fails, or None: one
    coordinate's column pass, unprojected, and at each step the row that
    holds its largest |w| in every coordinate, whose norm must stay at most
    1. That row is a reachable iterate (each coordinate on the same column),
    and no reachable row's norm exceeds its norm, since float rounding is
    monotone: before the step returned, a projected pass projects no row.
    Each step keeps one row per distinct iterate, which changes no maximum."""
    corners = (np.array([-1.0, 1.0]) / math.sqrt(d))[:, None]
    w = np.zeros(1)
    for t in range(1, m + 1):
        w = np.unique(((1.0 - 1.0 / t) * w[None] + corners / t).reshape(-1))
        if np.linalg.norm(np.full((1, d), np.abs(w).max()), axis=1)[0] > 1.0:
            return t
    return None


def fit_signs(learner, signs: np.ndarray, rng=None) -> np.ndarray:
    """The learners' sign route: (n, d) outputs on an (n, m, d) int8 sign
    tensor, one form per class, as each class once fit signs. A count learner
    is fit on the plus-counts of the signs, SGD on the scaled signs, a
    subsample's base on its first k points; randomized response fits its
    base, then row by row draws ``rng.random()`` and, on a flip,
    ``rng.integers(K)`` for an atom of ``codebook_signs``, built at the first
    flip. What ``learners.fit`` computes on plus booleans."""
    n, m, d = signs.shape
    if isinstance(learner, RandomizedResponse):
        if rng is None:
            raise ValueError("randomized response needs an rng")
        out = fit_signs(learner.base, signs)
        codebook = None
        for i in range(n):
            if rng.random() < learner.rho:
                if codebook is None:
                    codebook = codebook_signs(learner.base, d, m)
                out[i] = codebook[rng.integers(codebook.shape[0])]
        return out
    if isinstance(learner, SubsampleLearner):
        if not 1 <= learner.k <= m:
            raise ValueError(f"k={learner.k} out of range for m={m}")
        return fit_signs(learner.base, signs[:, : learner.k, :])
    if isinstance(learner, SgdLearner):
        return sgd_full_copy(learner, signs)
    return fit_counts_per_sample(learner, plus_counts(signs), m)


def codebook_signs(learner, d: int, m: int) -> np.ndarray:
    """A deterministic learner's codebook, lexicographic: the distinct rows of
    ``fit_signs`` over all 2^(d*m) sign patterns, each its first pattern's
    row. What ``learners.output_atoms`` gives as its codebook."""
    return unique_rows(fit_signs(learner, enumerate_sign_space_shift_mask(m, d)))[0]


# ---------------------------------------------------------------------------
# Information over explicit tables
# ---------------------------------------------------------------------------


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a 1-D pmf; 0 <= H <= log(support size)."""
    return entropy_of(p)


def marginal(table: np.ndarray, axis: int) -> np.ndarray:
    """The marginal pmf of axis 0 or 1 of a two-variable joint table."""
    return table.sum(axis=1 - axis)


def mi_of_table_dense(table: np.ndarray) -> float:
    """``infotheory.mi_of_table`` through a dense table of the marginal
    products: the sum of q log(q / b) over the cells where the joint is
    positive, b the outer product of its row and column sums there."""
    support = table > 0.0
    q = table[support]
    b = np.outer(table.sum(axis=1), table.sum(axis=0))[support]
    return float((q * np.log(q / b)).sum())


# ---------------------------------------------------------------------------
# Supersample CMI and Monte Carlo on sign tensors
# ---------------------------------------------------------------------------


def _index_in_codebook(outputs: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Row index in the distinct-row ``codebook`` of each output row."""
    k = codebook.shape[0]
    _, inverse = unique_rows(np.concatenate([codebook, outputs]))
    slot = np.full(int(inverse.max()) + 1, -1, dtype=np.int64)
    slot[inverse[:k]] = np.arange(k)
    ids = slot[inverse[k:]]
    if np.any(ids < 0):
        raise ValueError("output outside the declared codebook")
    return ids


def cmi_exact_signs(learner, inst: HardInstance, m: int) -> float:
    """``bounds.cmi_exact`` with every learner fit on the sign tensor of
    every selection, and each chunk's atoms found by a row dedup of its
    outputs (a randomized learner's by lookup in the base codebook)."""
    if isinstance(learner, SubsampleLearner):
        if not 1 <= learner.k <= m:
            raise ValueError("subsample size out of range")
        return cmi_exact_signs(learner.base, inst, learner.k)

    n_z = 1 << (2 * m * inst.d)
    n_u = 1 << m
    if n_z * n_u > FULL_ENUM_BUDGET:
        raise BudgetExceededError(
            f"supersample enumeration 2^{2 * m * inst.d} * 2^{m} exceeds budget")

    randomized = not learner.deterministic
    base = learner.base if randomized else learner

    selectors = ((np.arange(n_u, dtype=np.int64)[:, None]
                  >> np.arange(m, dtype=np.int64)[None, :]) & 1)  # (n_u, m)
    row_pick = np.arange(m)[None, :] + m * selectors  # rows into the 2m-point block

    if randomized:
        codebook = codebook_signs(base, inst.d, m)
        big_k = codebook.shape[0]
        h_row = entropy_of(learner.mix(np.eye(1, big_k)[0]))

    total = 0.0
    z_chunk = max(1, CMI_CHUNK_CELLS // (n_u * m * inst.d))
    all_z = enumerate_sign_space_shift_mask(2 * m, inst.d)
    z_probs = sign_space_probs(inst, lattice_counts(2 * m, inst.d), 2 * m)[
        lattice_codes(2 * m, inst.d)]
    for start in range(0, n_z, z_chunk):
        block = all_z[start:start + z_chunk]  # (c, 2m, d)
        c = block.shape[0]
        selected = np.take(block, row_pick, axis=1)
        outputs = fit_signs(base, selected.reshape(c * n_u, m, inst.d))
        if randomized:
            ids = _index_in_codebook(outputs, codebook)
            width = big_k
        else:
            ids = unique_rows(outputs)[1]
            width = int(ids.max()) + 1
        cells = np.repeat(np.arange(c) * width, n_u) + ids
        counts = np.bincount(cells, minlength=c * width).reshape(c, width).astype(float)
        if randomized:
            contrib = row_entropies(learner.mix(counts / n_u)) - h_row
        else:
            contrib = row_entropies(counts / n_u)
        total += float(z_probs[start:start + z_chunk] @ contrib)
    return max(0.0, total)


def count_mean(counts: np.ndarray, m: int) -> np.ndarray:
    """(n, d) sample means of samples with (n, d) plus-counts out of m, in
    points signs/sqrt(d), each from its own counts: the sign sum is 2C - m."""
    return (2.0 * counts - m) / m / math.sqrt(counts.shape[1])


def fit_counts_per_sample(learner, counts: np.ndarray, m: int) -> np.ndarray:
    """(n, d) outputs of a count learner on (n, d) plus-counts out of m, one
    formula per class, each row from its own sample mean: what
    ``learners.count_statistic`` gathers from ``levels`` and ``finish``. The
    epsilon-net ERM takes the first nearest net point, 256 rows at a time."""
    zbar = count_mean(counts, m)
    if isinstance(learner, MeanLearner):
        return zbar
    if isinstance(learner, QuantizedMeanLearner):
        lim = 1.0 / math.sqrt(counts.shape[1])
        return np.clip(round_half_down(zbar, grid_step(learner.delta, m)), -lim, lim)
    if isinstance(learner, RegularizedErm):
        zbar = zbar / (1.0 + learner.lam)
        return _project_rows(round_half_down(zbar, grid_step(learner.delta, m)))
    assert isinstance(learner, EpsilonNetErm), learner
    net = epsilon_net(counts.shape[1], m)
    out = np.empty_like(zbar)
    for start in range(0, zbar.shape[0], 256):
        diff = zbar[start:start + 256, None, :] - net[None, :, :]
        out[start:start + 256] = net[np.argmin((diff * diff).sum(axis=2), axis=1)]
    return out


def count_statistic_per_sample(learner, counts: np.ndarray, m: int,
                               stat=lambda w, sums: w) -> np.ndarray:
    """``learners.count_statistic`` with every count learner fit on each
    sample's (n, d) plus-counts (``fit_counts_per_sample``), and ``stat``
    evaluated on the (n, d) outputs and sign sums; by default the outputs."""
    return stat(fit_counts_per_sample(learner, counts, m), 2.0 * counts - m)


def sign_space_probs_elementwise(inst: HardInstance, counts: np.ndarray, m: int) -> np.ndarray:
    """``learners.sign_space_probs`` with q^C (1 - q)^(m - C) evaluated for
    each of the (n, d) plus-counts, not gathered from the (m+1, d) table.

    The powers run over one flat float vector: numpy raises a one-element
    array to a one-element integer power by another routine than its
    vectorized pow (x * x for the square), which can differ in the last bit.
    """
    q = np.broadcast_to((1.0 + inst.p) / 2.0, counts.shape).ravel()
    c = counts.ravel().astype(np.float64)
    return np.prod((q ** c * (1.0 - q) ** (m - c)).reshape(counts.shape), axis=1)


def count_probs_per_coordinate(inst: HardInstance, m: int) -> np.ndarray:
    """``learners.count_probs`` one coordinate at a time, each a scalar q
    raised to the m+1 counts: the weights the factorized exact MI read."""
    ks = np.arange(m + 1)
    return np.stack([q ** ks * (1.0 - q) ** (m - ks) for q in (1.0 + inst.p) / 2.0], axis=1)


def pilot_normalizers_signs(inst: HardInstance, learner, m: int, trials: int,
                            seed: int) -> np.ndarray:
    """``bounds.pilot_normalizers`` with every learner fit on sampled signs."""
    def chunk(rng, size):
        signs = sample_signs(inst.p, m, rng, size)
        w = fit_signs(learner, signs)
        err = math.sqrt(inst.d) * w - inst.p[None, :]
        return (err * err).reshape(size * inst.d)

    sq = mc.chunked_trials(chunk, trials, seed, PILOT_STREAM)
    return np.sqrt(sq.reshape(-1, inst.d).mean(axis=0))


def good_coordinates_signs(inst: HardInstance, learner, m: int, trials: int,
                           seed: int, pilot_trials: int) -> GoodSetResult:
    """``bounds.good_coordinates`` with every learner fit on sampled signs,
    and each centered sum summed over the signs."""
    norms = pilot_normalizers_signs(inst, learner, m, pilot_trials, seed)
    excluded = tuple(int(t) for t in np.nonzero(norms < 1e-9)[0])
    root_d = math.sqrt(inst.d)
    pref = attack_prefactor(inst.p)

    def chunk(rng, size):
        signs = sample_signs(inst.p, m, rng, size)
        w = fit_signs(learner, signs)
        phat_err = root_d * w - inst.p[None, :]
        centered = signs.sum(axis=1, dtype=float) - m * inst.p[None, :]
        return (pref[None, :] * phat_err * centered).reshape(size * inst.d)

    values = mc.chunked_trials(chunk, trials, seed, GOOD_STREAM).reshape(-1, inst.d)
    est = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    members = tuple(int(t) for t in range(inst.d)
                    if t not in excluded and est[t] - 3.0 * se[t] >= GOOD_THRESHOLD)
    return GoodSetResult(members=members, estimates=est, std_errors=se,
                         excluded=excluded, normalizers=norms)


def measured_excess_risk_signs(learner, d: int, m: int, trials: int,
                               seed: int) -> tuple[float, float]:
    """``bounds.measured_excess_risk`` with every learner fit on sampled signs."""
    def chunk(rng, size):
        ps = rng.uniform(-P_MAX, P_MAX, size=(size, d))
        signs = sample_signs(ps, m, rng, size)
        w = fit_signs(learner, signs, rng)
        return ((w - ps / math.sqrt(d)) ** 2).sum(axis=1)

    values = mc.chunked_trials(chunk, trials, seed, RISK_STREAM, chunk=1 << 12)
    return mc.mean_and_se(values)


def second_moment_report_signs(learner, d: int, m: int, outer: int, seed: int):
    """``bounds.second_moment_report`` with every learner fit on sampled
    signs, and each centered sum summed over the signs."""
    root_d = math.sqrt(d)
    rng = mc.substream(seed, 106)
    prods = np.empty(outer)
    errs = np.empty(outer)
    for i in range(outer):
        p = rng.uniform(-P_MAX, P_MAX, size=d)
        t = int(rng.integers(d))
        halves = []
        err_acc = 0.0
        for _ in range(2):
            signs = sample_signs(p, m, rng, SECOND_MOMENT_INNER)
            w = fit_signs(learner, signs)
            phat_err = root_d * w[:, t] - p[t]
            centered = signs[:, :, t].sum(axis=1) - m * p[t]
            halves.append(float(np.mean(attack_prefactor(p[t]) * phat_err * centered)))
            err_acc += float(np.mean(phat_err ** 2))
        prods[i] = halves[0] * halves[1]
        errs[i] = err_acc / 2.0
    est, est_se = mc.mean_and_se(prods)
    eps_hat, eps_se = mc.mean_and_se(errs)
    tol = 3.0 * (est_se + m * eps_se)
    return make_report("second_moment", m * eps_hat, est, tolerance=tol,
                       d=d, m=m, trials=outer * SECOND_MOMENT_INNER,
                       ci_halfwidth=tol, seed=seed)


def genbound_chain_report_signs(learner, d: int, m: int, trials: int, seed: int):
    """``bounds.genbound_chain_report`` with every learner fit on sampled signs."""
    root_d = math.sqrt(d)

    def chunk(rng, size):
        p = rng.uniform(-P_MAX, P_MAX, size=(size, d))
        w = fit_signs(learner, sample_signs(p, m, rng, size))
        delta = ((w - p / root_d) ** 2).sum(axis=1)
        errs = ((root_d * w - p) ** 2).sum(axis=1)
        return d * delta - errs

    values = mc.chunked_trials(chunk, trials, seed, 107, chunk=1 << 12)
    worst = float(np.abs(values).max())
    return make_report("genbound_chain", 1e-9, worst, d=d, m=m,
                       trials=trials, seed=seed)


def second_moment_report_loop(learner, d: int, m: int, outer: int, seed: int):
    """``bounds.second_moment_report`` one outer iteration at a time: p, t,
    then each half's samples drawn by ``sample_plus`` and fit by ``fit``,
    and its means taken as floats."""
    root_d = math.sqrt(d)
    rng = mc.substream(seed, 106)
    prods = np.empty(outer)
    errs = np.empty(outer)
    for i in range(outer):
        p = rng.uniform(-P_MAX, P_MAX, size=d)
        t = int(rng.integers(d))
        halves = []
        err_acc = 0.0
        for _ in range(2):
            plus = sample_plus(p, m, rng, SECOND_MOMENT_INNER)
            w, sums = fit(learner, plus), 2.0 * counts_of_plus(plus) - m
            phat_err = root_d * w[:, t] - p[t]
            centered = sums[:, t] - m * p[t]
            halves.append(float(np.mean(attack_prefactor(p[t]) * phat_err * centered)))
            err_acc += float(np.mean(phat_err ** 2))
        prods[i] = halves[0] * halves[1]
        errs[i] = err_acc / 2.0
    est, est_se = mc.mean_and_se(prods)
    eps_hat, eps_se = mc.mean_and_se(errs)
    tol = 3.0 * (est_se + m * eps_se)
    return make_report("second_moment", m * eps_hat, est, tolerance=tol,
                       d=d, m=m, trials=outer * SECOND_MOMENT_INNER,
                       ci_halfwidth=tol, seed=seed)


# ---------------------------------------------------------------------------
# Couplings and the MI bound, one case at a time
# ---------------------------------------------------------------------------


def northwest_coupling(a: np.ndarray, b: np.ndarray, perm_r, perm_c) -> float:
    """Disagreement probability of the greedy coupling along shuffled axes,
    one scalar step at a time."""
    a = a[perm_r].copy()
    b = b[perm_c].copy()
    agree = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        mass = min(a[i], b[j])
        if perm_r[i] == perm_c[j]:
            agree += mass
        a[i] -= mass
        b[j] -= mass
        if a[i] <= 1e-15:
            i += 1
        if j < len(b) and b[j] <= 1e-15:
            j += 1
    return 1.0 - agree


def coupling_suite_pairs(n_pairs: int, n_random: int, seed: int):
    """``bounds.coupling_suite`` with two ``rng.permutation`` draws and one
    ``northwest_coupling`` call per random coupling."""
    rng = mc.substream(seed, 102)
    worst_match = math.inf
    worst_opt = math.inf
    for i in range(n_pairs):
        a, b = _random_pmf_pair(rng)
        tv = total_variation(a, b)
        disagreement = coupling_disagreement(optimal_coupling(a, b))
        worst_match = min(worst_match, -abs(disagreement - tv))
        if i < n_random:
            k = len(a)
            for _ in range(n_random):
                pr = rng.permutation(k)
                pc = rng.permutation(k)
                rand_dis = northwest_coupling(a, b, pr, pc)
                worst_opt = min(worst_opt, rand_dis - disagreement)
    match = make_report("coupling_matches_tv", worst_match, 0.0, tolerance=1e-12,
                        trials=n_pairs, seed=seed)
    optimal = make_report("coupling_optimality", worst_opt, 0.0, tolerance=1e-12,
                          trials=n_random * n_random, seed=seed)
    return match, optimal


def xu_gap_report_fresh(learner, inst: HardInstance, m: int):
    """``bounds.xu_gap_report`` on a fresh ``exact_channel`` at ``inst``."""
    ch = exact_channel(learner, inst, m)
    mi = ch.mutual_information()
    gap = ch.expected_generalization_gap(inst)
    return make_report(f"xu[{learner.kind}]", xu_bound(mi, m), gap, d=inst.d, m=m)


def factorized_mi_broadcast(learner, inst: HardInstance, m: int) -> float:
    """``learners.exact_mutual_information``'s per-coordinate route for a
    coordinate-factorized learner, fit on the 2^m column sign patterns
    broadcast across the d columns, with an ``np.add.at`` marginal per
    coordinate and no clamp at 0."""
    patterns = enumerate_sign_space_shift_mask(m, 1)
    # every coordinate sees the same column patterns, so column 0 of the
    # outputs over d equal columns is each coordinate's output
    outputs = fit_signs(learner, np.broadcast_to(patterns, (1 << m, m, inst.d)))
    _, inverse = np.unique(outputs[:, 0], return_inverse=True)
    counts = (patterns[:, :, 0] > 0).sum(axis=1)
    total = 0.0
    for q in (1.0 + inst.p) / 2.0:
        marg = np.zeros(inverse.max() + 1)
        np.add.at(marg, inverse, q ** counts * (1.0 - q) ** (m - counts))
        total += entropy_of(marg)
    return float(total)


def first_pattern_order(m: int, d: int) -> np.ndarray:
    """The (m+1)^d lattice points in the order of their first sign patterns
    (plus signs on the lowest points), sorted by the pattern indices
    themselves: sum over t of 2^t times the 2^(i d) of the C_t lowest points.
    The indices fit int64 for d m <= 62."""
    scale = 1 << d * np.arange(m, dtype=np.int64)
    radix = 1 << np.arange(d, dtype=np.int64)
    return np.argsort(np.concatenate([[0], np.cumsum(scale)])[lattice_counts(m, d)] @ radix)


def factorized_mi_patterns(learner, inst: HardInstance, m: int) -> float:
    """``learners.exact_mutual_information``'s per-coordinate route with the
    binomial weight q^c (1 - q)^(m - c) evaluated for each of the 2^m column
    patterns, not once per plus-count c."""
    learner, m = reduce_subsample(learner, m)
    counts = lattice_codes(m, 1)
    levels = fit_counts_per_sample(
        learner, np.repeat(np.arange(m + 1)[:, None], inst.d, axis=1), m)
    atom = np.unique(levels[:, 0], return_inverse=True)[1][counts]
    return max(0.0, float(sum(
        entropy_of(np.bincount(atom, q ** counts * (1.0 - q) ** (m - counts)))
        for q in (1.0 + inst.p) / 2.0)))


def subgaussian_construction_rows(rng: np.random.Generator):
    """``bounds._subgaussian_construction`` with its (x values, 2) table
    filled one row at a time."""
    if rng.random() < 0.5:
        k = int(rng.integers(1, 7))
        r = float(rng.uniform(0.2, 1.0))
        xv = r * (2.0 * np.arange(k + 1) - k)
        px = np.array([math.comb(k, int(j)) for j in range(k + 1)], dtype=float) / 2 ** k
        c = r * math.sqrt(2.0 * k)
    else:
        kx = int(rng.integers(2, 9))
        xv = rng.uniform(-1.0, 1.0, size=kx)
        px = rng.dirichlet(np.ones(kx))
        xv = xv - float(px @ xv)
        c = float(np.abs(xv).max()) / math.sqrt(math.log(2.0))
    s = float(rng.uniform(0.3, 1.0))
    gamma = float(rng.uniform(0.0, 0.45))
    table = np.zeros((len(xv), 2))
    for i, sg in enumerate(np.sign(xv)):
        if sg == 0:
            table[i] = px[i] * 0.5
        else:
            hit = 1 if sg > 0 else 0
            table[i, hit] = px[i] * (1.0 - gamma)
            table[i, 1 - hit] = px[i] * gamma
    return table, xv, np.array([-s, s]), c
