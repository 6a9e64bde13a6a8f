"""Literal reference forms that tests check the program's closed forms against.

The program computes risks, entropies, the fingerprinting expectation, the
sign-pattern enumeration, SGD's pass and exact channels in closed, vectorized,
lattice-indexed or low-memory form; each function here writes one of them out
the long way, with no caller in the program. ``Sample``, ``sample`` and
``empirical_risk`` draw and score one sample as a point array, where the
program works on sign tensors.
"""

from dataclasses import dataclass, field

import numpy as np

from mi_sco_lab.bounds import P_MAX, _legendre_nodes, attack_prefactor, make_report
from mi_sco_lab.infotheory import FinitePmf, JointPmf, entropy_of, mi_of_table, row_entropies
from mi_sco_lab.learners import (
    DENSE_LAW_BYTES,
    BudgetExceededError,
    _project_rows,
    enumerate_sign_space,
    grid_step,
    round_half_down,
    sample_mean,
    sign_space_probs,
    unique_rows,
)
from mi_sco_lab.sco import HardInstance, sample_signs

# ---------------------------------------------------------------------------
# Samples of the hard instance
# ---------------------------------------------------------------------------


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
    ``enumerate_sign_space(m, 1)`` (m <= 12)."""
    if m > 12:
        raise BudgetExceededError("table quadrature enumerates 2^m patterns; m <= 12")
    patterns = enumerate_sign_space(m, 1).reshape(-1, m).astype(float)
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


# ---------------------------------------------------------------------------
# Learners and enumeration
# ---------------------------------------------------------------------------


def enumerate_sign_space_shift_mask(m: int, d: int) -> np.ndarray:
    """``learners.enumerate_sign_space`` as one shift-and-mask over all
    2^(m*d) indices and m*d bit positions, with its (n, m*d) int64
    temporaries."""
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
    signs = enumerate_sign_space(m, inst.d)
    probs = sign_space_probs(inst, signs)
    if not learner.deterministic:
        codebook, base_idx = unique_rows(learner.base.fit_batch(signs))
        if 8 * signs.shape[0] * codebook.shape[0] > DENSE_LAW_BYTES:
            raise BudgetExceededError("dense law above DENSE_LAW_BYTES")
        base_law = np.zeros((signs.shape[0], codebook.shape[0]))
        base_law[np.arange(signs.shape[0]), base_idx] = 1.0
        return FullChannel(signs, probs, codebook, cond=learner.mix(base_law))
    codebook, idx = unique_rows(learner.fit_batch(signs))
    return FullChannel(signs, probs, codebook, output_index=idx)


def _group_labels(arr: np.ndarray) -> np.ndarray:
    return unique_rows(arr.reshape(arr.shape[0], -1))[1]


def _joint_sums_output(ch: FullChannel, x_labels: np.ndarray) -> np.ndarray:
    xi = _group_labels(x_labels)
    table = np.zeros((int(xi.max()) + 1, ch.codebook.shape[0]))
    if ch.deterministic:
        np.add.at(table, (xi, ch.output_index), ch.sample_probs)
    else:
        np.add.at(table, xi, ch.sample_probs[:, None] * ch.cond)
    return table


def full_chain_rule(ch: FullChannel):
    """``bounds.chain_rule_decomposition`` labelling each pattern by its own
    coordinate sums, grouped by a row dedup over all patterns: (report,
    total MI, per-coordinate MIs)."""
    sums = ch.signs.sum(axis=1, dtype=np.int64)  # (n, d)
    total = max(0.0, mi_of_table(_joint_sums_output(ch, sums)))
    _, m, d = ch.signs.shape
    per_coord = []
    for t in range(d):
        table_t = _joint_sums_output(ch, sums[:, t])
        col_labels = _group_labels(ch.codebook[:, t])
        collapsed = np.zeros((table_t.shape[0], int(col_labels.max()) + 1))
        np.add.at(collapsed.T, col_labels, table_t.T)
        per_coord.append(max(0.0, mi_of_table(collapsed)))
    report = make_report("chain_rule", total, float(sum(per_coord)), tolerance=1e-9, d=d, m=m)
    return report, total, tuple(per_coord)


def sgd_full_copy(learner, signs: np.ndarray) -> np.ndarray:
    """``SgdLearner.fit_batch`` with every point scaled up front, in one
    (n, m, d) float copy of the signs."""
    n, m, d = signs.shape
    points = signs.astype(float) / np.sqrt(d)
    w = np.zeros((n, d))
    acc = np.zeros((n, d))
    for t in range(1, m + 1):
        w = _project_rows((1.0 - 1.0 / t) * w + points[:, t - 1, :] / t)
        acc += w
    return _project_rows(round_half_down(acc / m, grid_step(learner.delta, m)))


# ---------------------------------------------------------------------------
# Information over explicit tables
# ---------------------------------------------------------------------------


def entropy(p: FinitePmf) -> float:
    """Shannon entropy in nats; 0 <= H <= log(support size)."""
    return entropy_of(p.probs)


def marginal(j: JointPmf, axis: int) -> FinitePmf:
    """The marginal pmf of axis 0 or 1 of a two-variable joint."""
    return FinitePmf(j.alphabets[axis], j.table.sum(axis=1 - axis))
