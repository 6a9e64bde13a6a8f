"""Quantitative bounds and their verifiers.

Contents: the mutual-information generalization bound and its CMI analogue,
the fingerprinting expectation (quadrature and Monte Carlo), correlation
lower bounds on mutual information (bounded and sub-Gaussian cases, with the
explicit clipping constants), the Paley-Zygmund check, the attack statistics
with their good-coordinate search, the chain-rule decomposition over exact
channels, exact conditional mutual information under the supersample
process, and the end-to-end certificate chaining all of the above.

All verdicts are BoundReports: lhs >= rhs - tolerance, with the metadata
needed to reproduce the run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import mc
from .infotheory import (
    FinitePmf,
    JointPmf,
    coupling_disagreement,
    entropy_of,
    mi_of_table,
    mutual_information,
    optimal_coupling,
    pinsker_slack,
    row_entropies,
    total_variation,
)
from .learners import (
    FULL_ENUM_BUDGET,
    BudgetExceededError,
    Channel,
    SubsampleLearner,
    _index_in_codebook,
    enumerate_sign_space,
    exact_channel,
    exact_mutual_information,
    reachable_outputs,
    sign_space_probs,
)
from .sco import LOSS_RANGE, P_MAX, HardInstance, Sample, sample_signs

GOOD_THRESHOLD = 1.0 / 108.0
FINGERPRINT_FLOOR = 1.0 / 27.0
PILOT_STREAM = 7001
RISK_STREAM = 7002
GOOD_STREAM = 7003
CMI_CHUNK_CELLS = 1 << 22  # cmi_exact's block size; it fixes the float sum order

REPORT_COLUMNS = ("name", "d", "m", "epsilon", "lhs", "rhs", "holds",
                  "slack", "trials", "ci_halfwidth", "seed")


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: holds iff lhs >= rhs - tolerance."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    tolerance: float = 0.0
    d: int | None = None
    m: int | None = None
    epsilon: float | None = None
    trials: int | None = None
    ci_halfwidth: float | None = None
    seed: int | None = None


def make_report(name: str, lhs: float, rhs: float, tolerance: float = 0.0,
                **meta) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    return BoundReport(name=name, lhs=lhs, rhs=rhs,
                       holds=bool(lhs >= rhs - tolerance),
                       slack=lhs - rhs, tolerance=tolerance, **meta)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_reports_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([_fmt(getattr(r, col)) for col in REPORT_COLUMNS])


# ---------------------------------------------------------------------------
# Generalization bounds from information
# ---------------------------------------------------------------------------


def xu_bound(mi: float, m: int, loss_range: float = LOSS_RANGE) -> float:
    """Expected generalization gap bound loss_range * sqrt(2 * mi / m).

    The unit-range statement is applied to the rescaled loss f / loss_range
    and multiplied back, keeping the explicit range in view.
    """
    if mi < 0 or m < 1 or loss_range <= 0:
        raise ValueError("need mi >= 0, m >= 1, loss_range > 0")
    return loss_range * math.sqrt(2.0 * mi / m)


def cmi_generalization_bound(cmi: float, m: int,
                             loss_range: float = LOSS_RANGE) -> float:
    """Supersample analogue loss_range * sqrt(2 * cmi / m) (constant sqrt(2)
    fixed to mirror the unconditional bound)."""
    if cmi < 0:
        raise ValueError("cmi must be >= 0")
    return loss_range * math.sqrt(2.0 * cmi / m)


def xu_gap_report(learner, inst: HardInstance, m: int) -> BoundReport:
    """Exact E[gap] vs the MI bound over the enumerated channel."""
    ch = exact_channel(learner, inst, m)
    mi = ch.mutual_information()
    gap = ch.expected_generalization_gap(inst)
    return make_report(f"xu[{learner.kind}]", xu_bound(mi, m), gap,
                       d=inst.d, m=m)


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumEstimator:
    """Estimator of the bias from the sign sum; values clipped to [-1/3, 1/3]."""

    name: str
    fn: object  # (sums, m) -> values

    def __call__(self, sums, m: int) -> np.ndarray:
        return np.clip(np.asarray(self.fn(sums, m), dtype=float), -P_MAX, P_MAX)


EST_ZERO = SumEstimator("zero", lambda s, m: np.zeros(np.shape(s)))
EST_PLUS_THIRD = SumEstimator("const+1/3", lambda s, m: np.full(np.shape(s), P_MAX))
EST_MINUS_THIRD = SumEstimator("const-1/3", lambda s, m: np.full(np.shape(s), -P_MAX))
EST_CLIPPED_MEAN = SumEstimator("clipped_mean", lambda s, m: np.asarray(s, float) / m)
EST_SIGN = SumEstimator("sign", lambda s, m: np.sign(s) / 3.0)

ESTIMATOR_MENU = (EST_ZERO, EST_PLUS_THIRD, EST_MINUS_THIRD, EST_CLIPPED_MEAN, EST_SIGN)


def attack_prefactor(p):
    """(1 - 9p^2) / (9 - 9p^2); zero at the bias endpoints +-1/3."""
    p = np.asarray(p, dtype=float)
    return (1.0 - 9.0 * p * p) / (9.0 - 9.0 * p * p)


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


def _legendre_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    # p = x/3 maps [-1,1] to [-1/3,1/3]; with uniform density the effective
    # weights are w/2 (they sum to one).
    return x / 3.0, w / 2.0


def _binomial_weights(m: int, q: np.ndarray) -> np.ndarray:
    """Weights (len(q), m+1) of the plus-count under iid +-1 draws."""
    ks = np.arange(m + 1)
    comb = np.array([math.comb(m, int(k)) for k in ks], dtype=float)
    q = q[:, None]
    return comb[None, :] * q ** ks[None, :] * (1.0 - q) ** (m - ks)[None, :]


def fingerprint_quadrature(estimator: SumEstimator, m: int,
                           nodes: int = 64) -> float:
    """Exact-in-X expectation with Gauss-Legendre integration over the bias.

    The inner expectation enumerates the plus-count (sufficient for
    sum-based estimators) with exact binomial weights.
    """
    ps, ws = _legendre_nodes(nodes)
    sums = 2.0 * np.arange(m + 1) - m
    fvals = estimator(sums, m)  # (m+1,)
    weights = _binomial_weights(m, (1.0 + ps) / 2.0)  # (nodes, m+1)
    pref = attack_prefactor(ps)[:, None]
    delta = fvals[None, :] - ps[:, None]
    stat = pref * delta * (sums[None, :] - m * ps[:, None]) + delta ** 2
    return float(ws @ (weights * stat).sum(axis=1))


def fingerprint_quadrature_table(f_table: np.ndarray, m: int,
                                 nodes: int = 64) -> float:
    """Same expectation for an arbitrary estimator table over {+-1}^m.

    ``f_table[i]`` is the value on the i-th pattern of
    ``enumerate_sign_space(m, 1)``; patterns are enumerated exhaustively
    (m <= 12)."""
    if m > 12:
        raise BudgetExceededError("table quadrature enumerates 2^m patterns; m <= 12")
    patterns = enumerate_sign_space(m, 1).reshape(-1, m).astype(float)
    f_table = np.clip(np.asarray(f_table, dtype=float), -P_MAX, P_MAX)
    if f_table.shape != (patterns.shape[0],):
        raise ValueError("estimator table must have one value per pattern")
    ps, ws = _legendre_nodes(nodes)
    counts = (patterns > 0).sum(axis=1)
    total = 0.0
    for p, w in zip(ps, ws):
        q = (1.0 + p) / 2.0
        pattern_probs = q ** counts * (1.0 - q) ** (m - counts)
        delta = f_table - p
        stat = attack_prefactor(p) * delta * (patterns - p).sum(axis=1) + delta ** 2
        total += w * float(pattern_probs @ stat)
    return total


def fingerprint_expectation(estimator: SumEstimator, m: int,
                            mode: str = "quadrature", nodes: int = 64,
                            trials: int = 10 ** 6, seed: int = 0) -> BoundReport:
    """Verify the 1/27 floor for one estimator.

    Quadrature (m <= 12) holds at tolerance 1e-6; Monte Carlo at 3 standard
    errors of the trial mean.
    """
    name = f"fingerprint[{estimator.name}, m={m}]"
    if mode == "quadrature":
        if m > 12:
            raise BudgetExceededError("quadrature mode supports m <= 12")
        value = fingerprint_quadrature(estimator, m, nodes)
        return make_report(name, value, FINGERPRINT_FLOOR, tolerance=1e-6,
                           m=m, seed=seed)
    if mode != "monte_carlo":
        raise ValueError("mode must be 'quadrature' or 'monte_carlo'")

    def chunk(rng, size):
        p = rng.uniform(-P_MAX, P_MAX, size=size)
        plus = rng.binomial(m, (1.0 + p) / 2.0)
        sums = 2.0 * plus - m
        delta = estimator(sums, m) - p
        return attack_prefactor(p) * delta * (sums - m * p) + delta ** 2

    values = mc.chunked_trials(chunk, trials, seed, 1)
    est, se = mc.mean_and_se(values)
    return make_report(name, est, FINGERPRINT_FLOOR, tolerance=3.0 * se,
                       m=m, trials=trials, ci_halfwidth=3.0 * se, seed=seed)


# ---------------------------------------------------------------------------
# Correlation -> mutual information lower bounds
# ---------------------------------------------------------------------------


def corbounded_mi_lower_bound(beta: float) -> float:
    """MI floor beta^4 / 8 for |X| <= 1, E[X] = 0, E[Y^2] <= 1, E[XY] = beta."""
    return max(0.0, float(beta) ** 4 / 8.0)


def subgaussian_mi_lower_bound(beta: float, c: float) -> float:
    """MI floor for sub-Gaussian X with tail proxy c (P(|X|>=t) <= 2e^{-t^2/c^2}).

    Returns [beta^2 / (192*sqrt(2) * c^2 * ln(2^20 c^2/beta^2))]^2, or 0 when
    the log argument does not exceed e (vacuous region). The caller owns the
    hypotheses E[X]=0, E[Y^2]<=1, proxy validity.
    """
    beta = float(beta)
    c = float(c)
    if beta <= 0.0 or c <= 0.0:
        return 0.0
    # log of the argument computed in log space so extreme ratios cannot
    # overflow or underflow
    log_arg = 20.0 * math.log(2.0) + 2.0 * (math.log(c) - math.log(beta))
    if log_arg <= 1.0:
        return 0.0
    val = beta * beta / (192.0 * math.sqrt(2.0) * c * c * log_arg)
    return val * val


def gm(a: float, m: int) -> float:
    """Per-coordinate MI floor as a function of the normalized correlation a.

    Instantiated as the sub-Gaussian bound with correlation a*s and proxy
    2*sqrt(m)*s; the scale s cancels, leaving
    [a^2 / (192*sqrt(2) * 4m * ln(2^20 * 4m / a^2))]^2 with the same
    vacuity guard.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return subgaussian_mi_lower_bound(a, 2.0 * math.sqrt(m))


def gm_regime_report(m: int, n_grid: int = 1000) -> BoundReport:
    """Nondecreasing + midpoint-convex scan of gm on [0, 2^20 * m]."""
    grid = np.linspace(0.0, 2.0 ** 20 * m, n_grid)
    vals = np.array([gm(a, m) for a in grid])
    mono = np.diff(vals)
    worst_mono = float(mono.min()) if mono.size else 0.0
    mids = np.array([gm(0.5 * (grid[i] + grid[i + 2]), m) for i in range(n_grid - 2)])
    convex_slack = 0.5 * (vals[:-2] + vals[2:]) - mids
    worst_convex = float(convex_slack.min()) if convex_slack.size else 0.0
    return make_report(f"gm_regime[m={m}]", min(worst_mono, worst_convex), 0.0,
                       tolerance=1e-12, m=m, trials=n_grid)


def gm_vacuity_boundary(m: int) -> float:
    """Largest a with a positive bound: a^2 < 2^20 * 4m / e."""
    return math.sqrt(2.0 ** 20 * 4.0 * m / math.e)


# ---------------------------------------------------------------------------
# Paley-Zygmund
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaleyZygmundCheck:
    report: BoundReport
    hypothesis_ok: bool


def paley_zygmund_rhs(mean: float, second_moment: float, theta: float) -> float:
    if second_moment <= 0.0:
        return 0.0
    return (1.0 - theta) ** 2 * mean * mean / second_moment


def paley_zygmund_check(values, probs, theta: float) -> PaleyZygmundCheck:
    """P(Z >= theta * E[Z]) vs (1-theta)^2 E[Z]^2 / E[Z^2] over a finite pmf.

    Z must be nonnegative for the inequality's hypotheses; mass on negative
    values is flagged rather than silently accepted.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.shape != probs.shape:
        raise ValueError("values and probs must align")
    hypothesis_ok = not bool(np.any((values < 0) & (probs > 0)))
    mean = float(probs @ values)
    second = float(probs @ (values * values))
    lhs = float(probs[values >= theta * mean].sum())
    rhs = paley_zygmund_rhs(mean, second, theta)
    report = make_report("paley_zygmund", lhs, rhs, tolerance=1e-12)
    if not hypothesis_ok:
        report = replace(report, holds=False)
    return PaleyZygmundCheck(report=report, hypothesis_ok=hypothesis_ok)


# ---------------------------------------------------------------------------
# Attack statistics and the good-coordinate search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackStats:
    """Normalized attack pair for one coordinate: E[y^2] = 1 by construction."""

    x_p: float
    y_p: float
    t: int
    p: np.ndarray = field(repr=False)
    normalizer: float = 1.0


def attack_statistics(inst: HardInstance, s: Sample, w: np.ndarray, t: int,
                      normalizer: float) -> AttackStats:
    """x = prefactor * normalizer * sum_i(sqrt(d) z_i(t) - p(t));
    y = (sqrt(d) w(t) - p(t)) / normalizer."""
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive (degenerate coordinate)")
    p_t = float(inst.p[t])
    root_d = math.sqrt(inst.d)
    centered = float((root_d * s.points[:, t] - p_t).sum())
    x = float(attack_prefactor(p_t)) * normalizer * centered
    y = (root_d * float(w[t]) - p_t) / normalizer
    return AttackStats(x_p=x, y_p=y, t=t, p=inst.p, normalizer=normalizer)


def pilot_normalizers(inst: HardInstance, learner, m: int,
                      trials: int = 10 ** 4, seed: int = 0) -> np.ndarray:
    """Frozen estimates of sqrt(E[(phat(t) - p(t))^2]) from a dedicated stream."""
    def chunk(rng, size):
        signs = sample_signs(inst, m, rng, trials=size)
        w = learner.fit_batch(signs)
        err = math.sqrt(inst.d) * w - inst.p[None, :]
        return (err * err).reshape(size, inst.d)

    sq = mc.chunked_trials(lambda rng, size: chunk(rng, size).reshape(size * inst.d),
                           trials, seed, PILOT_STREAM)
    return np.sqrt(sq.reshape(-1, inst.d).mean(axis=0))


@dataclass(frozen=True)
class GoodSetResult:
    members: tuple
    estimates: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)
    excluded: tuple = ()
    normalizers: np.ndarray = field(repr=False, default=None)

    @property
    def fraction(self) -> float:
        return len(self.members) / self.estimates.shape[0]


def good_coordinates(inst: HardInstance, learner, m: int,
                     trials: int = 10 ** 5, seed: int = 0,
                     pilot_trials: int = 10 ** 4,
                     threshold: float = GOOD_THRESHOLD) -> GoodSetResult:
    """Coordinates whose attack correlation clears the threshold at 3 SE.

    The product x_p(t) * y_p(t) is computed in its exactly-cancelled form
    prefactor * (phat - p) * sum(sqrt(d) z - p); the pilot normalizers are
    used only to flag degenerate coordinates (and for AttackStats reporting).
    """
    norms = pilot_normalizers(inst, learner, m, pilot_trials, seed)
    excluded = tuple(int(t) for t in np.nonzero(norms < 1e-9)[0])
    root_d = math.sqrt(inst.d)
    pref = attack_prefactor(inst.p)

    def chunk(rng, size):
        signs = sample_signs(inst, m, rng, trials=size)
        w = learner.fit_batch(signs)
        phat_err = root_d * w - inst.p[None, :]
        # sqrt(d) * z_i(t) is just the sign, so the centered sum is
        # sum of signs minus m * p(t)
        centered = signs.sum(axis=1, dtype=float) - m * inst.p[None, :]
        return (pref[None, :] * phat_err * centered).reshape(size * inst.d)

    values = mc.chunked_trials(chunk, trials, seed, GOOD_STREAM).reshape(-1, inst.d)
    est = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    members = tuple(int(t) for t in range(inst.d)
                    if t not in excluded and est[t] - 3.0 * se[t] >= threshold)
    return GoodSetResult(members=members, estimates=est, std_errors=se,
                         excluded=excluded, normalizers=norms)


# ---------------------------------------------------------------------------
# Chain rule over exact channels
# ---------------------------------------------------------------------------


def _group_labels(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 1:
        return np.unique(arr, return_inverse=True)[1]
    return np.unique(arr, axis=0, return_inverse=True)[1]


def _joint_x_output(ch: Channel, x_labels: np.ndarray) -> np.ndarray:
    """Aggregate the channel into a (groups of x) x (codebook) table."""
    xi = _group_labels(x_labels)
    big_k = ch.codebook.shape[0]
    table = np.zeros((int(xi.max()) + 1, big_k))
    if ch.deterministic:
        np.add.at(table, (xi, ch.output_index), ch.sample_probs)
    else:
        np.add.at(table, xi, ch.sample_probs[:, None] * ch.cond)
    return table


@dataclass(frozen=True)
class ChainRuleResult:
    report: BoundReport
    total_mi: float
    per_coordinate: tuple


def chain_rule_decomposition(ch: Channel) -> ChainRuleResult:
    """I(w_S; coordinate sums) >= sum_t I(w_S(t); sum_t), exactly evaluated."""
    sums = ch.signs.sum(axis=1, dtype=np.int64)  # (n, d)
    full = _joint_x_output(ch, sums)
    total = max(0.0, mi_of_table(full))
    d = ch.signs.shape[2]
    per_coord = []
    for t in range(d):
        table_t = _joint_x_output(ch, sums[:, t])
        # collapse codebook columns to the t-th output coordinate
        col_labels = _group_labels(ch.codebook[:, t])
        collapsed = np.zeros((table_t.shape[0], int(col_labels.max()) + 1))
        np.add.at(collapsed.T, col_labels, table_t.T)
        per_coord.append(max(0.0, mi_of_table(collapsed)))
    rhs = float(sum(per_coord))
    report = make_report("chain_rule", total, rhs, tolerance=1e-9, d=d,
                         m=ch.signs.shape[1])
    return ChainRuleResult(report=report, total_mi=total,
                           per_coordinate=tuple(per_coord))


# ---------------------------------------------------------------------------
# Exact conditional mutual information (supersample process)
# ---------------------------------------------------------------------------


def cmi_exact(learner, inst: HardInstance, m: int) -> float:
    """I(w_S; S | Z) for the pick-one-of-each-pair supersample process.

    Z is a pair of independent m-point samples; S takes the first or second
    element of each pair by an independent fair bit. For a deterministic
    learner the conditional MI reduces to E_Z[H(w_S | Z)]. Subsampling
    learners reduce exactly to their first k pair columns.
    """
    if isinstance(learner, SubsampleLearner):
        if not 1 <= learner.k <= m:
            raise ValueError("subsample size out of range")
        return cmi_exact(learner.base, inst, learner.k)

    n_z = 1 << (2 * m * inst.d)
    n_u = 1 << m
    if n_z * n_u > FULL_ENUM_BUDGET:
        raise BudgetExceededError(
            f"supersample enumeration 2^{2 * m * inst.d} * 2^{m} exceeds budget")

    randomized = not learner.deterministic
    base = learner.base if randomized else learner
    if not base.deterministic:
        raise ValueError("cmi_exact supports deterministic and randomized-response learners")

    selectors = ((np.arange(n_u, dtype=np.int64)[:, None]
                  >> np.arange(m, dtype=np.int64)[None, :]) & 1)  # (n_u, m)
    row_pick = np.arange(m)[None, :] + m * selectors  # rows into the 2m-point block

    if randomized:
        codebook = reachable_outputs(base, inst.d, m)
        big_k = codebook.shape[0]
        # every conditional row mixes a point mass, so its entropy is one
        # shared constant
        h_row = entropy_of(learner.mix(np.eye(1, big_k)[0]))

    total = 0.0
    z_chunk = max(1, CMI_CHUNK_CELLS // (n_u * m * inst.d))
    all_z = enumerate_sign_space(2 * m, inst.d)
    z_probs = sign_space_probs(inst, all_z)
    for start in range(0, n_z, z_chunk):
        block = all_z[start:start + z_chunk]  # (c, 2m, d)
        c = block.shape[0]
        selected = block[:, row_pick, :]  # (c, n_u, m, d)
        outputs = base.fit_batch(selected.reshape(c * n_u, m, inst.d))
        if randomized:
            ids = _index_in_codebook(outputs, codebook).reshape(c, n_u)
            counts = np.zeros((c, big_k))
        else:
            _, inverse = np.unique(outputs, axis=0, return_inverse=True)
            ids = inverse.reshape(c, n_u)
            counts = np.zeros((c, int(ids.max()) + 1))
        np.add.at(counts, (np.repeat(np.arange(c), n_u), ids.reshape(-1)), 1.0)
        if randomized:
            contrib = row_entropies(learner.mix(counts / n_u)) - h_row
        else:
            contrib = row_entropies(counts / n_u)
        total += float(z_probs[start:start + z_chunk] @ contrib)
    return max(0.0, total)


def selector_entropy_cap(learner, m: int) -> float:
    """k * ln 2 for subsample-k learners (k = m otherwise): the number of
    selector bits the output can depend on."""
    k = learner.k if isinstance(learner, SubsampleLearner) else m
    return min(k, m) * math.log(2.0)


# ---------------------------------------------------------------------------
# End-to-end certificate
# ---------------------------------------------------------------------------


def _draw_biases_and_signs(rng, size: int, d: int, m: int,
                           fixed_p: np.ndarray | None = None):
    """Biases (size, d), uniform unless fixed, and int8 signs (size, m, d)
    drawn under them: ``uniform`` first, then ``random``."""
    if fixed_p is None:
        ps = rng.uniform(-P_MAX, P_MAX, size=(size, d))
    else:
        ps = np.broadcast_to(fixed_p, (size, d))
    q_plus = (1.0 + ps) / 2.0
    u = rng.random(size=(size, m, d))
    return ps, np.where(u < q_plus[:, None, :], 1, -1).astype(np.int8)


def measured_excess_risk(learner, d: int, m: int, trials: int, seed: int,
                         fixed_p: np.ndarray | None = None,
                         learner_seed: int | None = None) -> tuple[float, float]:
    """Monte Carlo E[Delta_D] with the bias drawn uniformly unless fixed.

    Learners see only the sample, never the bias, so one batched fit covers
    trials with different biases. ``learner_seed`` selects the stream
    consumed by randomized learners.
    """
    def chunk(rng, size):
        ps, signs = _draw_biases_and_signs(rng, size, d, m, fixed_p)
        if learner.deterministic:
            w = learner.fit_batch(signs)
        else:
            w = np.stack([learner.fit(Sample.from_signs(signs[i]), rng)
                          for i in range(size)])
        return ((w - ps / math.sqrt(d)) ** 2).sum(axis=1)

    path = (RISK_STREAM,) if learner_seed is None else (RISK_STREAM, learner_seed)
    values = mc.chunked_trials(chunk, trials, seed, *path, chunk=1 << 12)
    return mc.mean_and_se(values)


@dataclass(frozen=True)
class CertificateResult:
    status: str
    epsilon: float
    risk_estimate: float
    risk_se: float
    best_p: np.ndarray | None
    good_set: GoodSetResult | None
    lb: float
    mean_lb: float
    asymptotic_lb: float
    mi: float | None
    report: BoundReport


def theorem1_certificate(learner, d: int, m: int, epsilon: float | None = None,
                         *, n_p: int = 4, risk_trials: int = 20000,
                         good_trials: int = 10 ** 5, pilot_trials: int = 10 ** 4,
                         seed: int = 0, learner_seed: int | None = None) -> CertificateResult:
    """Measured pipeline lower bound vs exact mutual information.

    Verifies the accuracy hypothesis first (measured E[Delta_D] <= epsilon;
    epsilon=None freezes it at the estimate plus 3 SE), then searches sampled
    biases for the largest certified good set, evaluates the pipeline bound
    |G| * gm(1/(108e6 sqrt(m) eps)), and checks it against the exact MI at
    the best bias. The asymptotic form d/(1e6 m eps) * gm(...) is reported
    for comparison, never asserted.
    """
    risk, risk_se = measured_excess_risk(learner, d, m, risk_trials, seed,
                                         learner_seed=learner_seed)
    if epsilon is None:
        epsilon = risk + 3.0 * risk_se + 1e-12
    if risk - 3.0 * risk_se > epsilon:
        report = make_report(f"theorem1[{learner.kind}]", 0.0, 1.0,
                             d=d, m=m, epsilon=epsilon, trials=risk_trials, seed=seed)
        return CertificateResult(status="hypothesis-unmet", epsilon=epsilon,
                                 risk_estimate=risk, risk_se=risk_se, best_p=None,
                                 good_set=None, lb=0.0, mean_lb=0.0,
                                 asymptotic_lb=0.0, mi=None, report=report)

    a_star = 1.0 / (108.0 * 1e6 * math.sqrt(m) * epsilon)
    g_value = gm(a_star, m)
    prior = mc.substream(seed, 7010)
    best = None
    best_p = None
    lbs = []
    for j in range(n_p):
        p = prior.uniform(-P_MAX, P_MAX, size=d)
        inst = HardInstance(d, p)
        gs = good_coordinates(inst, learner, m, trials=good_trials,
                              seed=seed + 31 * j + 1, pilot_trials=pilot_trials)
        lbs.append(len(gs.members) * g_value)
        if best is None or len(gs.members) > len(best.members):
            best, best_p = gs, p

    lb = len(best.members) * g_value
    asymptotic = d / (1e6 * m * epsilon) * g_value
    mi = exact_mutual_information(learner, HardInstance(d, best_p), m)
    report = make_report(f"theorem1[{learner.kind}]", mi, lb, tolerance=1e-12,
                         d=d, m=m, epsilon=epsilon, trials=good_trials, seed=seed)
    return CertificateResult(status="ok", epsilon=epsilon, risk_estimate=risk,
                             risk_se=risk_se, best_p=best_p, good_set=best,
                             lb=lb, mean_lb=float(np.mean(lbs)),
                             asymptotic_lb=asymptotic, mi=mi, report=report)


@dataclass(frozen=True)
class DimensionScan:
    ds: tuple
    mis: tuple
    slope: float
    per_coordinate_mi: float
    report: BoundReport


def mi_dimension_scan(learner, m: int, p0: float, d_values) -> DimensionScan:
    """Exact MI vs dimension for a factorized learner at constant bias p0."""
    ds, mis = [], []
    for d in d_values:
        inst = HardInstance(d, np.full(d, p0))
        mis.append(exact_mutual_information(learner, inst, m))
        ds.append(d)
    x = np.asarray(ds, dtype=float)
    y = np.asarray(mis, dtype=float)
    slope = float(((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean())))
    per_coord = mis[ds.index(1)] if 1 in ds else mis[0] / ds[0]
    report = make_report("mi_dimension_scan", slope, 0.9 * per_coord, m=m)
    return DimensionScan(ds=tuple(ds), mis=tuple(mis), slope=slope,
                         per_coordinate_mi=per_coord, report=report)


# ---------------------------------------------------------------------------
# Randomized verifier suites
# ---------------------------------------------------------------------------


def _random_pmf_pair(rng: np.random.Generator, max_alphabet: int = 16):
    k = int(rng.integers(2, max_alphabet + 1))
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))


def pinsker_suite(n_pairs: int = 1000, max_alphabet: int = 16,
                  seed: int = 0) -> BoundReport:
    """TV <= sqrt(KL/2) across random absolutely continuous pairs,
    exercised through the pinsker_slack operation itself."""
    rng = mc.substream(seed, 101)
    worst = math.inf
    for _ in range(n_pairs):
        a, b = _random_pmf_pair(rng, max_alphabet)
        outcomes = tuple(range(len(a)))
        slack = pinsker_slack(FinitePmf(outcomes, a), FinitePmf(outcomes, b))
        worst = min(worst, slack)
    return make_report("pinsker_suite", worst, 0.0, tolerance=1e-12,
                       trials=n_pairs, seed=seed)


def _northwest_coupling(a: np.ndarray, b: np.ndarray, perm_r, perm_c) -> float:
    """Disagreement probability of the greedy coupling along shuffled axes."""
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


def coupling_suite(n_pairs: int = 1000, max_alphabet: int = 16,
                   n_random: int = 100, seed: int = 0) -> tuple[BoundReport, BoundReport]:
    """(a) optimal_coupling disagreement equals TV; (b) no random feasible
    coupling does better. Random couplings come from greedy transport along
    shuffled outcome orders (exact marginals by construction); the search
    runs on the first n_random pairs, n_random couplings each."""
    rng = mc.substream(seed, 102)
    worst_match = math.inf
    worst_opt = math.inf
    for i in range(n_pairs):
        a, b = _random_pmf_pair(rng, max_alphabet)
        outcomes = tuple(range(len(a)))
        p1, p2 = FinitePmf(outcomes, a), FinitePmf(outcomes, b)
        tv = total_variation(p1, p2)
        disagreement = coupling_disagreement(optimal_coupling(p1, p2))
        worst_match = min(worst_match, -abs(disagreement - tv))
        if i < n_random:
            k = len(a)
            for _ in range(n_random):
                pr = rng.permutation(k)
                pc = rng.permutation(k)
                rand_dis = _northwest_coupling(a, b, pr, pc)
                worst_opt = min(worst_opt, rand_dis - disagreement)
    match = make_report("coupling_matches_tv", worst_match, 0.0, tolerance=1e-12,
                        trials=n_pairs, seed=seed)
    optimal = make_report("coupling_optimality", worst_opt, 0.0, tolerance=1e-12,
                          trials=n_random * n_random, seed=seed)
    return match, optimal


def _random_correlated_joint(rng: np.random.Generator, max_support: int = 8):
    """Random joint with |X|<=1, E[X]=0 and E[Y^2]<=1 enforced."""
    kx = int(rng.integers(2, max_support + 1))
    ky = int(rng.integers(2, max_support + 1))
    table = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
    xv = rng.uniform(-1.0, 1.0, size=kx)
    px = table.sum(axis=1)
    xv = xv - float(px @ xv)
    xv = xv / max(1.0, float(np.abs(xv).max()))
    xv = xv - float(px @ xv)  # re-center after the rescale
    yv = rng.uniform(-1.0, 1.0, size=ky)
    py = table.sum(axis=0)
    ey2 = float(py @ (yv * yv))
    if ey2 > 1.0:
        yv = yv / math.sqrt(ey2)
    return table, xv, yv


def bounded_correlation_suite(n_joints: int = 1000, max_support: int = 8,
                 seed: int = 0) -> BoundReport:
    """Exact MI >= beta^4/8 over random joints meeting the hypotheses."""
    rng = mc.substream(seed, 103)
    worst = math.inf
    for _ in range(n_joints):
        table, xv, yv = _random_correlated_joint(rng, max_support)
        beta = float(xv @ table @ yv)
        mi = mutual_information(JointPmf.from_table(table))
        worst = min(worst, mi - corbounded_mi_lower_bound(beta))
    return make_report("corbounded_mi_suite", worst, 0.0, tolerance=1e-9,
                       trials=n_joints, seed=seed)


def _subgaussian_construction(rng: np.random.Generator):
    """(table, x values, y values, certified proxy c)."""
    if rng.random() < 0.5:
        # scaled Rademacher sum with Hoeffding proxy c = r * sqrt(2k)
        k = int(rng.integers(1, 7))
        r = float(rng.uniform(0.2, 1.0))
        xv = r * (2.0 * np.arange(k + 1) - k)
        px = np.array([math.comb(k, int(j)) for j in range(k + 1)], dtype=float) / 2 ** k
        c = r * math.sqrt(2.0 * k)
    else:
        # generic bounded centered variable; any |X| <= R is certified by
        # c = R / sqrt(ln 2) (the tail bound is then >= 1 on the support)
        kx = int(rng.integers(2, 9))
        xv = rng.uniform(-1.0, 1.0, size=kx)
        px = rng.dirichlet(np.ones(kx))
        xv = xv - float(px @ xv)
        big_r = float(np.abs(xv).max())
        c = big_r / math.sqrt(math.log(2.0))
    s = float(rng.uniform(0.3, 1.0))
    gamma = float(rng.uniform(0.0, 0.45))
    yv = np.array([-s, s])
    table = np.zeros((len(xv), 2))
    sign_x = np.sign(xv)
    for i, sg in enumerate(sign_x):
        if sg == 0:
            table[i] = px[i] * 0.5
        else:
            hit = 1 if sg > 0 else 0
            table[i, hit] = px[i] * (1.0 - gamma)
            table[i, 1 - hit] = px[i] * gamma
    return table, xv, yv, c


def subgaussian_correlation_suite(n_joints: int = 200, seed: int = 0) -> BoundReport:
    """Exact MI >= the sub-Gaussian correlation floor on certified joints."""
    rng = mc.substream(seed, 104)
    worst = math.inf
    for _ in range(n_joints):
        table, xv, yv, c = _subgaussian_construction(rng)
        beta = float(xv @ table @ yv)
        mi = mutual_information(JointPmf.from_table(table))
        worst = min(worst, mi - subgaussian_mi_lower_bound(beta, c))
    return make_report("subgaussian_mi_suite", worst, 0.0, tolerance=1e-12,
                       trials=n_joints, seed=seed)


def subgaussian_tail_report(inst: HardInstance, m: int, t: int = 0,
                            trials: int = 10 ** 6, seed: int = 0) -> BoundReport:
    """Empirical tails of sum_i(sqrt(d) z_i(t) - p(t)) vs 2 exp(-tau^2/c^2)
    at the certified proxy c = 2 sqrt(m)."""
    p_t = float(inst.p[t])
    c2 = 4.0 * m

    def chunk(rng, size):
        plus = rng.binomial(m, (1.0 + p_t) / 2.0, size=size)
        return np.abs(2.0 * plus - m - m * p_t)

    values = mc.chunked_trials(chunk, trials, seed, 105)
    taus = np.linspace(0.5, 2.0 * math.sqrt(m), 12)
    worst = math.inf
    for tau in taus:
        freq = float((values >= tau).mean())
        worst = min(worst, 2.0 * math.exp(-tau * tau / c2) - freq)
    return make_report("subgaussian_tails", worst, 0.0, tolerance=3.0 / math.sqrt(trials),
                       m=m, trials=trials, seed=seed)


def second_moment_report(learner, d: int, m: int, outer: int = 4000,
                         inner: int = 64, seed: int = 0) -> BoundReport:
    """E_{p,t}[(E_S[x_p y_p])^2] <= m * eps within MC error, where eps is the
    measured per-coordinate squared estimation error. Uses two independent
    inner batches so the squared inner mean is estimated without bias."""
    root_d = math.sqrt(d)
    rng = mc.substream(seed, 106)
    prods = np.empty(outer)
    errs = np.empty(outer)
    for i in range(outer):
        p = rng.uniform(-P_MAX, P_MAX, size=d)
        t = int(rng.integers(d))
        inst = HardInstance(d, p)
        halves = []
        err_acc = 0.0
        for _ in range(2):
            signs = sample_signs(inst, m, rng, trials=inner)
            w = learner.fit_batch(signs)
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
                       d=d, m=m, trials=outer * inner, ci_halfwidth=tol, seed=seed)


def genbound_chain_report(learner, d: int, m: int, trials: int = 20000,
                          seed: int = 0) -> BoundReport:
    """d * E[Delta_D] equals sum_t E[(phat(t)-p(t))^2] (exact per-trial
    identity, since phat - p = sqrt(d) (w - w*)); checked to float precision."""
    root_d = math.sqrt(d)

    def chunk(rng, size):
        p, signs = _draw_biases_and_signs(rng, size, d, m)
        w = learner.fit_batch(signs)
        delta = ((w - p / root_d) ** 2).sum(axis=1)
        errs = ((root_d * w - p) ** 2).sum(axis=1)
        return d * delta - errs

    values = mc.chunked_trials(chunk, trials, seed, 107, chunk=1 << 12)
    worst = float(np.abs(values).max()) if values.size else 0.0
    return make_report("genbound_chain", 1e-9, worst, d=d, m=m,
                       trials=trials, seed=seed)
