"""Quantitative bounds and their verifiers.

Contents: the mutual-information generalization bound (also the CMI bound),
the fingerprinting expectation (quadrature and Monte Carlo), correlation
lower bounds on mutual information (bounded and sub-Gaussian cases, with the
explicit clipping constants), the Paley-Zygmund check, the good-coordinate
search over the attack correlation, the chain-rule decomposition over exact
channels, exact conditional mutual information under the supersample
process, and the end-to-end certificate chaining all of the above.

All verdicts are BoundReports: lhs >= rhs - tolerance, with the metadata
needed to reproduce the run.
"""

from __future__ import annotations

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
    exact_mutual_information,
    lattice_codes,
    lattice_counts,
    output_atoms,
    sign_space_probs,
    unique_rows,
)
from .sco import (
    LOSS_RANGE,
    P_MAX,
    HardInstance,
    counts_of_plus,
    plus_points,
    sample_plus,
    signs_of_plus,
)

GOOD_THRESHOLD = 1.0 / 108.0
FINGERPRINT_FLOOR = 1.0 / 27.0
PILOT_STREAM = 7001
RISK_STREAM = 7002
GOOD_STREAM = 7003
CMI_CHUNK_CELLS = 1 << 22  # cmi_exact's block size; it fixes the float sum order
GM_GRID = 1000  # points of gm_regime_report's scan
CERTIFICATE_BIASES = 4  # biases theorem1_certificate searches
MAX_ALPHABET = 16  # largest alphabet of the random pmf pairs
MAX_SUPPORT = 8  # largest marginal support of the random correlated joints
SECOND_MOMENT_INNER = 64  # samples per inner batch of second_moment_report
SECOND_MOMENT_BLOCK = 1 << 12  # samples per fit of second_moment_report (4x: +3 MB peak RSS)
QUADRATURE_NODES = 64  # Gauss-Legendre nodes over the bias


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


# ---------------------------------------------------------------------------
# Generalization bounds from information
# ---------------------------------------------------------------------------


def xu_bound(mi: float, m: int) -> float:
    """Expected generalization gap bound LOSS_RANGE * sqrt(2 * mi / m).

    The unit-range statement is applied to the rescaled loss f / LOSS_RANGE
    and multiplied back, keeping the explicit range in view. With the
    supersample CMI in place of the MI it is the CMI bound (same constant).
    """
    if mi < 0 or m < 1:
        raise ValueError("need mi >= 0, m >= 1")
    return LOSS_RANGE * math.sqrt(2.0 * mi / m)


def xu_gap_report(learner, ch: Channel, inst: HardInstance) -> BoundReport:
    """Exact E[gap] vs the MI bound over ``learner``'s enumerated channel
    ``ch``, weighed by the bias of ``inst``."""
    ch = ch.reweighted(inst)
    mi = ch.mutual_information()
    gap = ch.expected_generalization_gap(inst)
    return make_report(f"xu[{learner.kind}]", xu_bound(mi, ch.m), gap,
                       d=inst.d, m=ch.m)


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


def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    # p = x/3 maps [-1,1] to [-1/3,1/3]; with uniform density the effective
    # weights are w/2 (they sum to one).
    return x / 3.0, w / 2.0


def _binomial_weights(m: int, q: np.ndarray) -> np.ndarray:
    """Weights (len(q), m+1) of the plus-count under iid +-1 draws."""
    ks = np.arange(m + 1)
    comb = np.array([math.comb(m, int(k)) for k in ks], dtype=float)
    q = q[:, None]
    return comb[None, :] * q ** ks[None, :] * (1.0 - q) ** (m - ks)[None, :]


def fingerprint_quadrature(estimator: SumEstimator, m: int) -> float:
    """Exact-in-X expectation with QUADRATURE_NODES-point Gauss-Legendre
    integration over the bias.

    The inner expectation enumerates the plus-count (sufficient for
    sum-based estimators) with exact binomial weights.
    """
    ps, ws = _legendre_nodes()
    sums = 2.0 * np.arange(m + 1) - m
    fvals = estimator(sums, m)  # (m+1,)
    weights = _binomial_weights(m, (1.0 + ps) / 2.0)  # (QUADRATURE_NODES, m+1)
    pref = attack_prefactor(ps)[:, None]
    delta = fvals[None, :] - ps[:, None]
    stat = pref * delta * (sums[None, :] - m * ps[:, None]) + delta ** 2
    return float(ws @ (weights * stat).sum(axis=1))


def fingerprint_expectation(estimator: SumEstimator, m: int,
                            mode: str = "quadrature",
                            trials: int = 10 ** 6, seed: int = 0) -> BoundReport:
    """Verify the 1/27 floor for one estimator.

    Quadrature (m <= 12) holds at tolerance 1e-6; Monte Carlo at 3 standard
    errors of the trial mean.
    """
    name = f"fingerprint[{estimator.name}, m={m}]"
    if mode == "quadrature":
        if m > 12:
            raise BudgetExceededError("quadrature mode supports m <= 12")
        value = fingerprint_quadrature(estimator, m)
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


def gm_regime_report(m: int) -> BoundReport:
    """Nondecreasing + midpoint-convex scan of gm on [0, 2^20 * m]."""
    grid = np.linspace(0.0, 2.0 ** 20 * m, GM_GRID)
    vals = np.array([gm(a, m) for a in grid])
    worst_mono = float(np.diff(vals).min())
    mids = np.array([gm(0.5 * (grid[i] + grid[i + 2]), m) for i in range(GM_GRID - 2)])
    worst_convex = float((0.5 * (vals[:-2] + vals[2:]) - mids).min())
    return make_report(f"gm_regime[m={m}]", min(worst_mono, worst_convex), 0.0,
                       tolerance=1e-12, m=m, trials=GM_GRID)


# ---------------------------------------------------------------------------
# Paley-Zygmund
# ---------------------------------------------------------------------------


def paley_zygmund_rhs(mean: float, second_moment: float, theta: float) -> float:
    if second_moment <= 0.0:
        return 0.0
    return (1.0 - theta) ** 2 * mean * mean / second_moment


def paley_zygmund_check(values, probs, theta: float) -> BoundReport:
    """P(Z >= theta * E[Z]) vs (1-theta)^2 E[Z]^2 / E[Z^2] over a finite pmf.

    Z must be nonnegative for the inequality's hypotheses; mass on negative
    values fails the report (holds=False) rather than being silently accepted.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.shape != probs.shape:
        raise ValueError("values and probs must align")
    mean = float(probs @ values)
    second = float(probs @ (values * values))
    lhs = float(probs[values >= theta * mean].sum())
    rhs = paley_zygmund_rhs(mean, second, theta)
    report = make_report("paley_zygmund", lhs, rhs, tolerance=1e-12)
    if np.any((values < 0) & (probs > 0)):
        report = replace(report, holds=False)
    return report


# ---------------------------------------------------------------------------
# The good-coordinate search
# ---------------------------------------------------------------------------


def _fit_plus(learner, plus: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (n, d) of ``learner`` on the n samples of (n, m, d) plus
    booleans ``plus``, and their float coordinate sign sums 2 C - m, C the
    plus-counts. A ``reads_counts`` learner is fit on C, any other on the
    signs, a randomized one drawing from ``rng``."""
    counts, m = counts_of_plus(plus), plus.shape[1]
    if learner.reads_counts:
        w = learner.fit_counts(counts, m)
    else:
        signs = signs_of_plus(plus)
        w = learner.fit_batch(signs) if learner.deterministic else learner.fit_batch(signs, rng)
    return w, 2.0 * counts - m


def pilot_normalizers(inst: HardInstance, learner, m: int,
                      trials: int = 10 ** 4, seed: int = 0) -> np.ndarray:
    """Frozen estimates of sqrt(E[(phat(t) - p(t))^2]) from a dedicated stream."""
    def chunk(rng, size):
        w = _fit_plus(learner, sample_plus(inst.p, m, rng, size), rng)[0]
        err = math.sqrt(inst.d) * w - inst.p[None, :]
        return (err * err).reshape(size * inst.d)

    sq = mc.chunked_trials(chunk, trials, seed, PILOT_STREAM)
    return np.sqrt(sq.reshape(-1, inst.d).mean(axis=0))


@dataclass(frozen=True)
class GoodSetResult:
    members: tuple
    estimates: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)
    excluded: tuple = ()
    normalizers: np.ndarray = field(repr=False, default=None)


def good_coordinates(inst: HardInstance, learner, m: int,
                     trials: int = 10 ** 5, seed: int = 0,
                     pilot_trials: int = 10 ** 4) -> GoodSetResult:
    """Coordinates whose attack correlation clears GOOD_THRESHOLD at 3 SE.

    The product x_p(t) * y_p(t) is computed in its exactly-cancelled form
    prefactor * (phat - p) * sum(sqrt(d) z - p); the pilot normalizers are
    used only to flag degenerate coordinates.
    """
    norms = pilot_normalizers(inst, learner, m, pilot_trials, seed)
    excluded = tuple(int(t) for t in np.nonzero(norms < 1e-9)[0])
    root_d = math.sqrt(inst.d)
    pref = attack_prefactor(inst.p)

    def chunk(rng, size):
        w, sums = _fit_plus(learner, sample_plus(inst.p, m, rng, size), rng)
        phat_err = root_d * w - inst.p[None, :]
        # sqrt(d) * z_i(t) is just the sign, so the centered sum is
        # sum of signs minus m * p(t)
        centered = sums - m * inst.p[None, :]
        return (pref[None, :] * phat_err * centered).reshape(size * inst.d)

    values = mc.chunked_trials(chunk, trials, seed, GOOD_STREAM).reshape(-1, inst.d)
    est = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    members = tuple(int(t) for t in range(inst.d)
                    if t not in excluded and est[t] - 3.0 * se[t] >= GOOD_THRESHOLD)
    return GoodSetResult(members=members, estimates=est, std_errors=se,
                         excluded=excluded, normalizers=norms)


# ---------------------------------------------------------------------------
# Chain rule over exact channels
# ---------------------------------------------------------------------------


def _joint_x_output(ch: Channel, x_labels: np.ndarray) -> np.ndarray:
    """Aggregate the channel into an (x label) x (codebook) table."""
    table = np.zeros((int(x_labels.max()) + 1, ch.codebook.shape[0]))
    np.add.at(table, (x_labels, ch.output_index), ch.sample_probs)
    return table


@dataclass(frozen=True)
class ChainRuleResult:
    report: BoundReport
    total_mi: float
    per_coordinate: tuple


def chain_rule_decomposition(ch: Channel) -> ChainRuleResult:
    """I(w_S; coordinate sums) >= sum_t I(w_S(t); sum_t), exactly evaluated.

    A coordinate sum is 2 C_t - m, so the lattice code labels the sum vector
    and the plus-count C_t labels sum t, both in the order of the sums. The
    channel must be deterministic."""
    if not ch.deterministic:
        raise ValueError("the chain rule takes a deterministic learner's channel")
    full = _joint_x_output(ch, ch.codes)
    total = max(0.0, mi_of_table(full))
    counts, m, d = ch.counts, ch.m, ch.counts.shape[1]  # (L, d) plus-counts
    per_coord = []
    for t in range(d):
        table_t = _joint_x_output(ch, counts[:, t][ch.codes])
        # collapse codebook columns to the t-th output coordinate
        col_labels = unique_rows(ch.codebook[:, t:t + 1])[1]
        collapsed = np.zeros((table_t.shape[0], int(col_labels.max()) + 1))
        np.add.at(collapsed.T, col_labels, table_t.T)
        per_coord.append(max(0.0, mi_of_table(collapsed)))
    rhs = float(sum(per_coord))
    report = make_report("chain_rule", total, rhs, tolerance=1e-9, d=d, m=m)
    return ChainRuleResult(report=report, total_mi=total,
                           per_coordinate=tuple(per_coord))


# ---------------------------------------------------------------------------
# Exact conditional mutual information (supersample process)
# ---------------------------------------------------------------------------


def _selection_counts(start: int, c: int, m: int, atom: np.ndarray, scale: np.ndarray,
                      radix: np.ndarray, every_atom: bool):
    """Yields (first row, float counts) in row blocks of at most
    CMI_CHUNK_CELLS floats: for supersamples start to start + c - 1 in
    ``enumerate_sign_space(2 * m, d)`` order, the count of the 2^m selections
    whose half maps to each atom, ``atom`` mapping the sample codes of
    ``output_atoms`` (weights ``scale`` and ``radix``) to the K atoms. The
    columns are all K atoms, or with ``every_atom`` False those some
    selection of the chunk reaches, in codebook order.

    A selection's code starts as the first halves' code, and choosing the
    second point of pair i adds scale[i] (b_i - a_i), b_i and a_i the two
    points' plus bits times the radix. Where m n_codes < 2^m (lattice codes
    only), each z's histogram over the codes is built by m shift-adds, pair i
    adding a copy shifted by its step; otherwise the 2^m codes are built by m
    doublings and counted one by one. The rule compares the two per-z costs,
    and timings agree with it: on one 2-core Xeon (numpy 2.4),
    ``cmi_exact(MeanLearner(), HardInstance.zero(1), m)`` took 0.12 s by
    shift-adds and 0.54 s by doublings at m = 8, 0.005 s and 0.009 s at
    m = 6, and tied at m = 5; at d = 3, m = 3 the shift-adds took 2.1 s and
    the doublings 0.45 s. Under the rule the (c, 3 n_codes) histogram is
    also smaller than the (2^m, c) codes, and its counts fit in one block.
    """
    n_codes, big_k = atom.shape[0], int(atom.max()) + 1
    z = np.arange(start, start + c, dtype=np.int64)
    points = ((z[:, None] >> np.arange(2 * m * radix.shape[0])) & 1).reshape(c, 2 * m, -1) @ radix
    first, step = points[:, :m] @ scale, (points[:, m:] - points[:, :m]) * scale  # (c,), (c, m)
    if m * n_codes < 1 << m:
        # codes sit in the middle third, so a shift never leaves the row
        hist = np.zeros((c, 3 * n_codes), dtype=np.int64)
        hist[np.arange(c), n_codes + first] = 1
        middle = n_codes + np.arange(n_codes)
        for i in range(m):
            hist[:, n_codes:2 * n_codes] += np.take_along_axis(
                hist, middle - step[:, i:i + 1], axis=1)
        by_atom = np.argsort(atom, kind="stable")
        counts = np.add.reduceat(hist[:, middle[by_atom]],
                                 np.searchsorted(atom[by_atom], np.arange(big_k)), axis=1)
        yield 0, (counts if every_atom else counts[:, counts.any(axis=0)]).astype(float)
        return
    codes = np.empty((1 << m, c), dtype=np.int64)  # selector-major
    codes[0] = first
    for i in range(m):
        np.add(codes[:1 << i], step[:, i], out=codes[1 << i:2 << i])
    ids, width = atom[codes], big_k
    if not every_atom:
        present = np.zeros(big_k, dtype=bool)
        present[ids] = True
        ids, width = (np.cumsum(present) - 1)[ids], int(present.sum())
    rows = max(1, CMI_CHUNK_CELLS // width)
    for row in range(0, c, rows):
        cells = ids[:, row:row + rows] + np.arange(min(rows, c - row)) * width
        yield row, np.bincount(cells.reshape(-1), minlength=cells.shape[1] * width).reshape(
            -1, width).astype(float)


def cmi_exact(learner, inst: HardInstance, m: int) -> float:
    """I(w_S; S | Z) for the pick-one-of-each-pair supersample process.

    Z is a pair of independent m-point samples; S takes the first or second
    element of each pair by an independent fair bit. For a deterministic
    learner the conditional MI reduces to E_Z[H(w_S | Z)]. Subsampling
    learners reduce exactly to their first k pair columns. The base is fit
    once per sample code of ``output_atoms`` (a lattice point of a
    ``reads_counts`` base, an enumerated pattern of SGD or a subsample), and
    each selection reads its atom by code, with no sign tensor.
    """
    if isinstance(learner, SubsampleLearner):
        if not 1 <= learner.k <= m:
            raise ValueError("subsample size out of range")
        return cmi_exact(learner.base, inst, learner.k)

    d = inst.d
    n_z = 1 << (2 * m * d)
    n_u = 1 << m
    if n_z * n_u > FULL_ENUM_BUDGET:
        raise BudgetExceededError(
            f"supersample enumeration 2^{2 * m * d} * 2^{m} exceeds budget")

    randomized = not learner.deterministic
    base = learner.base if randomized else learner
    codebook, atom, scale, radix = output_atoms(base, m, d)
    if randomized:
        # every conditional row mixes a point mass, so all share one entropy
        h_row = entropy_of(learner.mix(np.eye(1, codebook.shape[0])[0]))

    total = 0.0
    z_chunk = max(1, CMI_CHUNK_CELLS // (n_u * m * d))
    z_probs = sign_space_probs(inst, lattice_counts(2 * m, d), 2 * m)[lattice_codes(2 * m, d)]
    for start in range(0, n_z, z_chunk):
        c = min(z_chunk, n_z - start)
        contrib = np.empty(c)
        # a deterministic base keeps only the atoms present in this chunk
        for row, counts in _selection_counts(start, c, m, atom, scale, radix,
                                             every_atom=randomized):
            counts /= n_u
            contrib[row:row + counts.shape[0]] = (
                row_entropies(learner.mix(counts)) - h_row if randomized
                else row_entropies(counts))
        total += float(z_probs[start:start + z_chunk] @ contrib)
    return max(0.0, total)


def selector_entropy_cap(k: int, m: int) -> float:
    """min(k, m) * ln 2 for a learner that reads k of the m sample points:
    the number of selector bits its output can depend on."""
    return min(k, m) * math.log(2.0)


# ---------------------------------------------------------------------------
# End-to-end certificate
# ---------------------------------------------------------------------------


def pipeline_gm(m: int, eps: float) -> float:
    """The pipeline's per-coordinate MI floor gm(1/(108e6 sqrt(m) eps), m) at
    accuracy eps."""
    return gm(1.0 / (108.0 * 1e6 * math.sqrt(m) * eps), m)


def measured_excess_risk(learner, d: int, m: int, trials: int,
                         seed: int) -> tuple[float, float]:
    """Monte Carlo E[Delta_D] with one uniform bias drawn per trial.

    Learners see only the sample, never the bias, so one batched fit covers
    trials with different biases. Randomized learners draw from the chunk's
    generator after its signs.
    """
    def chunk(rng, size):
        ps = rng.uniform(-P_MAX, P_MAX, size=(size, d))
        w = _fit_plus(learner, sample_plus(ps, m, rng, size), rng)[0]
        return ((w - ps / math.sqrt(d)) ** 2).sum(axis=1)

    values = mc.chunked_trials(chunk, trials, seed, RISK_STREAM, chunk=1 << 12)
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
                         *, risk_trials: int = 20000,
                         good_trials: int = 10 ** 5, pilot_trials: int = 10 ** 4,
                         seed: int = 0) -> CertificateResult:
    """Measured pipeline lower bound vs exact mutual information.

    Verifies the accuracy hypothesis first (measured E[Delta_D] <= epsilon;
    epsilon=None freezes it at the estimate plus 3 SE), then searches
    CERTIFICATE_BIASES sampled biases for the largest certified good set,
    evaluates the pipeline bound
    |G| * gm(1/(108e6 sqrt(m) eps)), and checks it against the exact MI at
    the best bias. The asymptotic form d/(1e6 m eps) * gm(...) is reported
    for comparison, never asserted.
    """
    risk, risk_se = measured_excess_risk(learner, d, m, risk_trials, seed)
    if epsilon is None:
        epsilon = risk + 3.0 * risk_se + 1e-12
    if risk - 3.0 * risk_se > epsilon:
        report = make_report(f"theorem1[{learner.kind}]", 0.0, 1.0,
                             d=d, m=m, epsilon=epsilon, trials=risk_trials, seed=seed)
        return CertificateResult(status="hypothesis-unmet", epsilon=epsilon,
                                 risk_estimate=risk, risk_se=risk_se, best_p=None,
                                 good_set=None, lb=0.0, mean_lb=0.0,
                                 asymptotic_lb=0.0, mi=None, report=report)

    g_value = pipeline_gm(m, epsilon)
    prior = mc.substream(seed, 7010)
    best = None
    best_p = None
    lbs = []
    for j in range(CERTIFICATE_BIASES):
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


def ls_slope(x, y) -> float:
    """Least-squares slope of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean())))


@dataclass(frozen=True)
class DimensionScan:
    ds: tuple
    mis: tuple
    report: BoundReport  # lhs: the slope of MI on d; rhs: 0.9 * the per-coordinate MI


def mi_dimension_scan(learner, m: int, p0: float, d_values) -> DimensionScan:
    """Exact MI vs dimension for a factorized learner at constant bias p0."""
    ds = tuple(d_values)
    mis = tuple(exact_mutual_information(learner, HardInstance(d, np.full(d, p0)), m)
                for d in ds)
    per_coord = mis[ds.index(1)] if 1 in ds else mis[0] / ds[0]
    report = make_report("mi_dimension_scan", ls_slope(ds, mis), 0.9 * per_coord, m=m)
    return DimensionScan(ds=ds, mis=mis, report=report)


# ---------------------------------------------------------------------------
# Randomized verifier suites
# ---------------------------------------------------------------------------


def _random_pmf_pair(rng: np.random.Generator):
    k = int(rng.integers(2, MAX_ALPHABET + 1))
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))


def pinsker_suite(n_pairs: int = 1000, seed: int = 0) -> BoundReport:
    """TV <= sqrt(KL/2) across random absolutely continuous pairs,
    exercised through the pinsker_slack operation itself."""
    rng = mc.substream(seed, 101)
    worst = math.inf
    for _ in range(n_pairs):
        a, b = _random_pmf_pair(rng)
        slack = pinsker_slack(FinitePmf(a), FinitePmf(b))
        worst = min(worst, slack)
    return make_report("pinsker_suite", worst, 0.0, tolerance=1e-12,
                       trials=n_pairs, seed=seed)


def _northwest_couplings(a: np.ndarray, b: np.ndarray, perm_r: np.ndarray,
                         perm_c: np.ndarray) -> np.ndarray:
    """Disagreement probability of the greedy coupling of ``a`` and ``b``
    along each row's shuffled axes: row r transports ``a[perm_r[r]]`` into
    ``b[perm_c[r]]`` in order, advancing past a residue of at most 1e-15, and
    agrees where the permuted labels match. All rows step in lockstep, each
    with the arithmetic of its own scalar loop, on flat copies of the
    shuffled masses; ``i`` and ``j`` are the live rows' flat positions."""
    k = perm_r.shape[1]
    a, b = a[perm_r].ravel(), b[perm_c].ravel()
    label_r, label_c = perm_r.ravel(), perm_c.ravel()
    agree = np.zeros(perm_r.shape[0])
    rows = np.arange(perm_r.shape[0])
    i = rows * k
    j, end = i.copy(), i + k
    while rows.size:
        left_a, left_b = a[i], b[j]
        mass = np.minimum(left_a, left_b)
        match = label_r[i] == label_c[j]
        agree[rows[match]] += mass[match]
        left_a -= mass
        left_b -= mass
        a[i], b[j] = left_a, left_b
        i, j = i + (left_a <= 1e-15), j + (left_b <= 1e-15)
        live = (i < end) & (j < end)
        rows, i, j, end = rows[live], i[live], j[live], end[live]
    return 1.0 - agree


def coupling_suite(n_pairs: int = 1000, n_random: int = 100,
                   seed: int = 0) -> tuple[BoundReport, BoundReport]:
    """(a) optimal_coupling disagreement equals TV; (b) no random feasible
    coupling does better. Random couplings come from greedy transport along
    shuffled outcome orders (exact marginals by construction); the search
    runs on the first n_random pairs, n_random couplings each."""
    rng = mc.substream(seed, 102)
    worst_match = math.inf
    worst_opt = math.inf
    for i in range(n_pairs):
        a, b = _random_pmf_pair(rng)
        p1, p2 = FinitePmf(a), FinitePmf(b)
        tv = total_variation(p1, p2)
        disagreement = coupling_disagreement(optimal_coupling(p1, p2))
        worst_match = min(worst_match, -abs(disagreement - tv))
        if i < n_random:
            # rows 2r and 2r+1: coupling r's row and column orders, the draws
            # of 2 n_random successive rng.permutation(k) calls
            perms = rng.permuted(np.tile(np.arange(len(a)), (2 * n_random, 1)), axis=1)
            rand_dis = _northwest_couplings(a, b, perms[0::2], perms[1::2])
            worst_opt = min(worst_opt, float((rand_dis - disagreement).min()))
    match = make_report("coupling_matches_tv", worst_match, 0.0, tolerance=1e-12,
                        trials=n_pairs, seed=seed)
    optimal = make_report("coupling_optimality", worst_opt, 0.0, tolerance=1e-12,
                          trials=n_random * n_random, seed=seed)
    return match, optimal


def _random_correlated_joint(rng: np.random.Generator):
    """Random joint with |X|<=1, E[X]=0 and E[Y^2]<=1 enforced."""
    kx = int(rng.integers(2, MAX_SUPPORT + 1))
    ky = int(rng.integers(2, MAX_SUPPORT + 1))
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


def bounded_correlation_suite(n_joints: int = 1000, seed: int = 0) -> BoundReport:
    """Exact MI >= beta^4/8 over random joints meeting the hypotheses."""
    rng = mc.substream(seed, 103)
    worst = math.inf
    for _ in range(n_joints):
        table, xv, yv = _random_correlated_joint(rng)
        beta = float(xv @ table @ yv)
        mi = mutual_information(JointPmf(table))
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
        mi = mutual_information(JointPmf(table))
        worst = min(worst, mi - subgaussian_mi_lower_bound(beta, c))
    return make_report("subgaussian_mi_suite", worst, 0.0, tolerance=1e-12,
                       trials=n_joints, seed=seed)


def subgaussian_tail_report(inst: HardInstance, m: int,
                            trials: int = 10 ** 6, seed: int = 0) -> BoundReport:
    """Empirical tails of sum_i(sqrt(d) z_i(0) - p(0)) vs 2 exp(-tau^2/c^2)
    at the certified proxy c = 2 sqrt(m), on coordinate 0."""
    p_t = float(inst.p[0])
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
                         seed: int = 0) -> BoundReport:
    """E_{p,t}[(E_S[x_p y_p])^2] <= m * eps within MC error, where eps is the
    measured per-coordinate squared estimation error. Uses two independent
    inner batches of SECOND_MOMENT_INNER samples so the squared inner mean is
    estimated without bias.

    Each outer iteration draws p, then t, then the two batches' uniforms; the
    draws of up to SECOND_MOMENT_BLOCK samples are fit as one block, and each
    batch's means run along its own contiguous row. A randomized learner would
    draw between the uniforms, so it is refused."""
    if not learner.deterministic:
        raise ValueError("second_moment_report needs a deterministic learner")
    root_d = math.sqrt(d)
    rng = mc.substream(seed, 106)
    pair = 2 * SECOND_MOMENT_INNER  # samples per outer iteration
    block = max(1, SECOND_MOMENT_BLOCK // pair)  # outer iterations per fit
    prods = np.empty(outer)
    errs = np.empty(outer)
    for start in range(0, outer, block):
        n = min(block, outer - start)
        p = np.empty((n, d))
        t = np.empty(n, dtype=np.intp)
        u = np.empty((n, pair, m, d))
        for i in range(n):
            p[i] = rng.uniform(-P_MAX, P_MAX, size=d)
            t[i] = rng.integers(d)
            rng.random(out=u[i])
        # one bias per outer iteration, over its 2 * SECOND_MOMENT_INNER * m points
        plus = plus_points(p, u.reshape(n, pair * m, d)).reshape(n * pair, m, d)
        w, sums = _fit_plus(learner, plus, rng)
        rows = np.arange(n)
        p_t = p[rows, t][:, None, None]
        shape = (n, 2, SECOND_MOMENT_INNER)
        phat_err = root_d * w.reshape(n, pair, d)[rows, :, t].reshape(shape) - p_t
        centered = sums.reshape(n, pair, d)[rows, :, t].reshape(shape) - m * p_t
        halves = (attack_prefactor(p_t) * phat_err * centered).mean(axis=2)
        sq_errs = (phat_err ** 2).mean(axis=2)
        prods[start:start + n] = halves[:, 0] * halves[:, 1]
        errs[start:start + n] = (sq_errs[:, 0] + sq_errs[:, 1]) / 2.0
    est, est_se = mc.mean_and_se(prods)
    eps_hat, eps_se = mc.mean_and_se(errs)
    tol = 3.0 * (est_se + m * eps_se)
    return make_report("second_moment", m * eps_hat, est, tolerance=tol,
                       d=d, m=m, trials=outer * SECOND_MOMENT_INNER,
                       ci_halfwidth=tol, seed=seed)


def genbound_chain_report(learner, d: int, m: int, trials: int = 20000,
                          seed: int = 0) -> BoundReport:
    """d * E[Delta_D] equals sum_t E[(phat(t)-p(t))^2] (exact per-trial
    identity, since phat - p = sqrt(d) (w - w*)); checked to float precision."""
    root_d = math.sqrt(d)

    def chunk(rng, size):
        p = rng.uniform(-P_MAX, P_MAX, size=(size, d))
        w = _fit_plus(learner, sample_plus(p, m, rng, size), rng)[0]
        delta = ((w - p / root_d) ** 2).sum(axis=1)
        errs = ((root_d * w - p) ** 2).sum(axis=1)
        return d * delta - errs

    values = mc.chunked_trials(chunk, trials, seed, 107, chunk=1 << 12)
    worst = float(np.abs(values).max())
    return make_report("genbound_chain", 1e-9, worst, d=d, m=m,
                       trials=trials, seed=seed)
