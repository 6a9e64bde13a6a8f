"""Exact information theory over enumerated finite supports.

Everything here operates on explicit probability tables: entropy, KL
divergence, total variation, mutual information, optimal couplings, and the
Pinsker slack. All information quantities are in nats. Probabilities are
64-bit floats with structural tolerance 1e-12. Outcomes carry no labels: a
pmf's outcomes are the indices 0..k-1 of its array, and two pmfs share an
alphabet when their arrays have the same length.

Conventions:
  * 0 * log 0 := 0 everywhere.
  * KL divergence with an absolute-continuity violation returns math.inf
    (a distinguished value, not an exception), so property sweeps stay total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STRUCT_TOL = 1e-12

__all__ = [
    "FinitePmf",
    "JointPmf",
    "kl_divergence",
    "total_variation",
    "mutual_information",
    "optimal_coupling",
    "pinsker_slack",
    "entropy_of",
    "row_entropies",
    "mi_of_table",
    "PmfValidationError",
]


class PmfValidationError(ValueError):
    """Raised when a pmf or joint table violates its structural invariants."""


def _as_prob_array(probs) -> np.ndarray:
    """A float copy of ``probs``, checked: finite, no entry below -STRUCT_TOL
    (entries between it and 0, and -0.0, clipped to +0.0) and a sum within
    STRUCT_TOL of 1. One min and one sum decide it; NaN or an infinity leaves
    one of them non-finite, and only then is every entry tested. A min of 0
    may hide a -0.0 elsewhere, so a min <= 0 clips."""
    arr = np.array(probs, dtype=float)
    low = arr.min() if arr.size else 0.0
    total = arr.sum()
    if not (math.isfinite(low) and math.isfinite(total)) and not np.isfinite(arr).all():
        raise PmfValidationError("probabilities must be finite")
    if low <= 0.0:
        if low < -STRUCT_TOL:
            raise PmfValidationError(f"negative probability: min={low}")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
    if abs(total - 1.0) > STRUCT_TOL:
        raise PmfValidationError(f"probabilities sum to {total!r}, not 1")
    return arr


@dataclass(frozen=True)
class FinitePmf:
    """Probability mass function over the outcomes 0..k-1."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = _as_prob_array(self.probs)
        if probs.ndim != 1:
            raise PmfValidationError("a pmf takes a 1-D array")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class JointPmf:
    """Joint pmf of two finite outcomes; entry ``table[i, j]`` is the
    probability of the outcome pair (i, j)."""

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise PmfValidationError("a joint takes a 2-D table")
        table = _as_prob_array(table.reshape(-1)).reshape(table.shape)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def _relative_entropy(a: np.ndarray, b) -> float:
    """sum of a log(a / b) over the support of ``a``, in nats: the one kernel
    of KL divergence, mutual information (b the product of the marginals) and
    entropy (b = 1, the negated entropy). ``b`` broadcasts against ``a``."""
    support = a > 0.0
    q = a[support]
    return float((q * np.log(q / np.broadcast_to(b, a.shape)[support])).sum())


def entropy_of(probs: np.ndarray) -> float:
    """Entropy in nats of a 1-D probability array; zeros are dropped first."""
    return -_relative_entropy(probs, 1.0)


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of a 2-D array of pmfs.

    Zeros stay in the sum as 0 terms, so the pairwise summation differs from
    :func:`entropy_of` in the last bits; the two forms are kept apart.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(rows > 0.0, rows * np.log(rows), 0.0).sum(axis=1)


def mi_of_table(table: np.ndarray) -> float:
    """Mutual information in nats of a 2-D joint table, unclamped."""
    return _relative_entropy(table, np.outer(table.sum(axis=1), table.sum(axis=0)))


def kl_divergence(p1: FinitePmf, p2: FinitePmf) -> float:
    """KL(p1 || p2) in nats over a shared alphabet.

    Returns math.inf when p1 places mass where p2 has none.
    """
    if p1.probs.shape != p2.probs.shape:
        raise PmfValidationError("KL divergence needs a shared alphabet")
    a, b = p1.probs, p2.probs
    if np.any(b[a > 0.0] == 0.0):
        return math.inf
    return _relative_entropy(a, b)


def total_variation(p1: FinitePmf, p2: FinitePmf) -> float:
    """Half the L1 distance; equals the sup over events of the probability gap."""
    if p1.probs.shape != p2.probs.shape:
        raise PmfValidationError("total variation needs a shared alphabet")
    return float(0.5 * np.abs(p1.probs - p2.probs).sum())


def mutual_information(j: JointPmf) -> float:
    """I(X;Y) in nats via the double sum over the joint table.

    Agrees with the expectation-of-KL form E_Y[KL(P_{X|Y} || P_X)] to 1e-10;
    symmetric in the two axes; bounded by min(H(X), H(Y)).
    """
    return max(0.0, mi_of_table(j.table))


def optimal_coupling(p1: FinitePmf, p2: FinitePmf) -> JointPmf:
    """A coupling of (p1, p2) attaining P(X1 != X2) = TV(p1, p2).

    Diagonal mass min(p1, p2); the residual is the normalized outer product
    of the positive and negative parts of p1 - p2.
    """
    if p1.probs.shape != p2.probs.shape:
        raise PmfValidationError("coupling needs a shared alphabet")
    a, b = p1.probs, p2.probs
    n = len(a)
    table = np.zeros((n, n))
    np.fill_diagonal(table, np.minimum(a, b))
    diff = a - b
    tv = 0.5 * np.abs(diff).sum()
    if tv > 0.0:
        pos = np.clip(diff, 0.0, None)
        neg = np.clip(-diff, 0.0, None)
        table += np.outer(pos, neg) / tv
    return JointPmf(table)


def coupling_disagreement(j: JointPmf) -> float:
    """P(X1 != X2) under a coupling represented as a two-variable joint."""
    if j.table.shape[0] != j.table.shape[1]:
        raise PmfValidationError("disagreement needs a square coupling table")
    return float(j.table.sum() - np.trace(j.table))


def pinsker_slack(p1: FinitePmf, p2: FinitePmf) -> float:
    """sqrt(KL(p1||p2)/2) - TV(p1, p2); nonnegative up to 1e-12.

    Infinite divergence yields +inf slack.
    """
    kl = kl_divergence(p1, p2)
    if math.isinf(kl):
        return math.inf
    return math.sqrt(max(kl, 0.0) / 2.0) - total_variation(p1, p2)
