"""Exact information theory over enumerated finite supports.

Everything here operates on explicit probability tables, plain numpy float
arrays: entropy, KL divergence, total variation, mutual information, optimal
couplings, and the Pinsker slack. All information quantities are in nats.
Outcomes carry no labels: a pmf's outcomes are the indices 0..k-1 of its
array, and a joint's entry ``table[i, j]`` is the probability of the outcome
pair (i, j). Nothing here validates its input: callers pass pmfs that are
valid by construction, and the two pmfs of a pair over one alphabet (arrays
of one length).

Entropy, KL divergence and mutual information share one kernel,
``_relative_entropy``: the sum of q log(q / b) over the cells where the first
measure is positive, each caller passing q and b at those cells only. Mutual
information takes the product of its marginals at the table's nonzero cells,
row sums times column sums in row-major order, so it builds no second
table of the joint's size.

Conventions:
  * 0 * log 0 := 0 everywhere.
  * KL divergence with an absolute-continuity violation returns math.inf
    (a distinguished value, not an exception), so property sweeps stay total.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kl_divergence",
    "total_variation",
    "mutual_information",
    "optimal_coupling",
    "coupling_disagreement",
    "pinsker_slack",
    "entropy_of",
    "row_entropies",
    "mi_of_table",
]


def _relative_entropy(q: np.ndarray, b) -> float:
    """sum of q log(q / b) in nats, q a measure's positive values and b the
    reference measure's values at the same cells: the one kernel of entropy
    (b = 1, the negated entropy), KL divergence and mutual information (b
    the product of the marginals). The quotient is the one fresh array; its
    log and the product by q are taken in place."""
    r = q / b
    np.log(r, out=r)
    return float(np.multiply(r, q, out=r).sum())


def entropy_of(probs: np.ndarray) -> float:
    """Entropy in nats of a 1-D probability array; zeros are dropped first."""
    return -_relative_entropy(probs[probs > 0.0], 1.0)


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of a 2-D array of pmfs.

    Zeros stay in the sum as 0 terms, so the pairwise summation differs from
    :func:`entropy_of` in the last bits; the two forms are kept apart.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(rows > 0.0, rows * np.log(rows), 0.0).sum(axis=1)


def mi_of_table(table: np.ndarray) -> float:
    """Mutual information in nats of a 2-D joint table, unclamped. The
    product of the marginals is taken at the support cells only, in
    row-major order, so nothing of the table's size is built."""
    rows, cols = np.nonzero(table)
    return _relative_entropy(table[rows, cols],
                             table.sum(axis=1)[rows] * table.sum(axis=0)[cols])


def kl_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """KL(a || b) in nats.

    Returns math.inf when ``a`` places mass where ``b`` has none.
    """
    support = a > 0.0
    if np.any(b[support] == 0.0):
        return math.inf
    return _relative_entropy(a[support], b[support])


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    """Half the L1 distance; equals the sup over events of the probability gap."""
    return float(0.5 * np.abs(a - b).sum())


def mutual_information(table: np.ndarray) -> float:
    """I(X;Y) in nats via the double sum over the joint table.

    Agrees with the expectation-of-KL form E_Y[KL(P_{X|Y} || P_X)] to 1e-10;
    symmetric in the two axes; bounded by min(H(X), H(Y)).
    """
    return max(0.0, mi_of_table(table))


def optimal_coupling(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (k, k) table of a coupling of (a, b) attaining
    P(X1 != X2) = TV(a, b).

    Diagonal mass min(a, b); the residual is the normalized outer product
    of the positive and negative parts of a - b.
    """
    table = np.zeros((len(a), len(a)))
    np.fill_diagonal(table, np.minimum(a, b))
    diff = a - b
    tv = 0.5 * np.abs(diff).sum()
    if tv > 0.0:
        pos = np.clip(diff, 0.0, None)
        neg = np.clip(-diff, 0.0, None)
        table += np.outer(pos, neg) / tv
    return table


def coupling_disagreement(table: np.ndarray) -> float:
    """P(X1 != X2) under a coupling given as its square joint table."""
    return float(table.sum() - np.trace(table))


def pinsker_slack(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(KL(a||b)/2) - TV(a, b); nonnegative up to 1e-12.

    Infinite divergence yields +inf slack.
    """
    kl = kl_divergence(a, b)
    if math.isinf(kl):
        return math.inf
    return math.sqrt(max(kl, 0.0) / 2.0) - total_variation(a, b)
