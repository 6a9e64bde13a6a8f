"""The hard stochastic-convex-optimization instance family.

A bias vector p in [-1/3, 1/3]^d defines a product distribution over sign
vectors scaled to the unit sphere: each coordinate of a data point z equals
+1/sqrt(d) with probability (1+p(t))/2 and -1/sqrt(d) otherwise, so
E[z] = p/sqrt(d). The loss is the squared distance f(w, z) = ||w - z||^2 over
the unit ball, which gives closed forms for every risk quantity:

    L_D(w)      = ||w - w*||^2 + 1 - ||w*||^2,   w* = p/sqrt(d)
    Delta_D(w)  = ||w - w*||^2
    Delta_S(w)  = ||w - zbar||^2                  (zbar always in the ball)

On the feasible domain the loss ranges over [0, 4] and is 4-Lipschitz; the
explicit range LOSS_RANGE = 4 is carried through every bound evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOSS_RANGE = 4.0
P_MAX = 1.0 / 3.0
DRAW_BLOCK_FLOATS = 1 << 16  # uniforms per draw of sample_counts (512 KB)


@dataclass(frozen=True)
class HardInstance:
    """Dimension d and bias vector p with ||p||_inf <= 1/3."""

    d: int
    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.shape[0] != self.d:
            raise ValueError("p must have length d")
        if not np.all(np.abs(p) <= P_MAX + 1e-12):  # NaN fails too
            raise ValueError("every bias must lie in [-1/3, 1/3]")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def w_star(self) -> np.ndarray:
        """Population minimizer p/sqrt(d); norm <= 1/3, strictly inside the ball."""
        return self.p / np.sqrt(self.d)

    @classmethod
    def zero(cls, d: int) -> "HardInstance":
        return cls(d, np.zeros(d))

    @classmethod
    def uniform_bias(cls, d: int, rng: np.random.Generator) -> "HardInstance":
        return cls(d, rng.uniform(-P_MAX, P_MAX, size=d))


def plus_points(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(trials, m, d) booleans of the (trials, m, d) uniforms ``u`` under the
    bias ``p``, one (d,) bias for every trial or one (trials, d) bias per
    trial: a point's coordinate t is plus where its uniform falls below
    (1 + p(t)) / 2."""
    q_plus = (1.0 + p) / 2.0
    return u < q_plus[..., None, :]


def sample_plus(p: np.ndarray, m: int, rng: np.random.Generator,
                trials: int) -> np.ndarray:
    """(trials, m, d) plus booleans of ``trials`` samples of m points under
    the bias ``p``: ``plus_points`` of (trials, m, d) ``rng.random`` uniforms."""
    return plus_points(p, rng.random(size=(trials, m, np.shape(p)[-1])))


def sample_counts(p: np.ndarray, m: int, rng: np.random.Generator,
                  trials: int) -> np.ndarray:
    """(trials, d) plus-counts of ``trials`` samples of m points under the
    bias ``p``, shared (d,) or per-trial (trials, d): exactly
    ``counts_of_plus(sample_plus(p, m, rng, trials))``, and the generator is
    left in the same state.

    The uniforms are those ``sample_plus`` draws, in the same C order:
    ``rng.random(out=...)`` fills one reused buffer with as many whole
    trials as DRAW_BLOCK_FLOATS uniforms hold, or with one trial where its
    m d uniforms are more (``harness.load_config`` keeps m d below the
    constant). Each block is compared in place into one reused boolean
    buffer and counted, so no (trials, m, d) array is built. A shared bias
    is compared against one reused block of thresholds, one per uniform,
    which numpy runs as one flat loop instead of a loop of d per point."""
    p = np.asarray(p)
    d = p.shape[-1]
    q_plus = (1.0 + p) / 2.0
    rows = max(1, DRAW_BLOCK_FLOATS // (m * d))  # trials per draw
    u = np.empty((min(rows, trials), m, d))
    plus = np.empty(u.shape, dtype=bool)
    counts = np.empty((trials, d), dtype=_count_dtype(m))
    shared = q_plus.ndim == 1
    if shared:
        q_plus = np.broadcast_to(q_plus, u.shape).copy()
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        q = q_plus[:n] if shared else q_plus[start:start + n, None, :]
        block = rng.random(out=u[:n])
        counts[start:start + n] = counts_of_plus(np.less(block, q, out=plus[:n]))
    return counts


def _count_dtype(m: int):
    """The dtype of plus-counts out of m points: uint8 while every count
    fits (m <= 255), int64 beyond. One byte per count is added up, held and
    read as an index faster than eight."""
    return np.uint8 if m <= 255 else np.int64


def counts_of_plus(plus: np.ndarray) -> np.ndarray:
    """(trials, d) plus-counts of (trials, m, d) plus booleans, of
    ``_count_dtype(m)``: ``einsum`` sums each trial's points over the
    booleans' bytes, faster than adding one point at a time or a ``sum``
    along the middle axis."""
    return np.einsum("imt->it", plus.view(np.uint8), dtype=_count_dtype(plus.shape[1]))
