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


def signs_of_plus(plus: np.ndarray) -> np.ndarray:
    """int8 signs, +1 where ``plus`` holds and -1 elsewhere."""
    return np.where(plus, 1, -1).astype(np.int8)


def counts_of_plus(plus: np.ndarray) -> np.ndarray:
    """(trials, d) plus-counts of (trials, m, d) plus booleans. Adds up one
    point at a time, which runs faster than a sum along the middle axis."""
    counts = np.zeros((plus.shape[0], plus.shape[2]), dtype=np.int64)
    for point in range(plus.shape[1]):
        counts += plus[:, point]
    return counts
