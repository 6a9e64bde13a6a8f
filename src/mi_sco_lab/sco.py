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
    signs = sample_signs(inst, m, rng)
    return Sample.from_signs(signs)


def sample_signs(inst: HardInstance, m: int, rng: np.random.Generator,
                 trials: int = 1) -> np.ndarray:
    """Sign tensor of shape (m, d) (trials=1) or (trials, m, d)."""
    q_plus = (1.0 + inst.p) / 2.0
    u = rng.random(size=(trials, m, inst.d))
    signs = np.where(u < q_plus, 1, -1).astype(np.int8)
    return signs[0] if trials == 1 else signs


def project_ball(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    norm = float(np.linalg.norm(w))
    return w / norm if norm > 1.0 else w


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


def empirical_risk(s: Sample, w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape[0] != s.d:
        raise ValueError("dimension mismatch")
    diff = s.points - w
    return float((diff * diff).sum() / s.m)


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
