"""Gaussian and Gaussian-mixture parameter types with exact KL quantities.

Covariances are stored through their lower Cholesky factor, which makes
positive definiteness a construction invariant and log-determinants cheap:
log det(Sigma) = 2 * sum(log diag(L)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Cholesky diagonal floor: keeps log det finite in double precision.  The
# theory assigns KL = +inf to degenerate covariances; construction simply
# refuses to get that close to a Dirac.
MIN_CHOL_DIAG = 1e-154

LOG_2PI = math.log(2.0 * math.pi)
_EXP_FLOOR = -700.0  # exp(-700) ~ 1e-304, inside np.exp's fast range


def _shifted_exp(logs, axis):
    """The maximum of ``logs`` over ``axis`` (kept) and exp(logs - maximum),
    for a max-shifted log-sum-exp over that axis.  The shifted logs are
    floored at _EXP_FLOOR, far below the term exp(0) = 1 of every sum: np.exp
    runs 10 to 100 times slower where its result is near or below underflow."""
    top = logs.max(axis=axis, keepdims=True)
    return top, np.exp(np.maximum(logs - top, _EXP_FLOOR))


@dataclass(frozen=True)
class GaussianParams:
    """N(mean, Sigma) with Sigma = chol @ chol.T, chol lower triangular."""

    mean: np.ndarray
    chol: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        chol = np.atleast_2d(np.asarray(self.chol, dtype=float))
        d = mean.size
        if chol.shape != (d, d):
            raise ValueError(f"cholesky factor must be {d}x{d}, got {chol.shape}")
        chol = np.tril(chol)
        diag = np.diag(chol)
        if np.any(diag < MIN_CHOL_DIAG):
            raise ValueError(
                "cholesky diagonal below 1e-154; covariance too close to singular"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol", chol)

    @classmethod
    def from_covariance(cls, mean, covariance) -> "GaussianParams":
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not symmetric positive definite") from exc
        return cls(mean=np.asarray(mean, dtype=float), chol=chol)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def covariance(self) -> np.ndarray:
        return self.chol @ self.chol.T

    @property
    def log_det_cov(self) -> float:
        return float(2.0 * np.sum(np.log(np.diag(self.chol))))

    def scaled(self, factor: float) -> "GaussianParams":
        """Same mean, covariance multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return GaussianParams(self.mean, math.sqrt(factor) * self.chol)

    def log_density(self, x):
        """Exact log N(x; mean, Sigma) via triangular solves."""
        from .potentials import as_points

        pts, single = as_points(x, self.dim)
        z = solve_triangular(self.chol, (pts - self.mean).T, lower=True)
        logpdf = -0.5 * np.sum(z * z, axis=0) - 0.5 * (
            self.dim * LOG_2PI + self.log_det_cov
        )
        return float(logpdf[0]) if single else logpdf

    def sample(self, count: int, rng) -> np.ndarray:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ self.chol.T

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "chol": self.chol.tolist()}

    @classmethod
    def from_json(cls, doc: dict) -> "GaussianParams":
        return cls(mean=np.asarray(doc["mean"]), chol=np.asarray(doc["chol"]))


def kl_gaussian_gaussian(a: GaussianParams, b: GaussianParams) -> float:
    """Closed-form KL(N_a || N_b).

    0.5 * [ tr(Sb^-1 Sa) + (mb-ma)^T Sb^-1 (mb-ma) - d + log det Sb - log det Sa ]

    Returns exactly 0.0 for identical parameters.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if a is b or (np.array_equal(a.mean, b.mean) and np.array_equal(a.chol, b.chol)):
        return 0.0
    d = a.dim
    m = solve_triangular(b.chol, a.chol, lower=True)
    trace = float(np.sum(m * m))
    y = solve_triangular(b.chol, b.mean - a.mean, lower=True)
    quad = float(y @ y)
    return 0.5 * (trace + quad - d + b.log_det_cov - a.log_det_cov)


def kl_categorical(p, q) -> float:
    """sum_i p_i log(p_i / q_i) with the 0 log 0 = 0 convention.

    A zero q_i against positive p_i yields math.inf (the divergence is
    defined as +infinity there), not an exception.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("weight vectors must be 1-D and of equal length")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("weights must be nonnegative")
    active = p > 0
    if np.any(q[active] == 0):
        return math.inf
    return float(np.sum(p[active] * (np.log(p[active]) - np.log(q[active]))))


@dataclass(frozen=True)
class MixtureParams:
    """Convex combination of Gaussians with weight floor and mean separation.

    ``xi = (xi1, xi2)``: every weight must reach the floor xi1 and every pair
    of component means must be xi2 apart for the mixture to lie in the
    constrained family.  Construction only checks the simplex and shape
    invariants; constraint membership is queried via
    :meth:`satisfies_constraints` so that objectives can assign +inf to
    violating parameters instead of refusing to evaluate them.
    """

    components: tuple
    weights: np.ndarray
    xi: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        d = comps[0].dim
        if any(c.dim != d for c in comps):
            raise ValueError("all components must share one dimension")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(comps),):
            raise ValueError("one weight per component required")
        if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        xi1, xi2 = float(self.xi[0]), float(self.xi[1])
        if not (0.0 < xi1 < 1.0) or xi2 <= 0.0:
            raise ValueError("constraints must satisfy xi1 in (0,1), xi2 > 0")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "xi", (xi1, xi2))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def means(self) -> np.ndarray:
        return np.stack([c.mean for c in self.components])

    def min_separation(self) -> float:
        if self.n == 1:
            return math.inf
        m = self.means
        dists = np.linalg.norm(m[:, None, :] - m[None, :, :], axis=-1)
        return float(np.min(dists[np.triu_indices(self.n, k=1)]))

    def satisfies_constraints(self, slack: float = 1e-12) -> bool:
        """Membership in the constrained family (weights and separation)."""
        xi1, xi2 = self.xi
        if np.any(self.weights < xi1 - slack):
            return False
        return self.n == 1 or self.min_separation() >= xi2 - slack

    def log_density(self, x):
        from .potentials import as_points

        pts, single = as_points(x, self.dim)
        comp_log = np.stack([c.log_density(pts) for c in self.components])
        with np.errstate(divide="ignore"):
            logw = np.log(self.weights)
        top, dens = _shifted_exp(comp_log + logw[:, None], axis=0)
        out = top[0] + np.log(dens.sum(axis=0))
        return float(out[0]) if single else out

    def sample(self, count: int, rng) -> np.ndarray:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        idx = rng.choice(self.n, size=count, p=self.weights)
        out = np.empty((count, self.dim))
        for i, comp in enumerate(self.components):
            sel = idx == i
            k = int(np.sum(sel))
            if k:
                out[sel] = comp.sample(k, rng)
        return out

    def to_json(self) -> dict:
        return {
            "components": [
                dict(c.to_json(), weight=float(w))
                for c, w in zip(self.components, self.weights)
            ],
            "xi": [self.xi[0], self.xi[1]],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MixtureParams":
        comps = [GaussianParams.from_json(c) for c in doc["components"]]
        weights = np.array([c["weight"] for c in doc["components"]], dtype=float)
        return cls(components=tuple(comps), weights=weights, xi=tuple(doc["xi"]))


def sample(dist, count: int, rng_seed) -> np.ndarray:
    """Draw ``count`` points from a Gaussian or mixture; deterministic in seed."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    return dist.sample(count, rng)
