"""Deterministic quadrature machinery shared across the package.

Two rules live here:

* tensor-product Gauss-Hermite for expectations under a Gaussian,
  ``E[f(X)] = sum_k w_k f(m + sqrt(2) L z_k)`` with ``sum w_k = 1``;
* tensor-product composite Simpson on a box, used as the brute-force
  oracle for normalization constants, densities and total-variation
  distances in dimension <= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORACLE_DIM = 3

# the most nodes a tensor Gauss-Hermite rule may have: 1e6 nodes in d = 8
# take 64 MB for the nodes alone, and every evaluation several times that
MAX_GH_NODES = 1_000_000

# default Simpson resolution per dimension; all values are == 1 (mod 4) so
# the stride-2 coarse grid used for the error estimate is again a Simpson grid
DEFAULT_POINTS = {1: 4097, 2: 257, 3: 65}


class OracleDimensionError(ValueError):
    """Raised when a grid oracle is requested above dimension 3."""


class BoxTooSmallError(ValueError):
    """Raised when the integrand has not decayed at the box boundary."""


class NodeBudgetError(ValueError):
    """Raised, before any allocation, for a Gauss-Hermite rule of more than
    MAX_GH_NODES nodes."""


@lru_cache(maxsize=32)
def gauss_hermite(order: int, dim: int):
    """Tensor-product Gauss-Hermite rule in probabilists' normalization.

    Returns nodes ``z`` of shape (order**dim, dim) and weights ``w`` with
    ``sum(w) == 1`` such that for X ~ N(m, L L^T):

        E[f(X)] ~= sum_k w[k] * f(m + sqrt(2) * L @ z[k])

    The rule is exact for polynomials of total degree < 2*order.  A rule of
    more than MAX_GH_NODES nodes raises NodeBudgetError.
    """
    if order < 2:
        raise ValueError(f"Gauss-Hermite order must be >= 2, got {order}")
    if order**dim > MAX_GH_NODES:
        raise NodeBudgetError(
            f"the order-{order} Gauss-Hermite rule in dimension {dim} has "
            f"{order**dim} nodes, over the budget of {MAX_GH_NODES}"
        )
    x, w = np.polynomial.hermite.hermgauss(order)
    w = w / np.sqrt(np.pi)
    if dim == 1:
        return x[:, None].copy(), w.copy()
    grids = np.meshgrid(*((x,) * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*((w,) * dim), indexing="ij")
    weights = np.ones(z.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return z, weights


def gaussian_expectation_nodes(mean, chol, order: int):
    """Evaluation points and weights for E[f] under N(mean, chol chol^T)."""
    mean = np.asarray(mean, dtype=float)
    z, w = gauss_hermite(order, mean.size)
    x = mean + np.sqrt(2.0) * z @ np.asarray(chol, dtype=float).T
    return x, w, z


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights on n equispaced points (n odd), spacing 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd number of points >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@dataclass(frozen=True)
class Grid:
    """Tensor-product Simpson grid on a box [lo, hi]^d."""

    lo: np.ndarray
    hi: np.ndarray
    points_per_dim: int

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def axes(self):
        return [
            np.linspace(self.lo[i], self.hi[i], self.points_per_dim)
            for i in range(self.dim)
        ]

    def points(self) -> np.ndarray:
        """All grid points, shape (points_per_dim**dim, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def weights(self) -> np.ndarray:
        """Simpson weights including the cell volume, aligned with points()."""
        h = (self.hi - self.lo) / (self.points_per_dim - 1)
        w1 = simpson_weights(self.points_per_dim)
        w = np.ones(1)
        for i in range(self.dim):
            w = np.multiply.outer(w, w1 * h[i])
        return w.ravel()


def make_grid(lo, hi, points_per_dim: int | None = None) -> Grid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ValueError("grid box must satisfy lo < hi componentwise")
    d = lo.size
    if d > MAX_ORACLE_DIM:
        raise OracleDimensionError(
            f"grid oracle supports dimension <= {MAX_ORACLE_DIM}, got {d}"
        )
    n = points_per_dim or DEFAULT_POINTS[d]
    if n % 4 != 1:
        # keep the stride-2 subgrid a valid Simpson grid
        n += 4 - ((n - 1) % 4)
    return Grid(lo, hi, n)


@dataclass(frozen=True)
class GridIntegral:
    """Integral of exp(log_f) over a box with a refinement error estimate."""

    value: float
    log_value: float
    error_estimate: float
    boundary_ratio: float
    grid: Grid

    @property
    def rel_error(self) -> float:
        return self.error_estimate / abs(self.value) if self.value else np.inf


def _coarse_mask(n: int, dim: int) -> np.ndarray:
    keep1 = np.zeros(n, dtype=bool)
    keep1[::2] = True
    mask = keep1
    for _ in range(dim - 1):
        mask = np.logical_and.outer(mask, keep1)
    return mask.ravel()


def integrate_exp(log_f, grid: Grid) -> GridIntegral:
    """Integrate exp(log_f(x)) over the grid box by composite Simpson.

    ``log_f`` maps (N, d) points to (N,) log-integrand values; evaluation in
    log space keeps sharply concentrated integrands (the 1/eps regime)
    numerically sane.  The error estimate is the Richardson comparison with
    the stride-2 coarse grid, |I_fine - I_coarse| / 15.
    """
    pts = grid.points()
    logv = np.asarray(log_f(pts), dtype=float)
    if logv.shape != (pts.shape[0],):
        raise ValueError("log integrand must return one value per point")
    shift = np.max(logv)
    if not np.isfinite(shift):
        raise ValueError("log integrand is not finite anywhere on the grid")
    f = np.exp(logv - shift)
    w = grid.weights()
    fine = float(np.dot(w, f))

    coarse_grid = Grid(grid.lo, grid.hi, (grid.points_per_dim + 1) // 2)
    mask = _coarse_mask(grid.points_per_dim, grid.dim)
    coarse = float(np.dot(coarse_grid.weights(), f[mask]))
    # Richardson estimate with a summation-roundoff floor
    err = max(abs(fine - coarse) / 15.0, 8.0 * np.finfo(float).eps * abs(fine))

    # largest integrand value on the boundary faces, relative to the peak
    n = grid.points_per_dim
    shape = (n,) * grid.dim
    logv_nd = logv.reshape(shape)
    boundary_max = -np.inf
    for ax in range(grid.dim):
        face = np.take(logv_nd, [0, n - 1], axis=ax)
        boundary_max = max(boundary_max, float(np.max(face)))
    boundary_ratio = float(np.exp(boundary_max - shift))

    value = float(np.exp(shift) * fine)
    log_value = shift + np.log(fine) if fine > 0 else -np.inf
    return GridIntegral(
        value=value,
        log_value=float(log_value),
        error_estimate=float(np.exp(shift) * err),
        boundary_ratio=boundary_ratio,
        grid=grid,
    )


def tv_distance_grid(log_p, log_q, grid: Grid) -> float:
    """Total-variation distance (1/2) * int |p - q| for normalized densities.

    ``log_p`` and ``log_q`` map (N, d) points to log-density values.  The
    densities must essentially live inside the box; mass outside is ignored.
    """
    pts = grid.points()
    p = np.exp(np.asarray(log_p(pts), dtype=float))
    q = np.exp(np.asarray(log_q(pts), dtype=float))
    return float(0.5 * np.dot(grid.weights(), np.abs(p - q)))
