"""Deterministic quadrature machinery shared across the package.

Two rules live here:

* tensor-product Gauss-Hermite for expectations under a Gaussian,
  ``E[f(X)] = sum_k w_k f(m + sqrt(2) L z_k)`` with ``sum w_k = 1``;
* tensor-product composite Simpson on a box, used as the brute-force
  oracle for normalization constants, densities and total-variation
  distances in dimension <= 3.

The Simpson rules run over a stack of boxes that share a dimension and a
resolution: the integrand is a callable ``f(idx, pts)`` that maps the points
(k, N, d) of the boxes ``idx`` to values (k, N), and is called on at most
SIMPSON_CHUNK_POINTS points at a time (one box when a box alone has more).
``integrate_exp`` and ``tv_distance_grid`` are the one-box case.
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

# grid points per integrand evaluation over a stack of boxes; the bound
# caps the temporaries of one evaluation (on bvm-m1, 2^16 points raised the
# peak RSS by 7 % over 2^14 and ran no faster)
SIMPSON_CHUNK_POINTS = 1 << 14


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


def _stack_points(lo, hi, n: int) -> np.ndarray:
    """The points of the n**d grids on the boxes [lo[i], hi[i]], shape
    (k, n**d, d), the last axis varying fastest (meshgrid "ij" order)."""
    axes = np.linspace(lo, hi, n, axis=-1)  # (k, d, n)
    index = np.indices((n,) * lo.shape[1]).reshape(lo.shape[1], -1)
    return np.ascontiguousarray(np.stack([axes[:, i, ix] for i, ix in enumerate(index)], axis=-1))


def _stack_weights(lo, hi, n: int) -> np.ndarray:
    """Simpson weights including the cell volume, shape (k, n**d), aligned
    with _stack_points: outer products of the per-axis weights w1 * h."""
    h = (hi - lo) / (n - 1)
    w1 = simpson_weights(n)
    w = np.ones((len(lo), 1))
    for i in range(lo.shape[1]):
        w = (w[:, :, None] * (w1 * h[:, i, None])[:, None, :]).reshape(len(lo), -1)
    return w


@dataclass(frozen=True)
class Grid:
    """Tensor-product Simpson grid on a box [lo, hi]^d."""

    lo: np.ndarray
    hi: np.ndarray
    points_per_dim: int

    @property
    def dim(self) -> int:
        return self.lo.size

    def points(self) -> np.ndarray:
        """All grid points, shape (points_per_dim**dim, dim)."""
        return _stack_points(self.lo[None], self.hi[None], self.points_per_dim)[0]

    def weights(self) -> np.ndarray:
        """Simpson weights including the cell volume, aligned with points()."""
        return _stack_weights(self.lo[None], self.hi[None], self.points_per_dim)[0]


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


def _tensor_mask(keep1: np.ndarray, dim: int) -> np.ndarray:
    """The grid points, flattened as in Grid.points(), whose every index is
    kept by the per-axis mask ``keep1``."""
    mask = keep1
    for _ in range(dim - 1):
        mask = np.logical_and.outer(mask, keep1)
    return mask.ravel()


def _stacked_boxes(grids):
    """Yield (idx, lo, hi): the boxes of grids[idx], SIMPSON_CHUNK_POINTS
    grid points or one box at a time."""
    if len({(g.dim, g.points_per_dim) for g in grids}) > 1:
        raise ValueError("stacked grids must share dimension and resolution")
    lo = np.stack([g.lo for g in grids])
    hi = np.stack([g.hi for g in grids])
    step = max(1, SIMPSON_CHUNK_POINTS // grids[0].points_per_dim ** grids[0].dim)
    for start in range(0, len(grids), step):
        sl = slice(start, start + step)
        yield np.arange(len(grids))[sl], lo[sl], hi[sl]


def _one_box(fn):
    """fn on (N, d) points as an integrand of a stack of one box."""
    return lambda idx, pts: np.asarray(fn(pts[0]), dtype=float)[None]


def _evaluate(fn, idx, pts):
    # C order: np.dot of a strided row sums in another order than of a
    # contiguous one, so the per-box sums would depend on the layout
    values = np.ascontiguousarray(fn(idx, pts), dtype=float)
    if values.shape != pts.shape[:2]:
        raise ValueError("log integrand must return one value per point")
    return values


def integrate_exp_stack(log_f, grids) -> list:
    """Integrate exp(log_f) over each box of a stack by composite Simpson.

    ``log_f(idx, pts)`` maps the points (k, N, d) of the boxes ``idx`` to
    log-integrand values (k, N); evaluation in log space keeps sharply
    concentrated integrands (the 1/eps regime) numerically sane.  The grids
    share dimension and points_per_dim.  Per box the error estimate is the
    Richardson comparison with the stride-2 coarse grid,
    |I_fine - I_coarse| / 15, and the boundary ratio is the largest
    integrand value on the box faces relative to the peak.

    Returns per grid its GridIntegral, or a ValueError where the integrand
    is finite nowhere on the grid; one box's failure leaves the others.
    """
    n, dim = grids[0].points_per_dim, grids[0].dim
    axis = np.arange(n)
    coarse_points = _tensor_mask(axis % 2 == 0, dim)
    boundary = ~_tensor_mask((axis > 0) & (axis < n - 1), dim)
    out = [None] * len(grids)
    for idx, lo, hi in _stacked_boxes(grids):
        logv = _evaluate(log_f, idx, _stack_points(lo, hi, n))
        # one dot product per box on these weights: a stacked product sums
        # in another order and moves the last digits
        fine_w = _stack_weights(lo, hi, n)
        coarse_w = _stack_weights(lo, hi, (n + 1) // 2)
        shift = np.max(logv, axis=1)
        finite = np.isfinite(shift)
        f = np.exp(logv - np.where(finite, shift, 0.0)[:, None])
        boundary_max = np.max(logv[:, boundary], axis=1)
        for j, i in enumerate(idx):
            if not finite[j]:
                out[i] = ValueError("log integrand is not finite anywhere on the grid")
                continue
            fine = float(np.dot(fine_w[j], f[j]))
            coarse = float(np.dot(coarse_w[j], f[j][coarse_points]))
            # Richardson estimate with a summation-roundoff floor
            err = max(abs(fine - coarse) / 15.0, 8.0 * np.finfo(float).eps * abs(fine))
            scale = np.exp(shift[j])
            out[i] = GridIntegral(
                value=float(scale * fine),
                log_value=float(shift[j] + np.log(fine) if fine > 0 else -np.inf),
                error_estimate=float(scale * err),
                boundary_ratio=float(np.exp(boundary_max[j] - shift[j])),
                grid=grids[i],
            )
    return out


def integrate_exp(log_f, grid: Grid) -> GridIntegral:
    """Integrate exp(log_f(x)) over the grid box by composite Simpson.

    ``log_f`` maps (N, d) points to (N,) log-integrand values; the one-box
    case of integrate_exp_stack, whose ValueError it raises.
    """
    result = integrate_exp_stack(_one_box(log_f), [grid])[0]
    if isinstance(result, Exception):
        raise result
    return result


def tv_distance_stack(log_p, log_q, grids) -> np.ndarray:
    """Total-variation distances (1/2) * int |p - q| on each box of a stack.

    ``log_p(idx, pts)`` and ``log_q(idx, pts)`` give the log densities of
    the boxes ``idx`` at their points, as in integrate_exp_stack.  The
    densities must be normalized and essentially live inside their box;
    mass outside is ignored.
    """
    n = grids[0].points_per_dim
    out = np.empty(len(grids))
    for idx, lo, hi in _stacked_boxes(grids):
        pts = _stack_points(lo, hi, n)
        diff = np.abs(np.exp(_evaluate(log_p, idx, pts)) - np.exp(_evaluate(log_q, idx, pts)))
        w = _stack_weights(lo, hi, n)
        for j, i in enumerate(idx):
            out[i] = 0.5 * np.dot(w[j], diff[j])
    return out


def tv_distance_grid(log_p, log_q, grid: Grid) -> float:
    """Total-variation distance (1/2) * int |p - q| for normalized densities.

    ``log_p`` and ``log_q`` map (N, d) points to log-density values; the
    one-box case of tv_distance_stack.
    """
    return float(tv_distance_stack(_one_box(log_p), _one_box(log_q), [grid])[0])
