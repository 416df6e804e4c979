"""Deterministic quadrature machinery shared across the package.

Two rules live here:

* tensor-product Gauss-Hermite for expectations under a Gaussian,
  ``E[f(X)] = sum_k w_k f(m + sqrt(2) L z_k)`` with ``sum w_k = 1``;
* tensor-product composite Simpson on a box, used as the brute-force
  oracle for normalization constants, densities and total-variation
  distances in dimension <= 3.

The Simpson rules run over a stack of boxes [lo[i], hi[i]], given as arrays
lo and hi of shape (k, d), that share a resolution: the integrand is a
callable ``f(idx, pts)`` that maps the points (k, N, d) of the boxes ``idx``
to values (k, N), and is called on at most SIMPSON_CHUNK_POINTS points at a
time (one box when a box alone has more).  ``integrate_exp`` and
``tv_distance_grid`` are the one-box case, on a Grid.  The resolution is
DEFAULT_POINTS unless a caller picks another; the BvM panel's oracle
(measure.oracle_integrals) sizes each box's resolution by its posterior's
width, from the rungs of _simpson_rungs, and integrates the boxes of one
rung as one stack.

Per chunk the kernel works on whole arrays and reproduces the one-box
arithmetic bit for bit: the points are np.linspace's values broadcast into
place, exp is skipped where it can only give 0.0 (numpy's exp is slow
there), the stride-2 coarse values are gathered once as contiguous rows, and
each box keeps its own dot product per rule (_row_dots), taken for the
whole chunk in one np.matmul.
"""

from __future__ import annotations

import math
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

# the floor of the Simpson error estimate, relative to the integral: the
# roundoff of its sum
_ROUNDOFF = 8.0 * np.finfo(float).eps


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


@lru_cache(maxsize=32)
def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights on n equispaced points (n odd), spacing 1.

    The array is cached and read-only."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd number of points >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w = w / 3.0
    w.flags.writeable = False
    return w


def _axis_points(lo, hi, n: int, j) -> np.ndarray:
    """The coordinates j of the axes np.linspace(lo, hi, n) of the boxes
    [lo[i], hi[i]], shape (k, d, len(j)), computed as linspace does:
    lo + j * ((hi - lo) / (n - 1)), with hi at j = n - 1."""
    j = np.asarray(j)
    axes = j * ((hi - lo) / (n - 1))[:, :, None] + lo[:, :, None]
    axes[:, :, j == n - 1] = hi[:, :, None]
    return axes


def _tensor_points(axes) -> np.ndarray:
    """The points of the tensor grids whose axis i has the coordinates
    axes[i] (k, m_i), shape (k, m_0 * ... * m_(d-1), d), the last axis
    varying fastest (meshgrid "ij" order); each axis is broadcast into its
    slot of a (k, m_0, ..., m_(d-1), d) array."""
    k, d = len(axes[0]), len(axes)
    shape = tuple(a.shape[1] for a in axes)
    pts = np.empty((k,) + shape + (d,))
    for i, a in enumerate(axes):
        pts[..., i] = a.reshape((k,) + (1,) * i + (shape[i],) + (1,) * (d - 1 - i))
    return pts.reshape(k, -1, d)


def _stack_points(lo, hi, n: int) -> np.ndarray:
    """The points of the n**d grids on the boxes [lo[i], hi[i]], shape
    (k, n**d, d), on the axes of _axis_points."""
    axes = _axis_points(lo, hi, n, np.arange(n))
    return _tensor_points([axes[:, i] for i in range(lo.shape[1])])


def _stack_faces(lo, hi, n: int) -> np.ndarray:
    """The points on the faces of the grids of _stack_points, the same
    values bit for bit: per axis, the grid with that axis at its first and
    last coordinate, shape (k, 2 d n**(d-1), d), edge points repeated.  In
    d = 1 the faces are lo and hi, and no axis is built: it would be the
    whole grid."""
    d = lo.shape[1]
    ends = _axis_points(lo, hi, n, [0, n - 1])
    axes = _axis_points(lo, hi, n, np.arange(n)) if d > 1 else None
    return np.concatenate(
        [_tensor_points([ends[:, i] if i == a else axes[:, i] for i in range(d)])
         for a in range(d)],
        axis=1,
    )


def _stack_weights(lo, hi, n: int) -> np.ndarray:
    """Simpson weights including the cell volume, shape (k, n**d), aligned
    with _stack_points: outer products of the per-axis weights w1 * h."""
    h = (hi - lo) / (n - 1)
    w1 = simpson_weights(n)
    w = w1 * h[:, :1]
    for i in range(1, lo.shape[1]):
        w = (w[:, :, None] * (w1 * h[:, i, None])[:, None, :]).reshape(len(lo), -1)
    return w


# exp(x) is 0.0 in double precision for x below about -745.13, and numpy's
# exp takes a path there many times slower per element than on ordinary inputs
_EXP_ZERO_BELOW = -746.0


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, with exp evaluated only where x >= -746 or x
    is NaN; every other entry, -inf included, is the 0.0 exp gives there."""
    return np.exp(x, out=np.zeros_like(x), where=~(x < _EXP_ZERO_BELOW))


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


_BAD_BOX = "grid box must be finite with lo < hi componentwise"


def _valid_boxes(lo, hi) -> np.ndarray:
    """Per box [lo[i], hi[i]] of a stack (..., d), whether it is finite with
    lo < hi; the others fail with ValueError(_BAD_BOX)."""
    return np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi), axis=-1)


def make_grid(lo, hi, points_per_dim: int | None = None) -> Grid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or not _valid_boxes(lo, hi):
        raise ValueError(_BAD_BOX)
    return Grid(lo, hi, _grid_resolution(lo.size, points_per_dim))


def _grid_resolution(dim: int, points_per_dim: int | None = None) -> int:
    """Simpson points per dimension of a grid: ``points_per_dim``, default
    DEFAULT_POINTS[dim], raised to 1 (mod 4).  Above MAX_ORACLE_DIM raises
    OracleDimensionError."""
    if dim > MAX_ORACLE_DIM:
        raise OracleDimensionError(
            f"grid oracle supports dimension <= {MAX_ORACLE_DIM}, got {dim}"
        )
    n = points_per_dim or DEFAULT_POINTS[dim]
    if n % 4 != 1:
        # keep the stride-2 subgrid a valid Simpson grid
        n += 4 - ((n - 1) % 4)
    return n


def _simpson_rungs(dim: int) -> tuple:
    """The Simpson resolutions of a box sized by its target's width, in
    ascending order: DEFAULT_POINTS[dim], (n + 1) / 2, ... down to 5.  Each
    is 1 (mod 4), and each one's stride-2 subgrid is the grid of the rung
    below."""
    rungs = [_grid_resolution(dim)]
    while (rungs[-1] + 1) // 2 % 4 == 1:
        rungs.append((rungs[-1] + 1) // 2)
    return tuple(rungs[::-1])


@dataclass(frozen=True)
class GridIntegral:
    """Integral of exp(log_f) over a box with a refinement error estimate.

    ``error_estimate`` is the Richardson difference |I_fine - I_coarse| / 15
    with the stride-2 grid, and ``rel_error`` that relative to |value|.  It
    measures the stride-2 grid's error.  It estimates the fine grid's error
    only while both grids are in Simpson's h^4 regime, and overstates it once
    the fine grid resolves the integrand: for a d = 3 Gaussian at eps 1e-1
    on 65 points over +-9 widths, rel_error reads 2.2e-8 where log Z is off
    by 3.7e-15.

    ``tv`` is the total-variation distance of the normalized exp(log_f -
    log_value) to the density exp(log_q) on the same grid, where
    integrate_exp_stack was given a log_q, else NaN."""

    value: float
    log_value: float
    error_estimate: float
    boundary_ratio: float
    grid: Grid
    tv: float = math.nan

    @property
    def rel_error(self) -> float:
        return self.error_estimate / abs(self.value) if self.value else np.inf


def _stacked_boxes(lo, hi, box_points: int):
    """Yield (idx, lo[idx], hi[idx]) over the boxes of a stack, whose
    integrand is evaluated on box_points points a box, SIMPSON_CHUNK_POINTS
    points or one box at a time."""
    step = max(1, SIMPSON_CHUNK_POINTS // box_points)
    for start in range(0, len(lo), step):
        sl = slice(start, start + step)
        yield np.arange(len(lo))[sl], lo[sl], hi[sl]


def _one_box(fn):
    """fn on (N, d) points as an integrand of a stack of one box."""
    return lambda idx, pts: np.asarray(fn(pts[0]), dtype=float)[None]


def _grid_box(grid):
    """The box of a grid as a stack of one: (lo, hi, points_per_dim)."""
    return grid.lo[None], grid.hi[None], grid.points_per_dim


def _row_dots(a, b) -> np.ndarray:
    """Per row j of the C-contiguous (k, N) arrays a and b, np.dot(a[j],
    b[j]) bit for bit: a stack of (1, N) @ (N, 1) products, each one dot
    product, where a (k, N) @ (N, k) product would sum in another order."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _evaluate(fn, idx, pts):
    # C order: np.dot of a strided row sums in another order than of a
    # contiguous one, so the per-box sums would depend on the layout
    values = np.ascontiguousarray(fn(idx, pts), dtype=float)
    if values.shape != pts.shape[:2]:
        raise ValueError("log integrand must return one value per point")
    return values


def integrate_exp_stack(log_f, lo, hi, points_per_dim: int, log_q=None) -> list:
    """Integrate exp(log_f) over each box [lo[i], hi[i]] of a stack by
    composite Simpson on points_per_dim points per dimension.

    ``log_f(idx, pts)`` maps the points (k, N, d) of the boxes ``idx`` to
    log-integrand values (k, N); evaluation in log space keeps sharply
    concentrated integrands (the 1/eps regime) numerically sane.  The boxes
    are taken as valid (see make_grid).  Per box the error estimate is the
    Richardson comparison with the stride-2 coarse grid,
    |I_fine - I_coarse| / 15: a measure of the stride-2 grid's error, which
    overstates the fine grid's once that resolves the integrand (see
    GridIntegral).  The boundary ratio is the largest integrand value on
    the box faces relative to the peak.

    ``log_q(idx, pts)``, called as log_f, gives per box the log of a
    normalized density q; each box then also gets the TV distance of q to
    p = exp(log_f - log_value) on its grid (GridIntegral.tv, the arithmetic
    of tv_distance_stack), from the log_f values of the chunk at hand.  A
    box whose log_q is NaN gets TV NaN.  Taking TV here, in the pass that
    finds log_value, costs one log_f evaluation per point; a separate TV
    pass would evaluate log_f again at the same points, or keep every
    box's grid values from this one.

    Returns per box its GridIntegral, whose Grid is built here, or a
    ValueError where the integrand is finite nowhere on the grid; one box's
    failure leaves the others.
    """
    n, dim = points_per_dim, lo.shape[1]
    stride2 = (slice(None),) + (slice(None, None, 2),) * dim
    out = [None] * len(lo)
    for idx, box_lo, box_hi in _stacked_boxes(lo, hi, n ** dim):
        pts = _stack_points(box_lo, box_hi, n)
        logv = _evaluate(log_f, idx, pts)
        logq = None if log_q is None else _evaluate(log_q, idx, pts)
        grid_shape = (len(idx),) + (n,) * dim
        # one dot product per box on these weights (_row_dots)
        fine_w = _stack_weights(box_lo, box_hi, n)
        coarse_w = _stack_weights(box_lo, box_hi, (n + 1) // 2)
        shift = np.max(logv, axis=1)
        finite = np.isfinite(shift)
        f = _exp(logv - np.where(finite, shift, 0.0)[:, None])
        # the stride-2 subgrid in C order, so that its rows are contiguous
        f_coarse = np.ascontiguousarray(f.reshape(grid_shape)[stride2]).reshape(len(idx), -1)
        # the largest value on the faces: first and last index of each axis
        faces = logv.reshape(grid_shape)
        boundary_max = np.max(
            [np.max(faces.take([0, -1], axis=a).reshape(len(idx), -1), axis=1)
             for a in range(1, dim + 1)],
            axis=0,
        )
        ok = np.flatnonzero(finite)
        peak = shift[ok]
        fine = _row_dots(fine_w, f)[ok]
        coarse = _row_dots(coarse_w, f_coarse)[ok]
        # Richardson estimate with a summation-roundoff floor
        err = np.maximum(np.abs(fine - coarse) / 15.0, _ROUNDOFF * np.abs(fine))
        scale = np.exp(peak)
        log_values = np.full(len(idx), math.nan)
        with np.errstate(divide="ignore"):  # log(0), where fine is 0, is discarded
            log_values[ok] = np.where(fine > 0, peak + np.log(fine), -np.inf)
        ratio = np.exp(boundary_max[ok] - peak)
        tv = np.full(len(idx), math.nan)
        if logq is not None:
            tv = _tv_rows(fine_w, logv - log_values[:, None], logq)
        for i in idx[~finite]:
            out[i] = ValueError("log integrand is not finite anywhere on the grid")
        for j, value, log_value, error, boundary, tv_j in zip(
            ok.tolist(), (scale * fine).tolist(), log_values[ok].tolist(),
            (scale * err).tolist(), ratio.tolist(), tv[ok].tolist(),
        ):
            grid = Grid(box_lo[j].copy(), box_hi[j].copy(), n)
            out[idx[j]] = GridIntegral(value, log_value, error, boundary, grid, tv_j)
    return out


def _face_max_stack(log_f, lo, hi, points_per_dim: int) -> np.ndarray:
    """Per box of a stack, the largest log_f on the faces of its grid
    (_stack_faces): the value integrate_exp_stack takes for its boundary
    ratio, from the same points, without evaluating the interior.
    ``log_f`` is called as in integrate_exp_stack."""
    n, dim = points_per_dim, lo.shape[1]
    out = np.empty(len(lo))
    for idx, box_lo, box_hi in _stacked_boxes(lo, hi, 2 * dim * n ** (dim - 1)):
        out[idx] = np.max(_evaluate(log_f, idx, _stack_faces(box_lo, box_hi, n)), axis=1)
    return out


def integrate_exp(log_f, grid: Grid) -> GridIntegral:
    """Integrate exp(log_f(x)) over the grid box by composite Simpson.

    ``log_f`` maps (N, d) points to (N,) log-integrand values; the one-box
    case of integrate_exp_stack, whose ValueError it raises.
    """
    result = integrate_exp_stack(_one_box(log_f), *_grid_box(grid))[0]
    if isinstance(result, Exception):
        raise result
    return result


def _tv_rows(w, log_p, log_q) -> np.ndarray:
    """(1/2) int |p - q| on each grid of a chunk: per row, its Simpson
    weights w, with the cell volume, and the log densities at its points."""
    return 0.5 * _row_dots(w, np.abs(_exp(log_p) - _exp(log_q)))


def tv_distance_stack(log_p, log_q, lo, hi, points_per_dim: int) -> np.ndarray:
    """Total-variation distances (1/2) * int |p - q| on each box of a stack.

    ``log_p(idx, pts)`` and ``log_q(idx, pts)`` give the log densities of
    the boxes ``idx`` at their points, as in integrate_exp_stack.  The
    densities must be normalized and essentially live inside their box;
    mass outside is ignored.
    """
    n = points_per_dim
    out = np.empty(len(lo))
    for idx, box_lo, box_hi in _stacked_boxes(lo, hi, n ** lo.shape[1]):
        pts = _stack_points(box_lo, box_hi, n)
        out[idx] = _tv_rows(_stack_weights(box_lo, box_hi, n),
                            _evaluate(log_p, idx, pts), _evaluate(log_q, idx, pts))
    return out


def tv_distance_grid(log_p, log_q, grid: Grid) -> float:
    """Total-variation distance (1/2) * int |p - q| for normalized densities.

    ``log_p`` and ``log_q`` map (N, d) points to log-density values; the
    one-box case of tv_distance_stack.
    """
    return float(tv_distance_stack(_one_box(log_p), _one_box(log_q), *_grid_box(grid))[0])
