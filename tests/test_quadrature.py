"""The stacked Simpson kernel against its arithmetic written out box by box."""

import numpy as np
import pytest

from klgauss import quadrature
from klgauss.quadrature import integrate_exp_stack, make_grid, simpson_weights, tv_distance_stack


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_points(lo, hi, n):
    """One box's grid from np.linspace axes and np.meshgrid(indexing="ij")."""
    axes = [np.linspace(lo[i], hi[i], n) for i in range(len(lo))]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def reference_weights(lo, hi, n):
    """Outer products of the per-axis weights w1 * h, the first axis outermost."""
    w1 = np.ones(n)
    w1[1:-1:2] = 4.0
    w1[2:-1:2] = 2.0
    w1 = w1 / 3.0
    w = np.ones(1)
    for h in (hi - lo) / (n - 1):
        w = np.outer(w, w1 * h).ravel()
    return w


def reference_mask(keep1, dim):
    mask = keep1
    for _ in range(dim - 1):
        mask = np.logical_and.outer(mask, keep1)
    return mask.ravel()


def reference_integral(log_f, grid):
    """integrate_exp on one box: np.exp, the coarse and boundary points
    gathered by boolean masks, one np.dot per rule."""
    n, d = grid.points_per_dim, grid.dim
    logv = log_f(reference_points(grid.lo, grid.hi, n))
    shift = np.max(logv)
    if not np.isfinite(shift):
        return None
    f = np.exp(logv - shift)
    axis = np.arange(n)
    fine = float(np.dot(reference_weights(grid.lo, grid.hi, n), f))
    coarse_f = f[reference_mask(axis % 2 == 0, d)]
    coarse = float(np.dot(reference_weights(grid.lo, grid.hi, (n + 1) // 2), coarse_f))
    err = max(abs(fine - coarse) / 15.0, 8.0 * np.finfo(float).eps * abs(fine))
    boundary_max = np.max(logv[~reference_mask((axis > 0) & (axis < n - 1), d)])
    return (
        float(np.exp(shift) * fine),
        float(shift + np.log(fine)) if fine > 0 else -np.inf,
        float(np.exp(shift) * err),
        float(np.exp(boundary_max - shift)),
    )


def stack(fn):
    """A per-point log density fn(pts, i) of box i as an integrand of a stack."""
    return lambda idx, pts: np.stack([fn(p, i) for p, i in zip(pts, idx)])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stack_points_is_linspace_meshgrid(d):
    rng = np.random.default_rng(d)
    for k in range(1, 8):
        lo = rng.uniform(-5.0, 1.0, (k, d))
        hi = lo + rng.uniform(1e-3, 7.0, (k, d))
        n = int(rng.choice([5, 9, 17, 33]))
        pts = quadrature._stack_points(lo, hi, n)
        assert pts.flags.c_contiguous
        ref = np.stack([reference_points(lo[j], hi[j], n) for j in range(k)])
        assert same_bits(pts, ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_face_points_are_the_grid_faces(d):
    # the face points are those of the full grid with some index first or
    # last, bit for bit, and the face maximum is the one the kernel's
    # boundary ratio takes
    rng = np.random.default_rng(d)
    k = 3
    lo = rng.uniform(-5.0, 1.0, (k, d))
    hi = lo + rng.uniform(1e-3, 7.0, (k, d))
    n = quadrature.DEFAULT_POINTS[d]
    on_face = np.zeros((n,) * d, dtype=bool)
    for a in range(d):
        on_face[(slice(None),) * a + ([0, -1],)] = True
    grid = quadrature._stack_points(lo, hi, n)
    faces = quadrature._stack_faces(lo, hi, n)
    assert faces.shape == (k, 2 * d * n ** (d - 1), d)
    for j in range(k):
        want = grid[j][on_face.ravel()]
        assert same_bits(np.unique(faces[j], axis=0), np.unique(want, axis=0))

    scale = rng.uniform(0.5, 2.0, d)
    peak_at = lo + rng.uniform(0.2, 0.8, (k, d)) * (hi - lo)

    def log_f(idx, pts):
        return -sum(scale[a] * (pts[..., a] - peak_at[idx, a][:, None]) ** 2 for a in range(d))

    face_max = quadrature._face_max_stack(log_f, lo, hi, n)
    values = log_f(np.arange(k), grid)
    assert same_bits(face_max, np.max(values[:, on_face.ravel()], axis=1))
    for j, result in enumerate(integrate_exp_stack(log_f, lo, hi, n)):
        assert result.boundary_ratio == float(np.exp(face_max[j] - np.max(values[j])))


def test_exp_is_numpy_exp_bit_for_bit():
    special = [-np.inf, np.inf, np.nan, -746.0, -745.14, -745.13, -745.0, -708.0, -707.9,
               0.0, -0.0, 1.0, 709.7, 710.0, -1e300]
    subnormal = np.linspace(-745.0, -708.0, 1001)
    ordinary = np.random.default_rng(0).uniform(-50.0, 5.0, 1005)
    below = np.linspace(-5000.0, -746.0, 37)
    mix = np.concatenate([special, subnormal, ordinary, below])
    np.random.default_rng(1).shuffle(mix)
    assert len(mix) % 8 != 0
    with np.errstate(over="ignore"):
        for x in (np.array(special), subnormal, mix, mix[:-3].reshape(3, -1), mix[1:]):
            assert same_bits(quadrature._exp(x), np.exp(x))


def test_simpson_weights_cached_read_only():
    w = simpson_weights(9)
    assert w is simpson_weights(9)
    assert not w.flags.writeable
    assert same_bits(w, np.array([1, 4, 2, 4, 2, 4, 2, 4, 1]) / 3.0)


@pytest.mark.parametrize("d,n", [(1, None), (1, 33), (2, None), (2, 17), (3, None), (3, 9)])
def test_stacked_kernel_matches_reference(d, n):
    # 7 boxes: several chunks at every resolution (3 boxes of 4,097 points,
    # one box of 257^2 or 65^3 points, all boxes of the coarse grids);
    # narrow Gaussians put most of a box below exp's underflow, box 2 has
    # -inf entries and box 4 is -inf everywhere.  integrate_exp_stack's TV
    # is checked with a NaN in box 5's log_q, which makes that TV NaN
    rng = np.random.default_rng(10 + d)
    k = 7
    lo = rng.uniform(-3.0, -0.5, (k, d))
    hi = rng.uniform(0.5, 3.0, (k, d))
    centers = rng.uniform(-0.3, 0.3, (k, d))
    widths = 10.0 ** rng.uniform(-3.0, 0.0, k)
    grids = [make_grid(lo[i], hi[i], n) for i in range(k)]

    def log_p(pts, i):
        v = np.sin(3.0 * pts[:, 0])
        for a in range(d):
            v = v - (pts[:, a] - centers[i, a]) ** 2 / (2.0 * widths[i])
        if i == 2:
            v[pts[:, 0] < centers[i, 0]] = -np.inf
        if i == 4:
            v[:] = -np.inf
        return v

    def log_q(pts, i):
        v = np.zeros(len(pts))
        for a in range(d):
            v = v - (pts[:, a] - 1.1 * centers[i, a]) ** 2 / (2.2 * widths[i])
        return v

    def log_q_nan(pts, i):
        v = log_q(pts, i)
        if i == 5:
            v[len(v) // 2] = np.nan
        return v

    n = grids[0].points_per_dim
    results = integrate_exp_stack(stack(log_p), lo, hi, n, log_q=stack(log_q_nan))
    tv = tv_distance_stack(stack(log_p), stack(log_q), lo, hi, n)
    for i, (grid, result) in enumerate(zip(grids, results)):
        ref = reference_integral(lambda pts: log_p(pts, i), grid)
        pts = reference_points(grid.lo, grid.hi, grid.points_per_dim)
        w = reference_weights(grid.lo, grid.hi, grid.points_per_dim)
        if ref is None:
            assert isinstance(result, ValueError)
        else:
            got = (result.value, result.log_value, result.error_estimate, result.boundary_ratio)
            assert same_bits(got, ref)
            assert same_bits(result.grid.lo, grid.lo) and same_bits(result.grid.hi, grid.hi)
            assert result.grid.points_per_dim == n
            # the TV of the normalized integrand, taken in the same pass
            diff = np.abs(np.exp(log_p(pts, i) - ref[1]) - np.exp(log_q_nan(pts, i)))
            assert isinstance(result.tv, float)
            if i == 5:
                assert np.isnan(result.tv)
            else:
                assert same_bits(result.tv, float(0.5 * np.dot(w, diff)))
        diff = np.abs(np.exp(log_p(pts, i)) - np.exp(log_q(pts, i)))
        assert same_bits(tv[i], 0.5 * np.dot(w, diff))


@pytest.mark.parametrize("lo, hi", [
    ([0.0], [np.inf]), ([-np.inf], [1.0]), ([np.nan], [1.0]), ([0.0, 0.0], [1.0, np.nan]),
])
def test_make_grid_rejects_a_box_that_is_not_finite(lo, hi):
    with pytest.raises(ValueError, match=quadrature._BAD_BOX):
        make_grid(lo, hi)
    assert not quadrature._valid_boxes(np.array([lo]), np.array([hi]))[0]
