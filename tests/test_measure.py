import math
from dataclasses import replace

import numpy as np
import pytest

import klgauss as kg
from klgauss import potentials as P
from klgauss.measure import (
    DegenerateModeError,
    GridSpec,
    ModeSet,
    MultistartConfig,
    load_problem,
    oracle_integrals,
)
from klgauss import measure, quadrature
from klgauss.gaussian import LOG_2PI
from klgauss.quadrature import BoxTooSmallError, OracleDimensionError, integrate_exp_stack


# --- unnormalized_log_density ------------------------------------------------


def test_log_density_quadratic_at_zero(quadratic_family):
    mu = quadratic_family.at(1.0)
    assert kg.unnormalized_log_density(mu, np.array([0.0])) == 0.0


def test_log_density_quadratic_at_two(quadratic_family):
    mu = quadratic_family.at(1.0)
    assert kg.unnormalized_log_density(mu, np.array([2.0])) == pytest.approx(-2.0)


def test_log_density_double_well_root(double_well_family):
    mu = double_well_family.at(0.1)
    assert kg.unnormalized_log_density(mu, np.array([1.0])) == pytest.approx(0.0)


# --- find_modes ---------------------------------------------------------------


def test_find_modes_quadratic(quadratic_family):
    ms = kg.find_modes(quadratic_family.v1_limit, quadratic_family.v2)
    assert ms.n == 1
    assert abs(ms.modes[0, 0]) <= 1e-6
    assert ms.hessians[0, 0, 0] == pytest.approx(1.0, abs=1e-8)
    assert ms.weights[0] == 1.0


def test_find_modes_double_well(double_well_modes):
    ms = double_well_modes
    # V1'' = 12 x^2 - 4 evaluates to 8 at the two roots; symmetry forces 1/2.
    # Newton's last step lands on the roots exactly, so all three are exact
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.hessians.ravel().tolist() == [8.0, 8.0]
    assert ms.weights.tolist() == [0.5, 0.5]


def test_find_modes_shifted_double_well(shifted_modes):
    # beta formula: beta(-1) = 8^(-1/2) e^{+1}, beta(+1) = 8^(-1/2) e^{-1}
    ms = shifted_modes
    expected = np.array([math.e, 1.0 / math.e])
    expected = expected / expected.sum()  # = (e^2/(1+e^2), 1/(1+e^2))
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.hessians.ravel().tolist() == [8.0, 8.0]
    order = np.argsort(ms.modes.ravel())
    assert np.allclose(ms.weights[order], expected, atol=1e-9)
    assert expected[0] == pytest.approx(math.exp(2) / (1 + math.exp(2)))


def test_find_modes_quadratic_3d_exact():
    family = kg.builtin_problem("quadratic", dim=3)
    ms = kg.find_modes(family.v1_limit, family.v2)
    assert ms.modes.tolist() == [[0.0, 0.0, 0.0]]
    assert np.array_equal(ms.hessians[0], np.eye(3))


def test_find_modes_drops_starts_outside_the_domain():
    # the double well walled off (value inf) beyond x = 2.5: the starts
    # there fail alone, and the others still find both wells exactly
    well = P.double_well()
    walled = P.Potential(
        dim=1,
        value_fn=lambda x: np.where(x[:, 0] > 2.5, np.inf, well.value_fn(x)),
        grad_fn=well.grad_fn,
        hess_fn=well.hess_fn,
        name="walled-double-well",
        v1_family=True,
    )
    cfg = MultistartConfig()
    starts = np.random.default_rng(cfg.seed).uniform(*cfg.box, cfg.count)
    assert np.any(starts > 2.5)
    ms = kg.find_modes(walled, config=cfg)
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.weights.tolist() == [0.5, 0.5]


def test_damped_newton_quadratic_exact():
    # f(x) = 3 (x - 0.3)^2 / 2 from four starts: one Newton step lands within
    # rounding of 0.3, and the last (unevaluated) step lands on it
    def evaluate(idx, x):
        return 1.5 * (x[:, 0] - 0.3) ** 2, 3.0 * (x - 0.3), np.full((len(x), 1, 1), 3.0)

    x, hess, steps, errors = measure._damped_newton(
        evaluate, np.array([[-3.0], [0.0], [2.0], [7.5]])
    )
    assert errors == [None] * 4
    assert x.ravel().tolist() == [0.3] * 4
    assert hess.ravel().tolist() == [3.0] * 4


def test_find_modes_degenerate_quartic():
    # V = x^4 has a flat (non-SPD) Hessian at its minimizer
    quartic = P.Potential(
        dim=1,
        value_fn=lambda x: x[:, 0] ** 4,
        grad_fn=lambda x: (4 * x[:, 0] ** 3)[:, None],
        hess_fn=lambda x: (12 * x[:, 0] ** 2)[:, None, None],
        name="quartic",
        v1_family=True,
    )
    with pytest.raises(DegenerateModeError):
        kg.find_modes(quartic)


def test_find_modes_unbounded_potential_errors():
    # a pure tilt has no minimizer anywhere
    tilt = P.linear(dim=1, slope=[1.0])
    with pytest.raises(kg.measure.ModeSearchError):
        kg.find_modes(tilt, config=MultistartConfig(count=8))


def product_of_distances(points):
    """V(x) = prod_i |x - m_i|^2: zero exactly at the points m_i, with the
    Hessian 2 prod_(j != i) |m_i - m_j|^2 I there."""
    points = np.asarray(points, dtype=float)

    def parts(x):
        r = x[:, None, :] - points[None]  # (N, m, d)
        q = np.sum(r * r, axis=2)  # (N, m)
        others = np.stack([np.prod(np.delete(q, i, axis=1), axis=1) for i in range(len(points))], 1)
        return r, q, others

    def value(x):
        return np.prod(parts(x)[1], axis=1)

    def grad(x):
        r, _, others = parts(x)
        return np.einsum("nm,nmd->nd", others, 2.0 * r)

    def hess(x):
        r, q, others = parts(x)
        eye = np.eye(x.shape[1])
        h = np.einsum("nm,de->nde", others, 2.0 * eye)
        for i in range(len(points)):
            for j in range(len(points)):
                if i != j:
                    rest = np.prod(np.delete(q, [i, j], axis=1), axis=1)
                    h = h + 4.0 * rest[:, None, None] * r[:, i, :, None] * r[:, j, None, :]
        return h

    return P.Potential(dim=points.shape[1], value_fn=value, grad_fn=grad, hess_fn=hess,
                       name="product-of-distances", v1_family=True)


def test_find_modes_order_ignores_last_bits():
    # the four corners (+-1, +-1); two modes tie in their first coordinate,
    # perturbed by a few ulps either way: the order stays the same
    ulp = np.spacing(1.0)
    orders = []
    for a, b in [(0, 0), (-8, 8), (8, -8), (3, -5)]:
        corners = [[-1.0 + a * ulp, 1.0], [-1.0 + b * ulp, -1.0], [1.0, -1.0], [1.0, 1.0]]
        modes = kg.find_modes(product_of_distances(corners)).modes
        assert len(modes) == 4
        assert np.allclose(sorted(map(tuple, modes)), sorted(map(tuple, corners)), atol=1e-12)
        orders.append(np.round(modes).tolist())
    assert orders == [[[-1, -1], [-1, 1], [1, -1], [1, 1]]] * 4


def test_beta_permutation_equivariance(double_well_modes):
    flipped = double_well_modes.permuted([1, 0])
    assert np.allclose(flipped.weights, double_well_modes.weights[[1, 0]])
    assert np.allclose(sorted(flipped.weights), sorted(double_well_modes.weights))


def test_modes_deterministic_given_seed(double_well_family):
    cfg = MultistartConfig(seed=3)
    a = kg.find_modes(double_well_family.v1_limit, config=cfg)
    b = kg.find_modes(double_well_family.v1_limit, config=cfg)
    assert np.array_equal(a.modes, b.modes)


# --- laplace_normalization -----------------------------------------------------


def test_laplace_single_gaussian_mode():
    ms = ModeSet(
        modes=np.array([[0.0]]),
        hessians=np.array([[[1.0]]]),
        v2_values=np.array([0.0]),
    )
    # exactly the Gaussian integral sqrt(2 pi eps)
    assert kg.laplace_normalization(ms, 0.01) == pytest.approx(
        math.sqrt(2 * math.pi * 0.01)
    )
    assert kg.laplace_normalization(ms, 0.01) == pytest.approx(0.250663, abs=1e-6)


def test_laplace_double_well(double_well_modes):
    val = kg.laplace_normalization(double_well_modes, 0.001)
    expected = math.sqrt(2 * math.pi * 0.001) * 2.0 / math.sqrt(8.0)
    assert val == pytest.approx(expected, rel=1e-12)


def test_laplace_standard_normal_2d():
    ms = ModeSet(
        modes=np.zeros((1, 2)),
        hessians=np.eye(2)[None, :, :],
        v2_values=np.zeros(1),
    )
    assert kg.laplace_normalization(ms, 1.0) == pytest.approx(2 * math.pi)


# --- quadrature_normalization ---------------------------------------------------


def test_quadrature_matches_exact_gaussian(quadratic_family):
    mu = quadratic_family.at(0.01)
    res = kg.quadrature_normalization(mu)
    exact = math.sqrt(2 * math.pi * 0.01)
    assert res.value == pytest.approx(exact, rel=1e-3)
    assert res.value == pytest.approx(0.250663, rel=1e-3)


def test_quadrature_refinement_within_error(double_well_family, double_well_modes):
    mu = double_well_family.at(0.01)
    coarse = kg.quadrature_normalization(
        mu, GridSpec(points_per_dim=1025), mode_set=double_well_modes
    )
    fine = kg.quadrature_normalization(
        mu, GridSpec(points_per_dim=2049), mode_set=double_well_modes
    )
    assert abs(fine.value - coarse.value) <= coarse.error_estimate


def test_quadrature_constant_integrand_box_volume():
    mu = kg.TargetMeasure(v1=P.zero(1), v2=P.zero(1), epsilon=1.0)
    res = kg.quadrature_normalization(
        mu, GridSpec(box=([-1.0], [3.0]), tail_tol=1.0)
    )
    assert res.value == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_log_z_is_exact_on_quadratics(d):
    # the first box is the 6-sigma ball about the mode at every eps, so the
    # fixed DEFAULT_POINTS grid resolves the Gaussian; a radius floor of 2
    # left it many widths wide and off by up to 10 in d = 3
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for scale in (1.0, 3.7):
            for c in (0.0, 0.3):
                mu = kg.TargetMeasure(v1=P.quadratic(dim=d, scale=scale, center=[c] * d),
                                      v2=P.zero(d), epsilon=eps)
                exact = 0.5 * d * math.log(2.0 * math.pi * eps / scale)
                assert abs(kg.quadrature_normalization(mu).log_value - exact) <= 1e-12


@pytest.mark.parametrize("box", [([-math.inf], [1.0]), ([math.nan], [1.0]), ([0.0], [math.inf])])
def test_quadrature_rejects_a_box_that_is_not_finite(box):
    mu = kg.TargetMeasure(v1=P.quadratic(dim=1), v2=P.zero(1), epsilon=0.1)
    with pytest.raises(ValueError, match=quadrature._BAD_BOX) as exc:
        kg.quadrature_normalization(mu, GridSpec(box=box))
    assert type(exc.value) is ValueError


def test_quadrature_rejects_high_dimension():
    mu = kg.TargetMeasure(v1=P.quadratic(dim=4), v2=P.zero(4), epsilon=1.0)
    with pytest.raises(OracleDimensionError):
        kg.quadrature_normalization(mu)


def test_quadrature_explicit_small_box_fails(double_well_family):
    mu = double_well_family.at(0.1)
    with pytest.raises(BoxTooSmallError):
        kg.quadrature_normalization(mu, GridSpec(box=([-1.2], [1.2])))


def test_laplace_vs_oracle_monotone(double_well_family, double_well_modes):
    # Laplace accuracy improves monotonically along the eps ladder and is
    # within 5% at eps = 1e-3
    rel_gaps = []
    for eps in (0.1, 0.03, 0.01, 0.003, 0.001):
        mu = double_well_family.at(eps)
        z_quad = kg.quadrature_normalization(mu, mode_set=double_well_modes).value
        z_lap = kg.laplace_normalization(double_well_modes, eps)
        rel_gaps.append(abs(z_lap - z_quad) / z_quad)
    assert all(b < a for a, b in zip(rel_gaps, rel_gaps[1:]))
    assert rel_gaps[-1] <= 0.05


def test_concentration_boxes_match_per_set_loop():
    # the stacked boxes against the loop over sets and centers: one eigvalsh
    # and math.sqrt per center, bit for bit, with no floor; set 1 has a
    # centre whose smallest eigenvalue is 0 (radius inf) and set 2 one where
    # it is < 0 (radius nan), so their boxes fail make_grid's check
    rng = np.random.default_rng(5)
    k, m, d, eps = 6, 3, 2, 1e-3
    centers = rng.normal(size=(k, m, d))
    a = rng.normal(size=(k, m, d, d))
    hessians = a @ np.swapaxes(a, -1, -2) + 1e-3 * rng.random((k, m, d, d))
    hessians[1, 0] = [[1.0, 0.0], [0.0, 0.0]]
    hessians[2, 2] = [[1.0, 0.0], [0.0, -2.0]]
    lo, hi = measure._first_boxes(GridSpec(), eps, k, centers, hessians)
    for j in range(k):
        if j in (1, 2):
            continue
        ref_lo, ref_hi = np.full(d, np.inf), np.full(d, -np.inf)
        for c, H in zip(centers[j], hessians[j]):
            radius = 6.0 * math.sqrt(eps / float(np.min(np.linalg.eigvalsh(0.5 * (H + H.T)))))
            ref_lo, ref_hi = np.minimum(ref_lo, c - radius), np.maximum(ref_hi, c + radius)
        assert np.array_equal(lo[j], ref_lo) and np.array_equal(hi[j], ref_hi)
    assert np.array_equal(quadrature._valid_boxes(lo, hi), [j not in (1, 2) for j in range(k)])
    # an explicit box is every set's box
    lo, hi = measure._first_boxes(GridSpec(box=([-1.0, 0.0], [2.0, 3.0])), eps, k, centers, hessians)
    assert np.array_equal(lo, np.tile([-1.0, 0.0], (k, 1)))
    assert np.array_equal(hi, np.tile([2.0, 3.0], (k, 1)))


# --- stacked Simpson boxes --------------------------------------------------------


def gaussian_stack(centers, eps):
    """log_f(idx, pts) = -|x - c_i|^2 / (2 eps) for the centers c_i."""
    centers = np.asarray(centers, dtype=float)

    def log_f(idx, pts):
        return -np.sum((pts - centers[idx][:, None, :]) ** 2, axis=2) / (2.0 * eps)

    return log_f


def stack_oracle(log_f, lo, hi, modes, spec, widths=None):
    """oracle_integrals over integrate_exp_stack, as inverse._draw_integrals
    runs it, with the modes (k, m, d) and the widths of each box."""
    return oracle_integrals(
        lambda idx, lo, hi, n: integrate_exp_stack(lambda j, pts: log_f(idx[j], pts), lo, hi, n),
        lo, hi, spec, log_f, modes, widths,
    )


def stacked_integrals(log_f, centers, eps, spec):
    k, d = centers.shape
    lo, hi = measure._first_boxes(spec, eps, k, centers[:, None], np.tile(np.eye(d), (k, 1, 1, 1)))
    return stack_oracle(log_f, lo, hi, centers[:, None], spec)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_stacked_oracle_exact_on_gaussians(d, eps):
    centers = np.random.default_rng(d).uniform(-1.0, 1.0, (5, d))
    results = stacked_integrals(gaussian_stack(centers, eps), centers, eps, GridSpec())
    exact = 0.5 * d * math.log(2.0 * math.pi * eps)
    for r in results:
        assert abs(r.log_value - exact) <= 1e-12
        assert r.boundary_ratio <= GridSpec().tail_tol


def test_stacked_oracle_chunks_match_one_box(monkeypatch):
    # 5 boxes of 4,097 points: 3 + 2 boxes a chunk at the default bound, one
    # box a chunk here; the integrals are identical
    centers = np.linspace(-1.0, 1.0, 5)[:, None]
    log_f = gaussian_stack(centers, 1e-2)
    whole = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    monkeypatch.setattr(quadrature, "SIMPSON_CHUNK_POINTS", 1)
    single = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    for a, b in zip(whole, single):
        assert (a.log_value, a.error_estimate, a.boundary_ratio) == (
            b.log_value, b.error_estimate, b.boundary_ratio)
        assert np.array_equal(a.grid.lo, b.grid.lo)


def test_stacked_oracle_failures_stay_per_box():
    # box 1: integrand finite nowhere; box 2: an explicit box too small; the
    # others integrate as they would alone
    centers = np.array([[-0.5], [0.0], [0.5], [1.0]])
    gauss = gaussian_stack(centers, 1e-2)

    def log_f(idx, pts):
        out = gauss(idx, pts)
        out[idx == 1] = np.nan
        out[idx == 2] = 0.0  # constant: the boundary equals the peak
        return out

    results = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    assert isinstance(results[1], ValueError) and "not finite" in str(results[1])
    assert isinstance(results[2], BoxTooSmallError)
    kept = centers[[0, 3]]
    alone = stacked_integrals(gaussian_stack(kept, 1e-2), kept, 1e-2, GridSpec())
    for r, a in zip([results[0], results[3]], alone):
        assert r.log_value == a.log_value and np.array_equal(r.grid.hi, a.grid.hi)


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_oracle_tv_is_the_accepted_boxs(d):
    # integrate_exp_stack given a Gaussian log_q gives each box the TV of
    # tv_distance_stack on log_f - log_value, bit for bit.  Box 1 starts at 2
    # standard units and is widened 4 times (no modes: every round is
    # integrated); its TV is that of the accepted box, not of the first
    eps, scale = 1e-2, 1.2
    centers = np.random.default_rng(d).uniform(-1.0, 1.0, (3, d))
    log_f = gaussian_stack(centers, eps)

    def log_q(idx, pts):
        # N(c + 0.05, scale^2 eps I), normalized
        z = (pts - centers[idx][:, None, :] - 0.05) / (scale * math.sqrt(eps))
        return -0.5 * np.sum(z * z, axis=2) - d * (math.log(scale * math.sqrt(eps)) + 0.5 * LOG_2PI)

    calls = []

    def integrate(idx, lo, hi, n):
        calls.append(integrate_exp_stack(lambda j, pts: log_f(idx[j], pts), lo, hi, n,
                                         lambda j, pts: log_q(idx[j], pts)))
        return calls[-1]

    half = math.sqrt(eps) * np.array([9.0, 2.0, 10.0])[:, None]
    results = oracle_integrals(integrate, centers - half, centers + half, GridSpec())
    assert [len(c) for c in calls] == [3, 1, 1, 1, 1]
    for i, r in enumerate(results):
        box = np.array([i])
        tv = quadrature.tv_distance_stack(
            lambda j, pts: log_f(box[j], pts) - r.log_value, lambda j, pts: log_q(box[j], pts),
            r.grid.lo[None], r.grid.hi[None], r.grid.points_per_dim)
        assert 0.0 < r.tv < 1.0 and r.tv == tv[0]
    first = calls[0][1]
    assert first.grid.hi[0] < results[1].grid.hi[0] and abs(first.tv - results[1].tv) > 1e-3
    # without log_q the integrals are the same, and carry no TV
    for r, plain in zip(results, oracle_integrals(counting_integrate(log_f, []),
                                                  centers - half, centers + half, GridSpec())):
        assert (r.log_value, r.error_estimate) == (plain.log_value, plain.error_estimate)
        assert math.isnan(plain.tv)


def test_stacked_oracle_invalid_box_fails_alone():
    # the boxes are checked as arrays, as make_grid checks one box: a box
    # empty in one coordinate fails alone with make_grid's ValueError, and
    # the others integrate as they would without it
    centers = np.array([[-0.5, 0.0], [0.0, 0.5], [0.5, -0.5]])

    def integrals(rows, lo, hi):
        log_f = gaussian_stack(centers[rows], 1e-1)
        return stack_oracle(log_f, lo, hi, centers[rows][:, None], GridSpec())

    lo, hi = centers - 2.0, centers + 2.0
    hi[1, 1] = lo[1, 1]
    results = integrals([0, 1, 2], lo, hi)
    with pytest.raises(ValueError) as made:
        quadrature.make_grid(lo[1], hi[1])
    assert type(results[1]) is ValueError and str(results[1]) == str(made.value)
    for r, a in zip([results[0], results[2]], integrals([0, 2], lo[[0, 2]], hi[[0, 2]])):
        assert r.log_value == a.log_value and np.array_equal(r.grid.hi, a.grid.hi)


# --- the panel oracle: boxes and resolutions sized by the target's width ----------


@pytest.mark.parametrize("d, cond", [(1, 1.0), (2, 1.0), (2, 10.0), (3, 1.0), (3, 10.0)])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_sized_oracle_exact_on_gaussians(d, cond, eps):
    # Gaussian integrands exp(-z^T A z / (2 eps)), A with eigenvalues 1 to
    # cond in a random basis, each on its first box of radius
    # 6 sqrt(eps / lambda_min) with its width sqrt(eps / lambda_max), as
    # inverse._draw_integrals builds them; box 0 is given a width 10 times
    # too large, so its first rung is too coarse and only refinement makes
    # it exact.  log Z is exact to 1e-12, with a rel_error under the
    # tolerance below DEFAULT_POINTS, but at d = 3 and condition 10: there
    # the resolution reaches DEFAULT_POINTS, and the error is within the
    # rel_error reported
    rng = np.random.default_rng(d)
    k = 4
    centers = rng.uniform(-1.0, 1.0, (k, d))
    basis = np.linalg.qr(rng.normal(size=(k, d, d)))[0]
    lam = np.geomspace(1.0, cond, d)
    a = basis @ (lam[:, None] * np.swapaxes(basis, 1, 2))
    a = 0.5 * (a + np.swapaxes(a, 1, 2))

    def log_f(idx, pts):
        z = pts - centers[idx][:, None, :]
        return -0.5 * np.einsum("kni,kij,knj->kn", z, a[idx], z) / eps

    lo, hi = measure._first_boxes(GridSpec(), eps, k, centers[:, None], a[:, None])
    widths = np.sqrt(eps / np.linalg.eigvalsh(a)[:, -1])
    widths[0] *= 10.0
    results = stack_oracle(log_f, lo, hi, centers[:, None], GridSpec(), widths)
    exact = 0.5 * d * math.log(2.0 * math.pi * eps) - 0.5 * np.linalg.slogdet(a)[1]
    cap = quadrature.DEFAULT_POINTS[d]
    for r, want in zip(results, exact):
        assert r.boundary_ratio <= GridSpec().tail_tol
        if d == 3 and cond > 1.0:
            assert r.grid.points_per_dim == cap
            assert abs(r.log_value - want) <= r.rel_error
        else:
            assert abs(r.log_value - want) <= 1e-12
            assert r.grid.points_per_dim == cap or r.rel_error <= measure.SIMPSON_REL_TOL
    # the resolution follows the width: coarser than DEFAULT_POINTS in d = 1
    if d == 1:
        assert all(r.grid.points_per_dim < cap for r in results)


# --- GridSpec and the face check ----------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("points_per_dim", -3), ("points_per_dim", 0), ("points_per_dim", 2),
    ("points_per_dim", 5.0), ("points_per_dim", True),
    ("tail_tol", 0.0), ("tail_tol", -1e-14), ("tail_tol", 1.5), ("tail_tol", math.nan),
    ("max_expand", -1), ("max_expand", 2.0), ("max_expand", False),
])
def test_grid_spec_rejects_invalid_fields(field, value):
    with pytest.raises(ValueError, match=field):
        GridSpec(**{field: value})


@pytest.mark.parametrize("kwargs", [
    {"points_per_dim": 3}, {"points_per_dim": np.int64(17)}, {"tail_tol": 1.0},
    {"max_expand": 0}, {"max_expand": np.int64(8)},
])
def test_grid_spec_accepts_edge_values(kwargs):
    assert getattr(GridSpec(**kwargs), next(iter(kwargs))) == next(iter(kwargs.values()))


def counting_integrate(log_f, rounds):
    """integrate for oracle_integrals over integrate_exp_stack, appending to
    ``rounds`` the number of boxes of each call."""

    def integrate(idx, lo, hi, n):
        rounds.append(len(idx))
        return integrate_exp_stack(lambda j, pts: log_f(idx[j], pts), lo, hi, n)

    return integrate


def test_face_check_keeps_the_boxes_on_a_correlated_gaussian(
        integrate_every_box, assert_same_integrals):
    # a correlated 2-D Gaussian: the largest value on a face lies off its
    # axis; boxes of 3 to 30 standard units need 6 to 0 widenings, and the
    # face check integrates each box once where integrating every box
    # integrates it in every round
    eps = 1e-2
    a, b, c = 1.0, 0.95, 1.0  # precision [[a, b], [b, c]]
    centers = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 2))
    half = math.sqrt(eps) * np.array([3.0, 5.0, 8.0, 12.0, 20.0, 30.0])[:, None]
    lo, hi = centers - half, centers + half

    def log_f(idx, pts):
        z = pts - centers[idx][:, None, :]
        x, y = z[..., 0], z[..., 1]
        return -0.5 * (a * x * x + 2.0 * b * x * y + c * y * y) / eps

    rounds = []
    results = oracle_integrals(counting_integrate(log_f, rounds), lo, hi, GridSpec(),
                               log_f, centers[:, None])
    reference, ref_rounds = integrate_every_box(counting_integrate(log_f, []), lo, hi, GridSpec())
    assert_same_integrals(results, reference)
    assert sum(rounds) == len(centers) < sum(ref_rounds)
    for r in results:
        assert r.boundary_ratio <= GridSpec().tail_tol


@pytest.mark.parametrize("eps", [0.1, 0.03, 0.01, 0.003])
@pytest.mark.parametrize("tilted", [False, True])
def test_face_check_on_the_double_well_union_box(
        eps, tilted, double_well_family, double_well_modes, shifted_family, shifted_modes,
        integrate_every_box, assert_same_integrals, monkeypatch):
    # the union box of the two wells fails the tail check at first.  Given
    # the modes of v1, the face check integrates it once; on the double
    # well they hold the maximum and the box is the one integrating every
    # box accepts, while under the tilt of the shifted double well's v2
    # they may lie below it and a box as wide or wider is accepted.
    # quadrature_normalization passes no modes and integrates every box of
    # every round
    family, modes = (shifted_family, shifted_modes) if tilted else (
        double_well_family, double_well_modes)
    mu = family.at(eps)
    spec = GridSpec()
    lo, hi = measure._first_boxes(spec, eps, 1, modes.modes[None], modes.hessians[None])

    def log_f(pts):
        return kg.unnormalized_log_density(mu, pts)

    def integrate(idx, lo, hi, n):
        return [quadrature.integrate_exp(log_f, quadrature.Grid(lo[0], hi[0], n))]

    (want,), ref_rounds = integrate_every_box(integrate, lo, hi, spec)
    assert len(ref_rounds) > 1
    grids = []
    integrate_exp = measure.integrate_exp
    monkeypatch.setattr(measure, "integrate_exp",
                        lambda f, g: grids.append(g) or integrate_exp(f, g))
    assert_same_integrals([kg.quadrature_normalization(mu, spec, mode_set=modes)], [want])
    assert len(grids) == len(ref_rounds)

    rounds = []
    (got,) = oracle_integrals(lambda *a: rounds.append(1) or integrate(*a), lo, hi, spec,
                              quadrature._one_box(log_f), np.asarray(modes.modes)[None])
    assert rounds == [1]
    if not tilted:
        assert_same_integrals([got], [want])
    else:
        assert got.grid.lo[0] <= want.grid.lo[0] and got.grid.hi[0] >= want.grid.hi[0]
        assert got.boundary_ratio <= spec.tail_tol
        assert abs(got.value - want.value) <= got.error_estimate + want.error_estimate


def test_face_check_with_the_lower_of_two_modes_accepts_a_wider_box(
        integrate_every_box, assert_same_integrals):
    # two wells of weight 1e-3 and 1 - 1e-3; only the lower mode is passed,
    # so the faces are judged against a peak 6.9 below the maximum.
    # The first box leaves exp(-34) of the maximum at its upper face:
    # integrating every box accepts it, the face check widens it.  The
    # wider box still passes the tail check on its grid and gives the exact
    # log Z.  Given both modes, the peak is the larger value, and the box
    # is the one integrating every box accepts
    eps = 1e-2
    log_w = np.log([1e-3, 1.0 - 1e-3])
    wells = np.array([-1.0, 1.0])

    def log_f(idx, pts):
        x = pts[..., 0]
        return np.logaddexp(log_w[0] - (x - wells[0]) ** 2 / (2.0 * eps),
                            log_w[1] - (x - wells[1]) ** 2 / (2.0 * eps))

    r = math.sqrt(68.0 * eps)
    lo, hi = np.array([[-1.0 - r]]), np.array([[1.0 + r]])
    spec = GridSpec()
    result = oracle_integrals(counting_integrate(log_f, []), lo, hi, spec,
                              log_f, [[[wells[0]]]])[0]
    (every,), _ = integrate_every_box(counting_integrate(log_f, []), lo, hi, spec)
    assert every.grid.hi[0] == hi[0, 0] and result.grid.hi[0] > every.grid.hi[0]
    assert result.boundary_ratio <= spec.tail_tol
    exact = math.sqrt(2.0 * math.pi * eps) * np.sum(np.exp(log_w))
    assert abs(result.value - exact) <= result.error_estimate
    both = oracle_integrals(counting_integrate(log_f, []), lo, hi, spec, log_f, wells[None, :, None])
    assert_same_integrals(both, [every])


@pytest.mark.parametrize("peak, face", [
    (-math.inf, None), (math.nan, None), (0.0, math.inf),
])
def test_face_check_skips_only_on_finite_values(
        peak, face, integrate_every_box, assert_same_integrals):
    # a box of two standard units fails the tail check; with a peak of -inf
    # or NaN at the mode passed (at 5, outside every box), or +inf on a
    # face, the face check skips nothing, and every round integrates the
    # boxes integrating every box does
    eps = 1e-2
    lo, hi = np.array([[-0.2]]), np.array([[0.2]])
    mode = 5.0

    def log_f(idx, pts):
        out = -pts[..., 0] ** 2 / (2.0 * eps)
        out[pts[..., 0] == mode] = peak
        if face is not None:
            out[pts[..., 0] == hi[0, 0]] = face
        return out

    rounds = []
    results = oracle_integrals(counting_integrate(log_f, rounds), lo, hi, GridSpec(),
                               log_f, [[[mode]]])
    reference, ref_rounds = integrate_every_box(counting_integrate(log_f, []), lo, hi, GridSpec())
    assert_same_integrals(results, reference)
    assert rounds == ref_rounds
    assert len(rounds) == (1 if face is not None else 5)


@pytest.mark.parametrize("spec", [GridSpec(max_expand=0), GridSpec(box=([-0.2], [0.2]))])
def test_face_check_does_not_run_without_a_widening(spec):
    # with no widening left every box is integrated in the one round, no
    # peak or face is evaluated, and a box too small reports its grid's own
    # ratio
    eps = 1e-2
    lo, hi = np.array([[-0.2], [-0.1]]), np.array([[0.2], [0.1]])
    shapes = []

    def log_f(idx, pts):
        shapes.append(pts.shape)
        return -pts[..., 0] ** 2 / (2.0 * eps)

    rounds = []
    results = oracle_integrals(counting_integrate(log_f, rounds), lo, hi, spec,
                               log_f, np.zeros((2, 1, 1)))
    n = quadrature.DEFAULT_POINTS[1]
    assert rounds == [2] and shapes == [(2, n, 1)]
    for r, h in zip(results, (0.2, 0.1)):
        assert isinstance(r, BoxTooSmallError)
        assert f"{math.exp(-h * h / (2.0 * eps)):.2e}" in str(r)


# --- catalog / JSON -------------------------------------------------------------


def test_load_problem_from_json(tmp_path):
    doc = {
        "name": "tilted-well",
        "dim": 1,
        "v1": {"id": "double-well", "params": {}},
        "v2": {"id": "linear", "params": {"slope": [1.0]}},
    }
    path = tmp_path / "problem.json"
    import json

    path.write_text(json.dumps(doc))
    fam = load_problem(path)
    assert fam.name == "tilted-well"
    ms = kg.find_modes(fam.v1_limit, fam.v2)
    assert ms.n == 2


def test_load_problem_marks_v1_as_the_dominant_family(monkeypatch):
    # a v1 built outside the dominant family (linear) comes back as the same
    # potential marked v1_family: same name, spec, metadata and callables
    built = []

    def recording(spec, dim):
        built.append(P.potential_from_spec(spec, dim))
        return built[-1]

    monkeypatch.setattr(measure, "potential_from_spec", recording)
    spec = {"id": "linear", "params": {"slope": [2.0]}}
    fam = load_problem({"name": "tilt", "dim": 1, "v1": spec, "v2": {"id": "zero"}})
    plain, v1 = built[0], fam.v1_limit
    assert not plain.v1_family and v1.v1_family
    # Potential equality compares every field but spec, the callables by identity
    assert v1 == replace(plain, v1_family=True)
    assert v1.spec == plain.spec == spec


def test_load_problem_validates():
    with pytest.raises(ValueError):
        load_problem({"name": "x", "dim": 1, "v1": {"id": "double-well"}})


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_target_measure_rejects_eps_that_is_not_finite(eps):
    with pytest.raises(ValueError):
        kg.TargetMeasure(v1=P.zero(1), v2=P.zero(1), epsilon=eps)


def test_builtin_problem_unknown():
    with pytest.raises(ValueError):
        kg.builtin_problem("septuple-well")
