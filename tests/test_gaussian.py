import math

import numpy as np
import pytest
import scipy.special

from klgauss import (
    GaussianParams,
    MixtureParams,
    kl_categorical,
    kl_gaussian_gaussian,
    sample,
)
from klgauss.quadrature import gaussian_expectation_nodes, make_grid, tv_distance_grid


def std_normal(d=1):
    return GaussianParams.from_covariance(np.zeros(d), np.eye(d))


# --- log_density ---------------------------------------------------------------


def test_log_density_standard_normal_at_mode():
    g = std_normal()
    assert g.log_density(np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi))
    assert g.log_density(np.zeros(1)) == pytest.approx(-0.918939, abs=1e-6)


def test_log_density_standard_normal_at_one():
    g = std_normal()
    assert g.log_density(np.ones(1)) == pytest.approx(
        -0.5 - 0.5 * math.log(2 * math.pi)
    )


def test_log_density_2d():
    g = std_normal(2)
    assert g.log_density(np.ones(2)) == pytest.approx(-1.0 - math.log(2 * math.pi))


def test_log_density_integrates_to_one():
    g = GaussianParams.from_covariance(np.array([0.3]), np.array([[0.7]]))
    grid = make_grid([-8.0], [8.0], 1025)
    total = float(np.dot(grid.weights(), np.exp(g.log_density(grid.points()))))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_log_density_integrates_to_one_2d():
    cov = np.array([[1.0, 0.4], [0.4, 0.8]])
    g = GaussianParams.from_covariance(np.zeros(2), cov)
    grid = make_grid([-8.0, -8.0], [8.0, 8.0], 257)
    total = float(np.dot(grid.weights(), np.exp(g.log_density(grid.points()))))
    assert total == pytest.approx(1.0, abs=1e-6)


# --- construction invariants -----------------------------------------------------


def test_covariance_must_be_spd():
    with pytest.raises(ValueError):
        GaussianParams.from_covariance(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_near_singular_cholesky_rejected():
    with pytest.raises(ValueError):
        GaussianParams(np.zeros(1), np.array([[1e-160]]))


def test_log_det_via_cholesky():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = GaussianParams.from_covariance(np.zeros(2), cov)
    assert g.log_det_cov == pytest.approx(math.log(np.linalg.det(cov)))


def test_json_roundtrip():
    g = GaussianParams.from_covariance(np.array([1.0, -2.0]), np.diag([0.5, 2.0]))
    back = GaussianParams.from_json(g.to_json())
    assert np.allclose(back.mean, g.mean)
    assert np.allclose(back.chol, g.chol)


# --- kl_gaussian_gaussian ---------------------------------------------------------


def test_kl_identical_is_exact_zero():
    g = std_normal(3)
    assert kl_gaussian_gaussian(g, g) == 0.0


def test_kl_mean_shift():
    a = std_normal()
    b = GaussianParams.from_covariance(np.array([1.0]), np.eye(1))
    assert kl_gaussian_gaussian(a, b) == pytest.approx(0.5)


def test_kl_variance_ratio_with_quadrature_cross_check():
    a = GaussianParams.from_covariance(np.zeros(1), np.array([[2.0]]))
    b = std_normal()
    closed = kl_gaussian_gaussian(a, b)
    assert closed == pytest.approx(0.5 * (2 - 1 - math.log(2)))
    assert closed == pytest.approx(0.153426, abs=1e-6)
    # independent oracle: Gauss-Hermite quadrature of the log density ratio
    x, w, _ = gaussian_expectation_nodes(a.mean, a.chol, 40)
    gh = float(np.dot(w, a.log_density(x) - b.log_density(x)))
    assert closed == pytest.approx(gh, abs=1e-12)


def test_kl_nonnegative_zero_iff_equal(rng):
    for _ in range(25):
        d = int(rng.integers(1, 4))
        a = _random_gaussian(rng, d)
        b = _random_gaussian(rng, d)
        val = kl_gaussian_gaussian(a, b)
        assert val >= 0.0
        if val <= 1e-12:
            assert np.allclose(a.mean, b.mean, atol=1e-5)
            assert np.allclose(a.covariance, b.covariance, atol=1e-5)


def test_kl_rotation_invariance(rng):
    for _ in range(10):
        d = 3
        a = _random_gaussian(rng, d)
        b = _random_gaussian(rng, d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        ar = GaussianParams.from_covariance(q @ a.mean, q @ a.covariance @ q.T)
        br = GaussianParams.from_covariance(q @ b.mean, q @ b.covariance @ q.T)
        assert kl_gaussian_gaussian(ar, br) == pytest.approx(
            kl_gaussian_gaussian(a, b), abs=1e-10
        )


def test_pinsker_on_gaussian_pairs(rng):
    # grid-estimated total variation against sqrt(KL/2)
    for _ in range(5):
        a = _random_gaussian(rng, 1)
        b = _random_gaussian(rng, 1)
        grid = make_grid([-12.0], [12.0], 2049)
        tv = tv_distance_grid(a.log_density, b.log_density, grid)
        assert tv <= math.sqrt(0.5 * kl_gaussian_gaussian(a, b)) + 1e-6


def _random_gaussian(rng, d):
    mean = rng.uniform(-1.5, 1.5, d)
    m = rng.standard_normal((d, d))
    cov = m @ m.T + 0.3 * np.eye(d)
    return GaussianParams.from_covariance(mean, cov)


# --- kl_categorical ----------------------------------------------------------------


def test_kl_categorical_equal():
    assert kl_categorical([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_kl_categorical_point_mass_vs_uniform():
    # the limiting single-Gaussian penalty for the symmetric double well
    assert kl_categorical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))


def test_kl_categorical_general():
    expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
    assert kl_categorical([0.7, 0.3], [0.5, 0.5]) == pytest.approx(expected)


def test_kl_categorical_infinite():
    assert kl_categorical([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_categorical_validates():
    with pytest.raises(ValueError):
        kl_categorical([1.0], [0.5, 0.5])


# --- sampling -------------------------------------------------------------------


def test_sample_mean_clt_bound():
    g = std_normal(2)
    pts = sample(g, 100_000, 7)
    assert np.all(np.abs(pts.mean(axis=0)) <= 0.02)  # 3 / sqrt(n) ~ 0.0095


def test_sample_single_point():
    g = std_normal(3)
    pts = sample(g, 1, 0)
    assert pts.shape == (1, 3)


def test_sample_deterministic_in_seed():
    g = std_normal()
    assert np.array_equal(sample(g, 10, 42), sample(g, 10, 42))


def test_mixture_component_fractions():
    comps = (
        GaussianParams.from_covariance([-1.0], [[1e-4]]),
        GaussianParams.from_covariance([1.0], [[1e-4]]),
    )
    mix = MixtureParams(components=comps, weights=np.array([0.5, 0.5]), xi=(0.05, 1.0))
    pts = sample(mix, 100_000, 11)
    frac = float(np.mean(pts[:, 0] > 0))
    assert abs(frac - 0.5) <= 0.01


# --- MixtureParams invariants ------------------------------------------------------


def test_mixture_constraint_checks():
    comps = (
        GaussianParams.from_covariance([-1.0], [[1.0]]),
        GaussianParams.from_covariance([1.0], [[1.0]]),
    )
    ok = MixtureParams(comps, np.array([0.5, 0.5]), xi=(0.05, 1.0))
    assert ok.satisfies_constraints()
    assert ok.min_separation() == pytest.approx(2.0)
    low_weight = MixtureParams(comps, np.array([0.025, 0.975]), xi=(0.05, 1.0))
    assert not low_weight.satisfies_constraints()
    close = MixtureParams(
        (comps[0], GaussianParams.from_covariance([-0.5], [[1.0]])),
        np.array([0.5, 0.5]),
        xi=(0.05, 1.0),
    )
    assert not close.satisfies_constraints()


def test_mixture_validates_simplex():
    comps = (std_normal(), std_normal())
    with pytest.raises(ValueError):
        MixtureParams(comps, np.array([0.7, 0.7]), xi=(0.05, 1.0))
    with pytest.raises(ValueError):
        MixtureParams(comps, np.array([0.5, 0.5]), xi=(1.5, 1.0))


def test_mixture_json_roundtrip():
    comps = (
        GaussianParams.from_covariance([-1.0], [[0.5]]),
        GaussianParams.from_covariance([1.0], [[2.0]]),
    )
    mix = MixtureParams(comps, np.array([0.3, 0.7]), xi=(0.05, 1.0))
    back = MixtureParams.from_json(mix.to_json())
    assert np.allclose(back.weights, mix.weights)
    assert np.allclose(back.components[1].covariance, [[2.0]])
    assert back.xi == mix.xi


# --- MixtureParams.log_density ----------------------------------------------------


@pytest.mark.parametrize(
    "weights", [(0.0, 1.0), (0.3, 0.0, 0.7), (0.2, 0.5, 0.3)], ids=["n2", "n3", "n3-positive"]
)
def test_mixture_log_density_is_the_scipy_logsumexp_one(weights, rng):
    # the floored max-shifted log-sum-exp of the components' log densities
    # and log weights, zero weights included, at points where the component
    # logs lie up to about 400 apart: within 1e-15 relative of scipy's, and
    # within one unit in the last place
    comps = (
        GaussianParams.from_covariance([-1.0, 0.5], [[0.5, 0.1], [0.1, 0.3]]),
        GaussianParams.from_covariance([0.5, 0.0], [[1.3, 0.0], [0.0, 0.2]]),
        GaussianParams.from_covariance([2.0, -1.0], [[0.2, -0.05], [-0.05, 0.4]]),
    )[: len(weights)]
    mix = MixtureParams(comps, np.array(weights), xi=(0.01, 0.1))
    x = rng.normal(scale=3.0, size=(400, 2))
    with np.errstate(divide="ignore"):
        logw = np.log(np.array(weights))
    ref = scipy.special.logsumexp(
        np.stack([c.log_density(x) for c in comps]) + logw[:, None], axis=0
    )
    ours = mix.log_density(x)
    np.testing.assert_allclose(ours, ref, rtol=1e-15, atol=0)
    assert np.all(np.abs(ours - ref) <= np.spacing(np.abs(ref)))
    assert mix.log_density(x[7]) == ours[7]
