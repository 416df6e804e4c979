import math

import numpy as np
import pytest

import klgauss as kg
from klgauss.optimizer import (
    InfeasibleConstraintError,
    OptimizerConfig,
    _Objective,
    minimize_mixture,
    minimize_single,
)


# --- minimize_single ---------------------------------------------------------------


def test_quadratic_target_recovered_exactly(quadratic_family):
    mu = quadratic_family.at(0.01)
    res = minimize_single(mu)
    assert res.converged
    assert abs(res.params.mean[0]) <= 1e-6
    assert res.params.covariance[0, 0] == pytest.approx(0.01, rel=1e-6)
    assert res.rescaled_covariances[0, 0] == pytest.approx(1.0, rel=1e-6)
    assert res.value <= 1e-8


def test_double_well_gamma_limit_predictions(double_well_family):
    mu = double_well_family.at(1e-3)
    res = minimize_single(mu)
    assert res.converged
    assert abs(abs(res.params.mean[0]) - 1.0) <= 1e-3
    assert res.rescaled_covariances[0, 0] == pytest.approx(1.0 / 8.0, rel=0.02)
    assert res.value == pytest.approx(math.log(2), rel=0.02)


def test_shifted_double_well_picks_heavier_mode(shifted_family):
    # beta(-1) > beta(+1), so the limit argmin sits at -1
    mu = shifted_family.at(1e-3)
    res = minimize_single(mu)
    assert res.converged
    assert res.params.mean[0] == pytest.approx(-1.0, abs=1e-2)


# (n, xi): every pair of means drawn below is closer than xi2 = 1, so the
# separation hinge is active wherever the constraints are
GRADIENT_CASES = [
    pytest.param(1, None, id="n1"),
    pytest.param(2, None, id="n2"),
    pytest.param(2, (0.2, 1.0), id="n2-constrained"),
    pytest.param(3, None, id="n3"),
    pytest.param(3, (0.2, 1.0), id="n3-constrained"),
]


def _theta(rng, n, d, spread):
    # logits near 0 keep every weight above the barrier floor xi1 = 0.2
    k = n * d + n * d * (d + 1) // 2
    return np.concatenate([rng.uniform(-0.3, 0.3, n - 1), rng.uniform(-spread, spread, k)])


def _fd_gradient(obj, theta):
    g_fd = np.zeros_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1 + abs(theta[i]))
        e = np.zeros_like(theta)
        e[i] = h
        g_fd[i] = (obj.value_grad(theta + e)[0] - obj.value_grad(theta - e)[0]) / (2 * h)
    return g_fd


@pytest.mark.parametrize("n, xi", GRADIENT_CASES)
def test_analytic_gradient_matches_finite_differences(double_well_family, rng, n, xi):
    mu = double_well_family.at(0.05)
    obj = _Objective(mu, 0.3, 20, n, xi, barrier=0.1, separation_weight=100.0)
    for _ in range(10):
        theta = _theta(rng, n, 1, 1.5)
        _, g = obj.value_grad(theta)
        assert np.allclose(g, _fd_gradient(obj, theta), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("n, xi", GRADIENT_CASES)
def test_analytic_gradient_matches_fd_2d(rng, n, xi):
    fam = kg.builtin_problem("quadratic", dim=2, scale=1.5, center=[0.2, -0.1])
    mu = fam.at(0.1)
    obj = _Objective(mu, 0.0, 10, n, xi, barrier=0.1, separation_weight=100.0)
    theta = _theta(rng, n, 2, 0.5)  # per component: m(2), logdiag(2), offdiag(1)
    _, g = obj.value_grad(theta)
    assert np.allclose(g, _fd_gradient(obj, theta), rtol=1e-5, atol=1e-7)


def test_monotone_improvement_over_starts(double_well_family):
    res = minimize_single(double_well_family.at(0.01))
    for trace in res.traces:
        assert res.value <= trace.start_value + 1e-12


def test_epsilon_scaling_consistency(quadratic_family):
    # rescaled covariance is eps-independent on the exactly Gaussian target
    covs = [
        minimize_single(quadratic_family.at(eps)).rescaled_covariances[0, 0]
        for eps in (1.0, 0.1, 0.01)
    ]
    assert np.allclose(covs, 1.0, rtol=1e-6)


def test_returned_covariance_spd(shifted_family):
    res = minimize_single(shifted_family.at(0.01))
    np.linalg.cholesky(res.params.covariance)  # raises if not SPD


# --- minimize_mixture -----------------------------------------------------------------


def test_mixture_double_well(double_well_family):
    mu = double_well_family.at(1e-3)
    res = minimize_mixture(mu, 2, (0.05, 1.0))
    mix = res.params
    assert res.converged
    assert np.allclose(np.sort(mix.means.ravel()), [-1.0, 1.0], atol=1e-2)
    for cov in res.rescaled_covariances:
        assert cov[0, 0] == pytest.approx(1.0 / 8.0, rel=0.05)
    assert np.allclose(mix.weights, [0.5, 0.5], atol=1e-2)
    assert res.value <= 0.05
    assert mix.satisfies_constraints()


def test_mixture_n1_agrees_with_single(double_well_family):
    mu = double_well_family.at(0.01)
    single = minimize_single(mu)
    mix = minimize_mixture(mu, 1, (0.5, 1.0))
    assert mix.value == pytest.approx(single.value, abs=1e-6)
    assert abs(abs(mix.params.components[0].mean[0]) - abs(single.params.mean[0])) <= 1e-4


def test_mixture_asymmetric_weights(shifted_family):
    mu = shifted_family.at(1e-3)
    res = minimize_mixture(mu, 2, (0.05, 1.0))
    beta = np.array([math.exp(2) / (1 + math.exp(2)), 1 / (1 + math.exp(2))])
    assert np.sum(np.abs(res.params.weights - beta)) <= 2e-2


def test_mixture_infeasible_xi1_rejected(double_well_family):
    mu = double_well_family.at(0.01)
    with pytest.raises(InfeasibleConstraintError):
        minimize_mixture(mu, 2, (0.6, 1.0))
    with pytest.raises(InfeasibleConstraintError):
        minimize_mixture(mu, 2, (0.05, -1.0))


def test_mixture_canonical_component_order(double_well_family):
    res = minimize_mixture(double_well_family.at(0.01), 2, (0.05, 1.0))
    means = res.params.means[:, 0]
    assert means[0] < means[1]


def test_mixture_deterministic_given_seed(double_well_family):
    mu = double_well_family.at(0.01)
    cfg = OptimizerConfig(seed=5)
    a = minimize_mixture(mu, 2, (0.05, 1.0), cfg)
    b = minimize_mixture(mu, 2, (0.05, 1.0), cfg)
    assert a.value == b.value
    assert np.array_equal(a.params.weights, b.params.weights)


def test_iteration_cap_flags_not_converged(double_well_family):
    # best-so-far is still returned when no start can finish
    res = minimize_single(
        double_well_family.at(0.01),
        OptimizerConfig(max_iters=1, grad_tol=1e-12, multistart=2),
    )
    assert not res.converged
    assert math.isfinite(res.value)


def test_mixture_separation_constraint_enforced(quadratic_family):
    # unimodal target with two forced components: the separation hinge must
    # still deliver a xi2-separated feasible point
    mu = quadratic_family.at(0.05)
    res = minimize_mixture(mu, 2, (0.05, 0.5), OptimizerConfig(multistart=4))
    assert res.converged
    assert res.params.min_separation() >= 0.5 - 1e-9
    assert res.params.satisfies_constraints()


def test_inverted_box_raises_with_given_log_z(double_well_family):
    # a given log Z must not hide the invalid search box from the starts
    mu = double_well_family.at(0.01)
    cfg = OptimizerConfig(box=(1.0, -1.0))
    with pytest.raises(ValueError):
        minimize_single(mu, cfg, log_z=0.0)
    with pytest.raises(ValueError):
        minimize_mixture(mu, 2, (0.05, 1.0), cfg, log_z=0.0)
