import math
import warnings

import numpy as np
import pytest
import scipy.optimize

import klgauss as kg
from klgauss import inverse, measure, optimizer
from klgauss.objective import _from_v, _gh_nodes, _single_kl, _to_v
from klgauss.optimizer import (
    InfeasibleConstraintError,
    OptimizerConfig,
    _agree,
    _certify,
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
    obj = _Objective(mu, 0.3, _gh_nodes(20, 1), n, xi, barrier=0.1, separation_weight=100.0)
    for _ in range(10):
        theta = _theta(rng, n, 1, 1.5)
        _, g = obj.value_grad(theta)
        assert np.allclose(g, _fd_gradient(obj, theta), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("n, xi", GRADIENT_CASES)
def test_analytic_gradient_matches_fd_2d(rng, n, xi):
    fam = kg.builtin_problem("quadratic", dim=2, scale=1.5, center=[0.2, -0.1])
    mu = fam.at(0.1)
    obj = _Objective(mu, 0.0, _gh_nodes(10, 2), n, xi, barrier=0.1, separation_weight=100.0)
    theta = _theta(rng, n, 2, 0.5)  # per component: m(2), logdiag(2), offdiag(1)
    _, g = obj.value_grad(theta)
    assert np.allclose(g, _fd_gradient(obj, theta), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("far", [[2.0, 0.0], [0.0, 0.0]], ids=["apart", "coincident"])
def test_penalty_matches_the_pairwise_loop(far):
    # the barrier and hinge against a loop over the mean pairs: the pair
    # (0, 1) is inside the hinge, and "coincident" puts mean 2 on mean 0
    fam = kg.builtin_problem("quadratic", dim=2)
    obj = _Objective(fam.at(0.1), 0.0, _gh_nodes(5, 2), 3, (0.1, 0.8), barrier=0.3,
                     separation_weight=7.0)
    alpha = np.array([0.2, 0.5, 0.3])
    means = np.array([[0.0, 0.0], [0.3, 0.4], far])
    value, g_alpha, g_means = obj._penalty(alpha, means)
    slack = alpha - 0.1
    ref = -0.3 * np.sum(np.log(slack / (1 / 3 - 0.1)))
    ref_means = np.zeros_like(means)
    for i in range(3):
        for j in range(i + 1, 3):
            diff = means[i] - means[j]
            dist = np.linalg.norm(diff)
            gap = 0.8 * (1 + 1e-6) - dist
            if gap > 0:
                ref += 7.0 * gap * gap
                if dist > 0:
                    ref_means[i] -= 14.0 * gap / dist * diff
                    ref_means[j] += 14.0 * gap / dist * diff
    assert value == pytest.approx(ref, rel=1e-14)
    assert np.allclose(g_alpha, -0.3 / slack, rtol=1e-15, atol=0)
    assert np.allclose(g_means, ref_means, rtol=1e-14, atol=1e-15)


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


@pytest.mark.parametrize("xi2", [math.nan, math.inf])
def test_mixture_non_finite_xi2_rejected(double_well_family, xi2):
    with pytest.raises(InfeasibleConstraintError):
        minimize_mixture(double_well_family.at(0.01), 2, (0.05, xi2))


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


# --- Gauss-Hermite order selection -------------------------------------------------

_ONE_WEIGHT = np.ones(1)


def _gaussian_target(d, eps=0.01, scale=1.5):
    """Quadratic V1 in d dimensions: its best Gaussian is the target itself,
    N(center, eps/scale I), with KL 0 given the exact log Z."""
    center = np.linspace(-0.3, 0.4, d)
    fam = kg.builtin_problem("quadratic", dim=d, scale=scale, center=center.tolist())
    log_z = 0.5 * d * math.log(2.0 * math.pi * eps / scale)
    return fam.at(eps), log_z, center, np.eye(d) / scale


@pytest.mark.parametrize("d", [3, 4])
def test_gaussian_target_runs_at_lowest_order(d):
    # a quadratic potential is integrated exactly by every order, so the
    # ladder stops at its first rung and certifies it at the returned point
    mu, log_z, center, cov = _gaussian_target(d)
    start = [(center + 0.2, 2.0 * np.eye(d))]
    res = minimize_single(mu, OptimizerConfig(multistart=2), log_z=log_z, extra_starts=start)
    assert res.converged
    assert res.gh_order == 2
    assert res.gh_refine_error <= 1e-10
    assert abs(res.value) <= 1e-10
    assert np.allclose(res.params.mean, center, rtol=0, atol=1e-7)
    assert np.allclose(res.rescaled_covariances, cov, rtol=0, atol=1e-7)
    mix = minimize_mixture(
        mu, 1, (0.5, 1.0), OptimizerConfig(multistart=2), log_z=log_z,
        extra_starts=[(_ONE_WEIGHT, [center + 0.2], [np.eye(d)])],
    )
    assert mix.converged and mix.gh_order == 2
    assert abs(mix.value) <= 1e-10


class _OrderLog(_Objective):
    """The objective, recording the order of every evaluation."""

    orders = []

    def value_grad(self, theta):
        self.orders.append(self.order)
        return super().value_grad(theta)


@pytest.mark.parametrize("d", [1, 2])
def test_small_rules_run_at_gh_order_only(monkeypatch, d):
    # 20**d <= 1000 nodes: no order selection and no certification, so every
    # evaluation is a BFGS evaluation at gh_order, as before selection existed
    monkeypatch.setattr(optimizer, "_Objective", _OrderLog)
    monkeypatch.setattr(_OrderLog, "orders", [])
    fam = kg.builtin_problem("quadratic", dim=d, scale=1.5, center=[0.2, -0.1][:d])
    mu = fam.at(0.05)
    bfgs, nfev = optimizer._scipy_minimize, []

    def counting_bfgs(*args, **kwargs):
        res = bfgs(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(optimizer, "_scipy_minimize", counting_bfgs)
    single = minimize_single(mu, OptimizerConfig(multistart=2))
    mix = minimize_mixture(mu, 2, (0.05, 0.5), OptimizerConfig(multistart=2))
    assert set(_OrderLog.orders) == {20}
    # one evaluation of each start before BFGS, and the mixture's returned
    # value is one evaluation of its unpenalized objective
    assert len(_OrderLog.orders) == sum(nfev) + len(nfev) + 1
    for res in (single, mix):
        # the ladder is [20] alone: _certify's NaN gap reads None
        assert res.gh_order == 20 and res.gh_refine_error is None
        assert res.to_json(verbose=True)["gh_refine_error"] is None


class _LowOrdersAgreeAtStartOnly(_Objective):
    """Below the reference order 20, adds (20 - order) 1e-3 |theta - theta0|^2.

    The orders then agree in value and gradient at theta0 and nowhere else,
    so selection picks the lowest order and every certification fails.
    """

    theta0 = None

    def value_grad(self, theta):
        f, g = super().value_grad(theta)
        if self.order < 20:
            c = 1e-3 * (20 - self.order)
            diff = theta - self.theta0
            f, g = f + c * float(diff @ diff), g + 2.0 * c * diff
        return f, g


def test_failed_certification_continues_at_finer_order(monkeypatch):
    mu, log_z, center, cov = _gaussian_target(3)
    m0, sigma0 = center + 0.2, 2.0 * np.eye(3)
    theta0 = _Objective(mu, log_z, _gh_nodes(2, 3)).pack(_ONE_WEIGHT, [m0], [np.linalg.cholesky(sigma0)])
    monkeypatch.setattr(_LowOrdersAgreeAtStartOnly, "theta0", theta0)
    monkeypatch.setattr(optimizer, "_Objective", _LowOrdersAgreeAtStartOnly)
    res = minimize_single(
        mu, OptimizerConfig(multistart=1), log_z=log_z, extra_starts=[(m0, sigma0)]
    )
    # one BFGS run at order 2, then continuations at 5, 10 and 20
    assert len(res.traces) == 4
    assert res.gh_order == 20
    assert res.converged
    assert res.iterations == sum(t.iterations for t in res.traces)
    assert abs(res.value) <= 1e-10
    assert np.allclose(res.params.mean, center, rtol=0, atol=1e-7)
    assert np.allclose(res.rescaled_covariances, cov, rtol=0, atol=1e-7)
    # at the reference order the refinement error is against the half order,
    # where the test double's term is not zero
    assert res.gh_refine_error > 1e-6


def test_agreement_bounds():
    g = np.zeros(3)
    assert _agree((1.0, g), (1.0 + 1e-11, g), 1e-8)
    assert not _agree((1.0, g), (1.0 + 1e-9, g), 1e-8)
    assert _agree((1e3, g), (1e3 + 1e-8, g), 1e-8)  # relative above |v| = 1
    assert _agree((1.0, g), (1.0, g + 1e-10), 1e-8)
    assert not _agree((1.0, g), (1.0, g + 1e-9), 1e-8)
    assert not _agree((math.inf, g), (math.inf, g), 1e-8)


def _fake_ladder_evaluations(k=3, p=2):
    """Values (k,) and gradients (k, p) at the orders 2, 5, 10, 20: endpoint
    0 agrees at every pair of adjacent orders, endpoint 1 differs in value
    and endpoint 2 in gradient between every pair."""
    evals = {}
    for step, order in enumerate([2, 5, 10, 20]):
        value = np.array([1.0 + 1e-12 * step, 2.0 + 1e-6 * step, 3.0])
        grad = np.zeros((k, p))
        grad[2, 1] = 1e-6 * step
        evals[order] = (value, grad)
    return evals


def test_certify_on_a_four_order_ladder():
    evals, ladder, grad_tol = _fake_ladder_evaluations(), [2, 5, 10, 20], 1e-8
    asked = []

    def evaluate(order):
        asked.append(order)
        return evals[order]

    # below the reference order: against the next order, once
    for order, finer in zip(ladder, ladder[1:]):
        asked.clear()
        ok, refine, fine = _certify(evaluate, ladder, order, evals[order], grad_tol)
        assert asked == [finer] and fine is evals[finer]
        assert np.array_equal(ok, _agree(evals[order], evals[finer], grad_tol))
        assert ok.tolist() == [True, False, False]
        assert np.array_equal(refine, np.abs(evals[order][0] - evals[finer][0]))
    # at the reference order: every endpoint passes, with the half-order gap
    asked.clear()
    ok, refine, fine = _certify(evaluate, ladder, 20, evals[20], grad_tol)
    assert asked == [10] and fine is evals[10]
    assert ok.tolist() == [True, True, True]
    assert np.array_equal(refine, np.abs(evals[20][0] - evals[10][0]))
    # a BFGS endpoint is the one-point case
    ok, refine, _ = _certify(lambda o: (evals[o][0][1], evals[o][1][1]), ladder, 5,
                             (evals[5][0][1], evals[5][1][1]), grad_tol)
    assert not ok and refine == abs(evals[5][0][1] - evals[10][0][1])
    # a one-order ladder: nothing is evaluated, and there is no gap
    asked.clear()
    ok, refine, fine = _certify(evaluate, [20], 20, evals[20], grad_tol)
    assert asked == [] and fine is None
    assert ok.tolist() == [True, True, True] and np.isnan(refine).all()


@pytest.mark.parametrize("grad_tol", [math.nan, math.inf])
def test_config_rejects_grad_tol_that_is_not_finite(grad_tol):
    # a NaN tolerance stopped BFGS at once and reported the start converged
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=grad_tol)


def test_overflowing_trial_steps_warn_nothing():
    # trial steps on this 2-D elliptic posterior reach q > 709, where the
    # coefficient exp(q) overflows: the misfit stays finite and its gradient
    # is 0 * inf = NaN; the objective counts such a point as +inf, silently
    eta = [-1.6038368053963015, 0.06409991400376411]
    doc = {"name": "elliptic-m2", "dim": 2, "v2": {"id": "quadratic"},
           "v1": {"id": "elliptic-exp", "params": {"M": 2, "f": [100, 100], "eta": eta}}}
    mu = kg.load_problem(doc).at(0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_single(mu, OptimizerConfig(multistart=4, seed=0))
    assert res.converged and res.gh_order == 20
    assert res.value == pytest.approx(0.08198121017357929, rel=1e-12, abs=0)


def test_start_value_is_the_objective_at_the_start(double_well_family):
    mu = double_well_family.at(0.01)
    m0, sigma0 = np.array([0.7]), np.array([[0.3]])
    cfg = OptimizerConfig(multistart=1)
    res = minimize_single(mu, cfg, log_z=0.1, extra_starts=[(m0, sigma0)])
    obj = _Objective(mu, 0.1, _gh_nodes(20, 1))
    theta0 = obj.pack(_ONE_WEIGHT, [m0], [np.linalg.cholesky(sigma0)])
    assert res.traces[0].start_value == obj.value_grad(theta0)[0]


def _tilted_double_well_3d(eps=0.05, tilt=0.2):
    """(x1^2 - 1)^2 + tilt x1 + |x2, x3|^2 / 2: two basins, the left one deeper."""

    def value(x):
        return (x[:, 0] ** 2 - 1.0) ** 2 + tilt * x[:, 0] + 0.5 * np.sum(x[:, 1:] ** 2, axis=1)

    def grad(x):
        g = x.copy()
        g[:, 0] = 4.0 * x[:, 0] * (x[:, 0] ** 2 - 1.0) + tilt
        return g

    def hess(x):
        h = np.repeat(np.eye(3)[None], x.shape[0], axis=0)
        h[:, 0, 0] = 12.0 * x[:, 0] ** 2 - 4.0
        return h

    v1 = kg.Potential(dim=3, value_fn=value, grad_fn=grad, hess_fn=hess)
    return kg.TargetMeasure(v1=v1, v2=kg.potentials.zero(3), epsilon=eps)


class _RightBasinDeepBelow20(_Objective):
    """Below the reference order 20, lowers the right basin by
    2 (20 - order) t^3 / (1 + t^3), t = max(theta_m1, 0).

    The left basin is left exactly as it is, and the right one is lowered by
    a different amount at every order: by 30 at order 5, although at order
    20 the left basin is lower by about 2 tilt / eps = 8.
    """

    def value_grad(self, theta):
        f, g = super().value_grad(theta)
        t = max(theta[0], 0.0)  # theta[0] = m1 / sqrt(eps)
        if self.order < 20 and t > 0 and np.isfinite(f):
            c = 2.0 * (20 - self.order)
            g = g.copy()
            f, g[0] = f - c * t**3 / (1.0 + t**3), g[0] - c * 3.0 * t**2 / (1.0 + t**3) ** 2
        return f, g


@pytest.mark.parametrize("objective", [_Objective, _RightBasinDeepBelow20])
def test_starts_ranked_after_certification(monkeypatch, objective):
    # one start in each basin of a 3-D target; every endpoint is certified
    # before the ranking, so the minimum chosen is the one order 20 chooses
    mu = _tilted_double_well_3d()
    starts = [(np.array([-1.0, 0.1, 0.0]), np.eye(3)), (np.array([1.0, 0.0, -0.1]), np.eye(3))]
    cfg = OptimizerConfig(multistart=2)
    monkeypatch.setattr(optimizer, "_Objective", objective)
    res = minimize_single(mu, cfg, log_z=0.0, extra_starts=starts)
    monkeypatch.setattr(optimizer, "_SELECT_MIN_NODES", math.inf)  # order 20 only
    ref = minimize_single(mu, cfg, log_z=0.0, extra_starts=starts)
    assert ref.gh_order == 20 and ref.gh_refine_error is None
    assert ref.params.mean[0] < 0
    assert res.converged
    assert np.allclose(res.params.mean, ref.params.mean, rtol=0, atol=1e-6)
    assert abs(res.value - ref.value) <= 1e-9 * max(1.0, abs(ref.value))
    # the quartic is integrated exactly from order 3: the left basin's
    # endpoint is certified at order 5
    assert res.gh_order == 5
    assert res.gh_refine_error <= 1e-10 * max(1.0, abs(res.value))


def test_gh_fields_in_verbose_json_only():
    mu, log_z, center, _ = _gaussian_target(3)
    res = minimize_single(mu, OptimizerConfig(multistart=1), log_z=log_z)
    assert "gh_order" not in res.to_json() and "gh_refine_error" not in res.to_json()
    doc = res.to_json(verbose=True)
    assert doc["gh_order"] == res.gh_order == 2
    assert doc["gh_refine_error"] == res.gh_refine_error


# --- batched damped Newton ---------------------------------------------------------


def _quadratic_phi(centers, precisions, eps):
    """phi(idx, x) for Phi_i(x) = (x - c_i)^T A_i (x - c_i) / (2 eps)."""

    def phi(idx, x, hessian=True):
        A = precisions[idx] / eps
        diff = x - centers[idx][:, None, :]
        grad = np.einsum("nab,nkb->nka", A, diff)
        hess = np.broadcast_to(A[:, None], x.shape + x.shape[-1:])
        return 0.5 * np.sum(diff * grad, axis=2), grad, hess

    return phi


def _quadratic_batch(d, n=4):
    rng = np.random.default_rng(d)
    centers = rng.uniform(-1.0, 1.0, (n, d))
    B = rng.standard_normal((n, d, d))
    precisions = B @ B.transpose(0, 2, 1) + d * np.eye(d)
    means0 = centers + 0.1 * rng.standard_normal((n, d))
    return centers, precisions, means0, np.tile(2.0 * np.eye(d), (n, 1, 1))


def test_damped_newton_small_decrement_step_outside_the_domain():
    # a Newton decrement of 1e-15, below the 1e-9 floor, whose full step
    # leaves the domain (infinite value): the half step lands inside, one
    # rounding unit above the start value, and is taken as the full step
    # would have been, with no sufficient-decrease test
    def evaluate(idx, x):
        x = x[:, 0]
        f = np.where(x < 1.0 - 0.75e-9, np.inf, np.where(x == 1.0, 1.0, 1.0 + 2.3e-16))
        g = np.where(x == 1.0, 1e-6, 0.0)[:, None]
        return f, g, np.full((len(x), 1, 1), 1e3)

    x, hess, steps, errors = optimizer._damped_newton(evaluate, np.ones((1, 1)))
    assert errors == [None]
    assert steps[0] == 1
    assert x[0, 0] == 1.0 - 0.5e-9
    assert hess[0, 0, 0] == 1e3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_newton_single_quadratic_closed_form(d):
    # Phi_i = (x - c_i)^T A_i (x - c_i) / (2 eps): the best Gaussian is
    # N(c_i, eps A_i^-1), and the order-3 rule integrates the objective exactly
    eps = 1e-3
    centers, precisions, means0, chols0 = _quadratic_batch(d)
    v, steps, errors = optimizer._newton_single(
        _quadratic_phi(centers, precisions, eps), eps, _to_v(means0, chols0, eps), _gh_nodes(3, d)
    )
    means, chols = _from_v(v, d, eps)
    assert errors == [None] * len(centers)
    assert np.all(steps <= 20)
    np.testing.assert_allclose(means, centers, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        chols, np.linalg.cholesky(np.linalg.inv(precisions)), rtol=0, atol=1e-12
    )


def test_newton_single_mixed_batch_converges_the_good_draws():
    # a concave Phi (a negated quadratic) has no minimum: its Newton run
    # fails, and the convex draws of the same batch converge as alone
    d, eps = 2, 1e-2
    centers, precisions, means0, chols0 = _quadratic_batch(d)
    precisions[1] = -precisions[1]
    v, _, errors = optimizer._newton_single(
        _quadratic_phi(centers, precisions, eps), eps, _to_v(means0, chols0, eps), _gh_nodes(3, d)
    )
    means, chols = _from_v(v, d, eps)
    assert isinstance(errors[1], ArithmeticError)
    good = [0, 2, 3]
    assert [errors[i] for i in good] == [None] * 3
    np.testing.assert_allclose(means[good], centers[good], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        chols[good], np.linalg.cholesky(np.linalg.inv(precisions[good])), rtol=0, atol=1e-12
    )


def _measure_phi(mus):
    """phi(idx, x, hessian) of the targets mus: Phi = V1/eps + V2, one target
    at a time, always with Hessians."""

    def phi(idx, x, hessian=True):
        parts = []
        for i, pts in zip(idx, x):
            mu, eps = mus[i], mus[i].epsilon
            parts.append((
                mu.v1.value(pts) / eps + mu.v2.value(pts),
                mu.v1.gradient(pts) / eps + mu.v2.gradient(pts),
                mu.v1.hessian(pts) / eps + mu.v2.hessian(pts),
            ))
        return tuple(np.stack(a) for a in zip(*parts))

    return phi


def _orders_agree_at_start_only(v0):
    """_single_kl plus (order - 2) 1e-3 |v - v0|^2: every order agrees with
    the next at v0, and order 2 with order 5 nowhere else."""
    single_kl = optimizer._single_kl

    def kl(phi, eps, nodes, log_zs, v):
        value, grad = single_kl(phi, eps, nodes, log_zs, v)
        c, diff = 1e-3 * (nodes.order - 2), v - v0
        return value + c * np.sum(diff * diff, axis=1), grad + 2.0 * c * diff

    return kl


def test_newton_singles_certified_on_the_ladder(monkeypatch):
    # d = 3: order selection runs; on a Gaussian target minimize_single
    # selects order 2, and so does the Newton batch, whose endpoint passes
    # the gradient certificate there and agrees with order 5
    mu, log_z, center, cov = _gaussian_target(3)
    ms = kg.ModeSet(modes=(center + 0.2)[None], hessians=(0.5 * np.eye(3))[None],
                    v2_values=np.zeros(1))
    cfg = OptimizerConfig(multistart=1)
    phi = _measure_phi([mu])
    fits = optimizer._newton_singles(phi, mu.epsilon, [log_z], ms.modes, ms.hessians, cfg)
    assert fits.certified[0] and fits.errors == [None]
    assert fits.orders[0] == 2
    assert fits.refine[0] <= 1e-10
    assert abs(fits.values[0] + log_z) <= 1e-10
    assert np.allclose(fits.means[0], center, rtol=0, atol=1e-7)
    assert np.allclose(fits.chols[0] @ fits.chols[0].T, cov, rtol=0, atol=1e-7)
    # the value plus log Z is the certificate's at the returned point, bit for
    # bit, and minimize_single's objective agrees with it there
    v = optimizer._to_v(fits.means[:1], fits.chols[:1], mu.epsilon)
    value, grad = optimizer._single_kl(phi, mu.epsilon, _gh_nodes(2, 3), np.array([log_z]), v)
    assert value[0] == fits.values[0] + log_z
    assert np.max(np.abs(grad)) <= cfg.grad_tol
    obj = _Objective(mu, log_z, _gh_nodes(2, 3))
    theta = obj.pack(_ONE_WEIGHT, fits.means[:1], fits.chols[:1])
    obj_value, obj_grad = obj.value_grad(theta)
    assert abs(obj_value - (fits.values[0] + log_z)) <= 1e-13
    assert np.max(np.abs(obj_grad)) <= cfg.grad_tol
    # an objective on which the orders agree only at the start: the Newton
    # point fails the certificate, and the target is not certified: Newton
    # has no fallback
    v0 = optimizer._to_v(ms.modes, np.linalg.cholesky(np.linalg.inv(ms.hessians)), mu.epsilon)
    single_kl = optimizer._single_kl
    monkeypatch.setattr(optimizer, "_single_kl", _orders_agree_at_start_only(v0))
    fits = optimizer._newton_singles(phi, mu.epsilon, [log_z], ms.modes, ms.hessians, cfg)
    assert fits.orders[0] == 2
    assert not fits.certified[0] and fits.errors == [None]

    # a gradient above grad_tol at the Newton point (an offset that every
    # order shares, so the orders still agree) fails the certificate too
    def steep(*args):
        value, grad = single_kl(*args)
        return value, grad + 10.0 * cfg.grad_tol

    monkeypatch.setattr(optimizer, "_single_kl", steep)
    fits = optimizer._newton_singles(phi, mu.epsilon, [log_z], ms.modes, ms.hessians, cfg)
    assert fits.orders[0] == 2
    assert not fits.certified[0] and fits.errors == [None]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_single_kl_matches_objective_on_quadratics(d, eps):
    # the kernel's values against the closed form KL(N(m, eps L L^T) ||
    # N(c, eps A^-1)) to 1e-12 absolute, at the optimum and near it: Gauss-
    # Hermite from order 2 is exact on quadratics, and the exact log Z makes
    # the node-set KL the true one; at the exact optimum the KL is 0 and the
    # gradient vanishes
    centers, precisions, _, _ = _quadratic_batch(d)
    phi = _quadratic_phi(centers, precisions, eps)
    log_zs = 0.5 * d * math.log(2.0 * math.pi * eps) - 0.5 * np.linalg.slogdet(precisions)[1]
    optimum = np.linalg.cholesky(np.linalg.inv(precisions))
    rng = np.random.default_rng(d)
    near = (centers + 0.3 * math.sqrt(eps) * rng.standard_normal(centers.shape),
            optimum * rng.uniform(0.8, 1.2, (len(centers), 1, 1)))
    grad_tol = OptimizerConfig().grad_tol
    root = math.sqrt(eps)
    for order in (3, 20):
        nodes = _gh_nodes(order, d)
        for means, chols in ((centers, optimum), near):
            values, grads = _single_kl(phi, eps, nodes, log_zs, _to_v(means, chols, eps))
            for i, (c, L) in enumerate(zip(centers, optimum)):
                exact = kg.kl_gaussian_gaussian(
                    kg.GaussianParams(means[i], root * chols[i]), kg.GaussianParams(c, root * L))
                assert abs(values[i] - exact) <= 1e-12
            if means is centers:
                assert np.max(np.abs(values)) <= 1e-13
                assert np.max(np.abs(grads)) <= 1e-2 * grad_tol


# --- the BFGS entry point ----------------------------------------------------------


def test_scipy_minimize_aliases_are_scipys_own():
    # optimizer, the one BFGS caller, imports scipy.optimize on its first
    # call; inverse and measure run no BFGS and give the name as scipy's own
    # function
    assert inverse._scipy_minimize is measure._scipy_minimize is scipy.optimize.minimize
    for module in (inverse, measure):
        assert not hasattr(module, "no_such_name")
        with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name
    center = np.array([0.5, -2.0, 3.0])

    def value_grad(x):
        r = x - center
        return float(r @ r + 0.1 * r[0] ** 4), 2.0 * r + np.array([0.4 * r[0] ** 3, 0.0, 0.0])

    args = (value_grad, np.zeros(3))
    kwargs = {"jac": True, "method": "BFGS", "options": {"gtol": 1e-10}}
    bfgs = optimizer._scipy_minimize
    assert bfgs is not scipy.optimize.minimize
    ours, ref = bfgs(*args, **kwargs), scipy.optimize.minimize(*args, **kwargs)
    # the call does not rebind the global, which a patch saves and restores
    assert optimizer._scipy_minimize is bfgs
    assert np.array_equal(ours.x, ref.x) and ours.fun == ref.fun and ours.nfev == ref.nfev
    assert np.allclose(ours.x, center, atol=1e-8)
