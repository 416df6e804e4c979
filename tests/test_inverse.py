import json
import math
from importlib import resources

import numpy as np
import pytest

import klgauss as kg
from klgauss import inverse as inv
from klgauss import gamma, measure, objective
from klgauss import optimizer as optim
from klgauss import quadrature
from klgauss.gaussian import LOG_2PI
from klgauss.optimizer import OptimizerConfig
from klgauss.potentials import check_derivatives, fd_hessian_from_grad, quadratic


def problem(M=1, f=1.0, variant="exp"):
    return inv.EllipticProblem(M=M, f=np.full(M, float(f)), variant=variant)


def mode_search(p, truth, eta, eps, starts, **kwargs):
    """Batched posterior-mode search of one noise draw from each start."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    y = inv.forward(p, truth) + math.sqrt(eps) * np.asarray(eta, dtype=float)
    Y = np.tile(y, (len(starts), 1))
    return inv._posterior_mode(p, Y, quadratic(dim=p.M), eps, starts, **kwargs)


# --- forward -----------------------------------------------------------------------


def test_forward_m1_hand_computed():
    # M=1: h=1/2, A=2/h^2=8, exp variant at q=0: u = f/(A+1) = 1/9
    p = problem()
    u = inv.forward(p, np.array([0.0]))
    assert u[0] == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_forward_square_sign_symmetry(rng):
    p = problem(M=4, variant="square")
    for _ in range(10):
        q = rng.uniform(-2, 2, 4)
        assert np.allclose(inv.forward(p, q), inv.forward(p, -q), atol=1e-14)


def test_forward_positivity_maximum_principle(rng):
    for variant in ("exp", "square"):
        p = problem(M=8, variant=variant)
        qs = rng.uniform(-3, 3, size=(50, 8))
        u = inv.forward(p, qs)
        assert np.all(u > 0)


def test_forward_batched_matches_single(rng):
    p = problem(M=3)
    qs = rng.uniform(-1, 1, size=(5, 3))
    batch = inv.forward(p, qs)
    for i in range(5):
        assert np.allclose(batch[i], inv.forward(p, qs[i]))


@pytest.mark.parametrize("M", [1, 2, 5, 8])
@pytest.mark.parametrize("variant", ["exp", "square"])
def test_solve_matches_dense_solve(M, variant, rng):
    p = problem(M=M, variant=variant)
    qs = rng.uniform(-2, 2, size=(6, M))
    mats = p.laplacian + p.coefficient(qs)[:, :, None] * np.eye(M)
    for rhs in (rng.standard_normal((6, M)), rng.standard_normal((6, M, 3))):
        dense = np.linalg.solve(mats, rhs.reshape(6, M, -1)).reshape(rhs.shape)
        assert np.max(np.abs(inv._solve(p, qs, rhs) - dense)) <= 1e-12 * np.max(
            np.abs(dense)
        )


def test_problem_validation():
    with pytest.raises(ValueError):
        inv.EllipticProblem(M=2, f=np.array([1.0, -1.0]), variant="exp")
    with pytest.raises(ValueError):
        inv.EllipticProblem(M=2, f=np.ones(2), variant="cubic")


def test_discrete_laplacian_structure():
    p = problem(M=4)
    A = p.laplacian
    h2 = p.h**2
    assert p.h == pytest.approx(1.0 / 5.0)
    assert np.allclose(np.diag(A), 2.0 / h2)
    assert np.allclose(np.diag(A, 1), -1.0 / h2)
    assert np.allclose(np.diag(A, -1), -1.0 / h2)
    assert np.allclose(A, A.T)
    assert np.all(np.linalg.eigvalsh(A) > 0)
    assert np.count_nonzero(A - np.diag(np.diag(A)) - np.diag(np.diag(A, 1), 1)
                            - np.diag(np.diag(A, -1), -1)) == 0


# --- jacobian -----------------------------------------------------------------------


def test_jacobian_m1_hand_computed():
    # d/dq [f/(8+e^q)] at q=0 is -e^q/(8+e^q)^2 = -1/81; the paper's
    # sign-free matrix form has magnitude (1/9)*(1/9) = 1/81
    p = problem()
    J = inv.jacobian(p, np.array([0.0]))
    assert J[0, 0] == pytest.approx(-1.0 / 81.0, abs=1e-14)
    assert abs(J[0, 0]) == pytest.approx(1.0 / 81.0)


@pytest.mark.parametrize("M", [1, 2, 4, 8])
@pytest.mark.parametrize("variant", ["exp", "square"])
def test_jacobian_matches_finite_differences(M, variant, rng):
    p = problem(M=M, variant=variant)
    for _ in range(25):
        q = rng.uniform(-2, 2, M)
        J = inv.jacobian(p, q)
        Jfd = np.empty((M, M))
        h = 1e-6
        for j in range(M):
            e = np.zeros(M)
            e[j] = h
            Jfd[:, j] = (inv.forward(p, q + e) - inv.forward(p, q - e)) / (2 * h)
        assert np.max(np.abs(J - Jfd)) <= 1e-6 * max(1.0, np.max(np.abs(Jfd)))


def test_jacobian_square_zero_entry_column():
    p = problem(M=3, variant="square")
    q = np.array([1.0, 0.0, -0.5])
    J = inv.jacobian(p, q)
    assert np.allclose(J[:, 1], 0.0)


# --- posterior potential ---------------------------------------------------------------


def test_posterior_potential_zero_at_truth():
    p = problem()
    truth = np.array([0.4])
    mu = inv.posterior(p, truth, np.zeros(1), epsilon=0.1)
    assert mu.v1.value(truth) == pytest.approx(0.0, abs=1e-30)
    assert mu.v1.value(np.array([1.0])) > 0


def test_posterior_potential_nonnegative(rng):
    p = problem(M=2, f=10.0)
    mu = inv.posterior(p, np.zeros(2), rng.standard_normal(2), epsilon=0.01)
    pts = rng.uniform(-3, 3, size=(100, 2))
    assert np.all(mu.v1.value(pts) >= 0)


def test_gauss_newton_hessian_exact_at_truth():
    p = problem(M=2, f=5.0)
    truth = np.array([0.2, -0.3])
    family = inv.posterior_family(p, truth, np.zeros(2))
    J = inv.jacobian(p, truth)
    H = family.v1_limit.hessian(truth)
    assert np.allclose(H, J.T @ J, atol=1e-9)


def test_misfit_derivatives_match_finite_differences(rng):
    p = problem(M=2, f=3.0)
    family = inv.posterior_family(p, np.array([0.1, -0.2]), np.array([0.3, 0.1]))
    pot = family.v1_at(0.05)
    probes = rng.uniform(-1, 1, size=(5, 2))
    check_derivatives(pot, probes, rel_tol=1e-5)


@pytest.mark.parametrize("variant", ["exp", "square"])
def test_misfit_hessian_matches_finite_differences(variant, rng):
    p = problem(M=3, f=5.0, variant=variant)
    truth = np.array([0.3, -0.2, 0.5])
    y = inv.forward(p, truth) + 0.3 * rng.standard_normal(3)
    full = inv.misfit_potential(p, y)
    for x in rng.uniform(-1, 1, size=(4, 3)):
        H_fd = fd_hessian_from_grad(full, x)
        assert np.linalg.norm(full.hessian(x) - H_fd) <= 1e-7 * np.linalg.norm(H_fd)
        J = inv.jacobian(p, x)
        assert not np.allclose(full.hessian(x), J.T @ J, rtol=1e-3, atol=0)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["exp", "square"])
def test_misfit_kernel_matches_dense_reference(variant, M, rng):
    # the misfit |y - G(x)|^2 / 2 against dense solves of (A + Q) u = f,
    # J = -(A + Q)^-1 diag(u c'(x)) and w = (A + Q)^-1 r: the value, the
    # gradient -J^T r, and the Hessian's J^T J part, once the residual terms
    # diag(b) J + J^T diag(b) + diag(u w c''), b = w c', are taken out
    p = problem(M=M, f=5.0, variant=variant)
    n, K = 3, 5
    Y = inv.forward(p, rng.uniform(-0.5, 0.5, M)) + 0.3 * rng.standard_normal((n, M))
    X = rng.uniform(-1, 1, size=(n, K, M))
    q = X.reshape(n * K, M)
    mats = p.laplacian + p.coefficient(q)[:, :, None] * np.eye(M)
    u = np.linalg.solve(mats, np.broadcast_to(p.f[:, None], (n * K, M, 1)))[:, :, 0]
    J = -np.linalg.solve(mats, np.eye(M)) * (u * p.coefficient_derivative(q))[:, None, :]
    r = np.repeat(Y, K, axis=0) - u
    value0, none_g, none_h = inv._misfit(p, Y, X, 0)
    value1, grad1, none_h1 = inv._misfit(p, Y, X, 1)
    value2, grad2, hess2 = inv._misfit(p, Y, X, 2)
    assert none_g is none_h is none_h1 is None
    ref_value = 0.5 * np.sum(r * r, axis=1).reshape(n, K)
    for value in (value0, value1, value2):
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
    ref_grad = -np.einsum("nki,nk->ni", J, r).reshape(n, K, M)
    scale = np.max(np.abs(ref_grad))
    for grad in (grad1, grad2):
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * scale
    # the adjoint solve and S r give the same gradient
    assert np.max(np.abs(grad1 - grad2)) <= 1e-13 * scale
    w = np.linalg.solve(mats, r[:, :, None])[:, :, 0]
    bJ = (w * p.coefficient_derivative(q))[:, :, None] * J
    rest = bJ + bJ.transpose(0, 2, 1)
    idx = np.arange(M)
    rest[:, idx, idx] += u * w * p.coefficient_second_derivative(q)
    ref_gn = np.einsum("nki,nkj->nij", J, J)
    hess = hess2.reshape(n * K, M, M)
    assert np.max(np.abs(hess - rest - ref_gn)) <= 1e-11 * np.max(np.abs(hess))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["exp", "square"])
def test_misfit_potential_value_and_gradient_are_value_then_gradient(variant, M, rng):
    # the fused call is one _misfit at order 1; it returns the bits of the
    # separate value and gradient calls, at a batch and at a single point
    p = problem(M=M, f=5.0, variant=variant)
    pot = inv.misfit_potential(p, inv.forward(p, rng.uniform(-0.5, 0.5, M)) + 0.3)
    x = rng.uniform(-1.5, 1.5, size=(40, M))
    value, grad = pot.value_and_gradient(x)
    assert same_bits(value, pot.value(x)) and same_bits(grad, pot.gradient(x))
    value, grad = pot.value_and_gradient(x[3])
    assert isinstance(value, float)
    assert same_bits(value, pot.value(x[3])) and same_bits(grad, pot.gradient(x[3]))


@pytest.mark.parametrize("variant", ["exp", "square"])
def test_misfit_order_1_is_forward_and_one_adjoint_solve(variant, rng):
    # u and the adjoint w share one factorization; the bits are those of
    # forward and of a separate Thomas solve for w
    p = problem(M=4, f=5.0, variant=variant)
    n, K = 2, 6
    Y = inv.forward(p, rng.uniform(-0.5, 0.5, 4)) + 0.3 * rng.standard_normal((n, 4))
    X = rng.uniform(-1, 1, size=(n, K, 4))
    q = X.reshape(n * K, 4)
    u = inv.forward(p, q)
    r = np.repeat(Y, K, axis=0) - u
    w = inv._solve(p, q, r)
    value, grad, _ = inv._misfit(p, Y, X, 1)
    assert same_bits(value, 0.5 * np.sum((r * r).reshape(n, K, 4), axis=2))
    assert same_bits(grad, (u * p.coefficient_derivative(q) * w).reshape(n, K, 4))


def test_objective_evaluation_factors_the_forward_operator_once(monkeypatch):
    # one single-Gaussian objective evaluation on a posterior: the misfit's
    # value and gradient share one factorization of A + diag(c(q))
    p = problem(M=2, f=100.0)
    mu = inv.posterior(p, np.zeros(2), np.array([0.3, -0.2]), 1e-2)
    obj = objective._Objective(mu, 0.0, objective._gh_nodes(5, 2))
    theta = obj.pack(np.ones(1), [np.zeros(2)], [0.1 * np.eye(2)])
    factors = []
    factor = inv._factor
    monkeypatch.setattr(inv, "_factor", lambda p, qs: factors.append(len(qs)) or factor(p, qs))
    value, grad = obj.value_grad(theta)
    assert math.isfinite(value) and np.all(np.isfinite(grad))
    assert factors == [25]


def large_data_log_density(p, truth, etas, prior, x):
    """Unnormalized log posterior for N repeated observations
    y_i = G(truth) + eta_i (raw sum form), at the points x, shape (n, M)."""
    misfits, _, _ = inv._misfit(p, inv.forward(p, truth) + etas, x[None], 0)
    return -np.sum(misfits, axis=0) - prior.value(x)


def large_data_posterior(p, truth, etas, prior):
    """Completed-square equivalent of the repeated-observation posterior.

    Returns (measure, log_offset) with eps = 1/N and effective noise
    sqrt(N) * mean(etas); the raw-sum log density equals the measure's
    unnormalized log density plus ``log_offset`` pointwise.
    """
    n_obs = etas.shape[0]
    eta_bar = np.mean(etas, axis=0)
    measure = inv.posterior(p, truth, math.sqrt(n_obs) * eta_bar, 1.0 / n_obs, prior)
    log_offset = 0.5 * n_obs * float(eta_bar @ eta_bar) - 0.5 * float(np.sum(etas * etas))
    return measure, log_offset


def test_large_data_completed_square_identity(rng):
    # posterior with N i.i.d. draws equals the small-noise form with the
    # mean noise, up to an x-independent constant: the paper's eps = 1/N
    p = problem(M=2, f=5.0)
    truth = np.array([0.3, -0.1])
    etas = rng.standard_normal((16, 2))
    prior = quadratic(dim=2)
    measure, offset = large_data_posterior(p, truth, etas, prior)
    assert measure.epsilon == pytest.approx(1.0 / 16.0)
    pts = rng.uniform(-2, 2, size=(50, 2))
    raw = large_data_log_density(p, truth, etas, prior, pts)
    small = kg.unnormalized_log_density(measure, pts)
    assert np.max(np.abs(raw - (small + offset))) <= 1e-10


# --- limit mode set ----------------------------------------------------------------------


def test_limit_mode_set_exp():
    p = problem(M=2, f=10.0)
    truth = np.array([0.5, -0.5])
    ms = inv.limit_mode_set(p, truth)
    assert ms.n == 1
    assert np.allclose(ms.modes[0], truth)


def test_limit_mode_set_square_sign_flips():
    p = problem(M=2, f=10.0, variant="square")
    ms = inv.limit_mode_set(p, np.array([1.0, 0.5]))
    assert ms.n == 4
    expect = {(-1.0, -0.5), (-1.0, 0.5), (1.0, -0.5), (1.0, 0.5)}
    assert {tuple(m) for m in ms.modes} == expect


def test_limit_mode_set_solves_one_jacobian_per_mode(monkeypatch):
    # 2^M = 8 sign flips: one forward-map Jacobian each, and every Hessian is
    # J^T J of that Jacobian, bit for bit
    p = problem(M=3, f=10.0, variant="square")
    calls, jacobian = [], inv.jacobian

    def counting(p, q):
        calls.append(np.array(q))
        return jacobian(p, q)

    monkeypatch.setattr(inv, "jacobian", counting)
    ms = inv.limit_mode_set(p, np.array([1.0, 0.5, -0.8]))
    assert ms.n == 8 and len(calls) == 8
    assert np.array_equal(np.stack(calls), ms.modes)
    for m, H in zip(ms.modes, ms.hessians):
        J = jacobian(p, m)
        assert np.array_equal(H, J.T @ J)


def test_limit_mode_set_square_rejects_zero_truth():
    p = problem(M=1, variant="square")
    with pytest.raises(ValueError):
        inv.limit_mode_set(p, np.zeros(1))


def test_find_modes_agrees_with_limit_mode_set():
    # multistart search on the limit misfit rediscovers the sign flips
    p = problem(M=1, f=100.0, variant="square")
    family = inv.posterior_family(p, np.array([1.0]), np.zeros(1))
    found = kg.find_modes(family.v1_limit, family.v2, kg.MultistartConfig(box=(-3, 3)))
    ms = inv.limit_mode_set(p, np.array([1.0]))
    assert found.n == 2
    assert np.allclose(np.sort(found.modes.ravel()), ms.modes.ravel(), atol=1e-6)
    assert np.allclose(found.weights, ms.weights, atol=1e-8)


@pytest.mark.parametrize("truth", [[1.0], [1.0, 0.5]])
def test_find_modes_matches_limit_mode_set_closely(truth):
    # each of the 2^M sign flips of the truth, to rounding, with the
    # Gauss-Newton Hessian of limit_mode_set (exact at zero residual) and its
    # weight; the order of the modes is left to the rounding of their entries
    truth = np.array(truth)
    p = problem(M=len(truth), f=100.0, variant="square")
    family = inv.posterior_family(p, truth, np.zeros(p.M))
    found = kg.find_modes(family.v1_limit, family.v2, kg.MultistartConfig(box=family.default_box))
    ms = inv.limit_mode_set(p, truth)
    assert found.n == ms.n == 2**p.M
    match = [ms.nearest(m)[0] for m in found.modes]
    assert sorted(match) == list(range(ms.n))
    assert np.max(np.abs(found.modes - ms.modes[match])) <= 1e-12
    assert np.max(np.abs(found.hessians - ms.hessians[match])) <= 1e-12 * np.max(ms.hessians)
    assert np.max(np.abs(found.weights - ms.weights[match])) <= 1e-12


# --- asymptotic normality -----------------------------------------------------------------


def test_normality_exp_zero_noise():
    # eta = 0 with the truth at the prior mode: the zero-residual posterior
    # density peaks exactly at the truth for every eps, and the optimal
    # Gaussian mean approaches it at rate O(eps) (the finite-eps mean picks
    # up a curvature bias through (J^T J)^{-1}, so only the density mode is
    # exact)
    p = problem(M=2, f=100.0)
    truth = np.zeros(2)
    for eps in (1e-1, 1e-3):
        mu = inv.posterior(p, truth, np.zeros(2), eps)
        grad = mu.v1.gradient(truth) / eps + mu.v2.gradient(truth)
        assert np.max(np.abs(grad)) <= 1e-12
        x_hat, _, errors = mode_search(p, truth, np.zeros(2), eps, truth + 0.1)
        assert errors == [None]
        assert np.max(np.abs(x_hat[0] - truth)) <= 1e-8
    recs = inv.asymptotic_normality_check(
        p, truth, np.zeros(2), [1e-2, 1e-3, 1e-4], cfg=OptimizerConfig(multistart=2)
    )
    errs = [r.mean_err for r in recs]
    assert all(r.converged for r in recs)
    assert all(b < 0.2 * a for a, b in zip(errs, errs[1:]))  # O(eps) decay
    assert errs[-1] <= 1e-3


def test_posterior_mode_newton():
    # eta = 0 with the truth at the prior mode: the gradient vanishes exactly
    # at the truth, so Newton returns it unchanged with the exact Hessian
    p = problem(M=2, f=100.0)
    truth = np.zeros(2)
    eps = 1e-2
    J = inv.jacobian(p, truth)
    x_hat, h_eff, errors = mode_search(p, truth, np.zeros(2), eps, truth)
    assert errors == [None]
    assert np.array_equal(x_hat[0], truth)
    assert np.allclose(h_eff[0], J.T @ J + eps * np.eye(2), rtol=1e-13, atol=0)
    # one step does not reach the mode from truth + 0.1; in the same batch,
    # that draw's failure leaves the draw started at the mode converged
    x_hat, h_eff, errors = mode_search(p, truth, np.zeros(2), eps, [truth + 0.1, truth],
                                       max_steps=1)
    assert isinstance(errors[0], ArithmeticError)
    assert errors[1] is None
    assert np.array_equal(x_hat[1], truth)
    assert np.allclose(h_eff[1], J.T @ J + eps * np.eye(2), rtol=1e-13, atol=0)


def test_posterior_mode_from_indefinite_start():
    # weak data (f = 10) and a large noise draw: the exact Hessian at the
    # linearized start is indefinite, and Newton still descends to the mode
    p = problem(M=2, f=10.0)
    eps = 1e-2
    eta = np.array([-2.3, -0.2])
    mu = inv.posterior(p, np.zeros(2), eta, eps)
    x0 = math.sqrt(eps) * np.linalg.solve(inv.jacobian(p, np.zeros(2)), eta)
    h0 = mu.v1.hessian(x0) + eps * mu.v2.hessian(x0)
    assert np.min(np.linalg.eigvalsh(h0)) < 0
    x_hat, h_eff, errors = mode_search(p, np.zeros(2), eta, eps, x0)
    assert errors == [None]
    grad = mu.v1.gradient(x_hat[0]) / eps + mu.v2.gradient(x_hat[0])
    assert np.max(np.abs(grad)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(h_eff[0])) > 0


def test_normality_exp_fixed_noise_converges():
    p = problem(M=2, f=1000.0)
    truth = np.zeros(2)
    eta = np.array([0.7, -0.4])
    recs = inv.asymptotic_normality_check(
        p, truth, eta, [1e-2, 1e-3, 1e-4], cfg=OptimizerConfig(multistart=2)
    )
    errs = [r.mean_err for r in recs]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert recs[-1].mean_err <= 1e-2
    assert recs[-1].cov_rel_err <= 0.05


def test_posterior_m4_runs_below_gh_order_and_is_certified():
    # the benchmark's M = 4 posterior: f = 1000, eps = 1e-3, a fixed noise draw
    p = problem(M=4, f=1000.0)
    truth = np.zeros(4)
    eta = np.random.default_rng(1234).standard_normal(4)
    mu, ms = inv.posterior(p, truth, eta, 1e-3), inv.limit_mode_set(p, truth)
    cfg = OptimizerConfig(multistart=1)
    res = optim.minimize_single(mu, cfg, mode_set=ms)
    assert res.converged
    assert res.gh_order < cfg.gh_order
    assert res.gh_refine_error <= 1e-10 * max(1.0, abs(res.value))
    ref = optim._at_order(mu, res.log_z)(cfg.gh_order)
    chol = np.linalg.cholesky(res.rescaled_covariances)
    theta = ref.pack(np.ones(1), [res.params.mean], [chol])
    assert abs(ref.value_grad(theta)[0] - res.value) <= 1e-10
    # the certificate: the order used and the next ladder order agree at the point
    used = optim._at_order(mu, res.log_z)(res.gh_order).value_grad(theta)
    ladder = optim._gh_ladder(cfg, 4)
    next_order = ladder[ladder.index(res.gh_order) + 1]
    finer = optim._at_order(mu, res.log_z)(next_order).value_grad(theta)
    assert optim._agree(used, finer, cfg.grad_tol)


def test_gh_node_budget_at_d8(monkeypatch):
    # the M = 8 posterior: orders 2 and 5 disagree at the start, and the next
    # rung, order 10, has 1e8 nodes; no rule above the budget is built, and
    # the optimizer raises the named error instead
    built = []
    gauss_hermite = objective.gauss_hermite

    def recording(order, dim):
        z, w = gauss_hermite(order, dim)
        built.append(w.size)
        return z, w

    monkeypatch.setattr(objective, "gauss_hermite", recording)
    p = problem(M=8, f=1000.0)
    truth = np.zeros(8)
    eta = np.random.default_rng(1234).standard_normal(8)
    mu, ms = inv.posterior(p, truth, eta, 1e-3), inv.limit_mode_set(p, truth)
    with pytest.raises(quadrature.NodeBudgetError):
        optim.minimize_single(mu, OptimizerConfig(multistart=1), mode_set=ms)
    assert max(built) == 5**8
    assert max(built) <= quadrature.MAX_GH_NODES
    with pytest.raises(quadrature.NodeBudgetError):
        quadrature.gauss_hermite(10, 8)
    # the batched Newton walks the same ladder once and hands the error to
    # the BvM level as the draw's cause, where minimize_single would meet it
    built.clear()
    log_z = measure.log_laplace_normalization(ms, 1e-3)
    Y, prior = (inv.forward(p, truth) + math.sqrt(1e-3) * eta)[None], quadratic(dim=8)
    fits = optim._newton_singles(
        lambda idx, x, hessian: inv._misfit_derivatives(p, Y[idx], prior, 1e-3, x, hessian),
        1e-3, [log_z], ms.modes[:1], ms.hessians[:1], OptimizerConfig(multistart=1),
    )
    assert isinstance(fits.errors[0], quadrature.NodeBudgetError)
    assert not fits.certified[0]
    assert built == [2**8, 5**8]


def test_elliptic_m3_keeps_gh_order():
    # f = 100 at eps = 0.1: a wide posterior, on which orders 10 and 20 differ
    # by 3.6e-3 at the start, so the ladder climbs to the reference order
    p = problem(M=3, f=100.0)
    truth = np.zeros(3)
    mu = inv.posterior(p, truth, np.zeros(3), 0.1)
    ms = inv.limit_mode_set(p, truth)
    cfg = OptimizerConfig(multistart=1)
    res = optim.minimize_single(mu, cfg, mode_set=ms)
    theta0 = optim._at_order(mu, res.log_z)(10).pack(
        np.ones(1), ms.modes, [np.linalg.cholesky(np.linalg.inv(ms.hessians[0]))]
    )
    v10, v20 = (optim._at_order(mu, res.log_z)(k).value_grad(theta0)[0] for k in (10, 20))
    assert abs(v10 - v20) > 1e-3
    assert res.converged
    assert res.gh_order == 20
    assert len(res.traces) == 1  # no continuation: BFGS ran at order 20 throughout


def test_normality_exp_m4_converges():
    p = problem(M=4, f=1000.0)
    truth = np.zeros(4)
    eta = np.array([0.7, -0.4, 0.3, -0.2])
    recs = inv.asymptotic_normality_check(
        p, truth, eta, [1e-2, 1e-3, 1e-4], cfg=OptimizerConfig(multistart=2)
    )
    assert all(r.converged for r in recs)
    for errs in ([r.mean_err for r in recs], [r.cov_rel_err for r in recs]):
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_normality_square_mixture_limit():
    # Thm 5.2(ii) at M=1: two modes, weights from |det DG|^{-1} e^{-V0};
    # the even prior makes the limit weights exactly uniform
    p = problem(M=1, f=100.0, variant="square")
    truth = np.array([1.0])
    ms = inv.limit_mode_set(p, truth)
    assert np.allclose(ms.weights, [0.5, 0.5], atol=1e-12)
    recs = inv.asymptotic_normality_check(
        p, truth, np.array([0.3]), [1e-3, 1e-4], cfg=OptimizerConfig(multistart=2)
    )
    last = recs[-1]
    assert last.converged
    assert last.mean_err <= 1e-2
    assert last.cov_rel_err <= 0.05
    assert last.weight_dist <= 2e-2


# --- BvM experiment --------------------------------------------------------------------


@pytest.fixture(scope="module")
def bvm_smoke():
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(
        truth=np.array([0.0]), eps_list=(3e-2, 1e-2, 3e-3), draws=30, seed=20
    )
    return inv.bvm_experiment(p, cfg)


def test_bvm_mean_kl_nonnegative_and_decreasing(bvm_smoke):
    kls = [lv.mean_kl for lv in bvm_smoke.levels]
    assert all(k >= 0 for k in kls)
    assert all(b < a for a, b in zip(kls, kls[1:]))
    assert all(lv.failures == 0 for lv in bvm_smoke.levels)


def test_bvm_pinsker_holds_per_draw(bvm_smoke):
    for lv in bvm_smoke.levels:
        assert lv.pinsker_violations == 0
        assert np.all(lv.tv_values <= np.sqrt(np.maximum(lv.kl_values, 0) / 2) + 1e-3)


def test_bvm_markov_tail_consistency(bvm_smoke):
    for lv in bvm_smoke.levels:
        assert lv.tv_violations <= 0.01 * len(lv.kl_values) + 1
        assert lv.tv_violations == 0


def test_bvm_slope_near_linear(bvm_smoke):
    assert bvm_smoke.rate_fit is not None
    assert 0.8 <= bvm_smoke.rate_fit.slope <= 1.2


def test_bvm_jobs_is_ignored():
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    serial = inv.bvm_experiment(p, cfg, jobs=1)
    threaded = inv.bvm_experiment(p, cfg, jobs=4)
    assert np.array_equal(serial.levels[0].kl_values, threaded.levels[0].kl_values)


def test_bvm_failed_draws_keep_their_cause(monkeypatch):
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, 1))
    newton_single = optim._newton_single
    # the posterior modes of the draws with eta > 1, Newton's starts for them
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    _, modes, _, _ = inv._draw_modes(p, cfg.truth, etas, cfg.eps_list[0], quadratic(dim=1), j_inv)
    failing = {tuple(m) for m in modes[etas[:, 0] > 1.0] / math.sqrt(cfg.eps_list[0])}

    def failing_newton(phi, eps, v, nodes):
        *out, errs = newton_single(phi, eps, v, nodes)
        return (*out, [np.linalg.LinAlgError("singular") if tuple(row[:1]) in failing else e
                       for row, e in zip(v, errs)])

    monkeypatch.setattr(optim, "_newton_single", failing_newton)
    level = inv.bvm_experiment(p, cfg).levels[0]
    n_failed = int(np.sum(etas[:, 0] > 1.0))
    assert n_failed > 0
    assert level.failures == n_failed
    assert level.failure_causes == {"LinAlgError": n_failed}

    def broken_newton(*args):
        raise TypeError("a programming error is not a failed draw")

    monkeypatch.setattr(optim, "_newton_single", broken_newton)
    with pytest.raises(TypeError):
        inv.bvm_experiment(p, cfg)
    monkeypatch.setattr(optim, "_newton_single", newton_single)

    # a mode search stopped inside the batch fails its draw with the cause
    posterior_mode = inv._posterior_mode

    def one_step(*args):
        return posterior_mode(*args, max_steps=1)

    monkeypatch.setattr(inv, "_posterior_mode", one_step)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failures == cfg.draws
    assert level.failure_causes == {"ArithmeticError": cfg.draws}

    # a mode whose Hessian is not positive definite fails its draw, as ModeSet would
    def indefinite(*args):
        X, hess, errs = posterior_mode(*args)
        hess[etas[:, 0] > 1.0] *= -1.0
        return X, hess, errs

    monkeypatch.setattr(inv, "_posterior_mode", indefinite)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failure_causes == {"DegenerateModeError": n_failed}


def bvm_m1_config():
    doc = json.loads(resources.files("klgauss").joinpath("configs/bvm-m1.json").read_text())
    p = inv.EllipticProblem(M=doc["M"], f=np.asarray(doc["f"]), variant=doc["variant"])
    cfg = inv.BvMConfig(truth=np.asarray(doc["truth"]), eps_list=tuple(doc["eps_list"]),
                        draws=doc["draws"], seed=doc["seed"])
    return p, cfg


def draw_target(p, y, eps, prior, x_hat, h_eff):
    """Posterior of one noise draw with data y (a row of _draw_modes' Y) and
    mode x_hat, and its one-mode set: the inputs of minimize_single."""
    mu = kg.TargetMeasure(inv.misfit_potential(p, y), prior, eps)
    ms = kg.ModeSet(modes=x_hat[None, :], hessians=h_eff[None, :, :],
                    v2_values=np.array([prior.value(x_hat)]))
    return mu, ms


def level_posteriors(p, cfg, eps, grid_spec=None):
    """Every draw's data and (mu, mode set, log Z, log Z integral), as
    bvm_experiment builds them."""
    prior = quadratic(dim=p.M)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, p.M))
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    Y, modes, h_effs, errors = inv._draw_modes(p, cfg.truth, etas, eps, prior, j_inv)
    assert errors == [None] * cfg.draws
    targets = [
        draw_target(p, y, eps, prior, x_hat, h_eff)
        for y, x_hat, h_eff in zip(Y, modes, h_effs)
    ]
    integrals = inv._draw_integrals(p, Y, eps, prior, grid_spec or inv.GridSpec(), modes, h_effs)
    posts = [
        (mu, ms, getattr(integral, "log_value", None), integral)
        for (mu, ms), integral in zip(targets, integrals)
    ]
    return Y, prior, posts


def test_bvm_batched_log_z_is_quadrature_normalization_per_draw():
    # every draw of bvm-m1 at every eps, and a few M = 2 draws: the batched
    # Simpson pass gives quadrature_normalization's integral on the accepted
    # box and resolution, bit for bit
    p, cfg = bvm_m1_config()
    cases = [(p, cfg, eps) for eps in cfg.eps_list]
    p2 = problem(M=2, f=100.0)
    cfg2 = inv.BvMConfig(truth=np.zeros(2), eps_list=(1e-1, 1e-2), draws=4, seed=20)
    cases += [(p2, cfg2, eps) for eps in cfg2.eps_list]
    widened, resolutions = 0, set()
    for p, cfg, eps in cases:
        _, _, posts = level_posteriors(p, cfg, eps)
        for mu, ms, _, batched in posts:
            grid = batched.grid
            spec = inv.GridSpec(box=(grid.lo, grid.hi), points_per_dim=grid.points_per_dim)
            single = kg.quadrature_normalization(mu, spec, mode_set=ms)
            for name in ("log_value", "value", "error_estimate", "boundary_ratio"):
                assert getattr(batched, name) == getattr(single, name)
            assert np.array_equal(grid.lo, single.grid.lo)
            assert np.array_equal(grid.hi, single.grid.hi)
            assert grid.points_per_dim == single.grid.points_per_dim
            box = measure._first_boxes(inv.GridSpec(), eps, 1, ms.modes[None], ms.hessians[None])
            widened += not np.array_equal(grid.lo, box[0][0])
            resolutions.add((p.M, grid.points_per_dim))
    assert widened > 0  # the widen-and-redo loop ran inside the batch
    # bvm-m1 boxes are sized by the posterior's width; M = 2 takes the cap
    assert {(1, 513), (1, 1025), (2, 257)} <= resolutions


@pytest.mark.parametrize("case, eps, boxes, every_box", [
    ("bvm-m1", 0.1, 100, 497), ("bvm-m1", 0.03, 100, 451), ("M=2", 0.01, 30, 149),
])
def test_bvm_face_check_integrates_each_box_once(
        case, eps, boxes, every_box, integrate_every_box, assert_same_integrals, monkeypatch):
    # every draw's log Z is the one integrating every box of every round,
    # each at its own Simpson rung, gives, field for field, but each draw's
    # box is integrated once: the posterior modes hold the maximum, so a box
    # whose faces fail against it is widened without being integrated
    if case == "bvm-m1":
        p, cfg = bvm_m1_config()
    else:
        p = problem(M=2, f=100.0)
        cfg = inv.BvMConfig(truth=np.zeros(2), eps_list=(eps,), draws=30, seed=20)
    prior = quadratic(dim=p.M)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, p.M))
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    Y, modes, h_effs, errors = inv._draw_modes(p, cfg.truth, etas, eps, prior, j_inv)
    assert errors == [None] * cfg.draws
    spec = inv.GridSpec()
    integrated = []
    stack = inv.integrate_exp_stack
    monkeypatch.setattr(inv, "integrate_exp_stack",
                        lambda f, lo, hi, n, *log_q: integrated.append(len(lo)) or stack(f, lo, hi, n, *log_q))
    results = inv._draw_integrals(p, Y, eps, prior, spec, modes, h_effs)
    assert sum(integrated) == boxes == cfg.draws
    log_f = inv._log_posterior(p, Y, eps, prior)
    lo, hi = measure._first_boxes(spec, eps, cfg.draws, modes[:, None], h_effs[:, None])
    widths = np.sqrt(eps / np.linalg.eigvalsh(h_effs)[:, -1])
    reference, rounds = integrate_every_box(
        lambda idx, lo, hi, n: stack(lambda j, pts: log_f(idx[j], pts), lo, hi, n),
        lo, hi, spec, widths)
    assert_same_integrals(results, reference)
    assert sum(rounds) == every_box


def test_bvm_draw_without_positive_curvature_fails_the_box_check(assert_same_integrals):
    # a draw whose Hessian at the mode has lambda_min <= 0 has no finite
    # 6-sigma ball (radius inf at 0, nan below): its box fails make_grid's
    # check with ValueError, where a floor once gave it a radius-2 box, and
    # the other draws keep the integrals they have without it
    p, cfg = bvm_m1_config()
    eps = 1e-2
    prior = quadratic(dim=p.M)
    etas = np.random.default_rng(cfg.seed).standard_normal((6, p.M))
    Y, modes, h_effs, errors = inv._draw_modes(p, cfg.truth, etas, eps, prior,
                                               np.linalg.inv(inv.jacobian(p, cfg.truth)))
    assert errors == [None] * len(etas)
    spec = inv.GridSpec()
    want = inv._draw_integrals(p, Y, eps, prior, spec, modes, h_effs)
    bad = h_effs.copy()
    bad[1] = 0.0
    bad[3] = -bad[3]
    got = inv._draw_integrals(p, Y, eps, prior, spec, modes, bad)
    for i in (1, 3):
        assert type(got[i]) is ValueError and str(got[i]) == measure._BAD_BOX
    keep = [0, 2, 4, 5]
    assert_same_integrals([got[i] for i in keep], [want[i] for i in keep])


def test_bvm_batched_log_z_on_an_explicit_box():
    # with grid_spec.box every draw's box is that box, used as given
    p, cfg = bvm_m1_config()
    spec = inv.GridSpec(box=([-2.0], [2.5]))
    _, _, posts = level_posteriors(p, cfg, 1e-2, spec)
    for mu, ms, _, batched in posts:
        single = kg.quadrature_normalization(mu, spec, mode_set=ms)
        assert batched.log_value == single.log_value
        assert batched.grid.lo.tolist() == [-2.0] and batched.grid.hi.tolist() == [2.5]


def test_bvm_batched_tv_matches_tv_distance_grid():
    # TV from the fused log Z pass on each draw's log Z grid against the
    # one-box tv_distance_grid with GaussianParams.log_density, for Gaussians
    # from the Laplace point; the pass gives the same log Z as without them
    p, cfg = bvm_m1_config()
    p2 = problem(M=2, f=100.0)
    cfg2 = inv.BvMConfig(truth=np.zeros(2), eps_list=(1e-2,), draws=4, seed=20)
    for p, cfg, eps in ((p, cfg, 1e-1), (p, cfg, 1e-3), (p2, cfg2, 1e-2)):
        Y, prior, posts = level_posteriors(p, cfg, eps)
        gaussians = [
            kg.GaussianParams(ms.modes[0], 1.1 * np.linalg.cholesky(np.linalg.inv(ms.hessians[0]) * eps))
            for _, ms, _, _ in posts
        ]
        modes = np.stack([ms.modes[0] for _, ms, _, _ in posts])
        h_effs = np.stack([ms.hessians[0] for _, ms, _, _ in posts])
        log_q = inv._log_gaussian(np.stack([g.mean for g in gaussians]),
                                  np.stack([g.chol for g in gaussians]), np.ones(len(posts), dtype=bool))
        fused = inv._draw_integrals(p, Y, eps, prior, inv.GridSpec(), modes, h_effs, log_q)
        for (mu, _, log_z, integral), gauss, batched in zip(posts, gaussians, fused):
            assert batched.log_value == log_z and math.isnan(integral.tv)
            assert np.array_equal(batched.grid.lo, integral.grid.lo)

            def log_mu(pts):
                return kg.unnormalized_log_density(mu, pts) - log_z

            single = quadrature.tv_distance_grid(gauss.log_density, log_mu, integral.grid)
            assert 0.0 < single < 1.0
            assert abs(batched.tv - single) <= 1e-12


def test_bvm_draw_whose_box_stays_too_small_fails_alone():
    # bvm-m1 at eps 0.04 with 3 widenings: every first box, of 6 posterior
    # widths, fails the tail check (exp(-18) of the peak at a Gaussian's
    # faces), and the skewed posteriors of 80 draws still fail it at 20
    # widths; the other 20 draws give the KL values of the default run
    p, cfg = bvm_m1_config()
    cfg = inv.BvMConfig(truth=cfg.truth, eps_list=(0.04,), draws=cfg.draws, seed=cfg.seed)
    narrow = inv.GridSpec(max_expand=3)
    level = inv.bvm_experiment(p, cfg, grid_spec=narrow).levels[0]
    assert level.n_ok == 20
    assert level.failure_causes == {"BoxTooSmallError": 80}
    _, _, posts = level_posteriors(p, cfg, 0.04, narrow)
    ok = [not isinstance(post[3], Exception) for post in posts]
    default = inv.bvm_experiment(p, cfg).levels[0]
    assert default.n_ok == cfg.draws
    assert np.array_equal(level.kl_values, default.kl_values[ok])


def test_bvm_draw_whose_integrand_is_nowhere_finite_fails_alone(monkeypatch):
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, 1))
    y_cut = inv.forward(p, cfg.truth)[0] + math.sqrt(1e-2) * 1.0
    log_posterior = inv._log_posterior

    def nan_above_cut(p, Y, eps, prior):
        log_f = log_posterior(p, Y, eps, prior)

        def broken(idx, pts):
            return np.where((Y[idx, 0] > y_cut)[:, None], np.nan, log_f(idx, pts))

        return broken

    monkeypatch.setattr(inv, "_log_posterior", nan_above_cut)
    level = inv.bvm_experiment(p, cfg).levels[0]
    n_failed = int(np.sum(etas[:, 0] > 1.0))
    assert 0 < n_failed < cfg.draws
    assert level.failure_causes == {"ValueError": n_failed}
    monkeypatch.undo()
    default = inv.bvm_experiment(p, cfg).levels[0]
    assert np.array_equal(level.kl_values, default.kl_values[etas[:, 0] <= 1.0])


def bvm_optimizer_config(cfg):
    return OptimizerConfig(multistart=1, seed=cfg.seed, grad_tol=1e-7)


def test_bvm_newton_agrees_with_bfgs_and_is_certified():
    # every draw of bvm-m1 at every eps: the batched Newton point passes the
    # certificate, and its mean and factor are within 1e-6 of the scale
    # sqrt(eps) L of the BFGS point minimize_single returns.  The batched
    # certificate (_single_kl) is minimize_single's objective (_Objective) at
    # the Newton points and at the starts: values to 1e-13 absolute,
    # gradients to 1e-2 * grad_tol, the bound _agree uses
    p, cfg = bvm_m1_config()
    opt_cfg = bvm_optimizer_config(cfg)
    nodes = objective._gh_nodes(opt_cfg.gh_order, 1)
    for eps in cfg.eps_list:
        Y, prior, posts = level_posteriors(p, cfg, eps)
        mus, mode_sets, log_zs, _ = zip(*posts)
        modes = np.stack([ms.modes[0] for ms in mode_sets])
        hessians = np.stack([ms.hessians[0] for ms in mode_sets])

        def phi(idx, x, hessian):
            return inv._misfit_derivatives(p, Y[idx], prior, eps, x, hessian)

        fits = optim._newton_singles(phi, eps, log_zs, modes, hessians, opt_cfg)
        assert fits.certified.all()
        assert fits.errors == [None] * len(mus)
        assert np.all(fits.orders == opt_cfg.gh_order)
        starts = np.linalg.cholesky(np.linalg.inv(hessians))
        for means, chols in ((fits.means, fits.chols), (modes, starts)):
            v = optim._to_v(means, chols, eps)
            values, grads = optim._single_kl(phi, eps, nodes, np.array(log_zs), v)
            if means is fits.means:
                assert np.array_equal(values, fits.values + np.array(log_zs))
            for i, (mu, log_z) in enumerate(zip(mus, log_zs)):
                obj = optim._at_order(mu, log_z)(opt_cfg.gh_order)
                value, grad = obj.value_grad(obj.pack(np.ones(1), means[i : i + 1], chols[i : i + 1]))
                assert abs(value - values[i]) <= 1e-13
                assert np.max(np.abs(grad - grads[i])) <= 1e-2 * opt_cfg.grad_tol
                if means is fits.means:
                    assert np.max(np.abs(grad)) <= opt_cfg.grad_tol
        for i, (mu, ms, log_z) in enumerate(zip(mus, mode_sets, log_zs)):
            bfgs = optim.minimize_single(mu, opt_cfg, mode_set=ms, log_z=log_z)
            scale = np.max(np.abs(bfgs.params.chol))
            chol = math.sqrt(eps) * fits.chols[i]
            assert np.max(np.abs(fits.means[i] - bfgs.params.mean)) <= 1e-6 * scale
            assert np.max(np.abs(chol - bfgs.params.chol)) <= 1e-6 * scale


def test_newton_single_chunks_are_bit_identical(monkeypatch):
    # M = 2, order 20: 400 nodes a draw; a chunk of 1,000 points splits the
    # 5 draws 2 + 2 + 1, and every output matches the unchunked run exactly
    p = problem(M=2, f=100.0)
    cfg = inv.BvMConfig(truth=np.zeros(2), eps_list=(1e-2,), draws=5, seed=3)
    eps, prior = 1e-2, quadratic(dim=2)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, p.M))
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    Y, modes, h_effs, errors = inv._draw_modes(p, cfg.truth, etas, eps, prior, j_inv)
    assert errors == [None] * cfg.draws
    chols = np.linalg.cholesky(np.linalg.inv(h_effs))

    def run():
        return optim._newton_single(
            lambda idx, x, hessian: inv._misfit_derivatives(p, Y[idx], prior, eps, x, hessian),
            eps, objective._to_v(modes, chols, eps), objective._gh_nodes(20, 2),
        )

    whole = run()
    calls = []
    misfit = inv._misfit_derivatives

    def counting(p, Y, prior, eps, X, hessian):
        calls.append(X.shape[0])
        return misfit(p, Y, prior, eps, X, hessian)

    monkeypatch.setattr(inv, "_misfit_derivatives", counting)
    monkeypatch.setattr(objective, "_SINGLE_CHUNK_POINTS", 1000)
    chunked = run()
    assert calls[:3] == [2, 2, 1]
    assert chunked[2] == whole[2] == [None] * cfg.draws
    assert whole[1].max() >= 2
    for a, b in zip(chunked[:2], whole[:2]):
        assert np.array_equal(a, b)


def test_single_evaluate_splits_a_rule_above_the_chunk(monkeypatch):
    # M = 2, order 20: 400 nodes a draw; a chunk of 150 points gives every
    # call one draw and at most 150 nodes, and the slices' sums match the
    # whole rule's to rounding
    p, eps, prior = problem(M=2, f=100.0), 1e-2, quadratic(dim=2)
    rng = np.random.default_rng(8)
    Y = inv.forward(p, np.zeros(2)) + math.sqrt(eps) * rng.standard_normal((3, 2))
    v = np.array([[0.1, -0.2, 0.9, 1.1, 0.1], [0.0, 0.3, 1.2, 0.8, -0.2], [-0.1, 0.0, 1.0, 1.0, 0.0]])
    calls = []

    def phi(idx, x, hessian):
        calls.append(x.shape[:2])
        return inv._misfit_derivatives(p, Y[idx], prior, eps, x, hessian)

    def run():
        return objective._single_evaluate(phi, eps, objective._gh_nodes(20, 2), np.arange(3), v)

    whole = run()
    assert calls == [(3, 400)]
    calls.clear()
    monkeypatch.setattr(objective, "_SINGLE_CHUNK_POINTS", 150)
    split = run()
    assert sorted(set(calls)) == [(1, 100), (1, 150)] and len(calls) == 9
    for a, b in zip(split, whole):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_bvm_newton_failure_fails_every_draw(monkeypatch):
    # Newton is the panel's only optimizer: where it fails, the draw fails
    # with Newton's own error, and nothing reaches minimize_single
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    newton_single = optim._newton_single

    def failing_newton(*args, **kwargs):
        v, steps, errors = newton_single(*args, **kwargs)
        return v, steps, [ArithmeticError("forced")] * len(errors)

    def no_minimize_single(*args, **kwargs):
        raise AssertionError("the panel called minimize_single")

    monkeypatch.setattr(optim, "_newton_single", failing_newton)
    # inverse reaches minimize_single only through gamma.sweep
    monkeypatch.setattr(gamma, "minimize_single", no_minimize_single)
    monkeypatch.setattr(optim, "minimize_single", no_minimize_single)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failures == cfg.draws and level.n_ok == 0
    assert level.failure_causes == {"ArithmeticError": cfg.draws}
    assert level.aborted


def test_bvm_panel_runs_without_minimize_single_or_bfgs(monkeypatch, bvm_smoke):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the panel called minimize_single or BFGS")

    monkeypatch.setattr(gamma, "minimize_single", no_optimizer)
    monkeypatch.setattr(optim, "minimize_single", no_optimizer)
    monkeypatch.setattr(optim, "_scipy_minimize", no_optimizer)
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(3e-2, 1e-2, 3e-3), draws=30, seed=20)
    result = inv.bvm_experiment(p, cfg)
    for level, smoke in zip(result.levels, bvm_smoke.levels):
        assert level.failures == 0
        assert np.array_equal(level.kl_values, smoke.kl_values)
        assert np.array_equal(level.tv_values, smoke.tv_values)


def test_bvm_level_uncertified_newton_points_are_not_converged():
    # no Newton endpoint has a gradient of at most 1e-300: every draw fails
    # the certificate, without an exception, and counts as NotConverged
    p, eps, prior = problem(M=1, f=100.0), 1e-2, quadratic(dim=1)
    truth = np.zeros(1)
    etas = np.random.default_rng(4).standard_normal((30, 1))
    j_inv = np.linalg.inv(inv.jacobian(p, truth))
    outcomes = inv._bvm_level(p, truth, etas, eps, prior, inv.GridSpec(),
                              OptimizerConfig(grad_tol=1e-300), j_inv)
    assert len(outcomes) == 30
    for o in outcomes:
        assert not o["converged"] and "cause" not in o
        assert math.isnan(o["kl"]) and math.isnan(o["tv"])
    default = inv._bvm_level(p, truth, etas, eps, prior, inv.GridSpec(),
                             OptimizerConfig(grad_tol=1e-7), j_inv)
    assert all(o["converged"] and math.isfinite(o["tv"]) for o in default)


def two_pass_level(p, truth, etas, eps, prior, spec, opt_cfg):
    """A BvM level by two Simpson passes over each draw's box: log Z first
    (_draw_integrals without Gaussians), then Newton with the Simpson log Z
    on the draws it leaves, the KL by _single_kl at that log Z, and TV by
    tv_distance_stack on the accepted boxes and resolutions, with the
    Gaussian's log density written out.  Returns per draw the KL, the TV
    (NaN where there is none) and the cause (None where there is none)."""
    j_inv = np.linalg.inv(inv.jacobian(p, truth))
    Y, modes, h_effs, errors = inv._draw_modes(p, truth, etas, eps, prior, j_inv)
    assert errors == [None] * len(etas)
    kl, tv = np.full(len(etas), math.nan), np.full(len(etas), math.nan)
    integrals = inv._draw_integrals(p, Y, eps, prior, spec, modes, h_effs)
    causes = [type(g).__name__ if isinstance(g, Exception) else None for g in integrals]
    idx = np.array([i for i, cause in enumerate(causes) if cause is None])
    log_zs = np.array([integrals[i].log_value for i in idx])

    def phi(j, x, hessian):
        return inv._misfit_derivatives(p, Y[idx[j]], prior, eps, x, hessian)

    fits = optim._newton_singles(phi, eps, log_zs, modes[idx], h_effs[idx], opt_cfg)
    for i, exc in zip(idx, fits.errors):
        causes[i] = None if exc is None else type(exc).__name__
    for order in set(fits.orders[fits.certified]):
        j = np.flatnonzero(fits.certified & (fits.orders == order))
        v = optim._to_v(fits.means[j], fits.chols[j], eps)
        kl[idx[j]] = optim._single_kl(lambda k, x, hessian: phi(j[k], x, hessian), eps,
                                      objective._gh_nodes(order, p.M), log_zs[j], v)[0]
    ok = np.flatnonzero(fits.certified)
    means, chols, log_z = fits.means[ok], math.sqrt(eps) * fits.chols[ok], log_zs[ok]
    inv_chols = np.linalg.inv(chols)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    log_norm = 0.5 * (p.M * LOG_2PI + log_det)

    def log_gauss(k, pts):
        z = np.einsum("kab,knb->kna", inv_chols[k], pts - means[k][:, None, :])
        return -0.5 * np.sum(z * z, axis=2) - log_norm[k][:, None]

    log_f = inv._log_posterior(p, Y[idx[ok]], eps, prior)
    grids = [integrals[i].grid for i in idx[ok]]
    resolution = np.array([g.points_per_dim for g in grids])
    for n in set(resolution):
        k = np.flatnonzero(resolution == n)
        tv[idx[ok[k]]] = quadrature.tv_distance_stack(
            lambda j, pts: log_gauss(k[j], pts), lambda j, pts: log_f(k[j], pts) - log_z[k[j]][:, None],
            np.stack([grids[j].lo for j in k]), np.stack([grids[j].hi for j in k]), n)
    return kl, tv, causes


@pytest.mark.parametrize("case, eps, max_expand", [
    ("bvm-m1", 1e-1, 8), ("bvm-m1", 1e-3, 8), ("M=2", 1e-2, 8), ("bvm-m1", 0.04, 3),
])
def test_bvm_level_matches_the_two_pass_route(case, eps, max_expand):
    # Newton first, with the Laplace log Z, then one Simpson pass per box
    # that gives log Z and TV: the KL, TV and failure causes of the two-pass
    # route, bit for bit.  At M <= 2 the GH ladder is one order, so the
    # certificate does not depend on log Z; with 3 widenings at eps 0.04
    # 80 draws fail with BoxTooSmallError on both routes
    if case == "bvm-m1":
        p, cfg = bvm_m1_config()
    else:
        p = problem(M=2, f=100.0)
        cfg = inv.BvMConfig(truth=np.zeros(2), eps_list=(eps,), draws=30, seed=20)
    prior, spec = quadratic(dim=p.M), inv.GridSpec(max_expand=max_expand)
    opt_cfg = OptimizerConfig(grad_tol=1e-7)  # bvm_experiment's
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, p.M))
    kl, tv, causes = two_pass_level(p, cfg.truth, etas, eps, prior, spec, opt_cfg)
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    outcomes = inv._bvm_level(p, cfg.truth, etas, eps, prior, spec, opt_cfg, j_inv)
    assert [o.get("cause") for o in outcomes] == causes
    assert [o["converged"] for o in outcomes] == list(np.isfinite(kl))
    assert np.array_equal([o["kl"] for o in outcomes], kl, equal_nan=True)
    assert np.array_equal([o["tv"] for o in outcomes], tv, equal_nan=True)
    assert causes.count("BoxTooSmallError") == (80 if max_expand == 3 else 0)


def test_bvm_level_oracle_cause_precedes_newtons(monkeypatch):
    # bvm-m1 at eps 0.04 with 3 widenings: 80 draws fail the tail check
    # (see test_bvm_draw_whose_box_stays_too_small_fails_alone).
    # Newton now runs before the oracle, on every draw.  It is forced to fail
    # every third draw, leaving a NaN mean and a singular factor (whose
    # Gaussian would raise in np.linalg.inv if it were evaluated), and to
    # leave the next draw uncertified.  A draw that fails both keeps the
    # oracle's cause, as when the oracle ran first; an uncertified draw has
    # no KL and TV NaN; the other draws keep the default run's KL and TV
    p, cfg = bvm_m1_config()
    eps, prior, opt_cfg = 0.04, quadratic(dim=1), OptimizerConfig(grad_tol=1e-7)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, 1))
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    newton_singles = optim._newton_singles

    def forcing(*args):
        fits = newton_singles(*args)
        assert len(fits.certified) == cfg.draws and fits.certified.all()
        for i in range(0, cfg.draws, 3):
            fits.errors[i] = ArithmeticError("forced")
            fits.means[i], fits.chols[i], fits.values[i] = math.nan, 0.0, math.nan
        fits.certified[0::3] = fits.certified[1::3] = False
        return fits

    monkeypatch.setattr(inv, "_newton_singles", forcing)
    narrow = inv.GridSpec(max_expand=3)
    level = inv._bvm_level(p, cfg.truth, etas, eps, prior, narrow, opt_cfg, j_inv)
    monkeypatch.undo()
    default = inv._bvm_level(p, cfg.truth, etas, eps, prior, inv.GridSpec(), opt_cfg, j_inv)
    _, _, posts = level_posteriors(p, cfg, eps, narrow)
    too_small = [isinstance(post[3], quadrature.BoxTooSmallError) for post in posts]
    assert sum(too_small) == 80
    for i, (o, d) in enumerate(zip(level, default)):
        if too_small[i]:
            assert o["cause"] == "BoxTooSmallError"
        elif i % 3 == 0:
            assert o["cause"] == "ArithmeticError"
        elif i % 3 == 1:
            assert "cause" not in o and not o["converged"]
            assert math.isnan(o["kl"]) and math.isnan(o["tv"])
        else:
            assert o == d and o["converged"] and math.isfinite(o["tv"])
    # every pairing of the oracle's outcome with Newton's occurs
    assert {(too_small[i], i % 3) for i in range(cfg.draws)} == {
        (s, r) for s in (False, True) for r in range(3)}


def test_bvm_level_above_m3_takes_the_laplace_log_z(monkeypatch):
    # above M = 3 the panel has no Simpson oracle: every draw's log Z is the
    # Laplace value of its one-mode set, bit for bit, and TV is NaN
    p, eps, prior = problem(M=4, f=1000.0), 1e-3, quadratic(dim=4)
    truth = np.zeros(4)
    etas = np.random.default_rng(5).standard_normal((2, 4))
    j_inv = np.linalg.inv(inv.jacobian(p, truth))
    opt_cfg = OptimizerConfig(multistart=1)
    Y, modes, h_effs, errors = inv._draw_modes(p, truth, etas, eps, prior, j_inv)
    assert errors == [None, None]
    seen, newton_singles = [], optim._newton_singles

    def recording(phi, eps, log_zs, *args):
        seen.append(np.array(log_zs))
        return newton_singles(phi, eps, log_zs, *args)

    monkeypatch.setattr(inv, "_newton_singles", recording)
    outcomes = inv._bvm_level(p, truth, etas, eps, prior, inv.GridSpec(), opt_cfg, j_inv)
    mode_sets = [draw_target(p, Y[i], eps, prior, modes[i], h_effs[i])[1] for i in range(2)]
    expected = [measure.log_laplace_normalization(ms, eps) for ms in mode_sets]
    assert np.array_equal(seen[0], expected)
    assert all(o["converged"] and math.isfinite(o["kl"]) and math.isnan(o["tv"]) for o in outcomes)
    assert all(math.isnan(o["logz_rel_error"]) and o["grid_points"] == 0 for o in outcomes)


def test_bvm_level_m3_ladder_with_mixed_outcomes(monkeypatch):
    # M = 3 runs the GH order selection and the next-order certificate that
    # bvm-m1 (d = 1) never reaches: at eps 1e-2 these six draws run at orders
    # 10 and 20.  Newton is forced to fail on draws 0 and 4, which fail with
    # its error; every other draw matches the per-draw path (order
    # selection, Newton and the certificate on its own _Objective) with the
    # Laplace log Z, which the panel fits with, and its KL with the Simpson
    # log Z in place of the Laplace one
    p, eps, prior = problem(M=3, f=100.0), 1e-2, quadratic(dim=3)
    truth = np.zeros(3)
    etas = np.random.default_rng(20).standard_normal((6, 3))
    j_inv = np.linalg.inv(inv.jacobian(p, truth))
    spec = inv.GridSpec(points_per_dim=17)  # log Z only has to be the same on both paths
    opt_cfg = OptimizerConfig(multistart=1, seed=20, grad_tol=1e-7)
    Y, modes, h_effs, errors = inv._draw_modes(p, truth, etas, eps, prior, j_inv)
    assert errors == [None] * 6
    failing, fits = [0, 4], []
    newton_single, newton_singles = optim._newton_single, optim._newton_singles

    def draw_of(row):
        # Newton's v starts at the mode in concentration units
        return next(i for i in range(len(modes)) if np.array_equal(row[:3], modes[i] / math.sqrt(eps)))

    def failing_newton(phi, eps, v, nodes):
        *out, errs = newton_single(phi, eps, v, nodes)
        return (*out, [ArithmeticError("forced") if draw_of(row) in failing else e
                       for row, e in zip(v, errs)])

    def recording(*args):
        fits.append(newton_singles(*args))
        return fits[-1]

    monkeypatch.setattr(optim, "_newton_single", failing_newton)
    monkeypatch.setattr(inv, "_newton_singles", recording)
    outcomes = inv._bvm_level(p, truth, etas, eps, prior, spec, opt_cfg, j_inv)
    for i, o in enumerate(outcomes):
        if i in failing:
            assert o.get("cause") == "ArithmeticError" and not o["converged"]
        else:
            assert o["converged"] and math.isfinite(o["kl"]) and math.isfinite(o["tv"])
    (fit,) = fits
    assert set(fit.orders) == {10, 20}
    assert not fit.certified[failing].any() and fit.certified.sum() == 4
    assert all(isinstance(fit.errors[i], ArithmeticError) for i in failing)

    log_zs = [g.log_value for g in inv._draw_integrals(p, Y, eps, prior, spec, modes, h_effs)]
    ladder = optim._gh_ladder(opt_cfg, 3)
    for i in sorted(set(range(6)) - set(failing)):
        mu, ms = draw_target(p, Y[i], eps, prior, modes[i], h_effs[i])
        log_laplace = measure.log_laplace_normalization(ms, eps)
        make = optim._at_order(mu, log_laplace)
        chol0 = np.linalg.cholesky(np.linalg.inv(h_effs[i]))[None]
        order = optim._select_order(
            make, ladder, make(ladder[0]).pack(np.ones(1), modes[i : i + 1], chol0), opt_cfg.grad_tol)
        v, _, errs = newton_single(
            lambda j, x, hessian: inv._misfit_derivatives(p, Y[i : i + 1][j], prior, eps, x, hessian),
            eps, objective._to_v(modes[i : i + 1], chol0, eps), objective._gh_nodes(order, 3))
        assert errs == [None]
        means, chols = objective._from_v(v, 3, eps)
        theta = make(order).pack(np.ones(1), means, chols)
        value, grad = make(order).value_grad(theta)
        assert np.max(np.abs(grad)) <= opt_cfg.grad_tol
        ok, refine, _ = optim._certify(
            lambda o: make(o).value_grad(theta), ladder, order, (value, grad), opt_cfg.grad_tol)
        assert ok
        assert fit.orders[i] == order
        assert abs(fit.refine[i] - refine) <= 1e-10
        assert np.max(np.abs(fit.means[i] - means[0])) <= 1e-10
        assert np.max(np.abs(fit.chols[i] - chols[0])) <= 1e-10
        assert abs(outcomes[i]["kl"] - (value - log_laplace + log_zs[i])) <= 1e-10


def test_bvm_kl_leading_constant():
    # d = 1: min KL(N || mu_eps) = eps b^2 / (12 a^3) + O(eps^2) with a and b
    # the second and third derivatives of V1 at the mode; at the truth these
    # are G'^2 and 3 G' G'', so mean KL / eps -> 3 G''^2 / (4 G'^4) = 0.2977
    # on the criterion-8 problem.  Tolerance 2 %: the O(eps) remainder at
    # eps = 1e-3 and the 100-draw noise average (measured: 0.8 % low)
    p = problem(M=1, f=100.0)
    truth = np.array([0.0])
    h = 1e-4
    g1 = inv.jacobian(p, truth)[0, 0]
    g2 = (inv.jacobian(p, truth + h)[0, 0] - inv.jacobian(p, truth - h)[0, 0]) / (2 * h)
    predicted = 3.0 * g2**2 / (4.0 * g1**4)
    assert predicted == pytest.approx(0.2977, abs=1e-4)
    cfg = inv.BvMConfig(truth=truth, eps_list=(1e-3,), draws=100, seed=20)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failures == 0
    assert abs(level.mean_kl / 1e-3 - predicted) <= 0.02 * predicted


def test_bvm_sharp_panel_kl_is_positive_and_linear_in_eps():
    # M = 1, f = 1000, truth -0.5: at eps 1e-5 the posterior is thousands of
    # times narrower than a box of radius 2, on whose fixed grid the Simpson
    # log Z is off by 0.25, more than the KL.  Sized by the posterior's own
    # width, every draw's KL is positive, mean KL / eps agrees within 1 %
    # across the levels, and the fit has slope 1
    p = problem(M=1, f=1000.0)
    cfg = inv.BvMConfig(truth=np.array([-0.5]), eps_list=(1e-3, 1e-4, 1e-5), draws=30, seed=4)
    res = inv.bvm_experiment(p, cfg)
    for lv in res.levels:
        assert lv.failures == 0 and np.all(lv.kl_values > 0.0)
        assert lv.logz_rel_error <= measure.SIMPSON_REL_TOL
    ratios = [lv.mean_kl / lv.epsilon for lv in res.levels]
    assert max(ratios) <= 1.01 * min(ratios)
    assert res.rate_fit is not None and 0.98 <= res.rate_fit.slope <= 1.02


def test_bvm_levels_report_the_oracles_error_and_grid_points():
    # bvm-m1: every level's Simpson log Z values are within the tolerance,
    # and grid_points is the n**d of the draws' accepted grids
    p, cfg = bvm_m1_config()
    res = inv.bvm_experiment(p, cfg)
    for eps, lv in zip(cfg.eps_list, res.levels):
        _, _, posts = level_posteriors(p, cfg, eps)
        assert lv.logz_rel_error == max(post[3].rel_error for post in posts)
        assert 0.0 < lv.logz_rel_error <= measure.SIMPSON_REL_TOL
        assert lv.grid_points == sum(post[3].grid.points_per_dim for post in posts)
    assert sum(lv.grid_points for lv in res.levels) < 0.2 * 5 * cfg.draws * 4097


def test_bvm_m3_level_reports_its_oracle_error():
    # M = 3, f = 100: the 65-point cap leaves Simpson log Z errors of
    # several percent, which the level now shows
    p = problem(M=3, f=100.0)
    cfg = inv.BvMConfig(truth=np.zeros(3), eps_list=(1e-2,), draws=30, seed=20)
    (lv,) = inv.bvm_experiment(p, cfg).levels
    assert lv.logz_rel_error > 1e-3
    assert lv.grid_points == cfg.draws * 65**3


@pytest.mark.parametrize("eps_list", [(0.1, math.nan), (math.inf, 0.1), (math.nan,)])
def test_bvm_config_rejects_eps_that_is_not_finite(eps_list):
    with pytest.raises(ValueError):
        inv.BvMConfig(truth=np.array([0.0]), eps_list=eps_list, draws=30)


def test_bvm_validation():
    p = problem(M=1, f=100.0)
    with pytest.raises(ValueError):
        inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-3, 1e-2), draws=30)
    with pytest.raises(ValueError):
        inv.BvMConfig(truth=np.array([0.0]), draws=0)
    with pytest.raises(ValueError):
        inv.bvm_experiment(
            p, inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=10)
        )
    with pytest.raises(ValueError):
        inv.bvm_experiment(
            problem(variant="square"),
            inv.BvMConfig(truth=np.array([1.0]), eps_list=(1e-2,), draws=30),
        )


def test_bvm_csv_shape(bvm_smoke):
    lines = bvm_smoke.to_csv().strip().split("\n")
    assert lines[0] == "epsilon,mean_kl,stderr_kl,failures,d_tv_violations"
    assert len(lines) == 2 + len(bvm_smoke.levels)
    assert lines[-1].startswith("# ")


# --- log Z expectation ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def logz_records():
    p = problem(M=1, f=100.0)
    return inv.log_z_expectation_check(
        p, np.array([0.0]), [1e-2, 3e-3, 1e-3], draws=200, seed=7
    )


def test_logz_gap_within_derived_bound(logz_records):
    for r in logz_records:
        assert abs(r.gap) <= 10.0 * r.epsilon * (1.0 + abs(math.log(r.epsilon)))


def test_logz_gap_scales_linearly(logz_records):
    for a, b in zip(logz_records, logz_records[1:]):
        gap_ratio = abs(b.gap / a.gap)
        eps_ratio = b.epsilon / a.epsilon
        assert eps_ratio / 3.0 <= gap_ratio <= 3.0 * eps_ratio


def test_logz_leading_term_dominates(logz_records):
    # gap / |log eps| -> 0: the (d/2) log(2 pi eps) term carries the scale
    ratios = [abs(r.gap) / abs(math.log(r.epsilon)) for r in logz_records]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_logz_zero_noise_matches_laplace():
    # single eta = 0 evaluation against the Laplace value of Lemma 3.2
    p = problem(M=1, f=100.0)
    truth = np.array([0.0])
    ms = inv.limit_mode_set(p, truth)
    diffs = []
    for eps in (1e-2, 1e-3):
        mu = inv.posterior(p, truth, np.zeros(1), eps)
        quad = kg.quadrature_normalization(mu, mode_set=ms).log_value
        lap = math.log(kg.laplace_normalization(ms, eps))
        diffs.append(abs(quad - lap))
    assert diffs[0] <= 0.05  # o(1): already small at eps = 1e-2
    assert diffs[1] < diffs[0]
