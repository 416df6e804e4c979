import json
import math
from importlib import resources

import numpy as np
import pytest

import klgauss as kg
from klgauss import inverse as inv
from klgauss import measure, objective
from klgauss import optimizer as optim
from klgauss import quadrature
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
    gn = inv.misfit_potential(p, y, gauss_newton=True)
    for x in rng.uniform(-1, 1, size=(4, 3)):
        H_fd = fd_hessian_from_grad(full, x)
        assert np.linalg.norm(full.hessian(x) - H_fd) <= 1e-7 * np.linalg.norm(H_fd)
        J = inv.jacobian(p, x)
        assert np.allclose(gn.hessian(x), J.T @ J, rtol=1e-14, atol=0)
        assert not np.allclose(full.hessian(x), J.T @ J, rtol=1e-3, atol=0)


@pytest.mark.parametrize("variant", ["exp", "square"])
def test_batched_misfit_derivatives_match_misfit_potential(variant, rng):
    # Phi = V1/eps + V2 per draw, from one Thomas pass, against the
    # per-draw misfit potential and prior
    p = problem(M=3, f=5.0, variant=variant)
    eps = 0.05
    prior = quadratic(dim=3)
    Y = inv.forward(p, np.array([0.3, -0.2, 0.5])) + 0.3 * rng.standard_normal((4, 3))
    X = rng.uniform(-1, 1, size=(4, 6, 3))
    value, grad, hess = inv._misfit_derivatives(p, Y, prior, eps, X)
    for y, x, v, g, h in zip(Y, X, value, grad, hess):
        pot = inv.misfit_potential(p, y)
        np.testing.assert_allclose(v, pot.value(x) / eps + prior.value(x), rtol=1e-12)
        np.testing.assert_allclose(g, pot.gradient(x) / eps + prior.gradient(x),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, pot.hessian(x) / eps + prior.hessian(x),
                                   rtol=1e-10, atol=1e-12)


def test_large_data_completed_square_identity(rng):
    # posterior with N i.i.d. draws equals the small-noise form with the
    # mean noise, up to an x-independent constant
    p = problem(M=2, f=5.0)
    truth = np.array([0.3, -0.1])
    etas = rng.standard_normal((16, 2))
    prior = quadratic(dim=2)
    measure, offset = inv.large_data_posterior(p, truth, etas, prior)
    assert measure.epsilon == pytest.approx(1.0 / 16.0)
    pts = rng.uniform(-2, 2, size=(50, 2))
    raw = inv.large_data_log_density(p, truth, etas, prior, pts)
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
    log_z = inv.log_laplace_normalization(ms, 1e-3)
    (res,) = optim._newton_singles([mu], [log_z], [ms], None, OptimizerConfig(multistart=1))
    assert isinstance(res, quadrature.NodeBudgetError)
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
    draw_target = inv._draw_target
    # the data of the draws with eta > 1, as _draw_modes computes it
    Y = inv.forward(p, cfg.truth) + math.sqrt(cfg.eps_list[0]) * etas
    failing = {tuple(y) for y in Y[etas[:, 0] > 1.0]}

    def failing_target(p, y, *args):
        if tuple(y) in failing:
            raise np.linalg.LinAlgError("singular")
        return draw_target(p, y, *args)

    monkeypatch.setattr(inv, "_draw_target", failing_target)
    level = inv.bvm_experiment(p, cfg).levels[0]
    n_failed = int(np.sum(etas[:, 0] > 1.0))
    assert n_failed > 0
    assert level.failures == n_failed
    assert level.failure_causes == {"LinAlgError": n_failed}

    def broken_target(*args):
        raise TypeError("a programming error is not a failed draw")

    monkeypatch.setattr(inv, "_draw_target", broken_target)
    with pytest.raises(TypeError):
        inv.bvm_experiment(p, cfg)
    monkeypatch.setattr(inv, "_draw_target", draw_target)

    # a mode search stopped inside the batch fails its draw with the cause
    posterior_mode = inv._posterior_mode

    def one_step(*args):
        return posterior_mode(*args, max_steps=1)

    monkeypatch.setattr(inv, "_posterior_mode", one_step)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failures == cfg.draws
    assert level.failure_causes == {"ArithmeticError": cfg.draws}


def bvm_m1_config():
    doc = json.loads(resources.files("klgauss").joinpath("configs/bvm-m1.json").read_text())
    p = inv.EllipticProblem(M=doc["M"], f=np.asarray(doc["f"]), variant=doc["variant"])
    cfg = inv.BvMConfig(truth=np.asarray(doc["truth"]), eps_list=tuple(doc["eps_list"]),
                        draws=doc["draws"], seed=doc["seed"])
    return p, cfg


def level_posteriors(p, cfg, eps, grid_spec=None):
    """Every draw's data and (mu, mode set, log Z, log Z integral), as
    bvm_experiment builds them."""
    prior = quadratic(dim=p.M)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, p.M))
    j_inv = np.linalg.inv(inv.jacobian(p, cfg.truth))
    Y, modes, h_effs, errors = inv._draw_modes(p, cfg.truth, etas, eps, prior, j_inv)
    assert errors == [None] * cfg.draws
    targets = [
        inv._draw_target(p, y, eps, prior, x_hat, h_eff)
        for y, x_hat, h_eff in zip(Y, modes, h_effs)
    ]
    integrals = inv._draw_integrals(
        p, Y, eps, prior, grid_spec or inv.GridSpec(), [ms for _, ms in targets]
    )
    posts = [
        (mu, ms, getattr(integral, "log_value", None), integral)
        for (mu, ms), integral in zip(targets, integrals)
    ]
    return Y, prior, posts


def test_bvm_batched_log_z_is_quadrature_normalization_per_draw():
    # every draw of bvm-m1 at every eps, and a few M = 2 draws: the batched
    # Simpson pass gives quadrature_normalization's integral, bit for bit
    p, cfg = bvm_m1_config()
    cases = [(p, cfg, eps) for eps in cfg.eps_list]
    p2 = problem(M=2, f=100.0)
    cfg2 = inv.BvMConfig(truth=np.zeros(2), eps_list=(1e-1, 1e-2), draws=4, seed=20)
    cases += [(p2, cfg2, eps) for eps in cfg2.eps_list]
    widened = 0
    for p, cfg, eps in cases:
        _, _, posts = level_posteriors(p, cfg, eps)
        for mu, ms, _, batched in posts:
            single = kg.quadrature_normalization(mu, inv.GridSpec(), mode_set=ms)
            for name in ("log_value", "value", "error_estimate", "boundary_ratio"):
                assert getattr(batched, name) == getattr(single, name)
            assert np.array_equal(batched.grid.lo, single.grid.lo)
            assert np.array_equal(batched.grid.hi, single.grid.hi)
            assert batched.grid.points_per_dim == single.grid.points_per_dim
            box = measure.concentration_box(ms.modes, ms.hessians, eps)
            widened += not np.array_equal(batched.grid.lo, box[0])
    assert widened > 0  # the widen-and-redo loop ran inside the batch


def test_bvm_batched_tv_matches_tv_distance_grid():
    # TV on each draw's log Z grid against the one-box tv_distance_grid with
    # GaussianParams.log_density, for Gaussians from the Laplace point
    p, cfg = bvm_m1_config()
    p2 = problem(M=2, f=100.0)
    cfg2 = inv.BvMConfig(truth=np.zeros(2), eps_list=(1e-2,), draws=4, seed=20)
    for p, cfg, eps in ((p, cfg, 1e-1), (p, cfg, 1e-3), (p2, cfg2, 1e-2)):
        Y, prior, posts = level_posteriors(p, cfg, eps)
        gaussians = [
            kg.GaussianParams(ms.modes[0], 1.1 * np.linalg.cholesky(np.linalg.inv(ms.hessians[0]) * eps))
            for _, ms, _, _ in posts
        ]
        tv = inv._draw_tv(p, Y, eps, prior, [post[3] for post in posts], gaussians)
        for (mu, _, log_z, integral), gauss, batched in zip(posts, gaussians, tv):
            def log_mu(pts):
                return kg.unnormalized_log_density(mu, pts) - log_z

            single = quadrature.tv_distance_grid(gauss.log_density, log_mu, integral.grid)
            assert 0.0 < single < 1.0
            assert abs(batched - single) <= 1e-12


def test_bvm_draw_whose_box_stays_too_small_fails_alone():
    # bvm-m1 at eps 0.03 without widening: 80 first boxes fail the tail
    # check; the other 20 draws give the KL values of the default run
    p, cfg = bvm_m1_config()
    cfg = inv.BvMConfig(truth=cfg.truth, eps_list=(0.03,), draws=cfg.draws, seed=cfg.seed)
    narrow = inv.GridSpec(max_expand=0)
    level = inv.bvm_experiment(p, cfg, grid_spec=narrow).levels[0]
    assert level.n_ok == 20
    assert level.failure_causes == {"BoxTooSmallError": 80}
    _, _, posts = level_posteriors(p, cfg, 0.03, narrow)
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
    # sqrt(eps) L of the BFGS point minimize_single returns
    p, cfg = bvm_m1_config()
    opt_cfg = bvm_optimizer_config(cfg)
    for eps in cfg.eps_list:
        Y, prior, posts = level_posteriors(p, cfg, eps)
        mus, mode_sets, log_zs, _ = zip(*posts)
        results = optim._newton_singles(
            mus, log_zs, mode_sets,
            lambda idx, x: inv._misfit_derivatives(p, Y[idx], prior, eps, x), opt_cfg,
        )
        for mu, ms, log_z, res in zip(mus, mode_sets, log_zs, results):
            assert res is not None and res.converged
            obj = optim._at_order(mu, log_z)(opt_cfg.gh_order)
            theta = obj.pack(np.ones(1), [res.params.mean],
                             [np.linalg.cholesky(res.rescaled_covariances)])
            value, grad = obj.value_grad(theta)
            assert np.max(np.abs(grad)) <= opt_cfg.grad_tol
            assert value == pytest.approx(res.value, rel=0, abs=1e-12)
            bfgs = optim.minimize_single(mu, opt_cfg, mode_set=ms, log_z=log_z)
            scale = np.max(np.abs(bfgs.params.chol))
            assert np.max(np.abs(res.params.mean - bfgs.params.mean)) <= 1e-6 * scale
            assert np.max(np.abs(res.params.chol - bfgs.params.chol)) <= 1e-6 * scale


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
            lambda idx, x: inv._misfit_derivatives(p, Y[idx], prior, eps, x),
            eps, modes, chols, objective._gh_nodes(20, 2),
        )

    whole = run()
    calls = []
    misfit = inv._misfit_derivatives

    def counting(p, Y, prior, eps, X):
        calls.append(X.shape[0])
        return misfit(p, Y, prior, eps, X)

    monkeypatch.setattr(inv, "_misfit_derivatives", counting)
    monkeypatch.setattr(optim, "_NEWTON_CHUNK_POINTS", 1000)
    chunked = run()
    assert calls[:3] == [2, 2, 1]
    assert chunked[3] == whole[3] == [None] * cfg.draws
    assert whole[2].max() >= 2
    for a, b in zip(chunked[:3], whole[:3]):
        assert np.array_equal(a, b)


def test_bvm_newton_failure_falls_back_to_minimize_single(monkeypatch):
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    newton_single, fallbacks = optim._newton_single, []

    def failing_newton(*args, **kwargs):
        means, chols, steps, errors = newton_single(*args, **kwargs)
        return means, chols, steps, [ArithmeticError("forced")] * len(errors)

    def counting_minimize_single(*args, **kwargs):
        fallbacks.append(1)
        return optim.minimize_single(*args, **kwargs)

    monkeypatch.setattr(optim, "_newton_single", failing_newton)
    monkeypatch.setattr(inv, "minimize_single", counting_minimize_single)
    level = inv.bvm_experiment(p, cfg).levels[0]
    assert level.failures == 0
    assert len(fallbacks) == cfg.draws
    _, _, posts = level_posteriors(p, cfg, 1e-2)
    opt_cfg = bvm_optimizer_config(cfg)
    expected = [optim.minimize_single(mu, opt_cfg, mode_set=ms, log_z=log_z).value
                for mu, ms, log_z, _ in posts]
    assert np.array_equal(level.kl_values, expected)


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
