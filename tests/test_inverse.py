import math

import numpy as np
import pytest

import klgauss as kg
from klgauss import inverse as inv
from klgauss.optimizer import OptimizerConfig
from klgauss.potentials import check_derivatives, fd_hessian_from_grad, quadratic


def problem(M=1, f=1.0, variant="exp"):
    return inv.EllipticProblem(M=M, f=np.full(M, float(f)), variant=variant)


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
        x_hat, _ = inv._posterior_mode(mu, truth + 0.1)
        assert np.max(np.abs(x_hat - truth)) <= 1e-8
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
    mu = inv.posterior(p, truth, np.zeros(2), eps)
    x_hat, h_eff = inv._posterior_mode(mu, truth)
    assert np.array_equal(x_hat, truth)
    J = inv.jacobian(p, truth)
    assert np.allclose(h_eff, J.T @ J + eps * np.eye(2), rtol=1e-13, atol=0)
    with pytest.raises(ArithmeticError):
        inv._posterior_mode(mu, truth + 0.1, max_steps=1)


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
    x_hat, h_eff = inv._posterior_mode(mu, x0)
    grad = mu.v1.gradient(x_hat) / eps + mu.v2.gradient(x_hat)
    assert np.max(np.abs(grad)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(h_eff)) > 0


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


def test_bvm_thread_pool_deterministic():
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    serial = inv.bvm_experiment(p, cfg, jobs=1)
    threaded = inv.bvm_experiment(p, cfg, jobs=4)
    assert np.array_equal(serial.levels[0].kl_values, threaded.levels[0].kl_values)


def test_bvm_failed_draws_keep_their_cause(monkeypatch):
    p = problem(M=1, f=100.0)
    cfg = inv.BvMConfig(truth=np.array([0.0]), eps_list=(1e-2,), draws=30, seed=4)
    etas = np.random.default_rng(cfg.seed).standard_normal((cfg.draws, 1))
    draw = inv._bvm_draw

    def failing_draw(p, truth, eta, *args):
        if eta[0] > 1.0:
            raise np.linalg.LinAlgError("singular")
        return draw(p, truth, eta, *args)

    monkeypatch.setattr(inv, "_bvm_draw", failing_draw)
    level = inv.bvm_experiment(p, cfg).levels[0]
    n_failed = int(np.sum(etas[:, 0] > 1.0))
    assert n_failed > 0
    assert level.failures == n_failed
    assert level.failure_causes == {"LinAlgError": n_failed}

    def broken_draw(*args):
        raise TypeError("a programming error is not a failed draw")

    monkeypatch.setattr(inv, "_bvm_draw", broken_draw)
    with pytest.raises(TypeError):
        inv.bvm_experiment(p, cfg)


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
