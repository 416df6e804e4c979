"""Bayesian inverse problem for a discretized 1-D elliptic equation.

The forward map solves -u'' + c(q) u = f on (0,1) with zero boundary values
on an M-point grid (h = 1/(M+1)), with coefficient c(q) = exp(q) entrywise
("exp" variant, globally identifiable) or c(q) = q^2 ("square" variant,
identifiable up to 2^M sign flips).  Observing y = G(q_truth) + sqrt(eps) *
eta yields a posterior of concentrating form with dominant potential
V1(q) = |y - G(q)|^2 / 2 and secondary potential the prior.

The module reproduces three statements numerically: asymptotic normality of
the posterior (mean -> truth, rescaled covariance -> (DG^T DG)^{-1}),
the expected-KL rate E_eta KL(best Gaussian || posterior) = O(eps) with its
Pinsker/total-variation consequence, and the expansion of E_eta log Z.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
# unused here since the posterior mode is found by Newton; kept because
# perfbench/tracer.py patches this name in every BFGS-calling module
from scipy.optimize import minimize as _scipy_minimize  # noqa: F401

from .gamma import RateFit, fit_rate
from .gaussian import LOG_2PI
from .measure import (
    GridSpec,
    MeasureFamily,
    ModeSet,
    TargetMeasure,
    _damped_newton,
    log_laplace_normalization,
    oracle_box,
    oracle_integrals,
)
from .optimizer import (
    OptimizerConfig,
    _newton_singles,
    minimize_mixture,
    minimize_single,
)
from .potentials import Potential, potential_from_spec, quadratic
from .quadrature import integrate_exp_stack, tv_distance_stack

VARIANTS = ("exp", "square")


@dataclass(frozen=True)
class EllipticProblem:
    """Discrete elliptic forward model on M interior grid points."""

    M: int
    f: np.ndarray
    variant: str

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("grid size M must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        f = np.broadcast_to(np.asarray(self.f, dtype=float), (self.M,)).copy()
        if np.any(f <= 0):
            raise ValueError("source term f must be strictly positive")
        object.__setattr__(self, "f", f)

    @property
    def h(self) -> float:
        return 1.0 / (self.M + 1)

    @property
    def laplacian(self) -> np.ndarray:
        """Dense tridiagonal -Laplacian: 2/h^2 on, -1/h^2 off the diagonal."""
        h2 = self.h**2
        A = np.zeros((self.M, self.M))
        np.fill_diagonal(A, 2.0 / h2)
        idx = np.arange(self.M - 1)
        A[idx, idx + 1] = -1.0 / h2
        A[idx + 1, idx] = -1.0 / h2
        return A

    def coefficient(self, q):
        return np.exp(q) if self.variant == "exp" else q * q

    def coefficient_derivative(self, q):
        return np.exp(q) if self.variant == "exp" else 2.0 * q

    def coefficient_second_derivative(self, q):
        return np.exp(q) if self.variant == "exp" else np.full_like(q, 2.0)


def _solve(p: EllipticProblem, qs, rhs) -> np.ndarray:
    """x = (A + diag(c(q)))^(-1) rhs for each row q of ``qs``, shape (n, M).

    ``rhs`` has shape (n, M) or (n, M, k); a leading axis of length 1
    broadcasts over the batch.  Thomas elimination on the scaled system
    h^2 (A + diag(c)), whose off-diagonal is -1, vectorized over the batch
    and the k columns.  The diagonal 2 + h^2 c is at least 2, so every pivot
    is at least 1 and no pivoting is needed.  The grid axis is moved first so
    that each elimination step works on contiguous rows.
    """
    h2 = p.h**2
    b = np.swapaxes(np.asarray(rhs, dtype=float), 0, 1)
    diag = 2.0 + h2 * p.coefficient(np.ascontiguousarray(qs.T))
    diag = diag.reshape(diag.shape + (1,) * (b.ndim - 2))
    inv_pivot = np.empty_like(diag)
    x = np.empty(diag.shape[:2] + b.shape[2:])
    inv_pivot[0] = 1.0 / diag[0]
    x[0] = h2 * b[0] * inv_pivot[0]
    for i in range(1, p.M):
        inv_pivot[i] = 1.0 / (diag[i] - inv_pivot[i - 1])
        x[i] = (h2 * b[i] + x[i - 1]) * inv_pivot[i]
    for i in range(p.M - 2, -1, -1):
        x[i] += inv_pivot[i] * x[i + 1]
    return x.swapaxes(0, 1)


def _jacobian_at(p: EllipticProblem, qs, u) -> np.ndarray:
    """-(A+Q)^(-1) diag(u c'(q)), batched, given u = forward(p, qs)."""
    du = u * p.coefficient_derivative(qs)
    return -_solve(p, qs, np.eye(p.M)[None]) * du[:, None, :]


def forward(p: EllipticProblem, q) -> np.ndarray:
    """u = (A + diag(c(q)))^(-1) f; batched over a leading axis of q."""
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    qs = q[None, :] if single else q
    u = _solve(p, qs, p.f[None, :])
    return u[0] if single else u


def jacobian(p: EllipticProblem, q) -> np.ndarray:
    """Derivative matrix of the forward map, batched over a leading axis.

    The true derivative is -(A+Q)^(-1) U Q' (differentiating the resolvent
    contributes the sign the finite-difference oracle confirms); Q' = Q for
    the exp variant and diag(2 q_k) for the square variant.  All downstream
    quantities use DG^T DG, so the sign never matters there.
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    qs = q[None, :] if single else q
    # not via _forward_and_jacobian: perfbench/tracer.py counts the points of each
    J = _jacobian_at(p, qs, _solve(p, qs, p.f[None, :]))
    return J[0] if single else J


def _forward_and_jacobian(p, qs):
    u = _solve(p, qs, p.f[None, :])
    return u, _jacobian_at(p, qs, u)


def misfit_potential(
    p: EllipticProblem, y, gauss_newton: bool = False, name: str = ""
) -> Potential:
    """V1(q) = |y - G(q)|^2 / 2 with exact gradient and Hessian.

    With w = (A+Q)^(-1) (y - G(q)) from one adjoint solve, the gradient is
    u c'(q) w (J = -(A+Q)^(-1) diag(u c') and A+Q is symmetric), and with
    b = w c'(q) the Hessian is

        J^T J + diag(b) J + J^T diag(b) + diag(u w c''(q)).

    ``gauss_newton`` keeps J^T J only, which is exact in the zero-residual
    limit the theorems use.
    """
    y = np.asarray(y, dtype=float)

    def value(x):
        r = y - forward(p, x)
        return 0.5 * np.sum(r * r, axis=1)

    def grad(x):
        u = forward(p, x)
        return u * p.coefficient_derivative(x) * _solve(p, x, y - u)

    def hess(x):
        u, J = _forward_and_jacobian(p, x)
        H = np.einsum("nki,nkj->nij", J, J)
        if not gauss_newton:
            w = _solve(p, x, y - u)
            bJ = (w * p.coefficient_derivative(x))[:, :, None] * J
            H += bJ + bJ.transpose(0, 2, 1)
            idx = np.arange(p.M)
            H[:, idx, idx] += u * w * p.coefficient_second_derivative(x)
        return 0.5 * (H + H.transpose(0, 2, 1))

    return Potential(
        dim=p.M,
        value_fn=value,
        grad_fn=grad,
        hess_fn=hess,
        name=name or f"elliptic-{p.variant}-misfit",
        growth_bound=float(np.sum(p.f**2)),
        v1_family=True,
    )


def _misfit_derivatives(p: EllipticProblem, Y, prior: Potential, eps: float, X):
    """Phi = |y - G(x)|^2 / (2 eps) + V2(x) with one data vector per draw.

    Y has shape (n, M), one data vector y per draw, and X shape (n, K, M),
    K points per draw.  Returns the values (n, K), gradients (n, K, M) and
    exact Hessians (n, K, M, M) of Phi.  One Thomas pass solves
    (A+Q) [u | S] = [f | I] at every point; S = (A+Q)^(-1) is symmetric, so
    the adjoint w = S (y - u) and J = -S diag(u c'(x)) give the formulas of
    misfit_potential without further solves.
    """
    n, K, M = X.shape
    q = X.reshape(n * K, M)
    sol = _solve(p, q, np.hstack([p.f[:, None], np.eye(M)])[None])
    u, S = sol[:, :, 0], sol[:, :, 1:]
    r = np.repeat(Y, K, axis=0) - u
    w = np.einsum("nij,nj->ni", S, r)
    c1 = p.coefficient_derivative(q)
    J = -S * (u * c1)[:, None, :]
    bJ = (w * c1)[:, :, None] * J
    H = np.einsum("nki,nkj->nij", J, J) + bJ + bJ.transpose(0, 2, 1)
    idx = np.arange(M)
    H[:, idx, idx] += u * w * p.coefficient_second_derivative(q)
    value = 0.5 * np.sum(r * r, axis=1) / eps + np.reshape(prior.value_fn(q), n * K)
    grad = u * c1 * w / eps + np.reshape(prior.grad_fn(q), (n * K, M))
    hess = 0.5 * (H + H.transpose(0, 2, 1)) / eps + np.reshape(prior.hess_fn(q), (n * K, M, M))
    return value.reshape(n, K), grad.reshape(n, K, M), hess.reshape(n, K, M, M)


def _posterior_box(p: EllipticProblem, truth):
    truth = np.asarray(truth, dtype=float)
    if p.variant == "square":
        r = np.abs(truth)
        return (-r - 2.0, r + 2.0)
    return (truth - 2.0, truth + 2.0)


def posterior_family(
    p: EllipticProblem,
    truth,
    eta,
    prior: Potential | None = None,
    gauss_newton: bool = False,
) -> MeasureFamily:
    """The eps-indexed posterior family for data y_eps = G(truth) + sqrt(eps) eta."""
    truth = np.asarray(truth, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if truth.shape != (p.M,) or eta.shape != (p.M,):
        raise ValueError("truth and eta must have length M")
    if p.variant == "square" and np.any(truth == 0):
        raise ValueError("square variant requires a truth without zero entries")
    prior = prior if prior is not None else quadratic(dim=p.M)
    if prior.dim != p.M:
        raise ValueError("prior dimension mismatch")
    g_truth = forward(p, truth)

    def v1_at(epsilon: float) -> Potential:
        y = g_truth + math.sqrt(epsilon) * eta
        return misfit_potential(p, y, gauss_newton=gauss_newton)

    return MeasureFamily(
        name=f"elliptic-{p.variant}",
        dim=p.M,
        v1_limit=misfit_potential(p, g_truth, gauss_newton=gauss_newton),
        v2=prior,
        v1_at=v1_at,
        default_box=_posterior_box(p, truth),
    )


def posterior(
    p: EllipticProblem, truth, eta, epsilon: float, prior: Potential | None = None
) -> TargetMeasure:
    """Posterior at a fixed noise scale: exp(-|y - G(x)|^2/(2 eps) - V0(x))."""
    return posterior_family(p, truth, eta, prior).at(epsilon)


def large_data_log_density(p: EllipticProblem, truth, etas, prior, x):
    """Unnormalized log posterior for N repeated observations (raw sum form)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    prior = prior if prior is not None else quadratic(dim=p.M)
    from .potentials import as_points

    pts, single = as_points(x, p.M)
    g_truth = forward(p, truth)
    u = forward(p, pts)
    r = g_truth - u  # (n_pts, M)
    total = np.zeros(pts.shape[0])
    for eta_i in etas:
        total += 0.5 * np.sum((r + eta_i) ** 2, axis=1)
    out = -total - prior.value(pts)
    return float(out[0]) if single else out


def large_data_posterior(p: EllipticProblem, truth, etas, prior=None):
    """Completed-square equivalent of the repeated-observation posterior.

    Returns (measure, log_offset) with eps = 1/N and effective noise
    sqrt(N) * mean(etas); the raw-sum log density equals the measure's
    unnormalized log density plus ``log_offset`` pointwise.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    n_obs = etas.shape[0]
    eta_bar = np.mean(etas, axis=0)
    eps = 1.0 / n_obs
    measure = posterior(p, truth, math.sqrt(n_obs) * eta_bar, eps, prior)
    log_offset = 0.5 * n_obs * float(eta_bar @ eta_bar) - 0.5 * float(
        np.sum(etas * etas)
    )
    return measure, log_offset


# ---------------------------------------------------------------------------
# asymptotic normality
# ---------------------------------------------------------------------------


def limit_mode_set(p: EllipticProblem, truth, prior: Potential | None = None) -> ModeSet:
    """Zeros of the limit misfit with Gauss-Newton Hessians DG^T DG.

    One mode at the truth for the exp variant; all 2^M sign flips for the
    square variant.  The resulting Laplace weights are the predicted limit
    mixture weights |det DG|^{-1} e^{-V0} (normalized).
    """
    truth = np.asarray(truth, dtype=float)
    prior = prior if prior is not None else quadratic(dim=p.M)
    if p.variant == "exp":
        modes = truth[None, :]
    else:
        if np.any(truth == 0):
            raise ValueError("square variant requires a truth without zero entries")
        signs = np.array(
            [[1 if (i >> k) & 1 == 0 else -1 for k in range(p.M)] for i in range(2**p.M)]
        )
        modes = signs * np.abs(truth)[None, :]
        order = np.lexsort(modes.T[::-1])
        modes = modes[order]
    hessians = np.stack([jacobian(p, m).T @ jacobian(p, m) for m in modes])
    v2_values = np.array([prior.value(m) for m in modes])
    return ModeSet(modes=modes, hessians=hessians, v2_values=v2_values)


@dataclass
class NormalityRecord:
    epsilon: float
    mean_err: float
    cov_rel_err: float
    weight_dist: float | None
    value: float
    converged: bool


def asymptotic_normality_check(
    p: EllipticProblem,
    truth,
    eta,
    eps_list,
    cfg: OptimizerConfig | None = None,
    prior: Potential | None = None,
    xi: tuple = (0.05, 1.0),
) -> list:
    """Optimize the posterior along eps and compare against the limit laws.

    exp variant: single Gaussian against (truth, (DG^T DG)^{-1}); square
    variant: 2^M-component mixture against the sign-flip modes and the
    prior-weighted limit weights.
    """
    cfg = cfg or OptimizerConfig()
    prior = prior if prior is not None else quadratic(dim=p.M)
    family = posterior_family(p, truth, eta, prior)
    ms = limit_mode_set(p, truth, prior)
    limit_covs = np.stack([np.linalg.inv(H) for H in ms.hessians])
    records = []
    warm = None
    for eps in sorted(set(float(e) for e in eps_list), reverse=True):
        mu = family.at(eps)
        if p.variant == "exp":
            extra = [(warm.params.mean, warm.rescaled_covariances)] if warm else None
            res = minimize_single(mu, cfg, mode_set=ms, extra_starts=extra)
            mean_err = float(np.linalg.norm(res.params.mean - ms.modes[0]))
            cov = res.rescaled_covariances
            cov_rel = float(
                np.linalg.norm(cov - limit_covs[0]) / np.linalg.norm(limit_covs[0])
            )
            weight_dist = None
        else:
            n = ms.n
            extra = None
            if warm is not None:
                mix = warm.params
                extra = [
                    (
                        mix.weights,
                        mix.means,
                        [np.linalg.cholesky(c) for c in warm.rescaled_covariances],
                    )
                ]
            res = minimize_mixture(mu, n, xi, cfg, mode_set=ms, extra_starts=extra)
            mix = res.params
            errs, covs_err, matched = [], [], []
            for i, comp in enumerate(mix.components):
                j, dist = ms.nearest(comp.mean)
                matched.append(j)
                errs.append(dist)
                covs_err.append(
                    np.linalg.norm(res.rescaled_covariances[i] - limit_covs[j])
                    / np.linalg.norm(limit_covs[j])
                )
            mean_err = float(np.max(errs))
            cov_rel = float(np.max(covs_err))
            if len(set(matched)) == n:
                weight_dist = float(
                    np.sum(np.abs(mix.weights - ms.weights[np.asarray(matched)]))
                )
            else:
                weight_dist = math.nan
        records.append(
            NormalityRecord(
                epsilon=eps,
                mean_err=mean_err,
                cov_rel_err=cov_rel,
                weight_dist=weight_dist,
                value=res.value,
                converged=res.converged,
            )
        )
        warm = res
    return records


# ---------------------------------------------------------------------------
# Bernstein-von Mises experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BvMConfig:
    """Noise-averaged KL rate experiment configuration."""

    truth: np.ndarray
    prior: Potential | None = None
    eps_list: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    draws: int = 100
    seed: int = 0

    def __post_init__(self):
        truth = np.atleast_1d(np.asarray(self.truth, dtype=float))
        object.__setattr__(self, "truth", truth)
        eps = tuple(float(e) for e in self.eps_list)
        if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing and positive")
        object.__setattr__(self, "eps_list", eps)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")


@dataclass
class BvMLevel:
    epsilon: float
    mean_kl: float
    stderr_kl: float
    n_ok: int
    failures: int
    pinsker_violations: int
    tv_violations: int  # draws with d_TV > 10 * sqrt(mean KL / 2)
    aborted: bool
    kl_values: np.ndarray = field(repr=False, default=None)
    tv_values: np.ndarray = field(repr=False, default=None)
    # failed draws by cause: the exception type name, "NotConverged" or
    # "NonFiniteKL"
    failure_causes: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        return (
            f"{float(self.epsilon)!r},{float(self.mean_kl)!r},"
            f"{float(self.stderr_kl)!r},{int(self.failures)!r},"
            f"{int(self.tv_violations)!r}"
        )


@dataclass
class BvMResult:
    levels: list
    rate_fit: RateFit | None

    CSV_HEADER = "epsilon,mean_kl,stderr_kl,failures,d_tv_violations"

    @property
    def any_aborted(self) -> bool:
        return any(lv.aborted for lv in self.levels)

    def to_csv(self) -> str:
        import json as _json

        lines = [self.CSV_HEADER]
        lines += [lv.csv_row() for lv in self.levels]
        footer = {
            "rate_fit": self.rate_fit.to_json() if self.rate_fit else None,
            "aborted_levels": [lv.epsilon for lv in self.levels if lv.aborted],
        }
        lines.append("# " + _json.dumps(footer, sort_keys=True))
        return "\n".join(lines) + "\n"


_DRAW_ERRORS = (ArithmeticError, ValueError, RuntimeError)  # a failed draw, by cause


def _posterior_mode(p: EllipticProblem, Y, prior: Potential, eps: float, X0, max_steps: int = 50):
    """Minimize V1/eps + V2 for every row y of Y by batched damped Newton from X0.

    Returns (X, H_eff, errors): the modes, D2V1 + eps D2V2 there, and per
    draw None or the ArithmeticError that stopped its search: a Newton step
    that is not a descent direction, a line search that cannot decrease the
    objective, or ``max_steps`` steps without convergence (see
    measure._damped_newton).  The steps use the exact Hessian with its
    eigenvalues taken in absolute value and the Armijo rule.
    """

    def evaluate(idx, x):
        v, g, h = _misfit_derivatives(p, Y[idx], prior, eps, x[:, None, :])
        return v[:, 0], g[:, 0], h[:, 0]

    X, hess, _, errors = _damped_newton(evaluate, X0, max_steps)
    return X, eps * hess, errors


def _draw_modes(p, truth, etas, eps, prior, j_truth_inv):
    """Data y = G(truth) + sqrt(eps) eta of every noise draw, and its posterior
    mode by _posterior_mode from the linearized mode truth + sqrt(eps)
    DG(truth)^(-1) eta."""
    Y = forward(p, truth) + math.sqrt(eps) * etas
    return (Y, *_posterior_mode(p, Y, prior, eps, truth + math.sqrt(eps) * (etas @ j_truth_inv.T)))


def _draw_target(p, y, eps, prior, x_hat, h_eff):
    """Posterior of one noise draw with data y (a row of _draw_modes' Y) and
    mode x_hat, and its mode set."""
    mu = TargetMeasure(misfit_potential(p, y), prior, eps)
    ms = ModeSet(
        modes=x_hat[None, :],
        hessians=h_eff[None, :, :],
        v2_values=np.array([prior.value(x_hat)]),
    )
    return mu, ms


def _log_posterior(p, Y, eps, prior):
    """log_f(idx, pts) = -|y_i - G(x)|^2 / (2 eps) - V2(x), the unnormalized
    log posterior of the draws ``idx`` (rows of Y) at their points (k, N, M),
    from one forward solve; pointwise the same arithmetic as
    unnormalized_log_density on the draw's posterior."""

    def log_f(idx, pts):
        k, n, m = pts.shape
        q = pts.reshape(k * n, m)
        r = Y[idx][:, None, :] - forward(p, q).reshape(k, n, m)
        return -(0.5 * np.sum(r * r, axis=2)) / eps - prior.value_fn(q).reshape(k, n)

    return log_f


def _draw_integrals(p, Y, eps, prior, grid_spec, mode_sets):
    """Simpson log Z of every draw (rows of Y) with the given mode sets, by
    the oracle's box policy (measure.oracle_integrals) on the stacked boxes
    of all draws.  Returns per draw its GridIntegral or the exception that
    failed it."""
    boxes = [oracle_box(grid_spec, ms, eps) for ms in mode_sets]
    lo, hi = (np.array(side, dtype=float).reshape(len(boxes), -1) for side in zip(*boxes))
    log_f = _log_posterior(p, Y, eps, prior)
    return oracle_integrals(
        lambda idx, grids: integrate_exp_stack(lambda j, pts: log_f(idx[j], pts), grids),
        lo, hi, grid_spec,
    )


def _draw_tv(p, Y, eps, prior, integrals, gaussians):
    """d_TV(N(m_i, L_i L_i^T), posterior of draw i) for every draw, on the
    grid of its log Z.  ``integrals`` holds per draw the GridIntegral of
    its log Z and ``gaussians`` its GaussianParams.  The log integrand is
    evaluated again, not kept from the log Z pass: kept, it would hold
    draws x grid points values."""
    log_f = _log_posterior(p, Y, eps, prior)
    log_z = np.array([g.log_value for g in integrals])
    means = np.stack([g.mean for g in gaussians])
    inv_chols = np.linalg.inv(np.stack([g.chol for g in gaussians]))
    log_norm = 0.5 * (p.M * LOG_2PI + np.array([g.log_det_cov for g in gaussians]))

    def log_gauss(idx, pts):
        z = np.einsum("kab,knb->kna", inv_chols[idx], pts - means[idx][:, None, :])
        return -0.5 * np.sum(z * z, axis=2) - log_norm[idx][:, None]

    return tv_distance_stack(
        log_gauss, lambda idx, pts: log_f(idx, pts) - log_z[idx][:, None],
        [g.grid for g in integrals],
    )


def _bvm_level(p, truth, etas, eps, prior, grid_spec, opt_cfg, j_truth_inv):
    """One outcome per noise draw at one eps: KL, TV, and a failure's cause.

    The posterior modes of all draws come from one batched Newton search.
    Up to M = 3, log Z is the Simpson oracle, run once over the stacked
    boxes of all live draws (_draw_integrals), and TV is taken on the same
    boxes in one more pass (_draw_tv); above, log Z is the Laplace value
    and TV is NaN.  The best Gaussians come from one batched Newton solve,
    with minimize_single per draw where Newton or its certificate fails.
    A draw that fails at any stage keeps the type name of its exception as
    its cause; the others go on.
    """
    Y, modes, h_effs, errors = _draw_modes(p, truth, etas, eps, prior, j_truth_inv)
    posts = {}
    for i, y in enumerate(Y):
        if errors[i] is None:
            try:
                posts[i] = _draw_target(p, y, eps, prior, modes[i], h_effs[i])
            except _DRAW_ERRORS as exc:
                errors[i] = exc
    integrals = {}
    if p.M <= 3 and posts:
        live = list(posts)
        mode_sets = [ms for _, ms in posts.values()]
        for i, result in zip(live, _draw_integrals(p, Y[live], eps, prior, grid_spec, mode_sets)):
            if isinstance(result, Exception):
                errors[i] = result
                del posts[i]
            else:
                integrals[i] = result
    log_zs = {
        i: integrals[i].log_value if p.M <= 3 else log_laplace_normalization(ms, eps)
        for i, (_, ms) in posts.items()
    }
    results = {}
    if posts:
        live = list(posts)
        mus, mode_sets = zip(*posts.values())
        rows = Y[live]
        newton = _newton_singles(
            mus,
            list(log_zs.values()),
            mode_sets,
            lambda idx, x: _misfit_derivatives(p, rows[idx], prior, eps, x),
            opt_cfg,
        )
        # where Newton gave no certified point, minimize_single alone; where
        # choosing the start or GH order raised, minimize_single would too
        for i, mu, ms, res in zip(live, mus, mode_sets, newton):
            try:
                if isinstance(res, Exception):
                    raise res
                results[i] = res or minimize_single(mu, opt_cfg, mode_set=ms, log_z=log_zs[i])
            except _DRAW_ERRORS as exc:
                errors[i] = exc
    tv = dict.fromkeys(results, math.nan)
    if integrals and results:
        done = list(results)
        tv.update(zip(done, _draw_tv(
            p, Y[done], eps, prior, [integrals[i] for i in done],
            [results[i].params for i in done],
        )))
    outcomes = []
    for i in range(len(etas)):
        if i in results:
            outcomes.append({"kl": results[i].value, "tv": tv[i],
                             "converged": results[i].converged})
        else:
            outcomes.append({"kl": math.nan, "tv": math.nan, "converged": False,
                             "cause": type(errors[i]).__name__})
    return outcomes


def bvm_experiment(
    p: EllipticProblem,
    cfg: BvMConfig,
    jobs: int = 1,
    grid_spec: GridSpec | None = None,
    pinsker_slack: float = 1e-3,
) -> BvMResult:
    """Noise-averaged KL rate: mean_eta KL(best Gaussian || posterior) vs eps.

    Requires the exp (identifiable) variant and at least 30 draws per level.
    The same noise panel is reused across eps levels (common random numbers)
    so the log-log fit sees a smooth curve.  Draws whose mode search or
    optimization fails are excluded and counted by cause
    (``BvMLevel.failure_causes``); a level with more than 10% failures is
    marked aborted and excluded from the fit.  ``jobs`` is accepted and
    ignored: the draws of a level are solved together in one batch.
    """
    del jobs  # kept for callers; the batch needs no workers
    if p.variant != "exp":
        raise ValueError("the KL-rate experiment requires the exp variant")
    if cfg.draws < 30:
        raise ValueError("at least 30 draws per level are required")
    prior = cfg.prior if cfg.prior is not None else quadratic(dim=p.M)
    truth = np.asarray(cfg.truth, dtype=float)
    if truth.shape != (p.M,):
        raise ValueError("truth must have length M")
    rng = np.random.default_rng(cfg.seed)
    etas = rng.standard_normal((cfg.draws, p.M))
    j_truth_inv = np.linalg.inv(jacobian(p, truth))
    grid_spec = grid_spec or GridSpec()
    opt_cfg = OptimizerConfig(multistart=1, seed=cfg.seed, grad_tol=1e-7)

    levels = []
    for eps in cfg.eps_list:
        outcomes = _bvm_level(p, truth, etas, eps, prior, grid_spec, opt_cfg, j_truth_inv)
        ok, causes = [], Counter()
        for o in outcomes:
            if not o["converged"]:
                causes[o.get("cause", "NotConverged")] += 1
            elif not math.isfinite(o["kl"]):
                causes["NonFiniteKL"] += 1
            else:
                ok.append(o)
        failures = cfg.draws - len(ok)
        aborted = failures > 0.1 * cfg.draws
        kl = np.array([o["kl"] for o in ok])
        tv = np.array([o["tv"] for o in ok])
        mean_kl = float(np.mean(kl)) if len(ok) else math.nan
        stderr = float(np.std(kl, ddof=1) / math.sqrt(len(kl))) if len(ok) > 1 else math.nan
        pinsker_viol = int(
            np.sum(tv > np.sqrt(np.maximum(kl, 0.0) / 2.0) + pinsker_slack)
        )
        tv_viol = (
            int(np.sum(tv > 10.0 * math.sqrt(max(mean_kl, 0.0) / 2.0)))
            if len(ok)
            else 0
        )
        levels.append(
            BvMLevel(
                epsilon=eps,
                mean_kl=mean_kl,
                stderr_kl=stderr,
                n_ok=len(ok),
                failures=failures,
                pinsker_violations=pinsker_viol,
                tv_violations=tv_viol,
                aborted=aborted,
                kl_values=kl,
                tv_values=tv,
                failure_causes=dict(sorted(causes.items())),
            )
        )
    usable = [lv for lv in levels if not lv.aborted]
    rate = fit_rate(
        [lv.epsilon for lv in usable],
        [lv.mean_kl for lv in usable],
        [lv.stderr_kl for lv in usable],
    )
    return BvMResult(levels=levels, rate_fit=rate)


# ---------------------------------------------------------------------------
# log-normalization expectation (Laplace expansion of E log Z)
# ---------------------------------------------------------------------------


@dataclass
class LogZRecord:
    epsilon: float
    mean_log_z: float
    stderr_log_z: float
    reference: float
    gap: float


def log_z_reference(p: EllipticProblem, truth, prior: Potential | None = None, epsilon: float = 1.0):
    """Leading-order expansion of E_eta log Z:

        (d/2) log(2 pi eps) - V0(truth) - log|det DG(truth)|.

    This is the Laplace value at the truth (weight |det DG|^{-1} e^{-V0});
    the noise average only perturbs it at order eps.
    """
    prior = prior if prior is not None else quadratic(dim=p.M)
    truth = np.asarray(truth, dtype=float)
    sign, logdet = np.linalg.slogdet(jacobian(p, truth))
    del sign  # only |det DG| matters
    return (
        0.5 * p.M * math.log(2.0 * math.pi * epsilon)
        - prior.value(truth)
        - logdet
    )


def log_z_expectation_check(
    p: EllipticProblem,
    truth,
    eps_list,
    draws: int = 200,
    seed: int = 0,
    prior: Potential | None = None,
    grid_spec: GridSpec | None = None,
) -> list:
    """Monte-Carlo E_eta log Z (grid oracle) against its Laplace expansion.

    Per eps level the gap mean log Z - reference should shrink linearly in
    eps; the same noise panel is reused across levels.
    """
    if p.M > 3:
        raise ValueError("log Z oracle requires M <= 3")
    prior = prior if prior is not None else quadratic(dim=p.M)
    truth = np.asarray(truth, dtype=float)
    rng = np.random.default_rng(seed)
    etas = rng.standard_normal((draws, p.M))
    j_truth_inv = np.linalg.inv(jacobian(p, truth))
    grid_spec = grid_spec or GridSpec()
    records = []
    for eps in sorted(set(float(e) for e in eps_list), reverse=True):
        Y, modes, h_effs, errors = _draw_modes(p, truth, etas, eps, prior, j_truth_inv)
        mode_sets = []
        for y, x_hat, h_eff, error in zip(Y, modes, h_effs, errors):
            if error is not None:
                raise error
            mode_sets.append(_draw_target(p, y, eps, prior, x_hat, h_eff)[1])
        values = []
        for result in _draw_integrals(p, Y, eps, prior, grid_spec, mode_sets):
            if isinstance(result, Exception):
                raise result
            values.append(result.log_value)
        values = np.asarray(values)
        ref = log_z_reference(p, truth, prior, eps)
        records.append(
            LogZRecord(
                epsilon=eps,
                mean_log_z=float(np.mean(values)),
                stderr_log_z=float(np.std(values, ddof=1) / math.sqrt(draws)),
                reference=float(ref),
                gap=float(np.mean(values) - ref),
            )
        )
    return records


# ---------------------------------------------------------------------------
# catalog integration
# ---------------------------------------------------------------------------


def builtin_posterior_family(
    name: str,
    M: int = 1,
    f=None,
    truth=None,
    eta=None,
    prior: dict | None = None,
    gauss_newton: bool = False,
) -> MeasureFamily:
    variant = "exp" if name == "elliptic-exp" else "square"
    f = np.ones(M) if f is None else np.asarray(f, dtype=float)
    if truth is None:
        truth = np.zeros(M) if variant == "exp" else np.ones(M)
    eta = np.zeros(M) if eta is None else np.asarray(eta, dtype=float)
    p = EllipticProblem(M=M, f=f, variant=variant)
    prior_pot = (
        quadratic(dim=M) if prior is None else potential_from_spec(prior, M)
    )
    return posterior_family(p, truth, eta, prior_pot, gauss_newton=gauss_newton)


def posterior_family_from_spec(doc: dict) -> MeasureFamily:
    """Problem-catalog document with an elliptic v1: {name, dim, v1, v2}."""
    v1 = doc["v1"]
    params = dict(v1.get("params", {}))
    params.setdefault("M", int(doc["dim"]))
    if int(doc["dim"]) != int(params["M"]):
        raise ValueError("problem dim and elliptic M disagree")
    return builtin_posterior_family(v1["id"], prior=doc.get("v2"), **params)
