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

from .gamma import RateFit, fit_rate, sweep
from .gaussian import LOG_2PI
from .measure import (
    GridSpec,
    MeasureFamily,
    ModeSet,
    _damped_newton,
    _first_boxes,
    _laplace_log_betas,
    _log_laplace,
    oracle_integrals,
)
from .optimizer import OptimizerConfig, _newton_singles
from .potentials import Potential, potential_from_spec, quadratic
from .quadrature import integrate_exp_stack

VARIANTS = ("exp", "square")
_PINSKER_SLACK = 1e-3  # a draw violates Pinsker where TV > sqrt(KL / 2) + this


def __getattr__(name):
    # perfbench/tracer.py wraps this name in each BFGS caller it lists; this
    # module runs no BFGS, so it is scipy's minimize, imported when first read
    if name == "_scipy_minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    du = _solve(p, qs, p.f[None, :]) * p.coefficient_derivative(qs)
    J = -_solve(p, qs, np.eye(p.M)[None]) * du[:, None, :]
    return J[0] if single else J


def _forward_and_jacobian(p, qs):
    """u = G(q), J = DG(q) and S = (A+Q)^(-1) at each row q of ``qs``, from
    one Thomas pass on [f | I]."""
    sol = _solve(p, qs, np.hstack([p.f[:, None], np.eye(p.M)])[None])
    u, S = sol[:, :, 0], sol[:, :, 1:]
    return u, -S * (u * p.coefficient_derivative(qs))[:, None, :], S


def _misfit(p: EllipticProblem, Y, X, order: int):
    """V1 = |y - G(x)|^2 / 2 and its exact derivatives up to ``order`` (0, 1 or 2).

    Y has shape (n, M), one data vector y per row, and X shape (n, K, M), K
    points per row; at order 0, X may also have shape (1, K, M), the same
    points for every row.  Returns the values (n, K), the gradients
    (n, K, M) and the Hessians (n, K, M, M), None above ``order``.  With
    r = y - u and the adjoint w = (A+Q)^(-1) r, the gradient is u c'(x) w
    (J = -(A+Q)^(-1) diag(u c') and A+Q is symmetric), and with b = w c'(x)
    the Hessian is

        J^T J + diag(b) J + J^T diag(b) + diag(u w c''(x)).

    Below order 2, u comes from ``forward`` and w from one adjoint solve; at
    order 2, u, J and S = (A+Q)^(-1) come from one pass
    (_forward_and_jacobian), and w = S r.
    """
    n, K, M = X.shape
    q = X.reshape(n * K, M)
    if order < 2:
        u = forward(p, q)
    else:
        u, J, S = _forward_and_jacobian(p, q)
    r = Y[:, None, :] - u.reshape(n, K, M)
    value = 0.5 * np.sum(r * r, axis=2)
    if order == 0:
        return value, None, None
    r = r.reshape(n * K, M)
    w = _solve(p, q, r) if order == 1 else np.einsum("nij,nj->ni", S, r)
    c1 = p.coefficient_derivative(q)
    grad = (u * c1 * w).reshape(n, K, M)
    if order == 1:
        return value, grad, None
    bJ = (w * c1)[:, :, None] * J
    H = np.einsum("nki,nkj->nij", J, J) + bJ + bJ.transpose(0, 2, 1)
    idx = np.arange(M)
    H[:, idx, idx] += u * w * p.coefficient_second_derivative(q)
    return value, grad, (0.5 * (H + H.transpose(0, 2, 1))).reshape(n, K, M, M)


def misfit_potential(p: EllipticProblem, y, name: str = "") -> Potential:
    """V1(q) = |y - G(q)|^2 / 2 with exact gradient and Hessian (_misfit)."""
    Y = np.asarray(y, dtype=float)[None]

    def derivative(order):
        return lambda x: _misfit(p, Y, x[None], order)[order][0]

    return Potential(
        dim=p.M,
        value_fn=derivative(0),
        grad_fn=derivative(1),
        hess_fn=derivative(2),
        name=name or f"elliptic-{p.variant}-misfit",
        growth_bound=float(np.sum(p.f**2)),
        v1_family=True,
    )


def _misfit_derivatives(p: EllipticProblem, Y, prior: Potential, eps: float, X, hessian=True):
    """Phi = |y - G(x)|^2 / (2 eps) + V2(x) with one data vector per draw.

    Y has shape (n, M), one data vector y per draw, and X shape (n, K, M),
    K points per draw.  Returns the values (n, K), gradients (n, K, M) and,
    where ``hessian``, exact Hessians (n, K, M, M) of Phi, else None: the
    misfit's from _misfit at order 2, or 1, plus the prior's.
    """
    n, K, M = X.shape
    q = X.reshape(n * K, M)
    value, grad, hess = _misfit(p, Y, X, 2 if hessian else 1)
    value = value / eps + np.reshape(prior.value_fn(q), (n, K))
    grad = grad / eps + np.reshape(prior.grad_fn(q), (n, K, M))
    if hessian:
        hess = hess / eps + np.reshape(prior.hess_fn(q), (n, K, M, M))
    return value, grad, hess


def _posterior_box(p: EllipticProblem, truth):
    truth = np.asarray(truth, dtype=float)
    if p.variant == "square":
        r = np.abs(truth)
        return (-r - 2.0, r + 2.0)
    return (truth - 2.0, truth + 2.0)


def posterior_family(
    p: EllipticProblem, truth, eta, prior: Potential | None = None
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
        return misfit_potential(p, g_truth + math.sqrt(epsilon) * eta)

    return MeasureFamily(
        name=f"elliptic-{p.variant}",
        dim=p.M,
        v1_limit=misfit_potential(p, g_truth),
        v2=prior,
        v1_at=v1_at,
        default_box=_posterior_box(p, truth),
    )


def posterior(p: EllipticProblem, truth, eta, epsilon: float, prior: Potential | None = None):
    """Posterior at a fixed noise scale, the TargetMeasure
    exp(-|y - G(x)|^2/(2 eps) - V0(x))."""
    return posterior_family(p, truth, eta, prior).at(epsilon)


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
    hessians = np.stack([J.T @ J for J in (jacobian(p, m) for m in modes)])
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

    A gamma.sweep of the posterior family in decreasing eps from the limit
    mode set, warm-started level to level.  exp variant: single Gaussian
    against (truth, (DG^T DG)^{-1}); square variant: 2^M-component mixture
    against the sign-flip modes and the prior-weighted limit weights.  Each
    record's mean error is the sweep's mode distance, and its covariance
    error the largest relative Frobenius distance of a component's rescaled
    covariance to the limit covariance of its nearest mode.
    """
    prior = prior if prior is not None else quadratic(dim=p.M)
    ms = limit_mode_set(p, truth, prior)
    limit_covs = np.linalg.inv(ms.hessians)
    result = sweep(
        posterior_family(p, truth, eta, prior),
        sorted(set(float(e) for e in eps_list), reverse=True),
        kind="single" if p.variant == "exp" else "mixture",
        cfg=cfg,
        xi=xi,
        mode_set=ms,
    )
    records = []
    for rec in result.records:
        params = rec.result.params
        means = params.mean[None] if rec.kind == "single" else params.means
        covs = np.reshape(rec.result.rescaled_covariances, (len(means), p.M, p.M))
        cov_rel = max(
            np.linalg.norm(cov - limit_covs[j]) / np.linalg.norm(limit_covs[j])
            for cov, (j, _) in zip(covs, map(ms.nearest, means))
        )
        records.append(
            NormalityRecord(
                epsilon=rec.epsilon,
                mean_err=rec.mode_dist,
                cov_rel_err=float(cov_rel),
                weight_dist=rec.weight_dist,
                value=rec.value,
                converged=rec.converged,
            )
        )
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
        if not all(math.isfinite(e) and e > 0 for e in eps) or any(
            b >= a for a, b in zip(eps, eps[1:])
        ):
            raise ValueError("eps_list must be strictly decreasing, positive and finite")
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
    # the Simpson oracle's certainty and cost (M <= 3): the largest
    # Richardson rel_error of the level's Simpson log Z values, NaN where
    # there are none, and the sum of n**d over their accepted grids
    logz_rel_error: float = math.nan
    grid_points: int = 0

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


def _log_posterior(p, Y, eps, prior):
    """log_f(idx, pts) = -|y_i - G(x)|^2 / (2 eps) - V2(x), the unnormalized
    log posterior of the draws ``idx`` (rows of Y) at their points (k, N, M),
    from one forward solve; pointwise the same arithmetic as
    unnormalized_log_density on the draw's posterior."""

    def log_f(idx, pts):
        k, n, m = pts.shape
        misfits, _, _ = _misfit(p, Y[idx], pts, 0)
        return -misfits / eps - np.reshape(prior.value_fn(pts.reshape(k * n, m)), (k, n))

    return log_f


def _log_gaussian(means, chols, fitted):
    """log_q(idx, pts) = log N(x; means[i], chols[i] chols[i]^T) of the draws
    ``idx`` at their points (k, N, M), NaN for a draw that is not
    ``fitted``: only the fitted draws' means and factors are used, since a
    failed fit's can be NaN or singular."""
    means = np.where(fitted[:, None], means, math.nan)
    inv_chols = np.full_like(chols, math.nan)
    log_norm = np.full(len(means), math.nan)
    inv_chols[fitted] = np.linalg.inv(chols[fitted])
    log_det = 2.0 * np.sum(np.log(np.diagonal(chols[fitted], axis1=1, axis2=2)), axis=1)
    log_norm[fitted] = 0.5 * (means.shape[1] * LOG_2PI + log_det)

    def log_q(idx, pts):
        z = np.einsum("kab,knb->kna", inv_chols[idx], pts - means[idx][:, None, :])
        return -0.5 * np.sum(z * z, axis=2) - log_norm[idx][:, None]

    return log_q


def _draw_integrals(p, Y, eps, prior, grid_spec, modes, h_effs, log_q=None):
    """Simpson log Z of every draw (rows of Y) with posterior mode modes[i]
    and Hessian h_effs[i] there, by the oracle's box policy
    (measure.oracle_integrals) on the stacked boxes of all draws, all built
    at once.  The first box of each is ``grid_spec.box``, or else the ball
    of radius 6 sqrt(eps / lambda_min) about its mode, for the eigenvalues
    lambda of h_effs[i] (measure._first_boxes).  The oracle picks each
    box's Simpson resolution from the draw's smallest posterior width
    sqrt(eps / lambda_max).  It is given modes[i] as the mode of draw i:
    where that mode is the posterior's global maximum, a box whose faces
    already fail the tail check against the log posterior there is widened
    without being integrated, and the accepted boxes are those of
    integrating every box.

    With ``log_q`` (as _log_gaussian gives it, over the same draws), each
    integral also carries the TV distance of draw i's Gaussian to its
    posterior (GridIntegral.tv), taken from the log posterior values that
    give its log Z (quadrature.integrate_exp_stack): the posterior is
    evaluated once per grid point, and no grid values outlive their chunk.
    The TV of a box the oracle widens is dropped with its integral: each
    draw's TV is that of its accepted box.  Returns per draw its
    GridIntegral or the exception that failed it."""
    lo, hi = _first_boxes(grid_spec, eps, len(Y), modes[:, None], h_effs[:, None])
    lam_max = np.linalg.eigvalsh(0.5 * (h_effs + np.swapaxes(h_effs, -1, -2)))[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):  # lambda_max <= 0: no width
        widths = np.sqrt(eps / lam_max)
    log_f = _log_posterior(p, Y, eps, prior)

    def integrate(idx, lo, hi, n):
        return integrate_exp_stack(
            lambda j, pts: log_f(idx[j], pts), lo, hi, n,
            None if log_q is None else lambda j, pts: log_q(idx[j], pts),
        )

    return oracle_integrals(integrate, lo, hi, grid_spec, log_f, modes[:, None], widths)


def _bvm_level(p, truth, etas, eps, prior, grid_spec, opt_cfg, j_truth_inv):
    """One outcome per noise draw at one eps: KL, TV, and a failure's cause.

    The posterior modes of all draws come from one batched Newton search;
    their Laplace weights come from ModeSet's rule over the batch
    (measure._laplace_log_betas), so a mode whose Hessian is not positive
    definite fails its draw with DegenerateModeError.  The best Gaussians
    come next, from one batched Newton solve whose endpoints are certified
    in batched evaluations (_newton_singles), all on arrays, with the
    Laplace log Z of each draw: the fit does not depend on log Z, and the
    certificate only through the scale of its next-order agreement.  Up to
    M = 3 the Simpson oracle then runs once over the stacked boxes of all
    these draws (_draw_integrals) and gives log Z, and, for the certified
    draws, TV from the same grid values; the reported KL takes the Simpson
    log Z in place of the Laplace one.  Above, log Z is the Laplace value
    and TV is NaN.  A draw that fails at any stage keeps the type name of
    its exception as its cause, the oracle's before Newton's; a draw whose
    Newton point fails the certificate is not converged, and its TV is NaN.
    The others go on.  Every outcome also carries the Richardson rel_error
    of its Simpson log Z and the n**d points of its accepted grid (NaN and
    0 where the oracle gave none).
    """
    Y, modes, h_effs, errors = _draw_modes(p, truth, etas, eps, prior, j_truth_inv)
    n = len(etas)

    def live():
        return np.flatnonzero([e is None for e in errors])

    idx = live()
    v2 = np.reshape(prior.value_fn(modes[idx]), len(idx))
    log_beta, bad = _laplace_log_betas(modes[idx], h_effs[idx], v2)
    for i, exc in zip(idx, bad):
        errors[i] = exc
    log_zs = np.full(n, math.nan)
    log_zs[idx] = _log_laplace(p.M, np.exp(log_beta)[:, None], eps)
    kl, tv = np.full(n, math.nan), np.full(n, math.nan)
    rel_errors, grid_points = np.full(n, math.nan), np.zeros(n, dtype=int)
    certified = np.zeros(n, dtype=bool)
    idx = live()
    if idx.size:
        rows = Y[idx]
        fits = _newton_singles(
            lambda j, x, hessian: _misfit_derivatives(p, rows[j], prior, eps, x, hessian),
            eps, log_zs[idx], modes[idx], h_effs[idx], opt_cfg,
        )
        if p.M <= 3:
            log_q = _log_gaussian(fits.means, math.sqrt(eps) * fits.chols, fits.certified)
            for i, result in zip(idx, _draw_integrals(
                    p, rows, eps, prior, grid_spec, modes[idx], h_effs[idx], log_q)):
                if isinstance(result, Exception):
                    errors[i] = result
                else:
                    log_zs[i], tv[i] = result.log_value, result.tv
                    rel_errors[i] = result.rel_error
                    grid_points[i] = result.grid.points_per_dim ** p.M
        for i, exc in zip(idx, fits.errors):
            if errors[i] is None:
                errors[i] = exc
        ok = idx[fits.certified]
        kl[ok], certified[ok] = fits.values[fits.certified] + log_zs[ok], True
    outcomes = []
    for i in range(n):
        if errors[i] is None:
            o = {"kl": float(kl[i]), "tv": float(tv[i]), "converged": bool(certified[i])}
        else:
            o = {"kl": math.nan, "tv": math.nan, "converged": False,
                 "cause": type(errors[i]).__name__}
        o.update(logz_rel_error=float(rel_errors[i]), grid_points=int(grid_points[i]))
        outcomes.append(o)
    return outcomes


def bvm_experiment(
    p: EllipticProblem,
    cfg: BvMConfig,
    jobs: int = 1,
    grid_spec: GridSpec | None = None,
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
    opt_cfg = OptimizerConfig(grad_tol=1e-7)

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
        pinsker_viol = int(np.sum(tv > np.sqrt(np.maximum(kl, 0.0) / 2.0) + _PINSKER_SLACK))
        tv_viol = (
            int(np.sum(tv > 10.0 * math.sqrt(max(mean_kl, 0.0) / 2.0)))
            if len(ok)
            else 0
        )
        rel_errors = [o["logz_rel_error"] for o in outcomes if not math.isnan(o["logz_rel_error"])]
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
                logz_rel_error=max(rel_errors, default=math.nan),
                grid_points=sum(o["grid_points"] for o in outcomes),
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
        for error in errors:
            if error is not None:
                raise error
        values = []
        for result in _draw_integrals(p, Y, eps, prior, grid_spec, modes, h_effs):
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
    name: str, M: int = 1, f=None, truth=None, eta=None, prior: dict | None = None
) -> MeasureFamily:
    variant = "exp" if name == "elliptic-exp" else "square"
    f = np.ones(M) if f is None else np.asarray(f, dtype=float)
    if truth is None:
        truth = np.zeros(M) if variant == "exp" else np.ones(M)
    eta = np.zeros(M) if eta is None else np.asarray(eta, dtype=float)
    p = EllipticProblem(M=M, f=f, variant=variant)
    prior_pot = quadratic(dim=M) if prior is None else potential_from_spec(prior, M)
    return posterior_family(p, truth, eta, prior_pot)


def posterior_family_from_spec(doc: dict) -> MeasureFamily:
    """Problem-catalog document with an elliptic v1: {name, dim, v1, v2}."""
    v1 = doc["v1"]
    params = dict(v1.get("params", {}))
    unknown = sorted(set(params) - {"M", "f", "truth", "eta"})
    if unknown:
        raise ValueError(f"unknown elliptic parameter(s) {', '.join(map(repr, unknown))}")
    params.setdefault("M", int(doc["dim"]))
    if int(doc["dim"]) != int(params["M"]):
        raise ValueError("problem dim and elliptic M disagree")
    return builtin_posterior_family(v1["id"], prior=doc.get("v2"), **params)
