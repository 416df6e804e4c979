"""Closed-form limit functionals and the epsilon-sweep verification harness.

As eps -> 0 the optimal single-Gaussian KL converges (in the Gamma sense) to

    F(m, Sigma) = KL( N(m, Sigma) || N(m, (D^2 V1(m))^-1) ) + KL( e^i || beta )

for m = x^i a mode, and +inf otherwise; the mixture objective converges to
the weighted Gaussian term plus KL(alpha || beta), whose minimum is exactly
zero at the mode/inverse-Hessian/beta configuration.  The sweep harness runs
the optimizer along a decreasing eps ladder with warm starts and fits
log-log rates on the gap to the limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gaussian import GaussianParams, kl_categorical, kl_gaussian_gaussian
from .measure import (
    MeasureFamily,
    ModeSet,
    MultistartConfig,
    find_modes,
    log_laplace_normalization,
    quadrature_normalization,
)
from .objective import g_eps, kl_single
from .optimizer import OptimizerConfig, OptimResult, minimize_mixture, minimize_single

MODE_MATCH_TOL = 1e-6


def _match_mode(ms: ModeSet, point, tol: float) -> int | None:
    i, dist = ms.nearest(point)
    return i if dist <= tol * (1.0 + np.linalg.norm(ms.modes[i])) else None


def _f0(ms: ModeSet, i0: int, sigma: np.ndarray) -> float:
    """V2(x^i) + Tr(H Sigma)/2 - d/2 - log det(Sigma)/2 + log sum(beta)."""
    d = ms.dim
    H = ms.hessians[i0]
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return math.inf
    return float(
        ms.v2_values[i0]
        + 0.5 * np.trace(H @ sigma)
        - 0.5 * d
        - 0.5 * logdet
        + math.log(float(np.sum(ms.raw_weights)))
    )


def f_limit(ms: ModeSet, m, sigma, mode_match_tol: float = MODE_MATCH_TOL) -> float:
    """Limit of the single-Gaussian objective; +inf off the mode set."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    i0 = _match_mode(ms, m, mode_match_tol)
    if i0 is None:
        return math.inf
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return math.inf
    return _f0(ms, i0, sigma)


def f_limit_split(ms: ModeSet, i0: int, sigma) -> tuple[float, float]:
    """(Gaussian discrepancy at mode i0, categorical weight penalty).

    The parts are KL(N(x^i, Sigma) || N(x^i, H_i^-1)) and KL(e^i || beta);
    their sum reassembles the limit functional exactly.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    x = ms.modes[i0]
    a = GaussianParams.from_covariance(x, sigma)
    b = GaussianParams.from_covariance(x, np.linalg.inv(ms.hessians[i0]))
    gaussian_term = kl_gaussian_gaussian(a, b)
    categorical_term = -math.log(float(ms.weights[i0]))
    return gaussian_term, categorical_term


def g_limit(
    ms: ModeSet,
    weights,
    means,
    sigmas,
    xi,
    mode_match_tol: float = MODE_MATCH_TOL,
) -> float:
    """Limit of the mixture objective; +inf off the constrained mode set.

    Finite only when the weights respect the xi1 floor, the means are xi2
    separated, and every mean sits on a distinct mode; then it equals
    sum_i alpha^i KL(N(m^i, Sigma^i) || N(m^i, H_i^-1)) + sum_i alpha^i
    log(alpha^i / beta_{j(i)}).
    """
    weights = np.asarray(weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    n = weights.size
    xi1, xi2 = float(xi[0]), float(xi[1])
    if np.any(weights < xi1) or abs(float(np.sum(weights)) - 1.0) > 1e-9:
        return math.inf
    if n > 1:
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        if float(np.min(dists[np.triu_indices(n, k=1)])) < xi2:
            return math.inf
    matched = []
    for i in range(n):
        j = _match_mode(ms, means[i], mode_match_tol)
        if j is None or j in matched:
            return math.inf
        matched.append(j)
    total = 0.0
    for i, j in enumerate(matched):
        g_term, _ = f_limit_split(ms, j, np.atleast_2d(np.asarray(sigmas[i])))
        total += weights[i] * g_term
        total += weights[i] * (math.log(weights[i]) - math.log(float(ms.weights[j])))
    return float(total)


def limit_minimizer_single(ms: ModeSet) -> tuple[int, GaussianParams, float]:
    """argmin of the limit functional: the maximal-weight mode, its inverse
    Hessian, and the value KL(e^i || beta)."""
    i_star = int(np.argmax(ms.raw_weights))  # ties resolve to the lowest index
    sigma = np.linalg.inv(ms.hessians[i_star])
    params = GaussianParams.from_covariance(ms.modes[i_star], sigma)
    return i_star, params, -math.log(float(ms.weights[i_star]))


def limit_minimum_mixture(ms: ModeSet, n: int, xi) -> float:
    """min over the constrained family of the limit mixture functional.

    Zero whenever beta itself is feasible; otherwise the weights are the
    xi1-floored projection of beta (water-filling on the simplex).
    """
    xi1 = float(xi[0])
    if n != ms.n:
        raise ValueError("limit minimum defined for n equal to the mode count")
    beta = ms.weights
    if np.all(beta >= xi1):
        return 0.0
    clamped = np.zeros(n, dtype=bool)
    alpha = beta.copy()
    for _ in range(n):
        free = ~clamped
        scale = (1.0 - xi1 * np.sum(clamped)) / np.sum(beta[free])
        alpha[free] = beta[free] * scale
        alpha[clamped] = xi1
        newly = free & (alpha < xi1)
        if not np.any(newly):
            break
        clamped |= newly
    return kl_categorical(alpha, beta)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(eps)."""

    slope: float
    intercept: float
    r_squared: float
    eps_range: tuple
    n_used: int

    def to_json(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "eps_range": list(self.eps_range),
            "n_used": self.n_used,
        }


def fit_rate(eps_values, values, stderrs=None) -> RateFit | None:
    """Fit log value = slope * log eps + intercept.

    Uses only strictly positive values that clear 10x their estimator
    standard error (noise-floor guard); returns None below two usable
    points.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    values = np.asarray(values, dtype=float)
    stderrs = (
        np.zeros_like(values) if stderrs is None else np.asarray(stderrs, dtype=float)
    )
    mask = (values > 0) & (values > 10.0 * stderrs) & np.isfinite(values)
    if int(np.sum(mask)) < 2:
        return None
    x = np.log(eps_values[mask])
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        eps_range=(float(np.min(eps_values[mask])), float(np.max(eps_values[mask]))),
        n_used=int(np.sum(mask)),
    )


@dataclass
class SweepRecord:
    epsilon: float
    kind: str
    value: float
    stderr: float
    limit_value: float  # limit functional at the (mode-snapped) argmin
    gap: float  # value - limit minimum
    mode_dist: float
    weight_dist: float | None
    converged: bool
    result: OptimResult = field(repr=False, compare=False, default=None)

    def csv_row(self) -> str:
        wd = "" if self.weight_dist is None else repr(float(self.weight_dist))
        conv = "true" if self.converged else "false"
        return (
            f"{float(self.epsilon)!r},{float(self.value)!r},"
            f"{float(self.limit_value)!r},{float(self.gap)!r},"
            f"{float(self.mode_dist)!r},{wd},{conv}"
        )


@dataclass
class SweepResult:
    problem: str
    kind: str
    records: list
    limit_minimum: float
    gap_fit: RateFit | None
    mode_fit: RateFit | None
    mode_set: ModeSet

    CSV_HEADER = "epsilon,value,limit_value,gap,mode_dist,weight_dist,converged"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        lines += [r.csv_row() for r in self.records]
        footer = {
            "problem": self.problem,
            "kind": self.kind,
            "limit_minimum": self.limit_minimum,
            "gap_fit": self.gap_fit.to_json() if self.gap_fit else None,
            "mode_fit": self.mode_fit.to_json() if self.mode_fit else None,
        }
        lines.append("# " + json.dumps(footer, sort_keys=True))
        return "\n".join(lines) + "\n"


def _reestimate_record(record, family, eps, result, log_z, estimator):
    """Replace a record's value/stderr with an independent estimate at the argmin."""
    if result.kind == "single":
        est = kl_single(family.at(eps), result.params, log_z, estimator)
    else:
        est = g_eps(family, eps, result.params, log_z, estimator)
    limit_min = record.value - record.gap
    record.value = est.value
    record.stderr = est.stderr
    record.gap = est.value - limit_min


def _single_record(ms, eps, result, limit_min):
    m = result.params.mean
    sigma_resc = result.rescaled_covariances
    i0, dist = ms.nearest(m)
    limit_value = _f0(ms, i0, sigma_resc)
    return SweepRecord(
        epsilon=eps,
        kind="single",
        value=result.value,
        stderr=0.0,
        limit_value=limit_value,
        gap=result.value - limit_min,
        mode_dist=dist,
        weight_dist=None,
        converged=result.converged,
        result=result,
    )


def _mixture_record(ms, eps, result, limit_min):
    mix = result.params
    sig_resc = result.rescaled_covariances
    dists = []
    matched = []
    for comp in mix.components:
        j, dist = ms.nearest(comp.mean)
        dists.append(dist)
        matched.append(j)
    if len(set(matched)) == mix.n and mix.n <= ms.n:
        weight_dist = float(
            np.sum(np.abs(mix.weights - ms.weights[np.asarray(matched)]))
        )
    else:
        weight_dist = math.nan
    limit_value = 0.0
    for i, j in enumerate(matched):
        g_term, _ = f_limit_split(ms, j, sig_resc[i])
        limit_value += mix.weights[i] * (
            g_term + math.log(mix.weights[i]) - math.log(float(ms.weights[j]))
        )
    return SweepRecord(
        epsilon=eps,
        kind="mixture",
        value=result.value,
        stderr=0.0,
        limit_value=float(limit_value),
        gap=result.value - limit_min,
        mode_dist=float(np.max(dists)),
        weight_dist=weight_dist,
        converged=result.converged,
        result=result,
    )


def _warm_start(result):
    """The start a sweep's next level takes from ``result``: (mean, rescaled
    covariance) for a single Gaussian, or (weights, means, Cholesky factors
    of the rescaled covariances) for a mixture."""
    if result.kind == "single":
        return result.params.mean, result.rescaled_covariances
    cov = result.rescaled_covariances
    return result.params.weights, result.params.means, [np.linalg.cholesky(c) for c in cov]


def sweep(
    family: MeasureFamily,
    eps_list,
    kind: str = "single",
    cfg: OptimizerConfig | None = None,
    n: int | None = None,
    xi: tuple = (0.05, 1.0),
    mode_set: ModeSet | None = None,
    logz: str = "laplace",
    estimator=None,
) -> SweepResult:
    """Optimize along a strictly decreasing eps ladder with warm starts.

    Records the rescaled argmin, the limit-functional value there, the gap
    to the limit minimum and distances to the predicted modes/weights, then
    fits log-log rates on gap and mode distance.  ``logz`` selects the
    normalization source: "laplace" (fast, o(1)-accurate values) or
    "quadrature" (grid oracle, exact KL values, dimension <= 3).

    The optimizer itself always minimizes the deterministic Gauss-Hermite
    objective; a Monte-Carlo ``estimator`` re-evaluates each record's value
    at the argmin (reusing one seed across the sweep, so the rate fits see
    a smooth curve) and fills the stderr column, which the fits then use as
    a noise floor.
    """
    eps_list = [float(e) for e in eps_list]
    if not all(math.isfinite(e) and e > 0 for e in eps_list) or any(
        b >= a for a, b in zip(eps_list, eps_list[1:])
    ):
        raise ValueError("eps_list must be strictly decreasing, positive and finite")
    if kind not in ("single", "mixture"):
        raise ValueError("kind must be 'single' or 'mixture'")
    if logz not in ("laplace", "quadrature"):
        raise ValueError("logz must be 'laplace' or 'quadrature'")
    cfg = cfg or OptimizerConfig()
    if mode_set is None:
        box = cfg.box if cfg.box is not None else family.default_box
        mode_set = find_modes(
            family.v1_limit, family.v2, MultistartConfig(box=box, seed=cfg.seed)
        )
    if kind == "mixture":
        n = n if n is not None else mode_set.n
        limit_min = (
            limit_minimum_mixture(mode_set, n, xi) if n == mode_set.n else math.nan
        )
    else:
        _, _, limit_min = limit_minimizer_single(mode_set)

    records = []
    start = {"cfg": cfg, "mode_set": mode_set}
    warm_cfg = replace(cfg, multistart=1)
    for eps in eps_list:
        mu = family.at(eps)
        if logz == "quadrature":
            log_z = quadrature_normalization(mu, mode_set=mode_set).log_value
        else:
            log_z = log_laplace_normalization(mode_set, eps)
        if kind == "single":
            result = minimize_single(mu, log_z=log_z, **start)
            records.append(_single_record(mode_set, eps, result, limit_min))
        else:
            result = minimize_mixture(mu, n, xi, log_z=log_z, **start)
            records.append(_mixture_record(mode_set, eps, result, limit_min))
        # recovery-sequence warm start: track the established well
        start = {"cfg": warm_cfg, "mode_set": None, "extra_starts": [_warm_start(result)]}
        if estimator is not None and estimator.method == "monte-carlo":
            _reestimate_record(records[-1], family, eps, result, log_z, estimator)

    usable = [r for r in records if r.converged]
    gap_fit = fit_rate(
        [r.epsilon for r in usable],
        [r.gap for r in usable],
        [r.stderr for r in usable],
    )
    mode_fit = fit_rate(
        [r.epsilon for r in usable], [r.mode_dist for r in usable]
    )
    return SweepResult(
        problem=family.name,
        kind=kind,
        records=records,
        limit_minimum=limit_min,
        gap_fit=gap_fit,
        mode_fit=mode_fit,
        mode_set=mode_set,
    )
