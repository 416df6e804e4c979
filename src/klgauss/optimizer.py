"""Minimization of the KL objective over Gaussians and constrained mixtures.

The objective itself, with its parameterization, lives in ``objective.py``:

* covariances through lower-triangular Cholesky factors with log diagonal
  (always SPD, log det linear in the parameters);
* the approximating measure is N(m, eps * L L^T), i.e. the optimizer works
  in the rescaled covariance whose limit is (D^2 V1(x^i))^(-1);
* mixture weights through a softmax pinned at the first component, kept
  above the floor xi1 by a logarithmic barrier, with mean separation
  enforced by an escalating quadratic hinge penalty.

This module minimizes it with BFGS on fixed Gauss-Hermite nodes, where it is
smooth and deterministic and its gradient exact.  Multistart globalization
seeds means at the located modes with covariances from the inverse mode
Hessians.  Where the ``gh_order`` rule is large, BFGS runs at the lowest of
its halved orders that is certified against the next finer one (see
OptimizerConfig).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .gaussian import GaussianParams, MixtureParams
from .measure import (
    DegenerateModeError,
    ModeSearchError,
    ModeSet,
    MultistartConfig,
    TargetMeasure,
    _box_arrays,
    _damped_newton,
    find_modes,
    log_laplace_normalization,
)
from .objective import _ONE, _gh_nodes, _Objective
from .quadrature import NodeBudgetError

# GH order selection: it runs only where the gh_order rule has more nodes
# than this, since smaller rules cost about the same at any order; adjacent
# orders agree when their values differ by at most REFINE_RTOL relative and
# their gradients by at most REFINE_GRAD_FACTOR * grad_tol
_SELECT_MIN_NODES = 1000
_REFINE_RTOL = 1e-10
_REFINE_GRAD_FACTOR = 1e-2


class InfeasibleConstraintError(ValueError):
    """The requested constraint set is empty (e.g. xi1 > 1/n)."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the BFGS multistart.

    ``gh_order`` is the reference Gauss-Hermite order of the objective's
    tensor rule.  Where that rule has more than 1,000 nodes (gh_order**d),
    BFGS runs at the lowest order of the ladder of halvings (20 -> 10 -> 5
    -> 2) whose value and gradient agree with the next ladder order at the
    first start: values to 1e-10 relative, gradients to 1e-2 * grad_tol.
    Every start's endpoint is certified the same way against the next order
    before the starts are ranked; where it fails, BFGS continues from it at
    that order, up to gh_order.  No rule of more than
    quadrature.MAX_GH_NODES (1e6) nodes is built: where selection or
    certification needs one, NodeBudgetError is raised.
    """

    max_iters: int = 300
    grad_tol: float = 1e-8
    multistart: int = 8
    box: tuple | None = None
    barrier: float = 1e-6
    separation_weight: float = 100.0
    seed: int = 0
    gh_order: int = 20

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.multistart < 1:
            raise ValueError("multistart count must be >= 1")


@dataclass
class StartTrace:
    start_value: float
    value: float
    grad_norm: float
    iterations: int
    converged: bool

    def to_json(self):
        return {
            "start_value": self.start_value,
            "value": self.value,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass
class OptimResult:
    """Best point over all multistarts.

    ``params`` carries the full (eps-scaled) covariances, so it is the
    actual approximating measure; ``rescaled_covariances`` recovers the
    eps-free parameterization whose limits the theory predicts.
    ``gh_order`` is the Gauss-Hermite order BFGS ended at, and
    ``gh_refine_error`` is |value - value at the next ladder order| at the
    returned point (at the reference order: against the half order), or
    None where the rule was too small for order selection to run.
    """

    kind: str  # "single" | "mixture"
    params: object  # GaussianParams | MixtureParams
    epsilon: float
    value: float
    converged: bool
    iterations: int
    log_z: float
    gh_order: int
    traces: list = field(default_factory=list)
    gh_refine_error: float | None = None

    @property
    def rescaled_covariances(self) -> np.ndarray:
        if self.kind == "single":
            return self.params.covariance / self.epsilon
        return np.stack([c.covariance for c in self.params.components]) / self.epsilon

    @property
    def weights(self):
        return None if self.kind == "single" else self.params.weights

    def to_json(self, verbose: bool = False) -> dict:
        doc = {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "log_z": self.log_z,
            "params": self.params.to_json(),
            "rescaled_covariances": self.rescaled_covariances.tolist(),
        }
        if self.kind == "mixture":
            doc["weights"] = self.params.weights.tolist()
        if verbose:
            doc["traces"] = [t.to_json() for t in self.traces]
            doc["gh_order"] = self.gh_order
            doc["gh_refine_error"] = self.gh_refine_error
        return doc


def _default_box(mu, mode_set, cfg):
    if cfg.box is not None:
        return cfg.box
    if mode_set is not None and mode_set.n > 0:
        lo = np.min(mode_set.modes, axis=0) - 2.0
        hi = np.max(mode_set.modes, axis=0) + 2.0
        return (lo, hi)
    return (-4.0, 4.0)


def _locate_modes(mu, cfg):
    return find_modes(
        mu.v1, mu.v2, MultistartConfig(box=_default_box(mu, None, cfg), seed=cfg.seed)
    )


def _resolve_log_z(mu, mode_set, log_z, cfg, extra_starts):
    """Fill in the Laplace log Z and mode-informed starts where missing.

    Warm-started calls (extra_starts given) deliberately skip mode location
    so a sweep keeps tracking its established basin.
    """
    if mode_set is None and not extra_starts:
        try:
            mode_set = _locate_modes(mu, cfg)
        except (ModeSearchError, DegenerateModeError):
            if log_z is None:
                raise  # Laplace log Z needs the modes; starts alone do not
    if log_z is not None:
        return float(log_z), mode_set
    if mode_set is None:
        mode_set = _locate_modes(mu, cfg)
    return log_laplace_normalization(mode_set, mu.epsilon), mode_set


def _accept_tol(grad_tol):
    # BFGS stops with "precision loss" once objective differences fall below
    # rounding; a small gradient at that point still certifies the minimum
    return max(10.0 * grad_tol, 1e-6)


class _Best(NamedTuple):
    value: float
    theta: np.ndarray
    ok: bool
    nit: int
    order: int  # the GH order BFGS ended at
    refine: float | None  # |value - value at the next ladder order|


def _at_order(mu, log_z, **kwargs):
    """``make(order)``: the objective on the Gauss-Hermite rule of that order."""
    return lambda order: _Objective(mu, log_z, _gh_nodes(order, mu.dim), **kwargs)


def _gh_ladder(cfg, d):
    """The GH orders BFGS may use, coarsest first.

    The halvings of ``gh_order`` down to 2 (20 -> [2, 5, 10, 20]), or
    ``gh_order`` alone while its rule has at most _SELECT_MIN_NODES nodes.
    """
    ladder = [cfg.gh_order]
    if cfg.gh_order**d > _SELECT_MIN_NODES:
        while ladder[0] // 2 >= 2:
            ladder.insert(0, ladder[0] // 2)
    return ladder


def _agree(coarse, fine, grad_tol):
    """Whether two (value, gradient) evaluations at one point agree."""
    (v, g), (v_fine, g_fine) = coarse, fine
    return bool(
        abs(v - v_fine) <= _REFINE_RTOL * max(1.0, abs(v_fine))
        and np.max(np.abs(g - g_fine)) <= _REFINE_GRAD_FACTOR * grad_tol
    )


def _select_order(make, ladder, theta0, grad_tol):
    """The lowest ladder order that agrees with the next one at theta0.

    ``make(order)`` builds the objective.  Each finer evaluation is the next
    candidate, so the walk costs at most len(ladder) evaluations; when no
    order agrees with its successor, the reference order is kept.
    """
    coarse = make(ladder[0]).value_grad(theta0) if len(ladder) > 1 else None
    for order, finer in zip(ladder, ladder[1:]):
        fine = make(finer).value_grad(theta0)
        if _agree(coarse, fine, grad_tol):
            return order
        coarse = fine
    return ladder[-1]


def _run_starts(make, ladder, order, starts, cfg, grad_tol):
    """BFGS from every start, each endpoint certified; the best endpoint.

    ``make(order)`` builds the objective at a GH order.  Every start runs at
    ``order``; its endpoint is evaluated at the next ladder order and, while
    the two disagree, BFGS continues from it at that order, up to the
    reference order ladder[-1].  Starts are ranked by their certified
    values.  Returns (best, traces), one trace per BFGS run.
    """
    make = functools.cache(make)
    traces = []
    best = None
    for theta in starts:
        i, nit, refine = ladder.index(order), 0, None
        f0, _ = make(order).value_grad(theta)
        while True:
            res = _scipy_minimize(
                make(ladder[i]).value_grad,
                theta,
                jac=True,
                method="BFGS",
                options={"gtol": grad_tol, "maxiter": cfg.max_iters},
            )
            gnorm = float(np.max(np.abs(res.jac))) if np.all(np.isfinite(res.jac)) else math.inf
            ok = bool(res.success) or gnorm <= _accept_tol(grad_tol)
            nit += int(res.nit)
            traces.append(
                StartTrace(
                    start_value=float(f0),
                    value=float(res.fun),
                    grad_norm=gnorm,
                    iterations=int(res.nit),
                    converged=ok,
                )
            )
            if i + 1 == len(ladder) or not np.isfinite(res.fun):
                break
            refine, fine = _next_order_refine(make, ladder, ladder[i], res.x, (res.fun, res.jac), grad_tol)
            if refine is not None:
                break
            i, theta, f0 = i + 1, res.x, fine[0]
        if np.isfinite(res.fun) and (best is None or res.fun < best.value):
            best = _Best(float(res.fun), np.asarray(res.x), ok, nit, ladder[i], refine)
    if best is None:
        raise RuntimeError("all optimizer starts failed to produce a finite value")
    if best.refine is None:
        best = best._replace(refine=_reference_refine(make, ladder, best.value, best.theta))
    return best, traces


def _next_order_refine(make, ladder, order, theta, coarse, grad_tol):
    """Certify ``coarse``, the value and gradient at theta at a ladder order
    below the reference, against the next ladder order.

    Returns (refine, fine): fine is the next order's evaluation, and refine
    is |value - fine value| where the two agree (_agree) and None where not.
    """
    fine = make(ladder[ladder.index(order) + 1]).value_grad(theta)
    return (abs(coarse[0] - fine[0]) if _agree(coarse, fine, grad_tol) else None), fine


def _reference_refine(make, ladder, value, theta):
    """At the reference order: |value - value at the half order|, or None
    where the ladder is the reference order alone."""
    return abs(value - make(ladder[-2]).value_grad(theta)[0]) if len(ladder) > 1 else None


def _single_result(obj, best, traces=()):
    """The OptimResult of the single Gaussian at best.theta of ``obj``."""
    _, means, chols = obj.split(best.theta)
    eps = obj.mu.epsilon
    return OptimResult(
        kind="single",
        params=GaussianParams(means[0], math.sqrt(eps) * chols[0]),
        epsilon=eps,
        value=best.value,
        converged=best.ok,
        iterations=best.nit,
        log_z=obj.log_z,
        gh_order=best.order,
        traces=list(traces),
        gh_refine_error=best.refine,
    )


# ---------------------------------------------------------------------------
# single Gaussian
# ---------------------------------------------------------------------------


def minimize_single(
    mu: TargetMeasure,
    cfg: OptimizerConfig | None = None,
    mode_set: ModeSet | None = None,
    log_z: float | None = None,
    extra_starts: list | None = None,
) -> OptimResult:
    """Best single Gaussian N(m, eps*Sigma) for the target, over multistarts.

    ``log_z`` defaults to the Laplace value from the located modes; pass the
    grid-oracle value for exact KL numbers.  ``extra_starts`` (pairs of
    (mean, rescaled covariance)) are tried first; warm starting a sweep goes
    through this hook.

    ``cfg.gh_order`` is the reference Gauss-Hermite order.  Where its rule
    has more than 1,000 nodes, BFGS runs at the lowest order of the ladder
    gh_order, gh_order // 2, ... (down to 2) that agrees with the next one
    at the first start (values to 1e-10 relative, gradients to 1e-2 *
    grad_tol).  Each start's endpoint is certified against the next order,
    BFGS continuing at that order until it passes or reaches gh_order, and
    the best certified endpoint is returned.
    ``gh_order`` and ``gh_refine_error`` of the result report the outcome.
    """
    cfg = cfg or OptimizerConfig()
    log_z, mode_set = _resolve_log_z(mu, mode_set, log_z, cfg, extra_starts)
    d = mu.dim
    make = _at_order(mu, log_z)
    ladder = _gh_ladder(cfg, d)
    obj = make(ladder[0])  # packing and splitting do not depend on the order

    starts = []
    for m0, sigma0 in extra_starts or []:
        L0 = np.linalg.cholesky(np.atleast_2d(np.asarray(sigma0, dtype=float)))
        starts.append(obj.pack(_ONE, [m0], [L0]))
    if mode_set is not None:
        for x, H in zip(mode_set.modes, mode_set.hessians):
            L0 = np.linalg.cholesky(np.linalg.inv(H))
            starts.append(obj.pack(_ONE, [x], [L0]))
    rng = np.random.default_rng(cfg.seed)
    lo, hi = _box_arrays(_default_box(mu, mode_set, cfg), d)
    n_random = max(0, cfg.multistart - len(starts))
    for _ in range(n_random):
        m0 = lo + (hi - lo) * rng.random(d)
        starts.append(obj.pack(_ONE, [m0], [np.eye(d)]))

    order = _select_order(make, ladder, starts[0], cfg.grad_tol)
    best, traces = _run_starts(make, ladder, order, starts, cfg, cfg.grad_tol)
    return _single_result(obj, best, traces)


# ---------------------------------------------------------------------------
# batched damped Newton
# ---------------------------------------------------------------------------

_NEWTON_CHUNK_POINTS = 1 << 16  # points per evaluation in a Newton batch


def _newton_single(phi, eps, means, chols, nodes):
    """Best single Gaussians N(m_i, eps L_i L_i^T) for a batch of targets
    exp(-Phi_i), by damped Newton on the node-set objective.

    ``phi(idx, x)`` returns Phi, its gradient and its Hessian for the
    targets ``idx`` at the points x of shape (k, K, d), as arrays of shapes
    (k, K), (k, K, d) and (k, K, d, d).  The objective is, up to constants,

        F(m, L) = sum_k w_k Phi(m + sqrt(2 eps) L z_k) - log det L

    on the nodes (z, w); for convex Phi it is convex in (m, L) (Challis &
    Barber 2013).  x is linear in (m, L), so the gradient is E[grad Phi] and
    sqrt(2 eps) E[grad Phi z^T] - L^-T, and the Hessian is E[J^T hess Phi J]
    for the Jacobian J of x, plus 1/L_aa^2 on the diagonal entries of L; no
    third derivatives enter.  Newton runs in (m / sqrt(eps), L), in which
    every Hessian block stays O(1) as eps shrinks, from the given means and
    factors.

    Returns (means, chols, steps, errors) as in _damped_newton.
    """
    n, d = means.shape
    z, w, _ = nodes
    # x_k = P zeta_k with P = [m / sqrt(eps) | L], a (d, d + 1) matrix
    zeta = np.hstack([np.full((len(w), 1), math.sqrt(eps)), math.sqrt(2.0 * eps) * z])
    wz = w[:, None] * zeta
    wzz = (wz[:, :, None] * zeta[:, None, :]).reshape(len(w), -1)
    rows, cols = np.tril_indices(d)
    keep = np.concatenate([np.arange(d) * (d + 1), rows * (d + 1) + cols + 1])
    diag = np.arange(d) * (d + 2) + 1  # the entries L_aa of P, flattened
    p_full = d * (d + 1)
    chunk = max(1, _NEWTON_CHUNK_POINTS // len(w))

    def evaluate(idx, v):
        k = len(idx)
        P = np.zeros((k, p_full))
        P[:, keep] = v
        f = np.empty(k)
        G = np.empty((k, d, d + 1))
        H = np.empty((k, d, d, d + 1, d + 1))
        for s in range(0, k, chunk):
            sl = slice(s, s + chunk)
            x = np.einsum("nai,ki->nka", P[sl].reshape(-1, d, d + 1), zeta)
            val, grad, hess = phi(idx[sl], x)
            f[sl] = val @ w
            G[sl] = grad.transpose(0, 2, 1) @ wz
            m = hess.reshape(len(val), len(w), d * d).transpose(0, 2, 1) @ wzz
            H[sl] = m.reshape(-1, d, d, d + 1, d + 1)
        H = H.transpose(0, 1, 3, 2, 4).reshape(k, p_full, p_full)
        G = G.reshape(k, p_full)
        l_diag = P[:, diag]
        with np.errstate(divide="ignore", invalid="ignore"):
            f -= np.sum(np.log(l_diag), axis=1)
            G[:, diag] -= 1.0 / l_diag
            H[:, diag, diag] += 1.0 / l_diag**2
        f[~np.all(l_diag > 0.0, axis=1)] = math.inf
        return f, G[:, keep], H[:, keep][:, :, keep]

    P0 = np.concatenate([means[:, :, None] / math.sqrt(eps), chols], axis=2)
    v, _, steps, errors = _damped_newton(evaluate, P0.reshape(n, -1)[:, keep])
    P = np.zeros((n, p_full))
    P[:, keep] = v
    P = P.reshape(n, d, d + 1)
    return math.sqrt(eps) * P[:, :, 0], P[:, :, 1:], steps, errors


def _newton_singles(mus, log_zs, mode_sets, phi, cfg):
    """Best single Gaussians for a batch of targets by damped Newton, each
    endpoint certified as minimize_single certifies a BFGS endpoint.

    Target i is mus[i] with log Z log_zs[i]; all share eps.  Newton starts
    from the first mode of mode_sets[i] with the inverse mode Hessian as
    rescaled covariance, the start minimize_single tries first, and runs at
    the GH order minimize_single would select there, one batch per order.
    ``phi`` is as in _newton_single, for the whole batch.  The certificate
    is the objective (_Objective) at that order: a finite value, a gradient
    of at most cfg.grad_tol, and agreement with the next ladder order where
    that order is below gh_order (_next_order_refine).

    Returns per target an OptimResult; or the LinAlgError or NodeBudgetError
    that building the start or choosing its order raised, which
    minimize_single would raise at the same point; or None where Newton or
    the certificate failed, leaving the target to minimize_single alone.
    """
    eps, d = mus[0].epsilon, mus[0].dim
    ladder = _gh_ladder(cfg, d)
    makes = [functools.cache(_at_order(mu, lz)) for mu, lz in zip(mus, log_zs)]
    means = np.stack([ms.modes[0] for ms in mode_sets])
    chols = np.zeros((len(mus), d, d))
    orders = np.zeros(len(mus), dtype=int)  # 0: no Newton run
    results = [None] * len(mus)
    for i, (make, ms) in enumerate(zip(makes, mode_sets)):
        try:
            chols[i] = np.linalg.cholesky(np.linalg.inv(ms.hessians[0]))
            theta0 = make(ladder[0]).pack(_ONE, means[i : i + 1], chols[i : i + 1])
            orders[i] = _select_order(make, ladder, theta0, cfg.grad_tol)
        except (np.linalg.LinAlgError, NodeBudgetError) as exc:
            results[i] = exc
    for order in ladder:
        idx = np.flatnonzero(orders == order)
        if idx.size == 0:
            continue
        m, L, steps, errors = _newton_single(
            lambda j, x: phi(idx[j], x), eps, means[idx], chols[idx], _gh_nodes(order, d)
        )
        for j, i in enumerate(idx):
            if errors[j] is not None:
                continue
            obj = makes[i](order)
            theta = obj.pack(_ONE, m[j : j + 1], L[j : j + 1])
            value, grad = obj.value_grad(theta)
            if not (np.isfinite(value) and np.max(np.abs(grad)) <= cfg.grad_tol):
                continue
            if order == ladder[-1]:
                refine = _reference_refine(makes[i], ladder, value, theta)
            else:
                refine, _ = _next_order_refine(makes[i], ladder, order, theta, (value, grad), cfg.grad_tol)
                if refine is None:
                    continue
            best = _Best(float(value), theta, True, int(steps[j]), order, refine)
            results[i] = _single_result(obj, best)
    return results


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def _mixture_starts(mu, n, mode_set, cfg, rng, extra_starts, obj):
    d = mu.dim
    starts = []
    for mix0 in extra_starts or []:
        alpha0, means0, chols0 = mix0
        starts.append(obj.pack(alpha0, means0, chols0))
    if mode_set is not None and mode_set.n > 0:
        k = mode_set.n
        order = np.argsort(-mode_set.raw_weights, kind="stable")
        assignments = [np.array([order[i % k] for i in range(n)])]
        for _ in range(2):
            assignments.append(rng.permutation(k)[np.arange(n) % k])
        for a in assignments:
            means0 = mode_set.modes[a] + 0.05 * math.sqrt(mu.epsilon) * rng.standard_normal((n, d))
            chols0 = [np.linalg.cholesky(np.linalg.inv(mode_set.hessians[j])) for j in a]
            alpha0 = np.full(n, 1.0 / n)
            starts.append(obj.pack(alpha0, means0, chols0))
    lo, hi = _box_arrays(_default_box(mu, mode_set, cfg), d)
    min_starts = max(cfg.multistart, 1 if starts else 2)
    while len(starts) < min_starts:
        means0 = lo + (hi - lo) * rng.random((n, d))
        chols0 = [np.eye(d) for _ in range(n)]
        starts.append(obj.pack(np.full(n, 1.0 / n), means0, chols0))
    return starts


def minimize_mixture(
    mu: TargetMeasure,
    n: int,
    xi: tuple,
    cfg: OptimizerConfig | None = None,
    mode_set: ModeSet | None = None,
    log_z: float | None = None,
    extra_starts: list | None = None,
) -> OptimResult:
    """Best n-component Gaussian mixture in the constrained family.

    Weight floor xi[0] must satisfy xi[0] <= 1/n (otherwise the feasible set
    is empty and the call is rejected).  The separation hinge aims at
    xi[1] * (1 + 1e-6), so that the point where it balances the objective
    still lies in the family; its weight is escalated x10 (up to 4 rounds)
    until the returned means are xi[1] apart.  Components are returned
    sorted by first mean coordinate.  The Gauss-Hermite order is chosen
    once, before the first round, and every endpoint of every round is
    certified as in :func:`minimize_single`.
    """
    cfg = cfg or OptimizerConfig()
    xi1, xi2 = float(xi[0]), float(xi[1])
    if n < 1:
        raise ValueError("component count must be >= 1")
    if not (0.0 < xi1 <= 1.0 / n):
        raise InfeasibleConstraintError(
            f"weight floor xi1={xi1} infeasible for n={n} (needs 0 < xi1 <= {1.0 / n})"
        )
    if xi2 <= 0:
        raise InfeasibleConstraintError("separation xi2 must be positive")
    log_z, mode_set = _resolve_log_z(mu, mode_set, log_z, cfg, extra_starts)
    rng = np.random.default_rng(cfg.seed)

    sep_weight = cfg.separation_weight
    grad_tol = max(cfg.grad_tol, 1e-6)
    ladder = _gh_ladder(cfg, mu.dim)
    starts = None
    traces = []
    for _ in range(5):
        make = _at_order(
            mu, log_z, n=n, xi=(xi1, xi2), barrier=cfg.barrier, separation_weight=sep_weight
        )
        obj = make(ladder[0])  # packing and splitting do not depend on the order
        if starts is None:
            starts = _mixture_starts(mu, n, mode_set, cfg, rng, extra_starts, obj)
            gh_order = _select_order(make, ladder, starts[0], grad_tol)
        best, round_traces = _run_starts(make, ladder, gh_order, starts, cfg, grad_tol)
        traces += round_traces
        theta = best.theta
        alpha, means, chols = obj.split(theta)
        order = np.argsort(means[:, 0], kind="stable")
        comps = tuple(
            GaussianParams(means[i], math.sqrt(mu.epsilon) * chols[i]) for i in order
        )
        params = MixtureParams(components=comps, weights=alpha[order], xi=(xi1, xi2))
        if params.satisfies_constraints():
            break
        starts, gh_order = [theta], best.order
        sep_weight *= 10.0

    return OptimResult(
        kind="mixture",
        params=params,
        epsilon=mu.epsilon,
        value=_at_order(mu, log_z, n=n)(best.order).value_grad(theta)[0],
        converged=best.ok and params.satisfies_constraints(),
        iterations=best.nit,
        log_z=log_z,
        gh_order=best.order,
        traces=traces,
        gh_refine_error=best.refine,
    )
