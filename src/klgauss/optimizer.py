"""Minimization of the KL objective over Gaussians and constrained mixtures.

This module holds the solvers only.  The objective itself, with its
parameterization, lives in ``objective.py``:

* covariances through lower-triangular Cholesky factors with log diagonal
  (always SPD, log det linear in the parameters);
* the approximating measure is N(m, eps * L L^T), i.e. the optimizer works
  in the rescaled covariance whose limit is (D^2 V1(x^i))^(-1);
* mixture weights through a softmax pinned at the first component, kept
  above the floor xi1 by a logarithmic barrier, with mean separation
  enforced by an escalating quadratic hinge penalty.

BFGS minimizes it on fixed Gauss-Hermite nodes, where it is smooth and
deterministic and its gradient exact.  Multistart globalization seeds means
at the located modes with covariances from the inverse mode Hessians.  Where
the ``gh_order`` rule is large, BFGS runs at the lowest of its halved orders
that is certified against the next finer one (see OptimizerConfig).

For a batch of single-Gaussian targets given by the derivatives of their
potentials (the BvM noise panel), ``_newton_singles`` runs damped Newton on
``_single_evaluate`` instead of BFGS, and certifies its endpoints through the
one certificate of a BFGS endpoint, ``_certify``, in batched evaluations; a
target whose Newton search fails or whose endpoint fails the certificate has
no fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianParams, MixtureParams
from .measure import (
    DegenerateModeError,
    ModeSearchError,
    ModeSet,
    MultistartConfig,
    TargetMeasure,
    _batched_linalg,
    _box_arrays,
    _damped_newton,
    find_modes,
    log_laplace_normalization,
)
from .objective import _ONE, _from_v, _gh_nodes, _Objective, _single_evaluate, _single_kl, _to_v
from .quadrature import NodeBudgetError

# GH order selection: it runs only where the gh_order rule has more nodes
# than this, since smaller rules cost about the same at any order; adjacent
# orders agree when their values differ by at most REFINE_RTOL relative and
# their gradients by at most REFINE_GRAD_FACTOR * grad_tol
_SELECT_MIN_NODES = 1000
_REFINE_RTOL = 1e-10
_REFINE_GRAD_FACTOR = 1e-2

# mixtures: weight of the logarithmic barrier on the weight floor, and the
# first weight of the separation hinge, escalated x10 per round
_BARRIER = 1e-6
_SEPARATION_WEIGHT = 100.0


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
    (_certify) before the starts are ranked; where it fails, BFGS continues
    from it at that order, up to gh_order, where the gap to the half order
    is recorded instead.  ``grad_tol`` must be positive and finite.  No
    rule of more than
    quadrature.MAX_GH_NODES (1e6) nodes is built: where selection or
    certification needs one, NodeBudgetError is raised.
    """

    max_iters: int = 300
    grad_tol: float = 1e-8
    multistart: int = 8
    box: tuple | None = None
    seed: int = 0
    gh_order: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
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
    refine: float  # _certify's refine at the endpoint: NaN for a one-order ladder


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
    """Whether two (value, gradient) evaluations at one point agree; over a
    batch of values (n,) and gradients (n, p), per point."""
    (v, g), (v_fine, g_fine) = coarse, fine
    return (np.abs(v - v_fine) <= _REFINE_RTOL * np.maximum(1.0, np.abs(v_fine))) & (
        np.max(np.abs(g - g_fine), axis=-1) <= _REFINE_GRAD_FACTOR * grad_tol
    )


def _select_orders(evaluate, ladder, k, grad_tol):
    """Per point of k, the lowest ladder order that agrees with the next one.

    ``evaluate(order, idx)`` returns the values (m,) and gradients (m, p) of
    the points ``idx`` at a GH order.  Each finer evaluation is the next
    candidate, so the walk costs at most len(ladder) evaluations; where no
    order agrees with its successor, the reference order is kept.  Returns
    the orders (k,) and None, or the NodeBudgetError that building a rule
    raised, with order 0 for every point still undecided then.
    """
    orders = np.full(k, ladder[-1])
    todo = np.arange(k)
    try:
        coarse = evaluate(ladder[0], todo) if len(ladder) > 1 else None
        for order, finer in zip(ladder, ladder[1:]):
            if todo.size == 0:
                break
            fine = evaluate(finer, todo)
            ok = _agree(coarse, fine, grad_tol)
            orders[todo[ok]] = order
            todo, coarse = todo[~ok], (fine[0][~ok], fine[1][~ok])
    except NodeBudgetError as exc:
        orders[todo] = 0
        return orders, exc
    return orders, None


def _select_order(make, ladder, theta0, grad_tol):
    """_select_orders at the one point theta0 of the objectives make(order)."""

    def evaluate(order, idx):
        value, grad = make(order).value_grad(theta0)
        return np.array([value]), grad[None]

    (order,), exc = _select_orders(evaluate, ladder, 1, grad_tol)
    if exc is not None:
        raise exc
    return int(order)


def _certify(evaluate, ladder, order, coarse, grad_tol):
    """Certify endpoints that ended at the GH ``order`` against the ladder.

    ``coarse`` holds the endpoints' values (k,) and gradients (k, p) at
    ``order``, and ``evaluate(o)`` returns the same pair at order o; a
    single endpoint, with a scalar value and a gradient (p,), works as well.
    Below the reference order ladder[-1], an endpoint passes where it agrees
    with the next ladder order (_agree), and ``refine`` is |value - next
    value|.  At the reference order every endpoint passes, and ``refine`` is
    |value - half-order value|, or NaN where the ladder is the reference
    order alone.  Returns (ok, refine, fine), with ``fine`` the evaluation
    refine was measured against (None for a one-order ladder).
    """
    ok = np.ones(np.shape(coarse[0]), dtype=bool)
    if len(ladder) == 1:
        return ok, np.full(ok.shape, math.nan), None
    below = order < ladder[-1]
    fine = evaluate(ladder[ladder.index(order) + 1] if below else ladder[-2])
    return (_agree(coarse, fine, grad_tol) if below else ok), np.abs(coarse[0] - fine[0]), fine


def _scipy_minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on its first call: a process that
    runs no BFGS (the BvM panel, ``klgauss modes``) never loads scipy.optimize.
    The module global is not rebound, so a patch of it stays in place."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _run_starts(make, ladder, order, starts, cfg, grad_tol):
    """BFGS from every start, each endpoint certified; the best endpoint.

    ``make(order)`` builds the objective at a GH order.  Every start runs at
    ``order``; its finite endpoint is certified by _certify and, while it
    fails, BFGS continues from it at the next ladder order, up to the
    reference order ladder[-1].  A run that ends at a value that is not
    finite ends its start.  Starts are ranked by their certified values.
    Returns (best, traces), one trace per BFGS run.
    """
    make = functools.cache(make)
    traces = []
    best = None
    for theta in starts:
        i, nit = ladder.index(order), 0
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
            if not np.isfinite(res.fun):
                break
            passed, refine, fine = _certify(
                lambda o: make(o).value_grad(res.x), ladder, ladder[i], (res.fun, res.jac), grad_tol
            )
            if passed:
                break
            i, theta, f0 = i + 1, res.x, fine[0]
        if np.isfinite(res.fun) and (best is None or res.fun < best.value):
            best = _Best(float(res.fun), np.asarray(res.x), ok, nit, ladder[i], float(refine))
    if best is None:
        raise RuntimeError("all optimizer starts failed to produce a finite value")
    return best, traces


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
        gh_refine_error=None if math.isnan(best.refine) else best.refine,
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


def _newton_single(phi, eps, v, nodes):
    """Best single Gaussians for a batch of targets exp(-Phi_i), by damped
    Newton on _single_evaluate from the points v (see _to_v); ``phi`` is as
    there.

    Returns (v, steps, errors) as in _damped_newton.
    """
    v, _, steps, errors = _damped_newton(functools.partial(_single_evaluate, phi, eps, nodes), v)
    return v, steps, errors


class _SingleFits(NamedTuple):
    """The best single Gaussians N(means[i], eps chols[i] chols[i]^T) of a
    _newton_singles batch, one entry per target.

    Where ``certified``, the point is Newton's endpoint, ``values`` the KL
    there less log Z (_single_kl at log Z 0) at the GH order ``orders``
    Newton ran at, and ``refine`` the refinement error minimize_single would
    report (NaN for its None).  A caller adds its log Z to ``values``: the
    sum is the KL _single_kl gives at that log Z at Newton's v, bit for bit.
    ``errors`` holds per target None or the exception that failed it: the
    LinAlgError of building its start, the NodeBudgetError of choosing its
    order, or the ArithmeticError that stopped its Newton search.  A target
    neither certified nor failed ended at a Newton point that failed the
    certificate.
    """

    means: np.ndarray  # (n, d)
    chols: np.ndarray  # (n, d, d)
    values: np.ndarray
    orders: np.ndarray  # 0 where Newton did not run
    refine: np.ndarray
    certified: np.ndarray
    errors: list


def _newton_singles(phi, eps, log_zs, modes, hessians, cfg):
    """Best single Gaussians for a batch of targets exp(-Phi_i), all at one
    eps, by damped Newton, each endpoint certified as minimize_single
    certifies a BFGS endpoint with log Z log_zs[i], with no per-target
    objects.  The fit does not depend on log Z; the certificate does only
    through the scale max(1, |KL|) of the next-order agreement (_agree), so
    any log Z near the target's will do.

    ``phi(idx, x, hessian)`` is as in _single_evaluate, for the whole batch.
    Newton starts from modes[i] with the inverse of hessians[i] as rescaled
    covariance, the start minimize_single tries first with that one mode;
    one batched inv and cholesky builds every start, and one _to_v packs
    them.  Newton and the certificate both run on Newton's v, which is
    unpacked once, into the returned means and factors.  It runs at the GH
    order minimize_single would select there (_select_orders over the
    batch), one batch per order.  The certificate is minimize_single's
    objective at that order, one _single_kl call for all targets of the
    order: a finite value, a gradient of at most cfg.grad_tol, and one
    _certify call on the batch, as for a BFGS endpoint.  Each target ends
    certified or failed; nothing falls back to BFGS.

    Returns _SingleFits.
    """
    n, d = modes.shape
    ladder = _gh_ladder(cfg, d)
    log_zs = np.asarray(log_zs, dtype=float)
    chols, errors = _batched_linalg(lambda H: np.linalg.cholesky(np.linalg.inv(H)), hessians)
    v_all = _to_v(np.asarray(modes, dtype=float), chols, eps)
    values, orders, refines = np.full(n, math.nan), np.zeros(n, dtype=int), np.full(n, math.nan)
    certified = np.zeros(n, dtype=bool)

    def kl(order, idx, v):
        # the KL less log Z, so that adding a log Z rounds as _single_kl does
        free, grad = _single_kl(
            lambda j, x, hessian: phi(idx[j], x, hessian), eps, _gh_nodes(order, d), 0.0, v
        )
        return free + log_zs[idx], grad, free

    live = np.flatnonzero([e is None for e in errors])
    orders[live], exc = _select_orders(
        lambda order, j: kl(order, live[j], v_all[live[j]])[:2], ladder, len(live), cfg.grad_tol
    )
    for i in live[orders[live] == 0]:
        errors[i] = exc

    for order in ladder:
        idx = np.flatnonzero(orders == order)
        if idx.size == 0:
            continue
        v, _, newton_errors = _newton_single(
            lambda j, x, hessian: phi(idx[j], x, hessian), eps, v_all[idx], _gh_nodes(order, d)
        )
        for target, exc in zip(idx, newton_errors):
            errors[target] = exc
        ran = np.array([e is None for e in newton_errors])
        idx, v = idx[ran], v[ran]
        v_all[idx] = v
        value, grad, free = kl(order, idx, v)
        ok = np.isfinite(value) & (np.max(np.abs(grad), axis=1) <= cfg.grad_tol)
        idx, v, value, grad, free = idx[ok], v[ok], value[ok], grad[ok], free[ok]
        ok, refine, _ = _certify(
            lambda o: kl(o, idx, v)[:2], ladder, order, (value, grad), cfg.grad_tol
        )
        values[idx[ok]], refines[idx[ok]], certified[idx[ok]] = free[ok], refine[ok], True
    return _SingleFits(*_from_v(v_all, d, eps), values, orders, refines, certified, errors)


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
    if not (math.isfinite(xi2) and xi2 > 0):
        raise InfeasibleConstraintError("separation xi2 must be positive and finite")
    log_z, mode_set = _resolve_log_z(mu, mode_set, log_z, cfg, extra_starts)
    rng = np.random.default_rng(cfg.seed)

    sep_weight = _SEPARATION_WEIGHT
    grad_tol = max(cfg.grad_tol, 1e-6)
    ladder = _gh_ladder(cfg, mu.dim)
    starts = None
    traces = []
    for _ in range(5):
        make = _at_order(
            mu, log_z, n=n, xi=(xi1, xi2), barrier=_BARRIER, separation_weight=sep_weight
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
        gh_refine_error=None if math.isnan(best.refine) else best.refine,
    )
