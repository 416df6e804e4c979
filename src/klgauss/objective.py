"""The KL objective of a Gaussian or a constrained Gaussian mixture.

For rho = sum_i alpha^i N(m^i, Sigma^i) and the target exp(-V1/eps - V2)/Z,

    KL(rho || mu_eps) = sum_i alpha^i E_i[V1/eps + V2 + log rho] + log Z,

with E_i the expectation under component i.  For a single Gaussian on
Gauss-Hermite nodes the entropy term E[log rho] is the closed form -(1/2)
log((2 pi)^d det Sigma) - d/2.  log Z is always supplied by the caller:
Laplace for speed, the Simpson grid oracle for exactness.

``_Objective`` evaluates this sum on a node set: standard nodes z that every
component maps through its own mean and Cholesky factor.  The n components'
points form one (n, K, d) stack, which V1 and V2 take in one call each.  A
node set is either the tensor Gauss-Hermite rule (deterministic, exact on
quadratics) or N Monte Carlo draws of weight 1/N, shared by all components
(common random numbers).  The optimizer minimizes its value and exact
gradient on Gauss-Hermite nodes, which for a single Gaussian come from
``_single_evaluate``, the batched kernel whose Hessians Newton also uses.
``kl_single``, ``f_eps``, ``g_eps``, ``mixture_entropy`` and
``expectation_under_gaussian`` are each one value-only evaluation at given
parameters, made without BLAS in cache-sized blocks of nodes; on Monte Carlo
nodes they report the standard error of the pointwise-combined integrand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .gaussian import LOG_2PI, GaussianParams, MixtureParams, _shifted_exp
from .measure import MeasureFamily, TargetMeasure
from .potentials import EvaluationError, Potential, zero
from .quadrature import gauss_hermite

GAUSS_HERMITE = "gauss-hermite"
MONTE_CARLO = "monte-carlo"

_LOGDIAG_CAP = 46.0  # exp(+-46) ~ 1e+-20; keeps line-search trials finite
_SEPARATION_MARGIN = 1e-6  # relative overshoot the separation hinge aims at
_ONE = np.ones(1)  # the weights of a single Gaussian
_BLOCK_ROWS = 8192  # nodes per block of terms(): each block's temporaries stay in cache
_SINGLE_CHUNK_POINTS = 1 << 16  # points per call of phi in _single_evaluate


@dataclass(frozen=True)
class EstimatorConfig:
    method: str = GAUSS_HERMITE
    gh_order: int = 20
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in (GAUSS_HERMITE, MONTE_CARLO):
            raise ValueError(f"unknown estimator method {self.method!r}")
        if self.gh_order < 2:
            raise ValueError("Gauss-Hermite order must be >= 2")
        if self.mc_samples < 2:
            raise ValueError("Monte-Carlo sample count must be >= 2")


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class KLEstimate:
    """A KL value with its term-by-term breakdown.

    ``detail`` always sums to ``value`` (to 1e-12); constraint-violating
    mixture parameters yield the distinguished value math.inf.
    """

    value: float
    stderr: float
    method: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "stderr", float(self.stderr))
        object.__setattr__(
            self, "detail", {k: float(v) for k, v in self.detail.items()}
        )

    def check_sum(self, tol: float = 1e-12) -> bool:
        if not math.isfinite(self.value):
            return True
        total = sum(self.detail.values())
        return abs(total - self.value) <= tol * max(1.0, abs(self.value))

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "method": self.method,
            "detail": dict(self.detail),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# node sets, Cholesky packing and the single-Gaussian kernel
# ---------------------------------------------------------------------------


class _Nodes(NamedTuple):
    """Nodes z of shape (K, d) and weights w for the density pi^(-d/2) exp(-|z|^2)."""

    z: np.ndarray
    w: np.ndarray
    order: int | None  # the Gauss-Hermite order; None for Monte Carlo draws


def _gh_nodes(order, d):
    z, w = gauss_hermite(order, d)
    return _Nodes(z, w, order)


def _nodes(est, d):
    """The node set of an estimator: its Gauss-Hermite rule, or its
    ``mc_samples`` standard-normal draws from default_rng(seed), scaled to
    the nodes' density."""
    if est.method == GAUSS_HERMITE:
        return _gh_nodes(est.gh_order, d)
    return _mc_nodes(est.mc_samples, est.seed, d)


@lru_cache(maxsize=1)
def _mc_nodes(samples, seed, d):
    """The Monte Carlo node set, read-only.  One entry is kept: a sweep
    re-estimates every level on the same draws, and a larger cache would
    only hold the draws of seeds no longer in use."""
    z = np.random.default_rng(seed).standard_normal((samples, d)) / math.sqrt(2.0)
    w = np.full(samples, 1.0 / samples)
    z.flags.writeable = False
    w.flags.writeable = False
    return _Nodes(z, w, None)


@cache
def _chol_index(d):
    """Flat (d, d) indices of a packed factor's entries: the diagonal, then
    the strictly lower entries in np.tril_indices(d, -1) order; read-only."""
    rows, cols = np.tril_indices(d, k=-1)
    idx = np.concatenate([np.arange(d) * (d + 1), rows * d + cols])
    idx.flags.writeable = False
    return idx


@cache
def _p_index(d):
    """Where the entries of v sit in the flattened (d, d + 1) matrix
    P = [m / sqrt(eps) | L]; read-only.

    v = (m / sqrt(eps), the entries of L in _chol_index order) are the
    coordinates of a single Gaussian that Newton works in, so v[:, d:2d] are
    the L_aa; _Objective's theta at n = 1 is v with log L_aa there.
    """
    rows, cols = np.divmod(_chol_index(d), d)
    idx = np.concatenate([np.arange(d) * (d + 1), rows * (d + 1) + cols + 1])
    idx.flags.writeable = False
    return idx


def _to_v(means, chols, eps):
    """v of the Gaussians N(means[i], eps chols[i] chols[i]^T), shape (n, p)."""
    n, d = means.shape
    entries = chols.reshape(n, d * d)[:, _chol_index(d)]
    return np.concatenate([means / math.sqrt(eps), entries], axis=1)


def _from_v(v, d, eps):
    """The means (n, d) and factors (n, d, d) of the points v (n, p); _to_v's inverse."""
    chols = np.zeros((len(v), d * d))
    chols[:, _chol_index(d)] = v[:, d:]
    return math.sqrt(eps) * v[:, :d], chols.reshape(-1, d, d)


@lru_cache(maxsize=4)
def _zeta(order, d, eps):
    """zeta (K, d + 1) with x_k = [m / sqrt(eps) | L] zeta_k on a GH rule, and
    w * zeta; read-only.  Four entries hold the ladder of one fit."""
    z, w, _ = _gh_nodes(order, d)
    zeta = np.hstack([np.full((len(w), 1), math.sqrt(eps)), math.sqrt(2.0 * eps) * z])
    w_zeta = w[:, None] * zeta
    zeta.flags.writeable = w_zeta.flags.writeable = False
    return zeta, w_zeta


def _single_evaluate(phi, eps, nodes, idx, v, hessian=True):
    """The node-set objective of single Gaussians N(m_i, eps L_i L_i^T) for
    targets exp(-Phi_i), at the points v (k, p) of the targets ``idx``.

    ``phi(idx, x, hessian)`` returns Phi, its gradient and, where
    ``hessian``, its Hessian (else None) for the targets ``idx`` at the
    points x of shape (k, K, d), as arrays of shapes (k, K), (k, K, d) and
    (k, K, d, d).  The objective is, up to constants,

        F(m, L) = sum_k w_k Phi(m + sqrt(2 eps) L z_k) - log det L

    on the Gauss-Hermite nodes (z, w); for convex Phi it is convex in (m, L)
    (Challis & Barber 2013).  x is linear in (m, L), so the gradient is
    E[grad Phi] and sqrt(2 eps) E[grad Phi z^T] - L^-T, and the Hessian is
    E[J^T hess Phi J] for the Jacobian J of x, plus 1/L_aa^2 on the diagonal
    entries of L; no third derivatives enter.  All are taken in v (see
    _p_index), in which every Hessian block stays O(1) as eps shrinks; v is
    _Objective's theta with the L_aa in place of their logs.  One call of
    phi sees at most _SINGLE_CHUNK_POINTS points: whole targets while their
    rule fits, else one target and a slice of the nodes, whose sums add up.

    Returns the values (k,), gradients (k, p) and Hessians (k, p, p) or
    None; the value is +inf where some L_aa <= 0.
    """
    z, w, order = nodes
    k, d = len(v), z.shape[1]
    p_index = _p_index(d)
    p_full = d * (d + 1)
    zeta, w_zeta = _zeta(order, d, eps)
    span = min(len(w), _SINGLE_CHUNK_POINTS)  # nodes per evaluation
    chunk = _SINGLE_CHUNK_POINTS // span  # targets per evaluation
    P = np.zeros((k, p_full))
    P[:, p_index] = v
    f = np.zeros(k)
    G = np.zeros((k, d, d + 1))
    H = np.zeros((k, d, d, d + 1, d + 1)) if hessian else None
    for t in range(0, len(w), span):
        nodes_t = slice(t, t + span)
        w_t, zeta_t, wz = w[nodes_t], zeta[nodes_t], w_zeta[nodes_t]
        wzz = (wz[:, :, None] * zeta_t[:, None, :]).reshape(len(w_t), -1) if hessian else None
        for s in range(0, k, chunk):
            sl = slice(s, s + chunk)
            x = np.einsum("nai,ki->nka", P[sl].reshape(-1, d, d + 1), zeta_t)
            val, grad, hess = phi(idx[sl], x, hessian)
            f[sl] += val @ w_t
            G[sl] += grad.transpose(0, 2, 1) @ wz
            if hessian:
                m = hess.reshape(len(val), len(w_t), d * d).transpose(0, 2, 1) @ wzz
                H[sl] += m.reshape(-1, d, d, d + 1, d + 1)
    diag = p_index[d : 2 * d]
    G = G.reshape(k, p_full)
    l_diag = P[:, diag]
    with np.errstate(divide="ignore", invalid="ignore"):
        f -= np.sum(np.log(l_diag), axis=1)
        G[:, diag] -= 1.0 / l_diag
        if hessian:
            H = H.transpose(0, 1, 3, 2, 4).reshape(k, p_full, p_full)
            H[:, diag, diag] += 1.0 / l_diag**2
            H = H[:, p_index][:, :, p_index]
    f[~np.all(l_diag > 0.0, axis=1)] = math.inf
    return f, G[:, p_index], H


def _single_kl(phi, eps, nodes, log_zs, v):
    """minimize_single's objective at the single Gaussians v (k, p) of the
    targets 0..k-1 of ``phi`` (as in _single_evaluate), with log Z log_zs.

    One _single_evaluate without Hessians gives every value, E[Phi] - log
    det L + log Z - (d/2) log(2 pi eps) - d/2, and every gradient, taken in
    _Objective's theta by scaling the L_aa entries by L_aa (the chain rule
    of log L_aa).  Returns the values (k,) and gradients (k, p).
    """
    d = nodes.z.shape[1]
    f, G, _ = _single_evaluate(phi, eps, nodes, np.arange(len(v)), v, hessian=False)
    G[:, d : 2 * d] *= v[:, d : 2 * d]
    return f - 0.5 * d * math.log(2.0 * math.pi * eps) - 0.5 * d + log_zs, G


# ---------------------------------------------------------------------------
# the KL objective
# ---------------------------------------------------------------------------


class _Objective:
    """G(theta) = KL(rho || mu) for an n-component mixture rho on a node set.

    theta = [n-1 softmax logits, n means, n packed Cholesky factors]; rho has
    weights softmax([0, logits]) and components N(m_i, eps L_i L_i^T).  The
    means are optimized in concentration units, m = sqrt(eps) * theta_m,
    which keeps every Hessian block of the objective O(1) as eps shrinks (the
    raw mean curvature grows like 1/eps and ruins BFGS conditioning).  A
    factor is packed as its log L_aa, then its strictly lower entries, in
    _chol_index order; so for n = 1, theta is Newton's v (see _p_index) with
    log L_aa in place of L_aa.

    Component i is integrated at the points m_i + sqrt(2 eps) L_i z_k of the
    node set (see _Nodes), so on fixed nodes the objective is smooth and
    deterministic.  In value_grad a single Gaussian (n = 1) is one
    _single_kl of Phi = V1/eps + V2, at theta with its L_aa exponentiated.
    For n > 1, log rho is integrated at every component's nodes; given
    ``xi``, the logarithmic barrier keeps the weights above xi1 and the
    quadratic hinge pushes the means apart.

    The gradient is exact for the node-set value.  Besides the path term
    through the nodes, with grad log rho = -sum_j r_j Sigma_j^-1 (x - m_j),
    it keeps the direct dependence of log rho on the weights, means and
    factors through the responsibilities r_j: that part cancels under exact
    integration but not under quadrature.
    """

    def __init__(self, mu, log_z, nodes, n=1, xi=None, barrier=0.0, separation_weight=0.0):
        self.mu = mu
        self.log_z = log_z
        self.n = n
        self.d = mu.dim
        self.xi = xi if n > 1 else None  # a single Gaussian meets any constraint
        self.barrier = barrier
        self.sep_weight = separation_weight
        self.nodes = nodes
        self.z, self.w, self.order = nodes
        self.sqrt_eps = math.sqrt(mu.epsilon)
        self.scale = math.sqrt(2.0 * mu.epsilon)
        i, j = np.triu_indices(n, 1)
        self.pair_diff = np.eye(n)[i] - np.eye(n)[j]  # pair_diff @ means: m_i - m_j, i < j

    def split(self, theta):
        n, d = self.n, self.d
        off = n - 1 + n * d
        means = self.sqrt_eps * theta[n - 1 : off].reshape(n, d)
        entries = theta[off:].reshape(n, -1).copy()
        entries[:, :d] = np.exp(np.clip(entries[:, :d], -_LOGDIAG_CAP, _LOGDIAG_CAP))
        chols = np.zeros((n, d * d))
        chols[:, _chol_index(d)] = entries
        chols = chols.reshape(n, d, d)
        logits = np.concatenate([[0.0], theta[: n - 1]])
        e = np.exp(logits - logits.max())
        return e / e.sum(), means, chols

    def pack(self, alpha, means, chols):
        logits = np.log(np.asarray(alpha, dtype=float))
        means = np.asarray(means, dtype=float).ravel() / self.sqrt_eps
        entries = np.asarray(chols, dtype=float).reshape(len(chols), -1)[:, _chol_index(self.d)]
        entries[:, : self.d] = np.log(entries[:, : self.d])
        return np.concatenate([logits[1:] - logits[0], means, entries.ravel()])

    def _log_consts(self, alpha, chols):
        """log alpha_j - (d/2) log(2 pi eps) - log det L_j for every component j."""
        log_det = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        return np.log(alpha) - 0.5 * self.d * math.log(2.0 * math.pi * self.mu.epsilon) - log_det

    def value_grad(self, theta):
        n, d, eps, w = self.n, self.d, self.mu.epsilon, self.w
        if n == 1:
            v = np.array(theta, dtype=float, ndmin=2)
            v[:, d : 2 * d] = np.exp(np.clip(v[:, d : 2 * d], -_LOGDIAG_CAP, _LOGDIAG_CAP))
            try:
                value, grad = _single_kl(self._phi, eps, self.nodes, self.log_z, v)
            except (EvaluationError, FloatingPointError):
                return math.inf, np.zeros_like(theta)
            return (float(value[0]), grad[0]) if np.isfinite(value[0]) else (math.inf, np.zeros_like(theta))
        alpha, means, chols = self.split(theta)
        if self.xi is not None:
            penalty, pen_alpha, pen_means = self._penalty(alpha, means)
            if not np.isfinite(penalty):
                return math.inf, np.zeros_like(theta)
        try:
            # every component's points at once, (n, K, d)
            x = means[:, None, :] + self.scale * (self.z @ chols.transpose(0, 2, 1))
            pts = x.reshape(-1, d)
            v1 = self.mu.v1.value(pts).reshape(n, -1)
            v2 = self.mu.v2.value(pts).reshape(n, -1)
            g1 = self.mu.v1.gradient(pts)
            g2 = self.mu.v2.gradient(pts)
        except (EvaluationError, FloatingPointError):
            return math.inf, np.zeros_like(theta)
        pot = (v1 @ w) / eps + v2 @ w
        gx = (g1 / eps + g2).reshape(n, -1, d)  # gradient of the potential part
        value, g_alpha, g_means, g_chols, g_logdiag = self._mixture_terms(
            alpha, means, chols, x, pot, gx
        )
        if self.xi is not None:
            value += penalty
            g_alpha += pen_alpha
            g_means += pen_means
        if not np.isfinite(value):
            return math.inf, np.zeros_like(theta)
        g_logits = (alpha * (g_alpha - alpha @ g_alpha))[1:]
        g_packed = g_chols.reshape(n, d * d)[:, _chol_index(d)]
        g_packed[:, :d] = g_packed[:, :d] * np.diagonal(chols, axis1=1, axis2=2) + g_logdiag
        return value, np.concatenate([g_logits, self.sqrt_eps * g_means.ravel(), g_packed.ravel()])

    def _phi(self, idx, x, hessian):
        """Phi = V1/eps + V2 and its gradient at the points x (1, K, d), for
        _single_kl: one value and one gradient call of V1 and of V2."""
        pts, eps = x.reshape(-1, self.d), self.mu.epsilon
        value = self.mu.v1.value(pts) / eps + self.mu.v2.value(pts)
        grad = self.mu.v1.gradient(pts) / eps + self.mu.v2.gradient(pts)
        return value.reshape(x.shape[:2]), grad.reshape(x.shape), None

    def _mixture_terms(self, alpha, means, chols, x, pot, gx):
        """KL value and its gradient in alpha, the means and the factors.

        Index i runs over the component whose nodes are used, j over the
        component density; ``r[i, j]`` is the responsibility of j at the
        nodes of i.  The log-diagonal part of the factors' gradient that
        comes from log det Sigma_j is returned apart, as -sum of r_j.
        """
        w, sqrt_eps = self.w, self.sqrt_eps
        inv = np.linalg.inv(chols)
        diff = x[:, None] - means[None, :, None]  # (i, j, K, d)
        u = np.einsum("jab,ijkb->ijka", inv, diff) / sqrt_eps  # L_j^-1 (x - m_j) / sqrt(eps)
        own = np.arange(self.n)
        # the own component's, exactly as in terms(): x - m_i loses digits at small eps
        u[own, own] = math.sqrt(2.0) * self.z
        score = np.einsum("jba,ijkb->ijka", inv, u) / sqrt_eps  # Sigma_j^-1 (x - m_j)
        const = self._log_consts(alpha, chols)
        comp_log = const[None, :, None] - 0.5 * (u * u).sum(axis=-1)  # (i, j, K)
        top, dens = _shifted_exp(comp_log, axis=1)
        total = dens.sum(axis=1, keepdims=True)
        log_rho = (top + np.log(total))[:, 0]
        r = dens / total
        entropy = log_rho @ w
        value = float(alpha @ (pot + entropy)) + self.log_z

        aw = alpha[:, None] * w  # (i, K)
        # path term: gradient of V1/eps + V2 + log rho at each component's nodes
        g_path = gx - np.einsum("ijk,ijka->ika", r, score)
        # direct term: d log rho / d(m_j, L_j) = r_j (Sigma_j^-1 (x - m_j), sqrt(eps) score u^T)
        ar = aw[:, None] * r  # (i, j, K)
        g_means = np.einsum("ik,ika->ia", aw, g_path) + np.einsum("ijk,ijka->ja", ar, score)
        g_chols = self.scale * np.einsum("ik,ika,kb->iab", aw, g_path, self.z) + sqrt_eps * (
            np.einsum("ijk,ijka,ijkb->jab", ar, score, u)
        )
        mass = ar.sum(axis=(0, 2))  # sum_i alpha_i E_i[r_j]
        g_alpha = pot + entropy + mass / alpha
        return value, g_alpha, g_means, g_chols, -mass[:, None]

    def _penalty(self, alpha, means):
        """Weight barrier and separation hinge, with gradients in alpha and the means."""
        xi1, xi2 = self.xi
        slack = alpha - xi1
        if (slack <= 0).any():
            return math.inf, None, None
        value = -self.barrier * float(np.log(slack / (1.0 / self.n - xi1)).sum())
        g_alpha = -self.barrier / slack
        # aimed just past xi2, so the hinge's equilibrium lands inside the family
        diff = self.pair_diff @ means
        dist = np.sqrt(np.einsum("pa,pa->p", diff, diff))
        gap = np.maximum(xi2 * (1.0 + _SEPARATION_MARGIN) - dist, 0.0)
        value += float((self.sep_weight * gap * gap).sum())
        # a pair at distance 0 has diff 0, so it pushes nothing
        push = (2.0 * self.sep_weight * gap / np.where(dist > 0, dist, 1.0))[:, None] * diff
        return value, g_alpha, -self.pair_diff.T @ push

    def terms(self, alpha, means, chols, kl=True):
        """The value's terms and the standard error of their sum, without gradients.

        Returns ({v1_term, v2_term, entropy_term, log_z}, stderr), without
        the barrier and hinge.  On Monte Carlo nodes the stderr is the
        standard error of the mean over k of sum_i alpha_i [V1/eps + V2 +
        log rho](x_ik): the potential and entropy terms nearly cancel point
        by point, so their errors must not be added as if independent.  So
        for the KL (``kl``) on Monte Carlo nodes log rho is integrated at the
        nodes for a single Gaussian too.  Elsewhere a single Gaussian takes
        the closed-form entropy, and the stderr is that of V1/eps + V2
        alone.

        The nodes are walked in blocks of _BLOCK_ROWS, whose temporaries stay
        in cache; each block maps every component's points at once and takes
        log rho as one log-sum-exp.  A component's own log density needs no
        solve: at its points, L_i^-1 (x - m_i) / sqrt(eps) = sqrt(2) z.  No
        step calls BLAS: the node sums and maps are numpy's einsum loops,
        whose arithmetic does not depend on the thread count, so a Monte
        Carlo estimate has the same bytes on any number of cores.
        """
        n, d, eps, w = self.n, self.d, self.mu.epsilon, self.w
        chols = np.asarray(chols, dtype=float)
        const = self._log_consts(alpha, chols)
        closed_form = n == 1 and (self.order is not None or not kl)
        own = np.arange(n)
        i, j = np.nonzero(own[:, None] != own)  # component j's density at i's points
        inv = np.linalg.inv(chols)[j]
        sums = np.zeros((3, n))  # node sums of V1, V2 and log rho at each component's points
        combined = np.empty(w.size)
        for lo in range(0, w.size, _BLOCK_ROWS):
            z, wb = self.z[lo : lo + _BLOCK_ROWS], w[lo : lo + _BLOCK_ROWS]
            x = means[:, None] + self.scale * np.einsum("kb,iab->ika", z, chols)
            pts = x.reshape(-1, d)
            v1 = self.mu.v1.value(pts).reshape(n, -1)
            v2 = self.mu.v2.value(pts).reshape(n, -1)
            sums[0] += np.einsum("ik,k->i", v1, wb)
            sums[1] += np.einsum("ik,k->i", v2, wb)
            point = v1 / eps + v2
            if not closed_form:
                comp_log = np.empty((n, n, len(z)))
                comp_log[own, own] = const[:, None] - np.einsum("ka,ka->k", z, z)
                u = np.einsum("pab,pkb->pka", inv, x[i] - means[j, None]) / self.sqrt_eps
                comp_log[i, j] = const[j, None] - 0.5 * np.einsum("pka,pka->pk", u, u)
                top, dens = _shifted_exp(comp_log, axis=1)
                log_rho = top[:, 0] + np.log(dens.sum(axis=1))
                sums[2] += np.einsum("ik,k->i", log_rho, wb)
                point += log_rho
            combined[lo : lo + len(z)] = np.einsum("i,ik->k", alpha, point)
        v1_term, v2_term, entropy = np.einsum("i,ti->t", alpha, sums)
        if closed_form:
            log_det = float(np.sum(np.log(np.diag(chols[0]))))
            entropy = -0.5 * d * math.log(2.0 * math.pi * eps) - log_det - 0.5 * d
        stderr = 0.0
        if self.order is None:
            stderr = float(np.std(combined, ddof=1) / math.sqrt(w.size))
        detail = {
            "v1_term": float(v1_term) / eps,
            "v2_term": float(v2_term),
            "entropy_term": float(entropy),
            "log_z": float(self.log_z),
        }
        return detail, stderr


# ---------------------------------------------------------------------------
# value-only evaluations at given parameters
# ---------------------------------------------------------------------------


def _estimate(mu, log_z, est, weights, components, kl=True) -> KLEstimate:
    """KL(sum_i weights_i components_i || mu) by one evaluation of the
    objective; ``kl`` as in _Objective.terms."""
    est = est or EstimatorConfig()
    obj = _Objective(mu, log_z, _nodes(est, mu.dim), n=len(components))
    root = math.sqrt(mu.epsilon)
    detail, stderr = obj.terms(
        weights, np.stack([c.mean for c in components]), [c.chol / root for c in components], kl
    )
    return KLEstimate(
        value=sum(detail.values()), stderr=stderr, method=est.method, detail=detail
    )


def expectation_under_gaussian(
    f: Potential, g: GaussianParams, est: EstimatorConfig | None = None
) -> Estimate:
    """E^g[f] by tensor Gauss-Hermite or Monte Carlo.

    This is the V1 term of the objective against exp(-f) at eps = 1.
    Gauss-Hermite reports stderr 0; Monte Carlo the standard error of the
    mean.
    """
    if f.dim != g.dim:
        raise ValueError("potential and Gaussian dimension mismatch")
    kl = _estimate(TargetMeasure(f, zero(f.dim), 1.0), 0.0, est, _ONE, (g,), kl=False)
    return Estimate(value=kl.detail["v1_term"], stderr=kl.stderr)


def gaussian_entropy_term(g: GaussianParams) -> float:
    """int nu log nu for nu = N(m, Sigma): -(1/2) log((2 pi)^d det Sigma) - d/2."""
    return -0.5 * (g.dim * LOG_2PI + g.log_det_cov) - 0.5 * g.dim


def kl_single(
    mu: TargetMeasure,
    g: GaussianParams,
    log_z: float,
    est: EstimatorConfig | None = None,
) -> KLEstimate:
    """KL(N(m, Sigma) || mu) with externally supplied log Z."""
    if g.dim != mu.dim:
        raise ValueError("Gaussian and measure dimension mismatch")
    return _estimate(mu, log_z, est, _ONE, (g,))


def f_eps(
    family: MeasureFamily,
    epsilon: float,
    m,
    sigma,
    log_z: float,
    est: EstimatorConfig | None = None,
) -> KLEstimate:
    """The rescaled single-Gaussian objective: KL(N(m, eps*Sigma) || mu_eps)."""
    g = GaussianParams.from_covariance(m, np.asarray(sigma, dtype=float)).scaled(
        epsilon
    )
    return kl_single(family.at(epsilon), g, log_z, est)


def mixture_entropy(
    mix: MixtureParams, est: EstimatorConfig | None = None
) -> Estimate:
    """E^nu[log rho] = int rho log rho for the mixture density rho.

    This is the objective against V1 = V2 = 0 with log Z = 0: closed form
    for one component; otherwise log rho integrated at every component's
    nodes, with the Monte Carlo stderr of the pointwise sum over components.
    """
    flat = zero(mix.dim)
    kl = _estimate(TargetMeasure(flat, flat, 1.0), 0.0, est, mix.weights, mix.components, kl=False)
    return Estimate(value=kl.detail["entropy_term"], stderr=kl.stderr)


def entropy_split(mix: MixtureParams) -> float:
    """Separated-mode surrogate for the mixture entropy integral.

    sum_i alpha^i * (int rho^i log rho^i + log alpha^i); exact up to an
    exponentially small cross term once the component means are far apart,
    and a lower bound for the true integral in general.
    """
    total = 0.0
    for comp, alpha in zip(mix.components, mix.weights):
        if alpha == 0.0:
            continue
        total += alpha * (gaussian_entropy_term(comp) + math.log(alpha))
    return total


def g_eps(
    family: MeasureFamily,
    epsilon: float,
    mix: MixtureParams,
    log_z: float,
    est: EstimatorConfig | None = None,
) -> KLEstimate:
    """The mixture objective KL(sum_i alpha^i N(m^i, Sigma_full^i) || mu_eps).

    The mixture is passed with full (already eps-scaled) component
    covariances.  Parameters outside the constrained family (weight floor
    xi1, separation xi2) receive the distinguished value +inf rather than an
    exception.  Every term, the entropy included, follows ``est``.
    """
    if mix.dim != family.dim:
        raise ValueError("mixture and family dimension mismatch")
    if not mix.satisfies_constraints():
        method = (est or EstimatorConfig()).method
        return KLEstimate(value=math.inf, stderr=0.0, method=method, detail={})
    return _estimate(family.at(epsilon), log_z, est, mix.weights, mix.components)
