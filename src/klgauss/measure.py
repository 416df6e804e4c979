"""Concentrating target measures, their modes, and normalization constants.

A target measure has unnormalized density exp(-V1(x)/eps - V2(x)).  As eps
shrinks it concentrates on the minimizers of the dominant potential V1; each
minimizer x^i carries the Laplace weight

    beta^i = det(D^2 V1(x^i))^(-1/2) * exp(-V2(x^i)),

and the normalization constant behaves like (2*pi*eps)^(d/2) * sum_i beta^i.
The Simpson grid oracle provides the exact (brute-force) counterpart for
dimensions <= 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
# unused here since modes are found by Newton; kept because
# perfbench/tracer.py patches this name in every BFGS-calling module
from scipy.optimize import minimize as _scipy_minimize  # noqa: F401

from .potentials import Potential, potential_from_spec, zero
from .quadrature import (
    BoxTooSmallError,
    Grid,
    GridIntegral,
    OracleDimensionError,
    _BAD_BOX,
    _evaluate,
    _face_max_stack,
    _grid_resolution,
    _simpson_rungs,
    _valid_boxes,
    integrate_exp,
)


class ModeSearchError(RuntimeError):
    """No minimizer found within the multistart budget."""


class DegenerateModeError(RuntimeError):
    """A located minimizer has a non-positive-definite Hessian."""


@dataclass(frozen=True)
class TargetMeasure:
    """Unnormalized density exp(-v1(x)/epsilon - v2(x)) on R^dim."""

    v1: Potential
    v2: Potential
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if self.v1.dim != self.v2.dim:
            raise ValueError("v1 and v2 must share one dimension")

    @property
    def dim(self) -> int:
        return self.v1.dim


def unnormalized_log_density(mu: TargetMeasure, x):
    """log of the unnormalized density: -v1(x)/eps - v2(x) (never includes log Z)."""
    return -mu.v1.value(x) / mu.epsilon - mu.v2.value(x)


@dataclass(frozen=True)
class MeasureFamily:
    """An eps-indexed family of target measures sharing v2 and a limit v1.

    For analytic catalog problems the dominant potential does not depend on
    eps; Bayesian posteriors supply a genuinely eps-indexed misfit.
    """

    name: str
    dim: int
    v1_limit: Potential
    v2: Potential
    v1_at: Callable[[float], Potential] = None
    default_box: tuple = (-4.0, 4.0)

    def at(self, epsilon: float) -> TargetMeasure:
        v1 = self.v1_limit if self.v1_at is None else self.v1_at(epsilon)
        return TargetMeasure(v1=v1, v2=self.v2, epsilon=epsilon)


def _laplace_log_betas(modes, hessians, v2_values):
    """Laplace log weights log beta^i = -log det(H_i)^(1/2) - V2(x_i) of the
    modes x_i (n, d) with Hessians H_i (n, d, d), from one batched Cholesky.

    Returns (log_beta, errors): errors[i] is None or the DegenerateModeError
    of a Hessian that is not positive definite, where log_beta[i] is NaN.
    """
    chols, errors = _batched_linalg(np.linalg.cholesky, hessians)
    log_beta = -np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1) - v2_values
    for i, exc in enumerate(errors):
        if exc is not None:
            errors[i] = DegenerateModeError(f"Hessian at mode {modes[i]} is not positive definite")
            errors[i].__cause__ = exc
    return log_beta, errors


@dataclass(frozen=True)
class ModeSet:
    """Minimizers of the limit potential with Hessians and Laplace weights."""

    modes: np.ndarray  # (n, d)
    hessians: np.ndarray  # (n, d, d), each SPD
    v2_values: np.ndarray  # (n,)
    raw_weights: np.ndarray = field(init=False)  # beta^i
    weights: np.ndarray = field(init=False)  # normalized

    def __post_init__(self):
        modes = np.atleast_2d(np.asarray(self.modes, dtype=float))
        n, d = modes.shape
        hess = np.asarray(self.hessians, dtype=float).reshape(n, d, d)
        v2v = np.asarray(self.v2_values, dtype=float).reshape(n)
        log_beta, errors = _laplace_log_betas(modes, hess, v2v)
        for exc in errors:
            if exc is not None:
                raise exc
        if n > 1:
            dists = np.linalg.norm(modes[:, None, :] - modes[None, :, :], axis=-1)
            if np.min(dists[np.triu_indices(n, k=1)]) <= 0:
                raise ValueError("modes must be pairwise distinct")
        shift = np.max(log_beta)
        raw = np.exp(log_beta)
        weights = np.exp(log_beta - shift)
        weights = weights / np.sum(weights)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "hessians", hess)
        object.__setattr__(self, "v2_values", v2v)
        object.__setattr__(self, "raw_weights", raw)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    @property
    def dim(self) -> int:
        return self.modes.shape[1]

    def permuted(self, order) -> "ModeSet":
        order = np.asarray(order)
        return ModeSet(
            modes=self.modes[order],
            hessians=self.hessians[order],
            v2_values=self.v2_values[order],
        )

    def nearest(self, point) -> tuple[int, float]:
        """Index and distance of the mode closest to ``point``."""
        d = np.linalg.norm(self.modes - np.asarray(point, dtype=float), axis=1)
        i = int(np.argmin(d))
        return i, float(d[i])

    def to_json(self) -> dict:
        return {
            "modes": self.modes.tolist(),
            "hessians": self.hessians.tolist(),
            "beta_raw": self.raw_weights.tolist(),
            "beta": self.weights.tolist(),
        }


@dataclass(frozen=True)
class MultistartConfig:
    count: int = 64
    box: tuple = (-4.0, 4.0)
    seed: int = 0


# find_modes keeps minimizers within _VALUE_TOL of the best value and
# merges those within _DEDUP_SCALE * (1 + |x|) of each other
_VALUE_TOL = 1e-8
_DEDUP_SCALE = 1e-6


def _box_arrays(box, dim):
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(hi <= lo):
        raise ValueError("search box must satisfy lo < hi")
    return lo, hi


# ---------------------------------------------------------------------------
# batched damped Newton
# ---------------------------------------------------------------------------

_NEWTON_STEP_TOL = 1e-13  # relative step size at which a Newton run is done


def _damped_newton(evaluate, x0, max_steps=50):
    """Minimize a batch of independent smooth functions by damped Newton.

    ``evaluate(idx, x)`` returns the values (k,), gradients (k, p) and
    Hessians (k, p, p) of the functions ``idx`` at the points x (k, p); a
    point where any of them is not finite lies outside the function's
    domain.  Each step solves with the Hessian's eigenvalues taken in
    absolute value and backtracks by halving until the trial point lies in
    the domain and, where the Newton decrement exceeds 1e-9, the Armijo
    condition holds.  Function i is done when its step is at most
    _NEWTON_STEP_TOL (1 + max |x_i|); that last step is taken without a
    further evaluation.

    Returns (x, hess, steps, errors): the last points, the Hessians at the
    points before them, the evaluated steps, and per function None or the
    ArithmeticError that stopped it: a start outside the domain, a step that
    is not a descent direction, a line search that cannot decrease the
    value, or ``max_steps`` steps without convergence.  One function's
    failure leaves the others running.
    """
    x = np.array(x0, dtype=float)
    n = x.shape[0]
    hess = np.zeros((n, x.shape[1], x.shape[1]))
    steps = np.zeros(n, dtype=int)
    errors = [None] * n

    def outside(f, g, h):
        return ~(np.isfinite(f) & np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(h), axis=(1, 2)))

    def stop(mask, message):
        for i in idx[mask]:
            errors[i] = ArithmeticError(message)

    def retry_at(r):
        # Armijo needs differences of the value above its rounding error,
        # which for a negative log density grows like 1e-16 |y| |y - G| / eps
        # on the misfit; below a Newton decrement of 1e-9 (the step is then
        # far inside the density's width) the step is halved only while it
        # leaves the domain
        sufficient = f_new[r] <= f[r] - 1e-4 * t[r] * slope[r]
        return outside(f_new[r], g[r], h[r]) | ((slope[r] > 1e-9) & ~sufficient)

    idx = np.arange(n)
    f, g, h = evaluate(idx, x)
    bad = outside(f, g, h)
    stop(bad, "Newton start outside the objective's domain")
    idx, f, g, h = idx[~bad], f[~bad], g[~bad], h[~bad]
    for _ in range(max_steps):
        if idx.size == 0:
            break
        # away from a minimum the Hessian can be indefinite; its absolute
        # eigenvalues keep the step a descent direction, and the step is the
        # plain Newton step wherever the Hessian is definite
        lam, vecs = np.linalg.eigh(h)
        # a zero eigenvalue (a flat or linear function) gives an infinite or
        # NaN step, which the descent test or the line search stops
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.einsum("kab,kb->ka", vecs, np.einsum("kba,kb->ka", vecs, g) / np.abs(lam))
            slope = np.sum(g * step, axis=1)
        # before the descent test: an iterate can land on g = 0 exactly
        done = np.max(np.abs(step), axis=1) <= _NEWTON_STEP_TOL * (1.0 + np.max(np.abs(x[idx]), axis=1))
        # a done run still takes its last step, unevaluated: it lands on the
        # fixed point where stopping short would leave up to 1e-13 (1 + |x|)
        x[idx[done]] -= step[done]
        hess[idx[done]] = h[done]
        stop(~done & ~(slope > 0.0), "Newton step is not a descent direction")
        go = ~done & (slope > 0.0)
        idx, f, step, slope = idx[go], f[go], step[go], slope[go]
        steps[idx] += 1
        t = np.ones(idx.size)
        trial = x[idx] - step
        f_new, g, h = evaluate(idx, trial)
        retry = retry_at(slice(None))
        while np.any(retry):
            t[retry] *= 0.5
            stop(retry & (t < 1e-10), "line search cannot decrease the objective")
            retry &= t >= 1e-10
            r = np.flatnonzero(retry)
            trial[r] = x[idx[r]] - t[r, None] * step[r]
            f_new[r], g[r], h[r] = evaluate(idx[r], trial[r])
            retry[r] = retry_at(r)
        live = t >= 1e-10
        x[idx[live]] = trial[live]
        idx, f, g, h = idx[live], f_new[live], g[live], h[live]
    stop(np.ones(idx.size, dtype=bool), f"no convergence in {max_steps} Newton steps")
    return x, hess, steps, errors


def _batched_linalg(fn, matrices):
    """fn of every matrix of a stack (n, d, d), in one batched call.

    Where that call raises LinAlgError, fn runs on each matrix alone.
    Returns (out, errors): out[i] is fn(matrices[i]), NaN where it raised,
    and errors[i] None or the LinAlgError of that matrix.
    """
    try:
        return fn(matrices), [None] * len(matrices)
    except np.linalg.LinAlgError:
        pass
    out = np.full(np.shape(matrices), math.nan)
    errors = [None] * len(matrices)
    for i, a in enumerate(matrices):
        try:
            out[i] = fn(a)
        except np.linalg.LinAlgError as exc:
            errors[i] = exc
    return out, errors


def find_modes(
    v1_limit: Potential,
    v2: Potential | None = None,
    config: MultistartConfig | None = None,
) -> ModeSet:
    """Locate the global minimizers of the limit potential by multistart descent.

    Uniform starts in the search box, one batched _damped_newton run over
    them with the analytic gradient and Hessian, value filtering at
    _VALUE_TOL above the best minimum found, and deduplication within
    _DEDUP_SCALE * (1 + |x|).  A start yields a minimizer where the value is finite
    and the gradient at most 1e-6, whether or not Newton converged: a flat
    (degenerate) basin stops Newton with a tiny gradient and a Hessian near
    0, which the Hessian check rejects.
    """
    cfg = config or MultistartConfig()
    v2 = v2 if v2 is not None else zero(v1_limit.dim)
    if v2.dim != v1_limit.dim:
        raise ValueError("v1 and v2 must share one dimension")
    dim = v1_limit.dim
    rng = np.random.default_rng(cfg.seed)
    lo, hi = _box_arrays(cfg.box, dim)
    starts = lo + (hi - lo) * rng.random((cfg.count, dim))

    def evaluate(idx, x):
        with np.errstate(all="ignore"):  # a non-finite value: outside the domain
            f, g, h = v1_limit.value_fn(x), v1_limit.grad_fn(x), v1_limit.hess_fn(x)
        return np.reshape(f, len(x)), np.reshape(g, x.shape), np.reshape(h, (len(x), dim, dim))

    x = _damped_newton(evaluate, starts)[0]
    values, grads, _ = evaluate(None, x)
    ok = np.isfinite(values) & (np.linalg.norm(grads, axis=1) <= 1e-6)
    if not np.any(ok):
        raise ModeSearchError("no minimizer found within the multistart budget")

    best = np.min(values[ok])
    kept = list(x[ok & (values <= best + _VALUE_TOL)])
    # deterministic order, then greedy merge; the order is that of the
    # entries rounded to _DEDUP_SCALE, so that modes tying in a coordinate are
    # not ordered by their last bits
    kept.sort(key=lambda x: (tuple(np.round(x / _DEDUP_SCALE)), tuple(x)))
    modes = []
    for x in kept:
        radius = _DEDUP_SCALE * (1.0 + np.linalg.norm(x))
        if all(np.linalg.norm(x - m) > radius for m in modes):
            modes.append(x)
    modes = np.asarray(modes)

    hessians = np.stack([v1_limit.hessian(m) for m in modes])
    for m, H in zip(modes, hessians):
        eig = np.linalg.eigvalsh(0.5 * (H + H.T))
        # relative floor: a basin that is flat at machine scale is degenerate
        if float(eig[0]) <= 1e-10 * (1.0 + float(eig[-1])):
            raise DegenerateModeError(
                f"Hessian at minimizer {m} has smallest eigenvalue {eig[0]:.3e}"
            )
    v2_values = np.array([v2.value(m) for m in modes])
    return ModeSet(modes=modes, hessians=hessians, v2_values=v2_values)


def laplace_normalization(ms: ModeSet, epsilon: float) -> float:
    """Leading-order Laplace value (2*pi*eps)^(d/2) * sum_i beta^i."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    return float(
        (2.0 * math.pi * epsilon) ** (ms.dim / 2.0) * np.sum(ms.raw_weights)
    )


def log_laplace_normalization(ms: ModeSet, epsilon: float) -> float:
    return float(_log_laplace(ms.dim, ms.raw_weights, epsilon))


def _log_laplace(dim, raw_weights, epsilon):
    """log of the Laplace value (2 pi eps)^(d/2) sum_i beta^i of mode sets
    with raw weights beta (..., n)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    return 0.5 * dim * math.log(2.0 * math.pi * epsilon) + np.log(np.sum(raw_weights, axis=-1))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# the Simpson resolution of a box sized by its target's width (see
# oracle_integrals): at least this many grid spacings per smallest standard
# deviation.  At 8 the bvm-m1 boxes give the same log Z but move a draw's TV,
# whose integrand |p - q| has kinks, by up to 2.3e-4 at eps 0.1
SIMPSON_POINTS_PER_WIDTH = 16
# the Richardson rel_error above which such a box is integrated again one
# resolution up, to DEFAULT_POINTS
SIMPSON_REL_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Brute-force oracle grid selection.

    With ``box=None`` the first box of a target is derived from its modes
    (_first_boxes): the union of the balls of radius 6*sqrt(eps/lambda_min)
    about them, for the smallest eigenvalue lambda_min of each mode's
    Hessian, with no floor.  It is expanded by x1.5 (up to ``max_expand``
    rounds) while the boundary integrand stays above ``tail_tol`` of the
    peak.  Where ``points_per_dim`` is None and the oracle is given the
    target's widths (the BvM panel, inverse._draw_integrals), each box takes
    its own Simpson resolution from its posterior's width, refined to
    SIMPSON_REL_TOL (see oracle_integrals); quadrature_normalization
    integrates every box at DEFAULT_POINTS.  Where the oracle is given the
    modes (the panel's boxes), a box whose faces alone, against the
    integrand at the modes, show that it will fail is expanded without
    being integrated; where the modes hold the maximum of the integrand,
    the accepted box is the one integrating every box would accept.
    Explicit boxes are used verbatim, at ``points_per_dim``, and fail hard
    if too small.  The BvM panel takes each draw's TV
    distance in the pass that integrates its box (see
    quadrature.integrate_exp_stack), from the integrand values that give
    log Z: the integrand is evaluated once per grid point and no grid
    values outlive their chunk, where a second TV pass would evaluate every
    accepted grid again, and keeping the values for it would hold draws x
    grid points of them (66 MB at M = 3, 30 draws).

    ``points_per_dim`` is None (DEFAULT_POINTS) or an int >= 3, raised to
    1 (mod 4); 0 < tail_tol <= 1, where 1 accepts every box; ``max_expand``
    is an int >= 0.  Other values raise ValueError.
    """

    points_per_dim: int | None = None
    box: tuple | None = None
    tail_tol: float = 1e-14
    max_expand: int = 8

    def __post_init__(self):
        n = self.points_per_dim
        if n is not None and not (_is_int(n) and n >= 3):
            raise ValueError(f"points_per_dim must be None or an int >= 3, got {n!r}")
        if not 0.0 < self.tail_tol <= 1.0:
            raise ValueError(f"tail_tol must be in (0, 1], got {self.tail_tol!r}")
        if not (_is_int(self.max_expand) and self.max_expand >= 0):
            raise ValueError(f"max_expand must be an int >= 0, got {self.max_expand!r}")


def _first_boxes(spec: GridSpec, epsilon, k, centers=None, hessians=None):
    """The Simpson oracle's first boxes of k sets, as lo and hi (k, d):
    ``spec.box`` for every set where given, else the union of the balls of
    radius 6 sqrt(eps / lambda_min) about each set's centers (k, m, d), for
    the smallest eigenvalue lambda_min of each center's Hessian (k, m, d, d).
    The radius scales with the target's width, so at every eps the box and
    its grid follow the target; the oracle widens a box whose tail check
    fails.  Where lambda_min <= 0 the radius is not finite, and the box
    fails make_grid's check (quadrature._valid_boxes)."""
    if spec.box is not None:
        lo, hi = (np.tile(np.ravel(np.asarray(side, dtype=float)), (k, 1)) for side in spec.box)
        return lo, hi
    lam_min = np.min(np.linalg.eigvalsh(0.5 * (hessians + np.swapaxes(hessians, -1, -2))), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # lambda_min <= 0: inf or nan
        radius = 6.0 * np.sqrt(epsilon / lam_min)[..., None]
    return np.min(centers - radius, axis=1), np.max(centers + radius, axis=1)


def oracle_integrals(integrate, lo, hi, spec: GridSpec, log_f=None, modes=None,
                     widths=None) -> list:
    """The Simpson oracle's box policy over a stack of boxes [lo[i], hi[i]].

    ``integrate(idx, lo, hi, n)`` integrates the boxes ``idx``, given as
    arrays lo and hi, on n points per dimension, and returns per box its
    GridIntegral or the ValueError that failed it (see
    quadrature.integrate_exp_stack).  An explicit ``spec.box`` is used as
    given; a box derived from the modes whose boundary integrand exceeds
    ``spec.tail_tol`` of its peak is widened x1.5 about its center, at most
    ``spec.max_expand`` times.  The boxes are checked as arrays by
    make_grid's rule (quadrature._valid_boxes).

    Resolution.  Without ``widths``, with ``spec.points_per_dim`` or with
    ``spec.box``, every box is integrated on spec.points_per_dim points per
    dimension (DEFAULT_POINTS by default).  Otherwise ``widths[i]`` is the
    smallest standard deviation of box i's target, and each box takes the
    coarsest of quadrature._simpson_rungs whose spacing on the box's widest
    side is at most widths[i] / SIMPSON_POINTS_PER_WIDTH (the finest where
    none is, or where the width is not finite and positive); boxes on one
    rung are integrated in one call.  A box that passes the tail check with a
    Richardson rel_error above SIMPSON_REL_TOL is integrated again one rung
    up, and stays that many rungs up when widened; at DEFAULT_POINTS it is
    accepted with the error it reports.

    Without ``modes`` every round integrates every box left.  With them,
    ``log_f(idx, pts)`` is the log integrand ``integrate`` integrates, at
    the points (k, N, d) of the boxes ``idx``, and ``modes`` (k, m, d) the
    target's modes of each box; the peak of box i is the largest log_f at
    its modes.  Each round but the last then first evaluates log_f on the
    faces of the grids of the boxes still to do, at the integration's own
    points and resolution, and widens without integrating every box where
    exp(face max - peak) > tail_tol, both finite; the others are
    integrated, and widened where the tail check fails on the grid.  The
    last round integrates every box left, so its error reports the grid's
    own ratio.  Where the modes hold the maximum of the integrand, no grid
    value exceeds the peak, so a box widened on its faces would fail the
    tail check on its grid: the accepted box is the one integrating every
    box gives, bit for bit.  Where they do not (the minimizers of v1 under
    a tilting v2, say), a wider box may be accepted.  Every accepted box
    passes the tail check on its full grid.

    Returns per box its accepted GridIntegral or the exception that failed
    it alone: BoxTooSmallError when the tail check still fails, or the
    ValueError of an invalid box or of an integrand finite nowhere.  Above
    dimension 3 raises OracleDimensionError.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    dim = lo.shape[1]
    sized = widths is not None and spec.points_per_dim is None and spec.box is None
    rungs = np.array(_simpson_rungs(dim) if sized else (_grid_resolution(dim, spec.points_per_dim),))
    up = np.zeros(len(lo), dtype=int)  # rungs a box was refined by
    out = [None] * len(lo)
    todo = np.arange(len(lo))
    expansions = 0 if spec.box is not None else spec.max_expand
    check_faces = modes is not None and expansions > 0
    if check_faces:
        peaks = np.max(_evaluate(log_f, todo, np.asarray(modes, dtype=float)), axis=1)

    def by_rung(rung, j):
        # the boxes j (indices into todo) on each rung, coarsest first
        for r in np.unique(rung[j]):
            yield int(rungs[r]), j[rung[j] == r]

    for expansion in range(expansions + 1):
        valid = _valid_boxes(lo[todo], hi[todo])
        for i in todo[~valid]:
            out[i] = ValueError(_BAD_BOX)
        todo = todo[valid]
        rung = np.zeros(todo.size, dtype=int)
        if sized:
            with np.errstate(divide="ignore", invalid="ignore"):  # no width: the finest
                need = (SIMPSON_POINTS_PER_WIDTH * np.max(hi[todo] - lo[todo], axis=1)
                        / np.asarray(widths, dtype=float)[todo])
            rung = np.where(np.isfinite(need) & (need > 0), np.searchsorted(rungs - 1, need), len(rungs))
            rung = np.minimum(rung + up[todo], len(rungs) - 1)
        widen = np.zeros(todo.size, dtype=bool)
        if check_faces and todo.size and expansion < expansions:
            face_max = np.empty(todo.size)
            for n, j in by_rung(rung, np.arange(todo.size)):
                face_max[j] = _face_max_stack(lambda k, pts: log_f(todo[j][k], pts),
                                              lo[todo[j]], hi[todo[j]], n)
            with np.errstate(over="ignore", invalid="ignore"):  # not finite: no skip
                widen = (np.isfinite(face_max) & np.isfinite(peaks[todo])
                         & (np.exp(face_max - peaks[todo]) > spec.tail_tol))
        run = np.flatnonzero(~widen)
        while run.size:
            refine = []
            for n, j in by_rung(rung, run):
                for k, result in zip(j, integrate(todo[j], lo[todo[j]], hi[todo[j]], n)):
                    i = todo[k]
                    out[i] = result
                    if not isinstance(result, GridIntegral):
                        continue
                    if result.boundary_ratio > spec.tail_tol:
                        widen[k] = True
                        out[i] = BoxTooSmallError(
                            f"boundary integrand at {result.boundary_ratio:.2e} of peak "
                            f"exceeds tail_tol={spec.tail_tol:.1e} after {expansions} "
                            "box expansions"
                        )
                    elif sized and result.rel_error > SIMPSON_REL_TOL and rung[k] < len(rungs) - 1:
                        refine.append(k)
            run = np.array(refine, dtype=int)
            rung[run] += 1
            up[todo[run]] += 1
        todo = todo[widen]
        center = 0.5 * (lo[todo] + hi[todo])
        lo[todo] = center + 1.5 * (lo[todo] - center)
        hi[todo] = center + 1.5 * (hi[todo] - center)
    return out


def quadrature_normalization(
    mu: TargetMeasure,
    grid: GridSpec | None = None,
    mode_set: ModeSet | None = None,
) -> GridIntegral:
    """Brute-force Z = int exp(-v1/eps - v2) dx by tensor Simpson (dim <= 3).

    The one-box case of oracle_integrals, whose exception it raises.  The
    first box is ``grid.box`` or else, by _first_boxes' rule, the union of
    the 6-sigma balls about the modes of ``mode_set`` (found by find_modes
    with its default search where not given); every grid has
    ``grid.points_per_dim`` (DEFAULT_POINTS) points per dimension.  It
    passes no modes to the oracle, so every box of every round is
    integrated: the modes of ``mode_set`` are the minimizers of the limit
    potential v1, which a tilting v2 leaves below the integrand's maximum.
    """
    spec = grid or GridSpec()
    if mu.dim > 3:
        raise OracleDimensionError("quadrature oracle supports dimension <= 3")

    def log_f(pts):
        return -mu.v1.value(pts) / mu.epsilon - mu.v2.value(pts)

    def integrate(idx, lo, hi, n):
        # integrate_exp on the one box, so that each grid is one call of the
        # public one-box rule (perfbench/tracer.py counts those calls)
        return [integrate_exp(log_f, Grid(lo[0], hi[0], n))]

    if spec.box is None and mode_set is None:
        mode_set = find_modes(mu.v1, mu.v2)
    sets = () if spec.box is not None else (mode_set.modes[None], mode_set.hessians[None])
    lo, hi = _first_boxes(spec, mu.epsilon, 1, *sets)
    result = oracle_integrals(integrate, lo, hi, spec)[0]
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# problem catalog
# ---------------------------------------------------------------------------

_ELLIPTIC_IDS = ("elliptic-exp", "elliptic-square")


def _analytic_family(name, dim, v1, v2, default_box=(-4.0, 4.0)):
    return MeasureFamily(
        name=name, dim=dim, v1_limit=v1, v2=v2, v1_at=None, default_box=default_box
    )


def builtin_problem(name: str, **params) -> MeasureFamily:
    """The named catalog problems.

    quadratic            V1 = |x|^2/2,      V2 = 0
    double-well          V1 = (x^2-1)^2,    V2 = 0
    shifted-double-well  V1 = (x^2-1)^2,    V2 = x
    elliptic-exp/square  Bayesian posterior families (see klgauss.inverse)
    """
    from . import potentials as P

    if name == "quadratic":
        dim = int(params.pop("dim", 1))
        return _analytic_family(name, dim, P.quadratic(dim=dim, **params), P.zero(dim))
    if name == "double-well":
        return _analytic_family(name, 1, P.double_well(**params), P.zero(1))
    if name == "shifted-double-well":
        slope = params.pop("slope", [1.0])
        return _analytic_family(
            name, 1, P.double_well(**params), P.linear(dim=1, slope=slope)
        )
    if name in _ELLIPTIC_IDS:
        from . import inverse

        return inverse.builtin_posterior_family(name, **params)
    raise ValueError(f"unknown catalog problem {name!r}")


def load_problem(source) -> MeasureFamily:
    """Load a problem from a JSON document/file: {name, dim, v1, v2}."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        doc = json.loads(text)
    elif isinstance(source, dict):
        doc = source
    else:
        raise ValueError("problem source must be a path or a dict")
    for key in ("name", "dim", "v1", "v2"):
        if key not in doc:
            raise ValueError(f"problem document missing {key!r}")
    dim = int(doc["dim"])
    v1_spec = doc["v1"]
    if isinstance(v1_spec, dict) and v1_spec.get("id") in _ELLIPTIC_IDS:
        from . import inverse

        return inverse.posterior_family_from_spec(doc)
    v1 = potential_from_spec(v1_spec, dim)
    v2 = potential_from_spec(doc["v2"], dim)
    if not v1.v1_family:
        v1 = replace(v1, v1_family=True)
    return _analytic_family(doc["name"], dim, v1, v2)


def resolve_problem(name_or_path: str) -> MeasureFamily:
    """CLI helper: builtin catalog name, else a JSON file path."""
    try:
        return builtin_problem(name_or_path)
    except ValueError:
        pass
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(
            f"{name_or_path!r} is neither a catalog problem nor an existing file"
        )
    return load_problem(path)
