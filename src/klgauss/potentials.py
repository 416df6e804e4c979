"""Twice-differentiable scalar potentials on R^d.

A :class:`Potential` bundles value, gradient and Hessian callables together
with the validity metadata the theory attaches to the dominant potential
family (growth bound, coercivity constants, declared nonnegativity).  All
callables are vectorized over a leading batch axis: value maps (N, d) ->
(N,), gradient -> (N, d), Hessian -> (N, d, d).  A potential whose value
and gradient share work (the elliptic misfit's forward solve) may also
supply both from one callable, which ``value_and_gradient`` uses.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class EvaluationError(ValueError):
    """Non-finite potential value; carries the offending points."""

    def __init__(self, message, points):
        super().__init__(message)
        self.points = np.asarray(points)


def as_points(x, dim: int):
    """Coerce x to shape (N, dim); returns (points, was_single_point)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.size != dim:
            raise ValueError(f"point has dimension {x.size}, expected {dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"points must have shape (N, {dim}), got {x.shape}")
    return x, False


@dataclass(frozen=True)
class Potential:
    """Scalar field with gradient and Hessian.

    ``growth_bound`` (M_V) and ``coercivity`` ((c0, c1)) are informational
    metadata; they are stored, never enforced.  ``v1_family`` marks a
    potential as a member of the dominant family, which is required to be
    nonnegative.  ``value_grad_fn``, where given, maps (N, d) to the pair
    (value_fn, grad_fn) at once.
    """

    dim: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    growth_bound: float | None = None
    coercivity: tuple[float, float] | None = None
    v1_family: bool = False
    spec: dict | None = field(default=None, compare=False)
    value_grad_fn: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("potential dimension must be >= 1")

    def _checked_values(self, pts, v):
        """v as (N,) floats; a non-finite entry raises EvaluationError."""
        v = np.asarray(v, dtype=float).reshape(pts.shape[0])
        if not np.all(np.isfinite(v)):
            raise EvaluationError(
                f"potential {self.name or '<anonymous>'} returned a non-finite value",
                pts[~np.isfinite(v)],
            )
        return v

    def value(self, x):
        pts, single = as_points(x, self.dim)
        v = self._checked_values(pts, self.value_fn(pts))
        return float(v[0]) if single else v

    def gradient(self, x):
        pts, single = as_points(x, self.dim)
        g = np.asarray(self.grad_fn(pts), dtype=float).reshape(pts.shape[0], self.dim)
        return g[0] if single else g

    def value_and_gradient(self, x):
        """(value(x), gradient(x)), with the same checks: from one call of
        ``value_grad_fn`` where the potential has one, else from value and
        then gradient."""
        if self.value_grad_fn is None:
            return self.value(x), self.gradient(x)
        pts, single = as_points(x, self.dim)
        v, g = self.value_grad_fn(pts)
        v = self._checked_values(pts, v)
        g = np.asarray(g, dtype=float).reshape(pts.shape[0], self.dim)
        return (float(v[0]), g[0]) if single else (v, g)

    def hessian(self, x):
        pts, single = as_points(x, self.dim)
        h = np.asarray(self.hess_fn(pts), dtype=float).reshape(
            pts.shape[0], self.dim, self.dim
        )
        return h[0] if single else h


def fd_gradient(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with step h = 1e-5 * (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (pot.value(x + e) - pot.value(x - e)) / (2 * h)
    return g


def fd_hessian_from_grad(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    d = x.size
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (pot.gradient(x + e) - pot.gradient(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


def check_derivatives(pot: Potential, points, rel_tol: float = 1e-5) -> float:
    """Max relative mismatch of grad/hess against central differences.

    Raises AssertionError when the mismatch exceeds ``rel_tol``; returns the
    worst relative error otherwise.  Used by the consistency invariants.
    """
    worst = 0.0
    pts, _ = as_points(points, pot.dim)
    for x in pts:
        g, g_fd = pot.gradient(x), fd_gradient(pot, x)
        scale = 1.0 + np.linalg.norm(g_fd)
        err = np.linalg.norm(g - g_fd) / scale
        worst = max(worst, err)
        H, H_fd = pot.hessian(x), fd_hessian_from_grad(pot, x)
        scale = 1.0 + np.linalg.norm(H_fd)
        err = np.linalg.norm(H - H_fd) / scale
        worst = max(worst, err)
    if worst > rel_tol:
        raise AssertionError(
            f"derivative mismatch {worst:.3e} exceeds {rel_tol:.1e} "
            f"for potential {pot.name or '<anonymous>'}"
        )
    return worst


# ---------------------------------------------------------------------------
# builtin potentials
# ---------------------------------------------------------------------------


def quadratic(dim: int = 1, scale: float = 1.0, center=None) -> Potential:
    """V(x) = scale * |x - center|^2 / 2."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ValueError("center must have the declared dimension")
    if scale <= 0:
        raise ValueError("scale must be positive")
    eye = scale * np.eye(dim)

    def value(x):
        return 0.5 * scale * np.sum((x - c) ** 2, axis=1)

    def grad(x):
        return scale * (x - c)

    def hess(x):
        return np.broadcast_to(eye, (x.shape[0], dim, dim)).copy()

    return Potential(
        dim=dim,
        value_fn=value,
        grad_fn=grad,
        hess_fn=hess,
        name="quadratic",
        growth_bound=max(1.0, scale),
        coercivity=(0.5 * scale * float(c @ c), 0.25 * scale),
        v1_family=True,
        spec={"id": "quadratic", "params": {"scale": scale, "center": c.tolist()}},
    )


def double_well(depth: float = 1.0) -> Potential:
    """V(x) = depth * (x^2 - 1)^2 on R^1, minimized at x = -1 and x = +1."""
    if depth <= 0:
        raise ValueError("depth must be positive")

    def value(x):
        t = x[:, 0]
        return depth * (t * t - 1.0) ** 2

    def grad(x):
        t = x[:, 0]
        return (4.0 * depth * t * (t * t - 1.0))[:, None]

    def hess(x):
        t = x[:, 0]
        return (depth * (12.0 * t * t - 4.0))[:, None, None]

    return Potential(
        dim=1,
        value_fn=value,
        grad_fn=grad,
        hess_fn=hess,
        name="double-well",
        # |d^4 V| = 24*depth at the origin dominates all lower derivatives
        growth_bound=24.0 * depth,
        coercivity=(depth, 0.1 * depth),
        v1_family=True,
        spec={"id": "double-well", "params": {"depth": depth}},
    )


def linear(dim: int = 1, slope=None) -> Potential:
    """V(x) = slope . x (a tilt; typically used as the secondary potential)."""
    s = np.ones(dim) if slope is None else np.asarray(slope, dtype=float)
    if s.shape != (dim,):
        raise ValueError("slope must have the declared dimension")

    def value(x):
        return x @ s

    def grad(x):
        return np.broadcast_to(s, x.shape).copy()

    def hess(x):
        return np.zeros((x.shape[0], dim, dim))

    return Potential(
        dim=dim,
        value_fn=value,
        grad_fn=grad,
        hess_fn=hess,
        name="linear",
        growth_bound=float(np.linalg.norm(s)) or 1.0,
        spec={"id": "linear", "params": {"slope": s.tolist()}},
    )


def zero(dim: int = 1) -> Potential:
    def value(x):
        return np.zeros(x.shape[0])

    def grad(x):
        return np.zeros((x.shape[0], dim))

    def hess(x):
        return np.zeros((x.shape[0], dim, dim))

    return Potential(
        dim=dim,
        value_fn=value,
        grad_fn=grad,
        hess_fn=hess,
        name="zero",
        growth_bound=0.0,
        v1_family=True,
        spec={"id": "zero", "params": {}},
    )


BUILTIN_POTENTIALS = {
    "quadratic": quadratic,
    "double-well": double_well,
    "linear": linear,
    "zero": zero,
}


def potential_from_spec(spec: dict, dim: int | None = None) -> Potential:
    """Build a builtin analytic potential from {"id": ..., "params": {...}}."""
    if not isinstance(spec, dict) or "id" not in spec:
        raise ValueError("potential spec must be a dict with an 'id' key")
    pid = spec["id"]
    params = dict(spec.get("params", {}))
    if pid not in BUILTIN_POTENTIALS:
        raise ValueError(f"unknown potential id {pid!r}")
    builder = BUILTIN_POTENTIALS[pid]
    unknown = sorted(set(params) - set(inspect.signature(builder).parameters))
    if unknown:
        raise ValueError(f"unknown {pid!r} parameter(s) {', '.join(map(repr, unknown))}")
    if pid in ("quadratic", "linear", "zero") and dim is not None:
        params.setdefault("dim", dim)
    pot = builder(**params)
    if dim is not None and pot.dim != dim:
        raise ValueError(f"potential {pid!r} has dim {pot.dim}, expected {dim}")
    return pot
