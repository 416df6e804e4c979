"""Computations made apart from klgauss, used to verify its results.

Nothing here imports klgauss.  The elliptic forward map is solved with a
batched tridiagonal (Thomas) elimination instead of the library's dense
solves, the posterior mode is found by Newton's method on that map, and the
KL objective is re-estimated by plain Monte Carlo.
"""

from __future__ import annotations

import math

import numpy as np


def thomas_solve(diag, off, rhs):
    """Solve tridiagonal systems with a constant symmetric off-diagonal.

    ``diag`` has shape (n, M); ``rhs`` has shape (n, M) or (n, M, k).  The
    matrices must be diagonally dominant, which the elliptic operator is.
    """
    diag = np.asarray(diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    d = diag if rhs.ndim == 2 else diag[..., None]
    n_rows = diag.shape[1]
    c = np.empty_like(d)
    x = np.empty_like(rhs)
    c[:, 0] = off / d[:, 0]
    x[:, 0] = rhs[:, 0] / d[:, 0]
    for i in range(1, n_rows):
        denom = d[:, i] - off * c[:, i - 1]
        c[:, i] = off / denom
        x[:, i] = (rhs[:, i] - off * x[:, i - 1]) / denom
    for i in range(n_rows - 2, -1, -1):
        x[:, i] -= c[:, i] * x[:, i + 1]
    return x


class EllipticReference:
    """-u'' + exp(q) u = f on M interior points of (0, 1), zero boundary values."""

    def __init__(self, M: int, f):
        self.M = M
        self.f = np.broadcast_to(np.asarray(f, dtype=float), (M,)).copy()
        h = 1.0 / (M + 1)
        self.diag0 = 2.0 / (h * h)
        self.off = -1.0 / (h * h)

    def _diag(self, q):
        return self.diag0 + np.exp(q)

    def forward(self, q):
        """u = G(q) for q of shape (n, M)."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        return thomas_solve(self._diag(q), self.off, np.broadcast_to(self.f, q.shape))

    def jacobian(self, q):
        """dG_k/dq_j, shape (n, M, M): column j solves A x = -e_j u_j exp(q_j)."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        u = self.forward(q)
        rhs = np.zeros(q.shape + (self.M,))
        idx = np.arange(self.M)
        rhs[:, idx, idx] = -u * np.exp(q)
        return thomas_solve(self._diag(q), self.off, rhs)


class PosteriorReference:
    """Phi(q) = |y - G(q)|^2 / (2 eps) + |q|^2 / 2 with y = G(truth) + sqrt(eps) eta."""

    def __init__(self, model: EllipticReference, truth, eta, eps: float):
        self.model = model
        self.eps = float(eps)
        truth = np.asarray(truth, dtype=float)
        self.y = model.forward(truth)[0] + math.sqrt(eps) * np.asarray(eta, dtype=float)

    def potential(self, x):
        """V1/eps + V2 at points x of shape (n, M)."""
        r = self.y - self.model.forward(x)
        return 0.5 * np.sum(r * r, axis=1) / self.eps + 0.5 * np.sum(x * x, axis=1)

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        r = self.y - self.model.forward(q)[0]
        J = self.model.jacobian(q)[0]
        return -(J.T @ r) / self.eps + q

    def hessian(self, q, step: float = 1e-6):
        """Central differences of the analytic gradient, symmetrized."""
        q = np.asarray(q, dtype=float)
        H = np.empty((q.size, q.size))
        for j in range(q.size):
            e = np.zeros(q.size)
            e[j] = step
            H[:, j] = (self.gradient(q + e) - self.gradient(q - e)) / (2.0 * step)
        return 0.5 * (H + H.T)

    def mode(self, x0, max_steps: int = 50):
        """Newton's method from x0; returns (MAP, rescaled inverse Hessian).

        The rescaled inverse Hessian is (eps * D^2 Phi)^-1 at the MAP, the
        Laplace covariance in the units the optimizer reports.
        """
        x = np.asarray(x0, dtype=float).copy()
        for _ in range(max_steps):
            step = np.linalg.solve(self.hessian(x), self.gradient(x))
            x -= step
            if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(x)):
                break
        else:
            raise RuntimeError("reference Newton iteration did not converge")
        return x, np.linalg.inv(self.eps * self.hessian(x))

    def kl_minus_log_z(self, mean, cov, samples: int, rng):
        """Monte-Carlo E_nu[V1/eps + V2] + int nu log nu for nu = N(mean, cov).

        Returns (estimate, standard error); adding log Z gives KL(nu || mu).
        """
        mean = np.asarray(mean, dtype=float)
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
        x = mean + rng.standard_normal((samples, mean.size)) @ L.T
        v = self.potential(x)
        d = mean.size
        entropy = -0.5 * d * math.log(2.0 * math.pi) - float(np.sum(np.log(np.diag(L)))) - 0.5 * d
        return float(np.mean(v)) + entropy, float(np.std(v, ddof=1) / math.sqrt(samples))
