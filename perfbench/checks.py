"""Correctness checks on the outputs of the benchmark workloads.

Every check compares a program output with a closed form, a property the
method must have, or a value the benchmark computes itself (see
``reference.py``); none compares with a stored copy of earlier output.
The checks take plain numbers and arrays, so the tests can feed them
deliberately wrong results.

An operation is one unit of program work that the checks judge on its own:
a sweep level, a rate fit, a noise draw, a posterior solve.  An operation
fails when the program itself reports failure (a level or a solve that did
not converge, a failed draw, a rate fit the program could not make); it is
counted in ``failed`` and its outputs are not checked further.  Every other
rejected output is a problem, and any problem makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOG2 = math.log(2.0)
# Laplace weights of the shifted double well V1 = (x^2 - 1)^2, V2 = x:
# beta_i ~ exp(-V2(x_i)) at the modes x = -1, +1 with equal Hessians 8.
BETA_SHIFTED = (math.e**2 / (1.0 + math.e**2), 1.0 / (1.0 + math.e**2))
LIMIT_VARIANCE = 1.0 / 8.0  # inverse Hessian of the double well at +-1

# posterior-m4 tolerances, in units of eps (see README.md)
POSTERIOR_MEAN_TOL = 5.0  # |m - MAP| <= 5 eps
POSTERIOR_COV_TOL = 40.0  # relative Frobenius error <= 40 eps
POSTERIOR_MC_SIGMAS = 5.0  # KL - log Z within 5 Monte-Carlo standard errors


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def operation(self, failed: bool = False) -> bool:
        """Count one operation; returns whether its outputs should be checked."""
        self.attempted += 1
        self.failed += int(failed)
        return not failed

    def expect(self, ok, message: str):
        if not ok:
            self.problems.append(message)

    def merge(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def loglog_slope(eps, values):
    """Least-squares slope of log(values) against log(eps); None below two
    points or when a value is not strictly positive."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if eps.size < 2 or not np.all(np.isfinite(values)) or np.any(values <= 0):
        return None
    return float(np.polyfit(np.log(eps), np.log(values), 1)[0])


def _check_slope(v: Verdict, label, eps, values, lo, hi):
    slope = loglog_slope(eps, values)
    v.expect(
        slope is not None and lo <= slope <= hi,
        f"{label}: log-log slope {slope} outside [{lo}, {hi}]",
    )


def verify_sweep_mix(mixture, single) -> Verdict:
    """Criterion-4 mixture sweep and criterion-2 single sweep, both under
    quadrature log Z.

    Each level is a dict with ``epsilon``, ``value``, ``converged``,
    ``means``, ``variances`` (rescaled) and, for the mixture, ``weights``;
    components are ordered by mean and the last level is the smallest eps.
    """
    v = Verdict()
    for kind, levels in (("mixture", mixture), ("single", single)):
        for lv in levels:
            if v.operation(failed=not lv["converged"]):
                v.expect(lv["value"] >= 0.0,
                         f"{kind} eps={lv['epsilon']}: KL value {lv['value']} < 0")
    last = mixture[-1]
    if last["converged"]:
        dist = float(np.sum(np.abs(np.asarray(last["weights"]) - BETA_SHIFTED)))
        v.expect(dist <= 2e-2, f"mixture weights {last['weights']} are {dist} from beta")
        v.expect(np.allclose(last["means"], [-1.0, 1.0], atol=1e-2),
                 f"mixture means {last['means']} not at the modes -1, +1")
        v.expect(np.allclose(last["variances"], LIMIT_VARIANCE, rtol=0.05),
                 f"mixture rescaled variances {last['variances']} not 1/8 within 5%")
    last = single[-1]
    if last["converged"]:
        v.expect(abs(last["value"] - LOG2) <= 0.02 * LOG2,
                 f"single value {last['value']} not log 2 within 2%")
        v.expect(abs(abs(last["means"][0]) - 1.0) <= 1e-3,
                 f"single mean {last['means']} not on a mode")
        v.expect(abs(last["variances"][0] - LIMIT_VARIANCE) <= 0.02 * LIMIT_VARIANCE,
                 f"single rescaled variance {last['variances']} not 1/8 within 2%")
    for kind, levels, limit in (("mixture", mixture, 0.0), ("single", single, LOG2)):
        v.operation()
        ok = [lv for lv in levels if lv["converged"]]
        _check_slope(v, f"{kind} gap fit", [lv["epsilon"] for lv in ok],
                     [lv["value"] - limit for lv in ok], 0.9, 1.1)
    return v


def verify_sweep_mc(exit_code, levels, gap_fit) -> Verdict:
    """The CLI mixture sweep with Monte-Carlo re-estimation.

    ``levels`` are the CSV rows as dicts (``epsilon``, ``mode_dist``,
    ``weight_dist``, ``converged``); ``gap_fit`` is the footer's fit or None.
    """
    v = Verdict()
    v.expect(exit_code == 0, f"sweep exited with code {exit_code}")
    for lv in levels:
        if v.operation(failed=not lv["converged"]):
            v.expect(lv["weight_dist"] <= 2e-2,
                     f"eps={lv['epsilon']}: weight_dist {lv['weight_dist']} > 2e-2")
    v.operation()
    ok = [lv for lv in levels if lv["converged"]]
    _check_slope(v, "mode_dist decay", [lv["epsilon"] for lv in ok],
                 [lv["mode_dist"] for lv in ok], 0.9, 1.1)
    if v.operation(failed=gap_fit is None):
        v.expect(0.8 <= gap_fit["slope"] <= 1.2, f"gap_fit slope {gap_fit['slope']}")
    return v


def verify_bvm(levels, draws: int, pinsker_slack: float = 1e-3) -> Verdict:
    """Per-draw KL >= 0 and Pinsker d_TV <= sqrt(KL/2) + slack, recomputed
    from the per-draw values, and a rate slope in [0.8, 1.2] from the
    benchmark's own fit of the level means.

    Each level is a dict with ``epsilon``, ``failures``, ``n_ok`` and the
    arrays ``kl`` and ``tv`` of the draws that did not fail.
    """
    v = Verdict()
    for lv in levels:
        kl = np.asarray(lv["kl"], dtype=float)
        tv = np.asarray(lv["tv"], dtype=float)
        v.attempted += draws
        v.failed += lv["failures"]
        eps = lv["epsilon"]
        v.expect(lv["n_ok"] + lv["failures"] == draws and kl.size == lv["n_ok"],
                 f"eps={eps}: {lv['n_ok']} ok + {lv['failures']} failed != {draws} draws")
        v.expect(np.all(kl >= 0.0), f"eps={eps}: {int(np.sum(kl < 0))} draws with KL < 0")
        bound = np.sqrt(np.maximum(kl, 0.0) / 2.0) + pinsker_slack
        v.expect(np.all(tv <= bound), f"eps={eps}: {int(np.sum(tv > bound))} Pinsker violations")
    v.operation()
    _check_slope(v, "BvM rate", [lv["epsilon"] for lv in levels],
                 [float(np.mean(lv["kl"])) if len(lv["kl"]) else math.nan for lv in levels],
                 0.8, 1.2)
    return v


def verify_posterior(result, reference, eps: float) -> Verdict:
    """The M = 4 posterior solve against the benchmark's own MAP, Laplace
    covariance and Monte-Carlo estimate of KL - log Z.

    ``result`` holds ``converged``, ``mean``, ``rescaled_cov``, ``value`` and
    ``log_z``; ``reference`` holds ``map``, ``cov``, ``mc_value`` and
    ``mc_stderr``.
    """
    v = Verdict()
    if not v.operation(failed=not result["converged"]):
        return v
    mean_err = float(np.linalg.norm(np.asarray(result["mean"]) - reference["map"]))
    v.expect(mean_err <= POSTERIOR_MEAN_TOL * eps,
             f"mean is {mean_err} from the MAP (tolerance {POSTERIOR_MEAN_TOL} eps)")
    cov = np.asarray(result["rescaled_cov"])
    cov_err = float(np.linalg.norm(cov - reference["cov"]) / np.linalg.norm(reference["cov"]))
    v.expect(cov_err <= POSTERIOR_COV_TOL * eps,
             f"rescaled covariance relative error {cov_err} (tolerance {POSTERIOR_COV_TOL} eps)")
    diff = result["value"] - result["log_z"] - reference["mc_value"]
    v.expect(abs(diff) <= POSTERIOR_MC_SIGMAS * reference["mc_stderr"],
             f"KL - log Z differs from Monte Carlo by {diff} "
             f"({diff / reference['mc_stderr']:.1f} standard errors)")
    return v
