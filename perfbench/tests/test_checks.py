"""Each correctness check accepts a right result and rejects a wrong one."""

import copy
import math

import numpy as np
import pytest

import checks
from reference import EllipticReference, PosteriorReference
from workloads import LADDER, POSTERIOR_ETA_SEED, POSTERIOR_EPS, POSTERIOR_F, POSTERIOR_M


def assert_rejected(verdict, fragment):
    assert not verdict.correct
    assert any(fragment in p for p in verdict.problems), verdict.problems


# --------------------------------------------------------------- sweep-mix

# Laplace weights of V1 = (x^2 - 1)^2, V2 = x, written out apart from checks.py
BETA = (math.exp(2) / (1 + math.exp(2)), 1 / (1 + math.exp(2)))


def good_sweep_mix():
    mixture = [{
        "epsilon": e, "value": 0.1 * e, "converged": True,
        "means": [-1.0 - 0.3 * e, 1.0 - 0.3 * e],
        "weights": list(BETA), "variances": [0.125, 0.125],
    } for e in LADDER]
    single = [{
        "epsilon": e, "value": math.log(2) + 0.1 * e, "converged": True,
        "means": [1.0 - 0.2 * e], "weights": None, "variances": [0.125],
    } for e in LADDER]
    return mixture, single


def test_sweep_mix_accepts_limits():
    v = checks.verify_sweep_mix(*good_sweep_mix())
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (2 * len(LADDER) + 2, 0)


@pytest.mark.parametrize("kind, key, value, fragment", [
    ("mixture", "means", [-0.95, 1.0], "mixture means"),
    ("mixture", "weights", list(reversed(BETA)), "mixture weights"),
    ("mixture", "variances", [0.125, 0.25], "mixture rescaled variances"),
    ("single", "value", 1.05 * math.log(2), "single value"),
    ("single", "means", [0.5], "single mean"),
    ("single", "variances", [0.13], "single rescaled variance"),
])
def test_sweep_mix_rejects_wrong_limit(kind, key, value, fragment):
    mixture, single = good_sweep_mix()
    (mixture if kind == "mixture" else single)[-1][key] = value
    assert_rejected(checks.verify_sweep_mix(mixture, single), fragment)


def test_sweep_mix_rejects_negative_value():
    mixture, single = good_sweep_mix()
    mixture[2]["value"] = -1e-3
    assert_rejected(checks.verify_sweep_mix(mixture, single), "< 0")


def test_sweep_mix_rejects_negated_slope():
    mixture, single = good_sweep_mix()
    for lv, e in zip(mixture, reversed(LADDER)):
        lv["value"] = 0.1 * e  # gaps grow as eps shrinks: slope -1
    assert_rejected(checks.verify_sweep_mix(mixture, single), "mixture gap fit")


def test_sweep_mix_counts_unconverged_level_as_failed():
    mixture, single = good_sweep_mix()
    single[1]["converged"] = False
    single[1]["value"] = -5.0  # outputs of a failed operation are not checked
    v = checks.verify_sweep_mix(mixture, single)
    assert v.correct, v.problems
    assert v.failed == 1


# ---------------------------------------------------------------- sweep-mc

def good_sweep_mc():
    return [{
        "epsilon": e, "value": 0.1 * e, "gap": 0.1 * e, "mode_dist": 0.2 * e,
        "weight_dist": 1e-8, "converged": True,
    } for e in LADDER]


def test_sweep_mc_counts_missing_gap_fit_as_failed():
    v = checks.verify_sweep_mc(0, good_sweep_mc(), None)
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (len(LADDER) + 2, 1)


def test_sweep_mc_checks_a_gap_fit_when_present():
    v = checks.verify_sweep_mc(0, good_sweep_mc(), {"slope": 1.01})
    assert v.correct and v.failed == 0
    assert_rejected(checks.verify_sweep_mc(0, good_sweep_mc(), {"slope": -1.01}), "gap_fit")


def test_sweep_mc_rejects_exit_code():
    assert_rejected(checks.verify_sweep_mc(3, good_sweep_mc(), None), "exited")


def test_sweep_mc_rejects_weight_dist():
    levels = good_sweep_mc()
    levels[-1]["weight_dist"] = 0.05
    assert_rejected(checks.verify_sweep_mc(0, levels, None), "weight_dist")


def test_sweep_mc_rejects_negated_mode_slope():
    levels = good_sweep_mc()
    for lv, e in zip(levels, reversed(LADDER)):
        lv["mode_dist"] = 0.2 * e
    assert_rejected(checks.verify_sweep_mc(0, levels, None), "mode_dist decay")


# ------------------------------------------------------------------ bvm-m1

BVM_EPS = (0.1, 0.03, 0.01, 0.003, 0.001)


def good_bvm(draws=100):
    rng = np.random.default_rng(0)
    levels = []
    for e in BVM_EPS:
        kl = 0.3 * e * rng.uniform(0.5, 1.5, draws)
        levels.append({"epsilon": e, "failures": 0, "n_ok": draws,
                       "kl": kl, "tv": 0.5 * np.sqrt(kl / 2.0)})
    return levels


def test_bvm_accepts_rate():
    v = checks.verify_bvm(good_bvm(), 100)
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (5 * 100 + 1, 0)


def test_bvm_rejects_negative_kl():
    levels = good_bvm()
    levels[3]["kl"][7] = -1e-6
    assert_rejected(checks.verify_bvm(levels, 100), "KL < 0")


def test_bvm_rejects_pinsker_violation():
    levels = good_bvm()
    levels[0]["tv"][0] = math.sqrt(levels[0]["kl"][0] / 2.0) + 2e-3
    assert_rejected(checks.verify_bvm(levels, 100), "Pinsker")


def test_bvm_rejects_negated_slope():
    levels = good_bvm()
    kls = [lv["kl"] for lv in levels]
    for lv, kl in zip(levels, reversed(kls)):
        lv["kl"] = kl
        lv["tv"] = 0.5 * np.sqrt(kl / 2.0)
    assert_rejected(checks.verify_bvm(levels, 100), "BvM rate")


def test_bvm_counts_failed_draws():
    levels = good_bvm()
    lv = levels[2]
    lv["kl"], lv["tv"] = lv["kl"][:97], lv["tv"][:97]
    lv["n_ok"], lv["failures"] = 97, 3
    v = checks.verify_bvm(levels, 100)
    assert v.correct, v.problems
    assert v.failed == 3
    lv["failures"] = 2  # a draw neither ok nor failed
    assert_rejected(checks.verify_bvm(levels, 100), "draws")


# ------------------------------------------------------------ posterior-m4

@pytest.fixture(scope="module")
def posterior_case():
    eta = np.random.default_rng(POSTERIOR_ETA_SEED).standard_normal(POSTERIOR_M)
    post = PosteriorReference(EllipticReference(POSTERIOR_M, POSTERIOR_F),
                              np.zeros(POSTERIOR_M), eta, POSTERIOR_EPS)
    x_map, cov = post.mode(np.zeros(POSTERIOR_M))
    # a stand-in for the program's answer: the Laplace approximation itself
    mean, full_cov = x_map, POSTERIOR_EPS * cov
    mc_value, mc_stderr = post.kl_minus_log_z(mean, full_cov, 20_000, np.random.default_rng(1))
    result = {"converged": True, "mean": mean, "rescaled_cov": cov,
              "value": mc_value + mc_stderr - 3.0, "log_z": -3.0}
    reference = {"map": x_map, "cov": cov, "mc_value": mc_value, "mc_stderr": mc_stderr}
    return result, reference


def test_posterior_accepts_laplace(posterior_case):
    result, reference = posterior_case
    v = checks.verify_posterior(result, reference, POSTERIOR_EPS)
    assert v.correct, v.problems
    assert (v.attempted, v.failed) == (1, 0)


@pytest.mark.parametrize("key, change, fragment", [
    ("mean", lambda m: m + np.array([0.0, 6.0 * POSTERIOR_EPS, 0.0, 0.0]), "MAP"),
    ("rescaled_cov", lambda c: 1.05 * c, "covariance"),
    ("value", lambda v: v + 0.1, "Monte Carlo"),
])
def test_posterior_rejects_wrong_result(posterior_case, key, change, fragment):
    result, reference = copy.deepcopy(posterior_case)
    result[key] = change(result[key])
    assert_rejected(checks.verify_posterior(result, reference, POSTERIOR_EPS), fragment)


def test_posterior_counts_unconverged_solve_as_failed(posterior_case):
    result, reference = copy.deepcopy(posterior_case)
    result["converged"] = False
    v = checks.verify_posterior(result, reference, POSTERIOR_EPS)
    assert v.correct and v.failed == 1


# --------------------------------------------------------------- reference

def test_reference_forward_matches_library():
    from klgauss import inverse

    rng = np.random.default_rng(3)
    for m in (1, 2, 4, 7):
        p = inverse.EllipticProblem(M=m, f=np.full(m, 100.0), variant="exp")
        ref = EllipticReference(m, 100.0)
        q = rng.uniform(-2.0, 2.0, (6, m))
        np.testing.assert_allclose(ref.forward(q), inverse.forward(p, q), rtol=1e-12)
        np.testing.assert_allclose(ref.jacobian(q), inverse.jacobian(p, q),
                                   rtol=1e-10, atol=1e-12)


def test_reference_mode_is_stationary(posterior_case):
    _, reference = posterior_case
    eta = np.random.default_rng(POSTERIOR_ETA_SEED).standard_normal(POSTERIOR_M)
    post = PosteriorReference(EllipticReference(POSTERIOR_M, POSTERIOR_F),
                              np.zeros(POSTERIOR_M), eta, POSTERIOR_EPS)
    assert np.linalg.norm(post.gradient(reference["map"])) <= 1e-6
