import json
import math

import numpy as np
import pytest

import klgauss as kg
from klgauss.gamma import (
    f_limit,
    f_limit_split,
    fit_rate,
    g_limit,
    limit_minimizer_single,
    limit_minimum_mixture,
    sweep,
)
from klgauss.measure import ModeSet
from klgauss.optimizer import OptimizerConfig


def quad_modes():
    return ModeSet(
        modes=np.array([[0.0]]),
        hessians=np.array([[[1.0]]]),
        v2_values=np.array([0.0]),
    )


# --- f_limit -----------------------------------------------------------------------


def test_f_limit_quadratic_inverse_hessian_is_zero():
    assert f_limit(quad_modes(), [0.0], [[1.0]]) == pytest.approx(0.0, abs=1e-14)


def test_f_limit_double_well_log2(double_well_modes):
    val = f_limit(double_well_modes, [1.0], [[1.0 / 8.0]])
    assert val == pytest.approx(math.log(2), abs=1e-12)


def test_f_limit_off_mode_infinite(double_well_modes):
    assert f_limit(double_well_modes, [0.5], [[1.0 / 8.0]]) == math.inf


def test_f_limit_split_parts(double_well_modes):
    gauss, cat = f_limit_split(double_well_modes, 0, [[1.0 / 8.0]])
    assert gauss == pytest.approx(0.0, abs=1e-12)  # Sigma = H^{-1}
    assert cat == pytest.approx(math.log(2), abs=1e-12)  # uniform beta
    gauss2, _ = f_limit_split(double_well_modes, 1, [[0.25]])
    assert gauss2 > 0


def test_f_limit_split_single_mode_categorical_zero():
    gauss, cat = f_limit_split(quad_modes(), 0, [[2.0]])
    assert cat == 0.0
    assert gauss == pytest.approx(0.5 * (2 - 1 - math.log(2)))


def test_split_consistency(double_well_modes, rng):
    # the two closed forms reassemble the limit functional exactly
    for _ in range(20):
        sigma = [[float(rng.uniform(0.02, 3.0))]]
        i = int(rng.integers(0, 2))
        total = f_limit(double_well_modes, double_well_modes.modes[i], sigma)
        gauss, cat = f_limit_split(double_well_modes, i, sigma)
        assert total == pytest.approx(gauss + cat, abs=1e-12)


# --- g_limit -----------------------------------------------------------------------


def test_g_limit_zero_at_minimizer(double_well_modes):
    ms = double_well_modes
    sigmas = [np.linalg.inv(H) for H in ms.hessians]
    val = g_limit(ms, ms.weights, ms.modes, sigmas, xi=(0.05, 1.0))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_g_limit_infeasible_weights_infinite(double_well_modes):
    ms = double_well_modes
    sigmas = [np.linalg.inv(H) for H in ms.hessians]
    val = g_limit(ms, [1.0, 0.0], ms.modes, sigmas, xi=(0.05, 1.0))
    assert val == math.inf


def test_g_limit_weight_mismatch_categorical(double_well_modes):
    ms = double_well_modes
    sigmas = [np.linalg.inv(H) for H in ms.hessians]
    val = g_limit(ms, [0.6, 0.4], ms.modes, sigmas, xi=(0.05, 1.0))
    assert val == pytest.approx(kg.kl_categorical([0.6, 0.4], [0.5, 0.5]), abs=1e-12)


def test_g_limit_off_mode_infinite(double_well_modes):
    ms = double_well_modes
    sigmas = [np.linalg.inv(H) for H in ms.hessians]
    means = np.array([[-1.0], [0.3]])
    assert g_limit(ms, [0.5, 0.5], means, sigmas, xi=(0.05, 1.0)) == math.inf


def test_g_limit_single_component_equals_f_limit(double_well_modes):
    ms = double_well_modes
    sigma = [[0.2]]
    single = g_limit(ms, [1.0], ms.modes[:1], [sigma], xi=(0.9, 1.0))
    assert single == pytest.approx(f_limit(ms, ms.modes[0], sigma), abs=1e-12)


# --- limit_minimizer_single -----------------------------------------------------------


def test_limit_minimizer_single_mode():
    idx, params, value = limit_minimizer_single(quad_modes())
    assert idx == 0 and value == 0.0
    assert params.covariance[0, 0] == pytest.approx(1.0)


def test_limit_minimizer_symmetric_tie_break(double_well_modes):
    idx, _, value = limit_minimizer_single(double_well_modes)
    assert idx == 0  # ties resolve to the lowest index
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_limit_minimizer_asymmetric(shifted_modes):
    idx, params, value = limit_minimizer_single(shifted_modes)
    assert shifted_modes.modes[idx, 0] == pytest.approx(-1.0, abs=1e-6)
    beta_max = math.exp(2) / (1 + math.exp(2))
    assert value == pytest.approx(-math.log(beta_max), abs=1e-9)


def test_limit_minimizer_invariances(shifted_modes):
    idx, _, _ = limit_minimizer_single(shifted_modes)
    chosen = shifted_modes.modes[idx]
    # relabeling invariance
    perm = shifted_modes.permuted([1, 0])
    idx_p, _, _ = limit_minimizer_single(perm)
    assert np.allclose(perm.modes[idx_p], chosen)
    # adding a constant to V2 rescales every beta equally
    shifted_v2 = ModeSet(
        modes=shifted_modes.modes,
        hessians=shifted_modes.hessians,
        v2_values=shifted_modes.v2_values + 5.0,
    )
    idx_c, _, _ = limit_minimizer_single(shifted_v2)
    assert idx_c == idx


def test_limit_minimum_mixture_feasible_beta(double_well_modes):
    assert limit_minimum_mixture(double_well_modes, 2, (0.05, 1.0)) == 0.0


def test_limit_minimum_mixture_clamped(shifted_modes):
    # floor above the light mode's beta forces a positive minimum
    xi1 = 0.3
    val = limit_minimum_mixture(shifted_modes, 2, (xi1, 1.0))
    order = np.argsort(shifted_modes.modes.ravel())
    beta = shifted_modes.weights[order]
    expected = kg.kl_categorical([1 - xi1, xi1], beta)
    assert val == pytest.approx(expected, abs=1e-12)


# --- rate fitting -----------------------------------------------------------------------


def test_fit_rate_recovers_slope():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    fit = fit_rate(eps, 3.0 * eps**1.5)
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.n_used == 4


def test_fit_rate_noise_floor_guard():
    eps = np.array([1e-1, 1e-2, 1e-3])
    values = np.array([1.0, 0.1, 1e-9])
    stderrs = np.array([0.0, 0.0, 1e-9])
    fit = fit_rate(eps, values, stderrs)
    assert fit.n_used == 2  # the noise-floored point is excluded


def test_fit_rate_too_few_points():
    assert fit_rate([1e-1], [1.0]) is None


# --- sweep --------------------------------------------------------------------------------


def test_sweep_quadratic_trivial(quadratic_family):
    sw = sweep(quadratic_family, [1e-1, 1e-2, 1e-3, 1e-4], kind="single")
    for r in sw.records:
        assert r.value <= 1e-6
        assert abs(r.result.rescaled_covariances[0, 0] - 1.0) <= 1e-6
        assert r.converged
    assert sw.limit_minimum == 0.0


def test_sweep_validates_eps_order(quadratic_family):
    with pytest.raises(ValueError):
        sweep(quadratic_family, [1e-3, 1e-2], kind="single")
    with pytest.raises(ValueError):
        sweep(quadratic_family, [1e-1], kind="triple")


def test_sweep_monotone_gamma_approach(double_well_family, double_well_modes):
    # with oracle log Z the optimized values decrease towards log 2
    sw = sweep(
        double_well_family,
        [3e-2, 1e-2, 3e-3, 1e-3],
        kind="single",
        mode_set=double_well_modes,
        logz="quadrature",
    )
    values = [r.value for r in sw.records]
    for a, b in zip(values, values[1:]):
        assert b <= a + 3 * 1e-12
    assert all(r.gap > 0 for r in sw.records)


def test_sweep_csv_format(double_well_family, double_well_modes):
    sw = sweep(
        double_well_family,
        [1e-1, 3e-2],
        kind="single",
        mode_set=double_well_modes,
    )
    text = sw.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,value,limit_value,gap,mode_dist,weight_dist,converged"
    assert len(lines) == 4
    assert lines[1].endswith(",true")
    footer = json.loads(lines[-1][2:])
    assert footer["problem"] == "double-well"
    assert footer["limit_minimum"] == pytest.approx(math.log(2))
    assert "\r" not in text


def test_sweep_mixture_short(double_well_family, double_well_modes):
    sw = sweep(
        double_well_family,
        [1e-2, 3e-3],
        kind="mixture",
        n=2,
        xi=(0.05, 1.0),
        mode_set=double_well_modes,
        cfg=OptimizerConfig(multistart=4),
    )
    last = sw.records[-1]
    assert last.converged
    assert last.weight_dist <= 1e-2
    assert last.mode_dist <= 1e-2
    assert sw.limit_minimum == 0.0


@pytest.mark.parametrize(
    "kind, eps_list, kwargs",
    [
        ("single", [3e-1, 1e-1, 3e-2], {}),
        ("mixture", [1e-1, 3e-2, 1e-2, 3e-3], {"n": 2, "cfg": OptimizerConfig(multistart=4)}),
    ],
    ids=["single", "mixture"],
)
def test_sweep_mc_reestimation(double_well_family, double_well_modes, kind, eps_list, kwargs):
    from klgauss.objective import MONTE_CARLO, EstimatorConfig

    est = EstimatorConfig(method=MONTE_CARLO, mc_samples=50_000, seed=8)
    sw_gh = sweep(
        double_well_family, eps_list, kind=kind,
        mode_set=double_well_modes, logz="quadrature", **kwargs,
    )
    sw_mc = sweep(
        double_well_family, eps_list, kind=kind,
        mode_set=double_well_modes, logz="quadrature", estimator=est, **kwargs,
    )
    for gh_r, mc_r in zip(sw_gh.records, sw_mc.records):
        assert mc_r.stderr > 0
        assert abs(mc_r.value - gh_r.value) <= 4 * mc_r.stderr + 1e-6
        assert mc_r.gap - mc_r.value == pytest.approx(gh_r.gap - gh_r.value)
    # the potential and entropy terms cancel point by point, for a single
    # Gaussian as for a mixture, so the gaps clear the fit's noise floor of
    # 10 stderr: every gap of the mixture, and of the single Gaussian, whose
    # Phi is not quadratic, those at eps 0.3 and 0.1
    assert sw_mc.gap_fit is not None
    assert sw_mc.gap_fit.n_used == (len(eps_list) if kind == "mixture" else 2)


def test_sweep_warm_start_tracks_one_well(double_well_family, double_well_modes):
    sw = sweep(
        double_well_family,
        [1e-2, 3e-3, 1e-3],
        kind="single",
        mode_set=double_well_modes,
    )
    signs = {math.copysign(1.0, r.result.params.mean[0]) for r in sw.records}
    assert len(signs) == 1  # warm starting keeps the sweep in one well


@pytest.mark.parametrize("eps_list", [(0.1, math.nan), (math.inf, 0.1), (math.nan,)])
def test_sweep_rejects_eps_that_is_not_finite(double_well_family, eps_list):
    with pytest.raises(ValueError):
        sweep(double_well_family, eps_list, kind="single")
