import math
from dataclasses import replace

import numpy as np
import pytest

import klgauss as kg
from klgauss import GaussianParams, MixtureParams
from klgauss.objective import (
    GAUSS_HERMITE,
    MONTE_CARLO,
    EstimatorConfig,
    entropy_split,
    expectation_under_gaussian,
    f_eps,
    g_eps,
    _mc_nodes,
    _nodes,
    gaussian_entropy_term,
    kl_single,
    mixture_entropy,
)
from klgauss import potentials as P

GAUSS_ENTROPY_1D = -0.5 * math.log(2 * math.pi * math.e)  # int rho log rho, N(0,1)


def poly_potential(power):
    return P.Potential(
        dim=1,
        value_fn=lambda x: x[:, 0] ** power,
        grad_fn=lambda x: (power * x[:, 0] ** (power - 1))[:, None],
        hess_fn=lambda x: (power * (power - 1) * x[:, 0] ** (power - 2))[:, None, None],
        name=f"x^{power}",
    )


def std_normal(d=1):
    return GaussianParams.from_covariance(np.zeros(d), np.eye(d))


# --- expectation_under_gaussian ----------------------------------------------------


def test_second_moment_exact():
    est = expectation_under_gaussian(poly_potential(2), std_normal())
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


def test_fourth_moment_exact():
    est = expectation_under_gaussian(poly_potential(4), std_normal())
    assert est.value == pytest.approx(3.0, abs=1e-11)


def test_gh_matches_monte_carlo_oracle(double_well_family):
    g = GaussianParams.from_covariance(np.array([1.0]), np.array([[0.01]]))
    v1 = double_well_family.v1_limit
    gh = expectation_under_gaussian(v1, g)
    mc = expectation_under_gaussian(
        v1, g, EstimatorConfig(method=MONTE_CARLO, mc_samples=10**6, seed=5)
    )
    assert abs(gh.value - mc.value) <= 3 * mc.stderr


def test_monte_carlo_stderr_is_that_of_f():
    # f + log g is constant for f = |x|^2 / 2 under g = N(0, I), but the
    # estimate of E[f] has the noise of f alone: sqrt(Var f / N) = sqrt(d / (2 N))
    d, n = 3, 40_000
    est = expectation_under_gaussian(
        P.quadratic(dim=d), std_normal(d), EstimatorConfig(method=MONTE_CARLO, mc_samples=n, seed=6)
    )
    assert est.stderr == pytest.approx(math.sqrt(d / (2 * n)), rel=0.05)
    assert est.value == pytest.approx(d / 2, abs=4 * est.stderr)


def test_order_below_two_rejected():
    with pytest.raises(ValueError):
        EstimatorConfig(gh_order=1)


# --- the Monte Carlo node set ------------------------------------------------------


class _CountingGenerator(np.random.Generator):
    """default_rng(seed)'s generator, recording the size of every
    standard_normal draw."""

    def __init__(self, seed, draws):
        super().__init__(np.random.PCG64(seed))
        self.draws = draws

    def standard_normal(self, size=None, *args, **kwargs):
        self.draws.append(size)
        return super().standard_normal(size, *args, **kwargs)


@pytest.fixture()
def mc_draws(monkeypatch):
    """The sizes of the standard-normal draws made through default_rng,
    starting from an empty Monte Carlo node cache."""
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _CountingGenerator(seed, draws))
    _mc_nodes.cache_clear()
    yield draws
    _mc_nodes.cache_clear()


def test_one_monte_carlo_draw_per_sweep(double_well_family, double_well_modes, mc_draws):
    # every level of a sweep is re-estimated on the same draws
    est = EstimatorConfig(method=MONTE_CARLO, mc_samples=5_000, seed=0)
    kg.sweep(
        double_well_family, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4], kind="mixture", n=2,
        mode_set=double_well_modes, logz="quadrature", estimator=est,
    )
    assert mc_draws.count((5_000, 1)) == 1


def test_monte_carlo_nodes_are_read_only_and_per_estimator(mc_draws):
    est = EstimatorConfig(method=MONTE_CARLO, mc_samples=1_000, seed=3)
    nodes = _nodes(est, 1)
    with pytest.raises(ValueError):
        nodes.z[0, 0] = 0.0
    with pytest.raises(ValueError):
        nodes.w[0] = 0.0
    assert _nodes(est, 1).z is nodes.z
    assert len(mc_draws) == 1
    # another seed, sample count or dimension gets its own draws
    for other, d in ((replace(est, seed=4), 1), (replace(est, mc_samples=1_001), 1), (est, 2)):
        z, w, order = _nodes(other, d)
        y = np.random.Generator(np.random.PCG64(other.seed)).standard_normal((other.mc_samples, d))
        assert np.array_equal(z, y / math.sqrt(2.0))
        assert np.array_equal(w, np.full(other.mc_samples, 1.0 / other.mc_samples))
        assert order is None
    assert len(mc_draws) == 4


# --- kl_single -----------------------------------------------------------------------


def test_kl_single_exact_gaussian_target(quadratic_family):
    for eps in (1.0, 0.1, 0.01):
        mu = quadratic_family.at(eps)
        g = GaussianParams.from_covariance([0.0], [[eps]])
        log_z = 0.5 * math.log(2 * math.pi * eps)
        est = kl_single(mu, g, log_z)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.check_sum()


def test_kl_single_reduces_to_closed_form(quadratic_family):
    mu = quadratic_family.at(0.5)
    g = GaussianParams.from_covariance([0.0], [[2 * 0.5]])
    log_z = 0.5 * math.log(2 * math.pi * 0.5)
    est = kl_single(mu, g, log_z)
    assert est.value == pytest.approx(0.5 * (2 - 1 - math.log(2)), abs=1e-12)
    assert est.value == pytest.approx(0.153426, abs=1e-6)


def test_kl_single_double_well_vs_grid_oracle(double_well_family, double_well_modes):
    # brute-force density-grid oracle for KL(nu || mu)
    eps = 0.01
    mu = double_well_family.at(eps)
    log_z = kg.quadrature_normalization(mu, mode_set=double_well_modes).log_value
    g = GaussianParams.from_covariance([1.0], [[eps / 8.0]])
    est = kl_single(mu, g, log_z)

    from klgauss.quadrature import make_grid

    grid = make_grid([-3.0], [3.0], 8193)
    pts, w = grid.points(), grid.weights()
    log_nu = g.log_density(pts)
    log_mu = kg.unnormalized_log_density(mu, pts) - log_z
    kl_grid = float(np.dot(w, np.exp(log_nu) * (log_nu - log_mu)))
    assert est.value == pytest.approx(kl_grid, abs=1e-3)


def test_kl_single_nonnegative_with_oracle_logz(double_well_family, double_well_modes):
    eps = 0.01
    mu = double_well_family.at(eps)
    log_z = kg.quadrature_normalization(mu, mode_set=double_well_modes).log_value
    for m, s in ((1.0, eps / 8), (0.9, eps / 4), (-1.1, eps / 10), (0.0, 0.5)):
        est = kl_single(mu, GaussianParams.from_covariance([m], [[s]]), log_z)
        assert est.value >= -1e-8


def test_breakdown_sums_to_value(double_well_family):
    mu = double_well_family.at(0.1)
    est = kl_single(mu, std_normal(), 0.123)
    assert est.check_sum(tol=1e-12)
    assert set(est.detail) == {"v1_term", "v2_term", "entropy_term", "log_z"}


# --- f_eps ----------------------------------------------------------------------------


def test_f_eps_zero_for_matching_gaussian(quadratic_family):
    for eps in (1.0, 0.1, 0.01, 1e-3):
        log_z = 0.5 * math.log(2 * math.pi * eps)
        est = f_eps(quadratic_family, eps, [0.0], [[1.0]], log_z)
        assert est.value == pytest.approx(0.0, abs=1e-10)


def test_f_eps_epsilon_independent_closed_form(quadratic_family):
    expected = 0.5 * (2 - 1 - math.log(2))
    for eps in (1.0, 0.1, 0.01):
        log_z = 0.5 * math.log(2 * math.pi * eps)
        est = f_eps(quadratic_family, eps, [0.0], [[2.0]], log_z)
        assert est.value == pytest.approx(expected, abs=1e-10)


def test_f_eps_matches_gaussian_kl_closed_form(quadratic_family, rng):
    # the quadratic target at eps is exactly N(0, eps); Gauss-Hermite is
    # exact on quadratics, so f_eps must equal the two-Gaussian closed form
    from klgauss import kl_gaussian_gaussian

    for _ in range(20):
        eps = float(rng.choice([1.0, 0.1, 0.01]))
        m = float(rng.uniform(-2, 2))
        s = float(rng.uniform(0.1, 4.0))
        log_z = 0.5 * math.log(2 * math.pi * eps)
        est = f_eps(quadratic_family, eps, [m], [[s]], log_z)
        a = GaussianParams.from_covariance([m], [[eps * s]])
        b = GaussianParams.from_covariance([0.0], [[eps]])
        assert est.value == pytest.approx(kl_gaussian_gaussian(a, b), abs=1e-10)


def test_kl_single_mc_stderr_covers_truth(quadratic_family):
    # Monte-Carlo terms share one sample set; the reported stderr must be
    # calibrated for the combined estimator
    mu = quadratic_family.at(0.5)
    g = GaussianParams.from_covariance([0.3], [[1.2]])
    log_z = 0.5 * math.log(2 * math.pi * 0.5)
    exact = kl_single(mu, g, log_z).value
    errs = []
    for seed in range(20):
        est = kl_single(
            mu, g, log_z, EstimatorConfig(method=MONTE_CARLO, mc_samples=4000, seed=seed)
        )
        errs.append(abs(est.value - exact) / est.stderr)
    assert np.mean(errs) < 3.0  # |error| / stderr is O(1) when calibrated


def test_f_eps_double_well_approaches_log2(double_well_family, double_well_modes):
    values = []
    for eps in (1e-2, 1e-3, 1e-4):
        log_z = kg.quadrature_normalization(
            double_well_family.at(eps), mode_set=double_well_modes
        ).log_value
        est = f_eps(double_well_family, eps, [1.0], [[1.0 / 8.0]], log_z)
        values.append(est.value)
    gaps = [v - math.log(2) for v in values]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.01


# --- mixture entropy -------------------------------------------------------------------


def far_mixture(sep=100.0, var=1.0, weights=(0.5, 0.5)):
    comps = (
        GaussianParams.from_covariance([-sep / 2], [[var]]),
        GaussianParams.from_covariance([+sep / 2], [[var]]),
    )
    return MixtureParams(comps, np.asarray(weights), xi=(0.05, 1.0))


def test_entropy_single_component():
    mix = MixtureParams((std_normal(),), np.array([1.0]), xi=(0.5, 1.0))
    est = mixture_entropy(mix, EstimatorConfig(method=MONTE_CARLO, mc_samples=50_000))
    # one component keeps the closed form on Monte Carlo nodes too
    assert est.value == pytest.approx(GAUSS_ENTROPY_1D, abs=1e-12)
    assert est.stderr == 0.0
    assert GAUSS_ENTROPY_1D == pytest.approx(-1.418939, abs=1e-6)


def test_entropy_far_separated_components():
    mix = far_mixture()
    est = mixture_entropy(mix, EstimatorConfig(method=MONTE_CARLO, seed=3))
    expected = GAUSS_ENTROPY_1D - math.log(2)
    assert est.value == pytest.approx(expected, abs=3 * est.stderr + 1e-6)


def test_entropy_identical_components_collapse():
    comps = (std_normal(), std_normal())
    mix = MixtureParams(comps, np.array([0.3, 0.7]), xi=(0.05, 1.0))
    est = mixture_entropy(mix, EstimatorConfig(method=MONTE_CARLO, seed=1))
    assert est.value == pytest.approx(GAUSS_ENTROPY_1D, abs=3 * est.stderr + 1e-6)


def test_entropy_gh_agrees_with_mc():
    mix = far_mixture(sep=2.0, var=0.25)
    gh = mixture_entropy(mix, EstimatorConfig(method=GAUSS_HERMITE, gh_order=40))
    mc = mixture_entropy(
        mix, EstimatorConfig(method=MONTE_CARLO, mc_samples=400_000, seed=9)
    )
    assert gh.value == pytest.approx(mc.value, abs=3 * mc.stderr + 1e-4)


# --- entropy_split ----------------------------------------------------------------------


def test_split_single_component_exact():
    mix = MixtureParams((std_normal(),), np.array([1.0]), xi=(0.5, 1.0))
    assert entropy_split(mix) == pytest.approx(GAUSS_ENTROPY_1D, abs=1e-12)


def test_split_formula_two_components():
    mix = far_mixture(sep=2.0, var=1.0)
    assert entropy_split(mix) == pytest.approx(
        GAUSS_ENTROPY_1D - math.log(2), abs=1e-12
    )


def test_split_vs_entropy_far_separated():
    # the cross terms are exponentially small once the modes separate
    mix = far_mixture(sep=2.0, var=1e-2)
    est = mixture_entropy(mix, EstimatorConfig(method=MONTE_CARLO, seed=2))
    assert abs(est.value - entropy_split(mix)) <= 3 * est.stderr + 1e-4


def test_split_is_lower_bound():
    # overlapping components: the true entropy integral exceeds the split
    mix = far_mixture(sep=1.0, var=1.0)
    est = mixture_entropy(
        mix, EstimatorConfig(method=MONTE_CARLO, mc_samples=200_000, seed=4)
    )
    assert est.value >= entropy_split(mix) - 3 * est.stderr


# --- g_eps ------------------------------------------------------------------------------


def mixture_at(eps, means=(-1.0, 1.0), sigma_resc=0.125, weights=(0.5, 0.5), xi=(0.05, 1.0)):
    comps = tuple(
        GaussianParams.from_covariance([m], [[eps * sigma_resc]]) for m in means
    )
    return MixtureParams(comps, np.asarray(weights), xi=xi)


def test_g_eps_single_component_reduces_to_f_eps(double_well_family, double_well_modes):
    eps = 0.01
    log_z = kg.quadrature_normalization(
        double_well_family.at(eps), mode_set=double_well_modes
    ).log_value
    comps = (GaussianParams.from_covariance([1.0], [[eps / 8]]),)
    mix = MixtureParams(comps, np.array([1.0]), xi=(0.5, 1.0))
    ge = g_eps(double_well_family, eps, mix, log_z)
    fe = f_eps(double_well_family, eps, [1.0], [[1.0 / 8]], log_z)
    assert ge.value == pytest.approx(fe.value, abs=3 * ge.stderr + 1e-9)


def test_g_eps_at_limit_minimizer_small(double_well_family, double_well_modes):
    # Gamma-limit minimum is 0; at eps=1e-3 the value is already below 0.05.
    # Oracle cross-check: brute-force grid quadrature of the KL integrand.
    eps = 1e-3
    log_z = kg.quadrature_normalization(
        double_well_family.at(eps), mode_set=double_well_modes
    ).log_value
    mix = mixture_at(eps)
    est = g_eps(double_well_family, eps, mix, log_z, EstimatorConfig(seed=6, method=MONTE_CARLO))
    assert 0.0 <= est.value <= 0.05

    from klgauss.quadrature import make_grid

    mu = double_well_family.at(eps)
    grid = make_grid([-3.0], [3.0], 16385)
    pts, w = grid.points(), grid.weights()
    log_nu = mix.log_density(pts)
    log_mu = kg.unnormalized_log_density(mu, pts) - log_z
    kl_grid = float(np.dot(w, np.exp(log_nu) * (log_nu - log_mu)))
    assert kl_grid <= 0.05
    assert est.value == pytest.approx(kl_grid, abs=3 * est.stderr + 1e-4)


def _self_target(mix, eps):
    """The family whose target at eps is the mixture itself: V1 = -eps log rho,
    V2 = 0, log Z = 0.  It has no gradient: the estimators evaluate values only."""
    v1 = P.Potential(dim=1, value_fn=lambda x: -eps * mix.log_density(x), grad_fn=None, hess_fn=None)
    return kg.MeasureFamily(name="self", dim=1, v1_limit=v1, v2=P.zero(1))


@pytest.mark.parametrize(
    "est", [EstimatorConfig(), EstimatorConfig(method=MONTE_CARLO, seed=3)], ids=["gh", "mc"]
)
def test_g_eps_zero_when_target_is_the_mixture(est):
    # KL(rho || rho) = 0, and the integrand V1/eps + V2 + log rho vanishes at
    # every node, so the Monte Carlo stderr is rounding only
    eps = 0.1
    mix = mixture_at(eps, means=(-0.5, 0.6), sigma_resc=1.0, weights=(0.3, 0.7))
    est = g_eps(_self_target(mix, eps), eps, mix, 0.0, est)
    assert abs(est.value) <= 1e-12
    assert est.stderr <= 1e-12
    assert est.detail["entropy_term"] == pytest.approx(-est.detail["v1_term"], abs=1e-12)
    assert est.detail["entropy_term"] < -0.5


@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_g_eps_mc_stderr_calibrated(double_well_family, eps):
    # at the limit minimizer the potential and entropy terms nearly cancel
    # point by point; the reported stderr must be that of the combined
    # estimator, neither understated nor overstated (|error| / stderr
    # averages 0.8 when calibrated)
    mix = mixture_at(eps)
    ref = g_eps(double_well_family, eps, mix, 0.0, EstimatorConfig(gh_order=40)).value
    ratios = []
    for seed in range(20):
        est = g_eps(double_well_family, eps, mix, 0.0, EstimatorConfig(method=MONTE_CARLO, seed=seed))
        ratios.append(abs(est.value - ref) / est.stderr)
    assert 0.3 <= np.mean(ratios) <= 3.0


def mixture_2d(eps, n):
    """n of three fixed components of a 2-D mixture, with correlated factors."""
    means = np.array([[-0.6, 0.2], [0.5, -0.3], [0.1, 0.7]])[:n]
    chols = np.array([
        [[0.5, 0.0], [0.2, 0.4]],
        [[0.3, 0.0], [-0.1, 0.6]],
        [[0.45, 0.0], [0.05, 0.35]],
    ])[:n]
    weights = np.array([0.3, 0.45, 0.25])[:n]
    comps = tuple(GaussianParams(m, math.sqrt(eps) * L) for m, L in zip(means, chols))
    return MixtureParams(comps, weights / weights.sum(), xi=(0.05, 0.2))


def mixture_case(d, n, eps):
    """The target family and an n-component mixture in dimension d."""
    if d == 2:
        return kg.builtin_problem("quadratic", dim=2), mixture_2d(eps, n)
    if n == 3:
        mix = mixture_at(eps, means=(-1.0, 0.2, 1.0), sigma_resc=0.3,
                         weights=(0.3, 0.25, 0.45), xi=(0.05, 0.5))
    else:
        mix = mixture_at(eps, sigma_resc=0.3, weights=(0.45, 0.55))
    if n == 1:
        mix = MixtureParams(mix.components[1:], np.ones(1), xi=(0.5, 1.0))
    return kg.builtin_problem("double-well"), mix


DIM_AND_N = [
    pytest.param(1, 1, id="1"),
    pytest.param(1, 2, id="2"),
    pytest.param(1, 3, id="3"),
    pytest.param(2, 1, id="d2-1"),
    pytest.param(2, 2, id="d2-2"),
    pytest.param(2, 3, id="d2-3"),
]


@pytest.mark.parametrize("d, n", DIM_AND_N)
def test_value_only_path_matches_value_grad(d, n):
    # the public estimators are one evaluation of the optimizer's objective
    from klgauss.objective import _gh_nodes, _Objective

    eps = 0.05
    family, mix = mixture_case(d, n, eps)
    obj = _Objective(family.at(eps), 0.4, _gh_nodes(20, d), n)
    root = math.sqrt(eps)
    theta = obj.pack(mix.weights, mix.means, [c.chol / root for c in mix.components])
    est = g_eps(family, eps, mix, 0.4)
    assert math.isfinite(est.value)
    assert est.value == pytest.approx(obj.value_grad(theta)[0], abs=1e-12)


@pytest.mark.parametrize("kl", [True, False], ids=["kl", "no-kl"])
@pytest.mark.parametrize("d, n", DIM_AND_N)
def test_terms_do_not_depend_on_the_block_size(monkeypatch, d, n, kl):
    # 20,001 Monte Carlo nodes: two full blocks and a ragged third one
    from klgauss import objective

    eps = 0.05
    family, mix = mixture_case(d, n, eps)
    nodes = objective._mc_nodes(20_001, 4, d)
    assert nodes.w.size % objective._BLOCK_ROWS != 0 and nodes.w.size > objective._BLOCK_ROWS
    obj = objective._Objective(family.at(eps), 0.4, nodes, n)
    root = math.sqrt(eps)
    args = (mix.weights, mix.means, [c.chol / root for c in mix.components], kl)
    blocked, blocked_err = obj.terms(*args)
    monkeypatch.setattr(objective, "_BLOCK_ROWS", nodes.w.size)
    whole, whole_err = obj.terms(*args)
    assert sum(blocked.values()) == pytest.approx(sum(whole.values()), rel=1e-13)
    assert blocked_err == pytest.approx(whole_err, rel=1e-9)
    assert whole_err > 0


def test_floored_log_sum_exp_is_scipys():
    # component logs up to 2000 below their maximum: flooring the shifted
    # logs at _EXP_FLOOR changes no log-sum-exp beyond rounding
    import scipy.special

    from klgauss.gaussian import _shifted_exp

    rng = np.random.default_rng(8)
    gaps = [np.zeros((3, 1, 400)), rng.uniform(0, 60, (3, 2, 400)), rng.uniform(600, 2000, (3, 2, 400))]
    comp_log = rng.uniform(-1, 1, (3, 1, 400)) - np.concatenate(gaps, axis=1)
    top, dens = _shifted_exp(comp_log, axis=1)
    ours = top[:, 0] + np.log(dens.sum(axis=1))
    ref = scipy.special.logsumexp(comp_log, axis=1)
    assert np.allclose(ours, ref, rtol=0, atol=1e-15)


def test_g_eps_constraint_gate_returns_inf(double_well_family):
    eps = 0.01
    xi1 = 0.05
    mix = mixture_at(eps, weights=(xi1 / 2, 1 - xi1 / 2), xi=(xi1, 1.0))
    est = g_eps(double_well_family, eps, mix, 0.0)
    assert est.value == math.inf


def test_g_eps_separation_gate(double_well_family):
    eps = 0.01
    mix = mixture_at(eps, means=(-0.2, 0.2), xi=(0.05, 1.0))
    est = g_eps(double_well_family, eps, mix, 0.0)
    assert est.value == math.inf


def test_gaussian_entropy_term_closed_form():
    g = GaussianParams.from_covariance([0.0], [[1.0]])
    assert gaussian_entropy_term(g) == pytest.approx(GAUSS_ENTROPY_1D)


def test_kl_estimate_json_serialization(quadratic_family):
    import json

    mu = quadratic_family.at(0.5)
    est = kl_single(mu, std_normal(), 0.25)
    doc = json.loads(est.to_json_str())
    assert doc["method"] == GAUSS_HERMITE
    assert doc["value"] == pytest.approx(sum(doc["detail"].values()))
    assert set(doc["detail"]) == {"v1_term", "v2_term", "entropy_term", "log_z"}
