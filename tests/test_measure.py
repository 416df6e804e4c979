import math

import numpy as np
import pytest

import klgauss as kg
from klgauss import potentials as P
from klgauss.measure import (
    DegenerateModeError,
    GridSpec,
    ModeSet,
    MultistartConfig,
    concentration_box,
    load_problem,
    oracle_integrals,
)
from klgauss import measure, quadrature
from klgauss.quadrature import BoxTooSmallError, OracleDimensionError, integrate_exp_stack


# --- unnormalized_log_density ------------------------------------------------


def test_log_density_quadratic_at_zero(quadratic_family):
    mu = quadratic_family.at(1.0)
    assert kg.unnormalized_log_density(mu, np.array([0.0])) == 0.0


def test_log_density_quadratic_at_two(quadratic_family):
    mu = quadratic_family.at(1.0)
    assert kg.unnormalized_log_density(mu, np.array([2.0])) == pytest.approx(-2.0)


def test_log_density_double_well_root(double_well_family):
    mu = double_well_family.at(0.1)
    assert kg.unnormalized_log_density(mu, np.array([1.0])) == pytest.approx(0.0)


# --- find_modes ---------------------------------------------------------------


def test_find_modes_quadratic(quadratic_family):
    ms = kg.find_modes(quadratic_family.v1_limit, quadratic_family.v2)
    assert ms.n == 1
    assert abs(ms.modes[0, 0]) <= 1e-6
    assert ms.hessians[0, 0, 0] == pytest.approx(1.0, abs=1e-8)
    assert ms.weights[0] == 1.0


def test_find_modes_double_well(double_well_modes):
    ms = double_well_modes
    # V1'' = 12 x^2 - 4 evaluates to 8 at the two roots; symmetry forces 1/2.
    # Newton's last step lands on the roots exactly, so all three are exact
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.hessians.ravel().tolist() == [8.0, 8.0]
    assert ms.weights.tolist() == [0.5, 0.5]


def test_find_modes_shifted_double_well(shifted_modes):
    # beta formula: beta(-1) = 8^(-1/2) e^{+1}, beta(+1) = 8^(-1/2) e^{-1}
    ms = shifted_modes
    expected = np.array([math.e, 1.0 / math.e])
    expected = expected / expected.sum()  # = (e^2/(1+e^2), 1/(1+e^2))
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.hessians.ravel().tolist() == [8.0, 8.0]
    order = np.argsort(ms.modes.ravel())
    assert np.allclose(ms.weights[order], expected, atol=1e-9)
    assert expected[0] == pytest.approx(math.exp(2) / (1 + math.exp(2)))


def test_find_modes_quadratic_3d_exact():
    family = kg.builtin_problem("quadratic", dim=3)
    ms = kg.find_modes(family.v1_limit, family.v2)
    assert ms.modes.tolist() == [[0.0, 0.0, 0.0]]
    assert np.array_equal(ms.hessians[0], np.eye(3))


def test_find_modes_drops_starts_outside_the_domain():
    # the double well walled off (value inf) beyond x = 2.5: the starts
    # there fail alone, and the others still find both wells exactly
    well = P.double_well()
    walled = P.Potential(
        dim=1,
        value_fn=lambda x: np.where(x[:, 0] > 2.5, np.inf, well.value_fn(x)),
        grad_fn=well.grad_fn,
        hess_fn=well.hess_fn,
        name="walled-double-well",
        v1_family=True,
    )
    cfg = MultistartConfig()
    starts = np.random.default_rng(cfg.seed).uniform(*cfg.box, cfg.count)
    assert np.any(starts > 2.5)
    ms = kg.find_modes(walled, config=cfg)
    assert ms.modes.ravel().tolist() == [-1.0, 1.0]
    assert ms.weights.tolist() == [0.5, 0.5]


def test_damped_newton_quadratic_exact():
    # f(x) = 3 (x - 0.3)^2 / 2 from four starts: one Newton step lands within
    # rounding of 0.3, and the last (unevaluated) step lands on it
    def evaluate(idx, x):
        return 1.5 * (x[:, 0] - 0.3) ** 2, 3.0 * (x - 0.3), np.full((len(x), 1, 1), 3.0)

    x, hess, steps, errors = measure._damped_newton(
        evaluate, np.array([[-3.0], [0.0], [2.0], [7.5]])
    )
    assert errors == [None] * 4
    assert x.ravel().tolist() == [0.3] * 4
    assert hess.ravel().tolist() == [3.0] * 4


def test_find_modes_degenerate_quartic():
    # V = x^4 has a flat (non-SPD) Hessian at its minimizer
    quartic = P.Potential(
        dim=1,
        value_fn=lambda x: x[:, 0] ** 4,
        grad_fn=lambda x: (4 * x[:, 0] ** 3)[:, None],
        hess_fn=lambda x: (12 * x[:, 0] ** 2)[:, None, None],
        name="quartic",
        v1_family=True,
    )
    with pytest.raises(DegenerateModeError):
        kg.find_modes(quartic)


def test_find_modes_unbounded_potential_errors():
    # a pure tilt has no minimizer anywhere
    tilt = P.linear(dim=1, slope=[1.0])
    with pytest.raises(kg.measure.ModeSearchError):
        kg.find_modes(tilt, config=MultistartConfig(count=8))


def test_beta_permutation_equivariance(double_well_modes):
    flipped = double_well_modes.permuted([1, 0])
    assert np.allclose(flipped.weights, double_well_modes.weights[[1, 0]])
    assert np.allclose(sorted(flipped.weights), sorted(double_well_modes.weights))


def test_modes_deterministic_given_seed(double_well_family):
    cfg = MultistartConfig(seed=3)
    a = kg.find_modes(double_well_family.v1_limit, config=cfg)
    b = kg.find_modes(double_well_family.v1_limit, config=cfg)
    assert np.array_equal(a.modes, b.modes)


# --- laplace_normalization -----------------------------------------------------


def test_laplace_single_gaussian_mode():
    ms = ModeSet(
        modes=np.array([[0.0]]),
        hessians=np.array([[[1.0]]]),
        v2_values=np.array([0.0]),
    )
    # exactly the Gaussian integral sqrt(2 pi eps)
    assert kg.laplace_normalization(ms, 0.01) == pytest.approx(
        math.sqrt(2 * math.pi * 0.01)
    )
    assert kg.laplace_normalization(ms, 0.01) == pytest.approx(0.250663, abs=1e-6)


def test_laplace_double_well(double_well_modes):
    val = kg.laplace_normalization(double_well_modes, 0.001)
    expected = math.sqrt(2 * math.pi * 0.001) * 2.0 / math.sqrt(8.0)
    assert val == pytest.approx(expected, rel=1e-12)


def test_laplace_standard_normal_2d():
    ms = ModeSet(
        modes=np.zeros((1, 2)),
        hessians=np.eye(2)[None, :, :],
        v2_values=np.zeros(1),
    )
    assert kg.laplace_normalization(ms, 1.0) == pytest.approx(2 * math.pi)


# --- quadrature_normalization ---------------------------------------------------


def test_quadrature_matches_exact_gaussian(quadratic_family):
    mu = quadratic_family.at(0.01)
    res = kg.quadrature_normalization(mu)
    exact = math.sqrt(2 * math.pi * 0.01)
    assert res.value == pytest.approx(exact, rel=1e-3)
    assert res.value == pytest.approx(0.250663, rel=1e-3)


def test_quadrature_refinement_within_error(double_well_family, double_well_modes):
    mu = double_well_family.at(0.01)
    coarse = kg.quadrature_normalization(
        mu, GridSpec(points_per_dim=1025), mode_set=double_well_modes
    )
    fine = kg.quadrature_normalization(
        mu, GridSpec(points_per_dim=2049), mode_set=double_well_modes
    )
    assert abs(fine.value - coarse.value) <= coarse.error_estimate


def test_quadrature_constant_integrand_box_volume():
    mu = kg.TargetMeasure(v1=P.zero(1), v2=P.zero(1), epsilon=1.0)
    res = kg.quadrature_normalization(
        mu, GridSpec(box=([-1.0], [3.0]), tail_tol=1.0)
    )
    assert res.value == pytest.approx(4.0, rel=1e-12)


def test_quadrature_rejects_high_dimension():
    mu = kg.TargetMeasure(v1=P.quadratic(dim=4), v2=P.zero(4), epsilon=1.0)
    with pytest.raises(OracleDimensionError):
        kg.quadrature_normalization(mu)


def test_quadrature_explicit_small_box_fails(double_well_family):
    mu = double_well_family.at(0.1)
    with pytest.raises(BoxTooSmallError):
        kg.quadrature_normalization(mu, GridSpec(box=([-1.2], [1.2])))


def test_laplace_vs_oracle_monotone(double_well_family, double_well_modes):
    # Laplace accuracy improves monotonically along the eps ladder and is
    # within 5% at eps = 1e-3
    rel_gaps = []
    for eps in (0.1, 0.03, 0.01, 0.003, 0.001):
        mu = double_well_family.at(eps)
        z_quad = kg.quadrature_normalization(mu, mode_set=double_well_modes).value
        z_lap = kg.laplace_normalization(double_well_modes, eps)
        rel_gaps.append(abs(z_lap - z_quad) / z_quad)
    assert all(b < a for a, b in zip(rel_gaps, rel_gaps[1:]))
    assert rel_gaps[-1] <= 0.05


def test_concentration_box_radius_floor():
    lo, hi = concentration_box(
        np.array([[0.0]]), np.array([[[8.0]]]), epsilon=0.001
    )
    # 6 sqrt(eps / lambda) = 0.067 << floor 2
    assert lo[0] == pytest.approx(-2.0)
    assert hi[0] == pytest.approx(2.0)


# --- stacked Simpson boxes --------------------------------------------------------


def gaussian_stack(centers, eps):
    """log_f(idx, pts) = -|x - c_i|^2 / (2 eps) for the centers c_i."""
    centers = np.asarray(centers, dtype=float)

    def log_f(idx, pts):
        return -np.sum((pts - centers[idx][:, None, :]) ** 2, axis=2) / (2.0 * eps)

    return log_f


def stacked_integrals(log_f, centers, eps, spec):
    d = centers.shape[1]
    boxes = [concentration_box(c[None], np.eye(d)[None], eps, spec.radius_floor) for c in centers]
    lo, hi = (np.array(side) for side in zip(*boxes))
    return oracle_integrals(
        lambda idx, grids: integrate_exp_stack(lambda j, pts: log_f(idx[j], pts), grids),
        lo, hi, spec,
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_stacked_oracle_exact_on_gaussians(d, eps):
    centers = np.random.default_rng(d).uniform(-1.0, 1.0, (5, d))
    results = stacked_integrals(gaussian_stack(centers, eps), centers, eps, GridSpec())
    exact = 0.5 * d * math.log(2.0 * math.pi * eps)
    for r in results:
        assert abs(r.log_value - exact) <= 1e-12
        assert r.boundary_ratio <= GridSpec().tail_tol


def test_stacked_oracle_chunks_match_one_box(monkeypatch):
    # 5 boxes of 4,097 points: 3 + 2 boxes a chunk at the default bound, one
    # box a chunk here; the integrals are identical
    centers = np.linspace(-1.0, 1.0, 5)[:, None]
    log_f = gaussian_stack(centers, 1e-2)
    whole = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    monkeypatch.setattr(quadrature, "SIMPSON_CHUNK_POINTS", 1)
    single = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    for a, b in zip(whole, single):
        assert (a.log_value, a.error_estimate, a.boundary_ratio) == (
            b.log_value, b.error_estimate, b.boundary_ratio)
        assert np.array_equal(a.grid.lo, b.grid.lo)


def test_stacked_oracle_failures_stay_per_box():
    # box 1: integrand finite nowhere; box 2: an explicit box too small; the
    # others integrate as they would alone
    centers = np.array([[-0.5], [0.0], [0.5], [1.0]])
    gauss = gaussian_stack(centers, 1e-2)

    def log_f(idx, pts):
        out = gauss(idx, pts)
        out[idx == 1] = np.nan
        out[idx == 2] = 0.0  # constant: the boundary equals the peak
        return out

    results = stacked_integrals(log_f, centers, 1e-2, GridSpec())
    assert isinstance(results[1], ValueError) and "not finite" in str(results[1])
    assert isinstance(results[2], BoxTooSmallError)
    alone = stacked_integrals(gauss, centers[[0, 3]], 1e-2, GridSpec())
    for r, a in zip([results[0], results[3]], alone):
        assert r.log_value == a.log_value and np.array_equal(r.grid.hi, a.grid.hi)


# --- catalog / JSON -------------------------------------------------------------


def test_load_problem_from_json(tmp_path):
    doc = {
        "name": "tilted-well",
        "dim": 1,
        "v1": {"id": "double-well", "params": {}},
        "v2": {"id": "linear", "params": {"slope": [1.0]}},
    }
    path = tmp_path / "problem.json"
    import json

    path.write_text(json.dumps(doc))
    fam = load_problem(path)
    assert fam.name == "tilted-well"
    ms = kg.find_modes(fam.v1_limit, fam.v2)
    assert ms.n == 2


def test_load_problem_validates():
    with pytest.raises(ValueError):
        load_problem({"name": "x", "dim": 1, "v1": {"id": "double-well"}})


def test_builtin_problem_unknown():
    with pytest.raises(ValueError):
        kg.builtin_problem("septuple-well")
