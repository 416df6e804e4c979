import numpy as np
import pytest

from klgauss import potentials as P


CATALOG = [
    P.quadratic(dim=1),
    P.quadratic(dim=2, scale=3.0, center=[0.5, -0.5]),
    P.quadratic(dim=3),
    P.double_well(),
    P.double_well(depth=2.5),
    P.linear(dim=1, slope=[1.0]),
    P.linear(dim=3, slope=[1.0, -2.0, 0.5]),
    P.zero(dim=2),
]


@pytest.mark.parametrize("pot", CATALOG, ids=lambda p: f"{p.name}-d{p.dim}")
def test_derivatives_match_central_differences(pot, rng):
    # consistency invariant: analytic grad/hess vs finite differences at
    # random probes, relative error <= 1e-5 with step 1e-5 * (1 + |x|)
    probes = rng.uniform(-2.0, 2.0, size=(8, pot.dim))
    P.check_derivatives(pot, probes, rel_tol=1e-5)


@pytest.mark.parametrize("pot", [p for p in CATALOG if p.v1_family],
                         ids=lambda p: f"{p.name}-d{p.dim}")
def test_v1_family_nonnegative(pot, rng):
    probes = rng.uniform(-5.0, 5.0, size=(64, pot.dim))
    assert np.all(pot.value(probes) >= 0.0)


def test_vectorized_and_scalar_agree():
    pot = P.double_well()
    xs = np.array([[-1.0], [0.0], [2.0]])
    batch = pot.value(xs)
    singles = [pot.value(x) for x in xs]
    assert np.allclose(batch, singles)
    assert isinstance(singles[0], float)


def test_nonfinite_value_raises_with_points():
    pot = P.Potential(
        dim=1,
        value_fn=lambda x: np.where(x[:, 0] > 0, np.inf, 0.0),
        grad_fn=lambda x: np.zeros_like(x),
        hess_fn=lambda x: np.zeros((x.shape[0], 1, 1)),
        name="bad",
    )
    with pytest.raises(P.EvaluationError) as err:
        pot.value(np.array([[-1.0], [2.0]]))
    assert err.value.points.shape == (1, 1)
    assert err.value.points[0, 0] == 2.0


def test_value_and_gradient_falls_back_to_value_then_gradient():
    calls = []
    base = P.double_well()
    pot = P.Potential(
        dim=1,
        value_fn=lambda x: calls.append("value") or base.value_fn(x),
        grad_fn=lambda x: calls.append("grad") or base.grad_fn(x),
        hess_fn=base.hess_fn,
    )
    xs = np.array([[-1.5], [0.2], [2.0]])
    value, grad = pot.value_and_gradient(xs)
    assert calls == ["value", "grad"]
    assert np.array_equal(value, base.value(xs)) and np.array_equal(grad, base.gradient(xs))
    value, grad = pot.value_and_gradient(np.array([0.5]))
    assert isinstance(value, float) and grad.shape == (1,)


def test_fused_nonfinite_value_raises_and_the_objective_is_inf():
    from klgauss.measure import TargetMeasure
    from klgauss.objective import _gh_nodes, _Objective

    def fused(x):
        return np.where(x[:, 0] > 0.5, np.nan, x[:, 0] ** 2), 2.0 * x

    pot = P.Potential(
        dim=1,
        value_fn=lambda x: x[:, 0] ** 2,
        grad_fn=lambda x: 2.0 * x,
        hess_fn=lambda x: np.full((x.shape[0], 1, 1), 2.0),
        name="bad",
        value_grad_fn=fused,
    )
    with pytest.raises(P.EvaluationError) as err:
        pot.value_and_gradient(np.array([[0.0], [1.0], [2.0]]))
    assert err.value.points[:, 0].tolist() == [1.0, 2.0]
    # value() does not use the fused callable: it is finite there
    assert pot.value(np.array([1.0])) == 1.0
    # a node past 0.5 makes the objective +inf with a zero gradient, for a
    # single Gaussian and for a mixture
    mu = TargetMeasure(v1=pot, v2=P.zero(1), epsilon=0.1)
    for n in (1, 2):
        obj = _Objective(mu, 0.0, _gh_nodes(10, 1), n)
        theta = obj.pack(np.full(n, 1.0 / n), np.zeros((n, 1)), np.ones((n, 1, 1)))
        value, grad = obj.value_grad(theta)
        assert value == np.inf and not np.any(grad)
        assert grad.shape == theta.shape


def test_dimension_checks():
    pot = P.quadratic(dim=2)
    with pytest.raises(ValueError):
        pot.value(np.zeros(3))
    with pytest.raises(ValueError):
        P.quadratic(dim=2, center=[1.0])


def test_builtin_registry_roundtrip():
    for pot in CATALOG:
        rebuilt = P.potential_from_spec(pot.spec, dim=pot.dim)
        x = np.full((1, pot.dim), 0.3)
        assert rebuilt.value(x) == pytest.approx(pot.value(x))
    with pytest.raises(ValueError):
        P.potential_from_spec({"id": "no-such-potential"})


def test_metadata_present():
    dw = P.double_well()
    assert dw.growth_bound == 24.0  # fourth derivative at the origin
    assert dw.coercivity is not None
    assert P.quadratic(dim=1).v1_family
    assert not P.linear(dim=1).v1_family
