"""The tracer's counts agree with counts made by hand on tiny problems."""

import numpy as np
import scipy.optimize

import tracer as tracing
from tracer import END, NAME, PARENT, START, Tracer, layer_metrics, self_times


def counting_potential(calls):
    """V(x) = |x|^2 / 2 in 1-D whose callables count calls and points."""
    from klgauss.potentials import Potential

    def counted(key, fn):
        def inner(x):
            calls[key] = calls.get(key, 0) + 1
            calls["points"] = calls.get("points", 0) + x.shape[0]
            return fn(x)
        return inner

    return Potential(
        dim=1,
        value_fn=counted("value", lambda x: 0.5 * np.sum(x * x, axis=1)),
        grad_fn=counted("grad", lambda x: x.copy()),
        hess_fn=counted("hess", lambda x: np.ones((x.shape[0], 1, 1))),
        v1_family=True,
    )


def traced_minimize(calls):
    from klgauss import measure, optimizer, potentials

    v1, v2 = counting_potential(calls), potentials.zero(1)
    mu = measure.TargetMeasure(v1=v1, v2=v2, epsilon=0.01)
    ms = measure.ModeSet(modes=[[0.0]], hessians=[[[1.0]]], v2_values=[0.0])
    cfg = optimizer.OptimizerConfig(multistart=1)
    with Tracer() as t:
        res = optimizer.minimize_single(mu, cfg, mode_set=ms, log_z=0.0)
    return t, res


def test_potential_and_bfgs_counts_match_hand_count():
    calls = {}
    t, res = traced_minimize(calls)
    m = layer_metrics(t.spans)
    # each objective evaluation takes V1 and V2 values and gradients once;
    # v2 is the zero potential, so its calls are counted from v1's
    assert m["potentials.evals"][0] == 2 * (calls["value"] + calls["grad"])
    assert m["potentials.points"][0] == 2 * calls["points"]
    # the optimizer evaluates the start once before handing it to BFGS
    assert m["optimizer.bfgs_nfev"][0] + 1 == calls["value"]
    assert m["optimizer.bfgs_runs"][0] == 1 == m["optimizer.starts"][0]
    assert m["optimizer.bfgs_iters"][0] == res.iterations
    assert m["optimizer.converged_ratio"][0] == 1.0
    # the objective's 20 Gauss-Hermite nodes per evaluation
    assert calls["points"] == 20 * (calls["value"] + calls["grad"])


def test_counts_repeat_exactly():
    first = layer_metrics(traced_minimize({})[0].spans)
    second = layer_metrics(traced_minimize({})[0].spans)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}


def test_forward_and_grid_counts_match_hand_count():
    from klgauss import inverse, measure, quadrature
    from klgauss.potentials import quadratic, zero

    p = inverse.EllipticProblem(M=3, f=np.ones(3), variant="exp")
    grid = quadrature.make_grid([-1.0], [1.0], 9)
    mu = measure.TargetMeasure(v1=quadratic(1), v2=zero(1), epsilon=0.1)
    ms = measure.ModeSet(modes=[[0.0]], hessians=[[[1.0]]], v2_values=[0.0])
    with Tracer() as t:
        inverse.forward(p, np.zeros((7, 3)))
        inverse.jacobian(p, np.zeros(3))
        quadrature.integrate_exp(lambda x: -x[:, 0] ** 2, grid)
        quadrature.tv_distance_grid(lambda x: -x[:, 0] ** 2, lambda x: -x[:, 0] ** 2, grid)
        # box +-2 leaves exp(-20) at the edge, above the 1e-14 tail
        # tolerance, so the oracle widens it once to +-3: two grids
        measure.quadrature_normalization(mu, mode_set=ms)
    m = layer_metrics(t.spans)
    assert m["inverse.forward_points"][0] == 7 + 1
    assert m["quadrature.grids"][0] == 1 + 2
    assert m["measure.oracle_logz_calls"][0] == 1
    assert m["measure.logz_calls"][0] == 1
    n1 = quadrature.DEFAULT_POINTS[1]
    assert m["quadrature.simpson_points"][0] == 9 + 9 + 2 * n1


def test_self_times_subtract_direct_children():
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, None],
             ["c", 1, 2.0, 3.0, None], ["d", 0, 5.0, 6.0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_wrappers_are_bound_where_looked_up_and_removed():
    import klgauss
    from klgauss import gamma, inverse, optimizer, potentials

    originals = (optimizer.minimize_single, gamma.minimize_single,
                 klgauss.minimize_single, potentials.Potential.value,
                 inverse._forward_and_jacobian)
    with Tracer():
        assert gamma.minimize_single is not originals[1]
        assert gamma.minimize_single is optimizer.minimize_single is klgauss.minimize_single
        assert inverse._scipy_minimize is not scipy.optimize.minimize
    assert (optimizer.minimize_single, gamma.minimize_single, klgauss.minimize_single,
            potentials.Potential.value, inverse._forward_and_jacobian) == originals
    assert inverse._scipy_minimize is scipy.optimize.minimize


def test_spans_nest():
    spans = traced_minimize({})[0].spans
    bfgs = next(s for s in spans if s[NAME] == "optimizer.bfgs")
    outer = spans[bfgs[PARENT]]
    assert outer[NAME] == "optimizer.minimize_single"
    assert outer[START] <= bfgs[START] <= bfgs[END] <= outer[END]


def test_every_module_is_wrapped():
    import importlib

    with Tracer() as t:
        owners = [owner for owner, _, _ in t._patches]
    for layer in tracing.MODULES:
        mod = importlib.import_module(f"klgauss.{layer}")
        assert any(o is mod or getattr(o, "__module__", None) == mod.__name__
                   for o in owners), layer
