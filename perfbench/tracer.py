"""Span tracing of klgauss from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, the public
functions of every klgauss module and the public methods of the classes
they define by timing wrappers.  Each wrapper is bound under every name a
klgauss module (or the package namespace) holds for the original, because
the modules import each other's functions by name and look those names up
in their own namespace at call time.  The private fused forward/Jacobian
solve of ``inverse`` and the ``scipy.optimize.minimize`` alias that
``measure``, ``optimizer`` and ``inverse`` call are wrapped the same way.

Spans are kept in memory as [name, parent index, start, end, info]; the
layer metrics are derived from them after the run.  Calls are assumed to
come from one thread (the benchmark runs the BvM experiment with jobs=1).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

MODULES = (
    "potentials",
    "quadrature",
    "measure",
    "gaussian",
    "objective",
    "optimizer",
    "gamma",
    "inverse",
    "cli",
)
BFGS_CALLERS = ("measure", "optimizer", "inverse")
PRIVATE_WRAPPED = {"inverse": ("_forward_and_jacobian",)}

NAME, PARENT, START, END, INFO = range(5)


def _points_info(args, kwargs, result):
    """Points in the second argument, which the library takes as (N, d) or (d,):
    Potential.value(self, x), *.log_density(self, x), forward(p, q),
    jacobian(p, q), _forward_and_jacobian(p, qs)."""
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _grid_info(args, kwargs, result):
    # integrate_exp(log_f, grid), tv_distance_grid(log_p, log_q, grid)
    grid = args[-1]
    return int(grid.points_per_dim) ** int(grid.dim)


def _bfgs_info(args, kwargs, result):
    return (int(getattr(result, "nit", 0)), int(getattr(result, "nfev", 0)))


def _optim_info(args, kwargs, result):
    traces = result.traces
    return (len(traces), sum(1 for t in traces if t.converged))


def _sweep_info(args, kwargs, result):
    return len(result.records)


def _bvm_info(args, kwargs, result):
    return sum(lv.n_ok + lv.failures for lv in result.levels)


INFO_FUNCS = {
    "potentials.Potential.value": _points_info,
    "potentials.Potential.gradient": _points_info,
    "potentials.Potential.hessian": _points_info,
    "gaussian.GaussianParams.log_density": _points_info,
    "gaussian.MixtureParams.log_density": _points_info,
    "inverse.forward": _points_info,
    "inverse.jacobian": _points_info,
    "inverse._forward_and_jacobian": _points_info,
    "quadrature.integrate_exp": _grid_info,
    "quadrature.tv_distance_grid": _grid_info,
    "optimizer.minimize_single": _optim_info,
    "optimizer.minimize_mixture": _optim_info,
    "gamma.sweep": _sweep_info,
    "inverse.bvm_experiment": _bvm_info,
}
for _caller in BFGS_CALLERS:
    INFO_FUNCS[f"{_caller}.bfgs"] = _bfgs_info


class Tracer:
    """Context manager that records spans of klgauss calls in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_fn = INFO_FUNCS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info_fn is not None:
                span[INFO] = info_fn(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        package = importlib.import_module("klgauss")
        modules = {m: importlib.import_module(f"klgauss.{m}") for m in MODULES}
        wrappers = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, self._wrap(f"{layer}.{name}.{attr}", fn))
            for name in PRIVATE_WRAPPED.get(layer, ()):
                fn = getattr(mod, name)
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for layer in BFGS_CALLERS:
            mod = modules[layer]
            self._patch(mod, "_scipy_minimize", self._wrap(f"{layer}.bfgs", mod._scipy_minimize))
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path):
        """Write the spans as gzip-compressed CSV: name,parent,start,end,info."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,parent,start_s,end_s,info\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for name, parent, start, end, info in self.spans:
                info_text = "" if info is None else str(info).replace(",", ";")
                fh.write(f"{name},{parent},{start - t0:.9f},{end - t0:.9f},{info_text}\n")


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _layer(name):
    return name.split(".", 1)[0]


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(spans):
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    selfs = self_times(spans)
    names = [s[NAME] for s in spans]

    def select(*wanted):
        return [i for i, n in enumerate(names) if n in wanted]

    def outermost(layer, wanted=None):
        """Spans of ``wanted`` (default: the whole layer) whose parent is
        not a span of the same layer."""
        idx = select(*wanted) if wanted else [
            i for i, n in enumerate(names) if _layer(n) == layer]
        return [i for i in idx
                if spans[i][PARENT] < 0 or _layer(names[spans[i][PARENT]]) != layer]

    def total(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    def self_sum(idx):
        return sum(selfs[i] for i in idx)

    def info_sum(idx, k=None):
        return sum((spans[i][INFO] if k is None else spans[i][INFO][k]) for i in idx)

    out = {}
    layer_self = {}
    for i, n in enumerate(names):
        layer_self[_layer(n)] = layer_self.get(_layer(n), 0.0) + selfs[i]
    for layer in MODULES:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")

    pot = select("potentials.Potential.value", "potentials.Potential.gradient",
                 "potentials.Potential.hessian")
    out["potentials.evals"] = (len(pot), "count")
    out["potentials.points"] = (info_sum(pot), "count")

    fwd = select("inverse.forward", "inverse.jacobian", "inverse._forward_and_jacobian")
    out["inverse.forward_points"] = (info_sum(fwd), "count")
    out["inverse.forward_s"] = (self_sum(fwd), "s")
    mode = select("inverse.bfgs")
    out["inverse.mode_nfev"] = (info_sum(mode, 1), "count")
    out["inverse.mode_s"] = (total(mode), "s")
    bvm = select("inverse.bvm_experiment")
    draws = info_sum(bvm)
    out["inverse.draws"] = (draws, "count")
    out["inverse.draw_s"] = (_ratio(total(bvm), draws), "s")

    simpson = select("quadrature.integrate_exp", "quadrature.tv_distance_grid")
    grids = select("quadrature.integrate_exp")
    oracle = select("measure.quadrature_normalization")
    out["quadrature.simpson_points"] = (info_sum(simpson), "count")
    out["quadrature.simpson_s"] = (self_sum(simpson), "s")
    out["quadrature.grids"] = (len(grids), "count")
    out["quadrature.grids_per_logz"] = (_ratio(len(grids), len(oracle)), "ratio")

    modes = outermost("measure", ("measure.find_modes",))
    out["measure.find_modes_calls"] = (len(modes), "count")
    out["measure.find_modes_s"] = (total(modes), "s")
    logz = outermost("measure", ("measure.quadrature_normalization",
                                 "measure.laplace_normalization",
                                 "measure.log_laplace_normalization"))
    out["measure.oracle_logz_calls"] = (len(oracle), "count")
    out["measure.logz_calls"] = (len(logz), "count")
    out["measure.logz_s"] = (total(logz), "s")

    minimize = outermost("optimizer", ("optimizer.minimize_single", "optimizer.minimize_mixture"))
    bfgs = select("optimizer.bfgs")
    starts = info_sum(minimize, 0)
    out["optimizer.minimize_s"] = (total(minimize), "s")
    out["optimizer.bfgs_runs"] = (len(bfgs), "count")
    out["optimizer.bfgs_iters"] = (info_sum(bfgs, 0), "count")
    out["optimizer.bfgs_nfev"] = (info_sum(bfgs, 1), "count")
    out["optimizer.starts"] = (starts, "count")
    out["optimizer.converged_ratio"] = (_ratio(info_sum(minimize, 1), starts), "ratio")

    dens = select("gaussian.GaussianParams.log_density", "gaussian.MixtureParams.log_density")
    out["gaussian.log_density_points"] = (
        info_sum(select("gaussian.GaussianParams.log_density")), "count")
    out["gaussian.log_density_s"] = (self_sum(dens), "s")

    est = outermost("objective")
    out["objective.estimate_calls"] = (len(est), "count")
    out["objective.estimate_s"] = (total(est), "s")

    sweeps = select("gamma.sweep")
    levels = info_sum(sweeps)
    out["gamma.levels"] = (levels, "count")
    out["gamma.level_s"] = (_ratio(total(sweeps), levels), "s")

    out["trace.spans"] = (len(spans), "count")
    return out
