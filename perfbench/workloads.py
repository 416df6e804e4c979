"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``prepare``), runs
the program on them (``execute``, the timed part) and checks the outputs
(``verify``).  klgauss functions are looked up as module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import checks
from reference import EllipticReference, PosteriorReference

LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
OUT_DIR = Path(__file__).resolve().parent / "out"

POSTERIOR_M = 4
POSTERIOR_F = 1000.0
POSTERIOR_EPS = 1e-3
# eta is drawn once from the CLI's documented default seed: the BFGS
# evaluation count depends on eta (24 to 123 over eight seeds at GH order
# 10), so a per-seed eta would make the run-to-run spread mostly eta.
POSTERIOR_ETA_SEED = 1234
POSTERIOR_MC_SAMPLES = 40_000


@dataclass
class Workload:
    name: str
    default_seed: int

    def prepare(self, seed: int) -> dict:
        raise NotImplementedError

    def execute(self, inputs: dict):
        raise NotImplementedError

    def verify(self, inputs: dict, outputs) -> checks.Verdict:
        raise NotImplementedError


def _sweep_levels(result):
    levels = []
    for r in result.records:
        res = r.result
        if res.kind == "single":
            means = [float(res.params.mean[0])]
            weights = None
        else:
            means = [float(m) for m in res.params.means[:, 0]]
            weights = [float(w) for w in res.params.weights]
        variances = np.atleast_3d(res.rescaled_covariances).reshape(-1).tolist()
        levels.append({
            "epsilon": r.epsilon, "value": r.value, "converged": r.converged,
            "means": means, "weights": weights, "variances": variances,
        })
    return levels


class SweepMix(Workload):
    def prepare(self, seed):
        from klgauss import measure, optimizer

        return {
            "mixture": measure.builtin_problem("shifted-double-well"),
            "single": measure.builtin_problem("double-well"),
            "cfg": optimizer.OptimizerConfig(seed=seed),
        }

    def execute(self, inputs):
        from klgauss import gamma

        mixture = gamma.sweep(inputs["mixture"], LADDER, kind="mixture", n=2,
                              xi=(0.05, 1.0), cfg=inputs["cfg"], logz="quadrature")
        single = gamma.sweep(inputs["single"], LADDER, kind="single",
                             cfg=inputs["cfg"], logz="quadrature")
        return mixture, single

    def verify(self, inputs, outputs):
        mixture, single = outputs
        return checks.verify_sweep_mix(_sweep_levels(mixture), _sweep_levels(single))


def read_sweep_csv(text):
    """Rows and footer of a sweep CSV written by the CLI."""
    lines = text.splitlines()
    footer = json.loads(lines[-1][2:])
    rows = []
    for row in csv.DictReader(lines[:-1]):
        rows.append({
            "epsilon": float(row["epsilon"]),
            "value": float(row["value"]),
            "gap": float(row["gap"]),
            "mode_dist": float(row["mode_dist"]),
            "weight_dist": float(row["weight_dist"]) if row["weight_dist"] else math.nan,
            "converged": row["converged"] == "true",
        })
    return rows, footer


class SweepMC(Workload):
    def prepare(self, seed):
        from klgauss import cli  # noqa: F401  (the import is part of set-up)

        out = OUT_DIR / "sweep-mc.csv"
        argv = [
            "sweep", "--problem", "double-well",
            "--eps-list", ",".join(repr(e) for e in LADDER),
            "--family", "mixture", "--n", "2", "--logz", "quadrature",
            "--estimator", "mc", "--seed", str(seed), "--out", str(out),
        ]
        return {"argv": argv, "out": out}

    def execute(self, inputs):
        from klgauss import cli

        inputs["out"].parent.mkdir(parents=True, exist_ok=True)
        inputs["out"].unlink(missing_ok=True)
        return cli.main(inputs["argv"])

    def verify(self, inputs, exit_code):
        rows, footer = read_sweep_csv(inputs["out"].read_text())
        return checks.verify_sweep_mc(exit_code, rows, footer["gap_fit"])


class BvM(Workload):
    def prepare(self, seed):
        from klgauss import inverse, potentials

        doc = json.loads(resources.files("klgauss").joinpath("configs/bvm-m1.json").read_text())
        m = int(doc["M"])
        problem = inverse.EllipticProblem(M=m, f=np.asarray(doc["f"], dtype=float),
                                          variant=doc["variant"])
        cfg = inverse.BvMConfig(
            truth=np.asarray(doc["truth"], dtype=float),
            prior=potentials.potential_from_spec(doc["prior"], m),
            eps_list=tuple(doc["eps_list"]),
            draws=int(doc["draws"]),
            seed=seed,
        )
        return {"problem": problem, "cfg": cfg}

    def execute(self, inputs):
        from klgauss import inverse

        return inverse.bvm_experiment(inputs["problem"], inputs["cfg"], jobs=1)

    def verify(self, inputs, result):
        levels = [{
            "epsilon": lv.epsilon, "failures": lv.failures, "n_ok": lv.n_ok,
            "kl": lv.kl_values, "tv": lv.tv_values,
        } for lv in result.levels]
        return checks.verify_bvm(levels, inputs["cfg"].draws)


class PosteriorM4(Workload):
    def prepare(self, seed):
        from klgauss import inverse, optimizer

        m = POSTERIOR_M
        problem = inverse.EllipticProblem(M=m, f=np.full(m, POSTERIOR_F), variant="exp")
        truth = np.zeros(m)
        eta = np.random.default_rng(POSTERIOR_ETA_SEED).standard_normal(m)
        return {
            "measure": inverse.posterior_family(problem, truth, eta).at(POSTERIOR_EPS),
            "mode_set": inverse.limit_mode_set(problem, truth),
            "cfg": optimizer.OptimizerConfig(multistart=1, seed=seed),
            "truth": truth,
            "eta": eta,
            "seed": seed,
        }

    def execute(self, inputs):
        from klgauss import optimizer

        return optimizer.minimize_single(inputs["measure"], inputs["cfg"],
                                         mode_set=inputs["mode_set"])

    def verify(self, inputs, res):
        post = PosteriorReference(EllipticReference(POSTERIOR_M, POSTERIOR_F),
                                  inputs["truth"], inputs["eta"], POSTERIOR_EPS)
        x_map, cov = post.mode(inputs["truth"])
        rng = np.random.default_rng(inputs["seed"])
        mc_value, mc_stderr = post.kl_minus_log_z(res.params.mean, res.params.covariance,
                                                  POSTERIOR_MC_SAMPLES, rng)
        result = {
            "converged": res.converged, "mean": res.params.mean,
            "rescaled_cov": res.rescaled_covariances, "value": res.value, "log_z": res.log_z,
        }
        reference = {"map": x_map, "cov": cov, "mc_value": mc_value, "mc_stderr": mc_stderr}
        return checks.verify_posterior(result, reference, POSTERIOR_EPS)


WORKLOADS = {
    w.name: w
    for w in (
        SweepMix("sweep-mix", default_seed=1234),
        SweepMC("sweep-mc", default_seed=1234),
        BvM("bvm-m1", default_seed=20),
        PosteriorM4("posterior-m4", default_seed=1234),
    )
}
