"""Command-line driver: mode finding, approximation, sweeps, BvM experiment.

Exit codes: 0 success, 1 validation/parse error (usage errors included),
2 degenerate problem, 3 optimizer non-convergence (result still printed),
4 experiment abort.  All commands are deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import inverse
from .gamma import sweep
from .measure import (
    DegenerateModeError,
    ModeSearchError,
    MultistartConfig,
    find_modes,
    quadrature_normalization,
    resolve_problem,
)
from .objective import GAUSS_HERMITE, MONTE_CARLO, EstimatorConfig, g_eps, kl_single
from .optimizer import (
    InfeasibleConstraintError,
    OptimizerConfig,
    _locate_modes,
    minimize_mixture,
    minimize_single,
)
from .potentials import potential_from_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DEGENERATE = 2
EXIT_NOT_CONVERGED = 3
EXIT_ABORTED = 4

DEFAULT_SEED = 1234


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's parser, exiting with EXIT_VALIDATION on a usage error
    where argparse exits with 2, the code of a degenerate problem."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _write(text: str, out: str | None):
    if out:
        # newline='' keeps the LF line endings of the CSV/JSON payloads
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _estimator(args) -> EstimatorConfig:
    method = {"gh": GAUSS_HERMITE, "mc": MONTE_CARLO}[args.estimator]
    return EstimatorConfig(method=method, seed=args.seed)


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_modes(args) -> int:
    family = resolve_problem(args.problem)
    ms = find_modes(
        family.v1_limit,
        family.v2,
        MultistartConfig(box=family.default_box, seed=args.seed),
    )
    _write(_json_dumps(ms.to_json()), args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    family = resolve_problem(args.problem)
    if args.eps is None or not (math.isfinite(args.eps) and args.eps > 0):
        raise ValidationError("--eps must be a positive finite number")
    mu = family.at(args.eps)
    cfg = OptimizerConfig(seed=args.seed, box=family.default_box)
    mode_set = log_z = None
    if args.logz == "quadrature":
        # one mode search, the optimizer's own, for the oracle box and the fit
        mode_set = _locate_modes(mu, cfg)
        log_z = quadrature_normalization(mu, mode_set=mode_set).log_value
    if args.family == "single":
        result = minimize_single(mu, cfg, mode_set=mode_set, log_z=log_z)
    else:
        n = args.n if args.n is not None else 2
        result = minimize_mixture(mu, n, (args.xi1, args.xi2), cfg, mode_set=mode_set,
                                  log_z=log_z)
    doc = result.to_json(verbose=args.verbose)
    if args.estimator == "mc":
        # independent Monte-Carlo check of the optimizer's deterministic value
        est_cfg = _estimator(args)
        if args.family == "single":
            est = kl_single(mu, result.params, result.log_z, est_cfg)
        else:
            est = g_eps(family, args.eps, result.params, result.log_z, est_cfg)
        doc["value_estimate"] = est.to_json()
    _write(_json_dumps(doc), args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _parse_eps_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --eps-list: {exc}") from exc
    if not values:
        raise ValidationError("--eps-list is empty")
    return values


def cmd_sweep(args) -> int:
    family = resolve_problem(args.problem)
    eps_list = _parse_eps_list(args.eps_list)
    cfg = OptimizerConfig(seed=args.seed)
    result = sweep(
        family,
        eps_list,
        kind=args.family,
        cfg=cfg,
        n=args.n,
        xi=(args.xi1, args.xi2),
        logz=args.logz,
        estimator=_estimator(args) if args.estimator == "mc" else None,
    )
    _write(result.to_csv(), args.out)
    if not all(r.converged for r in result.records):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _load_bvm_config(path: str):
    p = Path(path)
    if not p.exists():
        bundled = resources.files("klgauss").joinpath(f"configs/{path}")
        if bundled.is_file():
            doc = json.loads(bundled.read_text())
        else:
            raise ValidationError(f"config file {path!r} not found")
    else:
        doc = json.loads(p.read_text())
    for key in ("M", "variant", "truth", "eps_list", "draws"):
        if key not in doc:
            raise ValidationError(f"bvm config missing {key!r}")
    return doc


def cmd_bvm(args) -> int:
    doc = _load_bvm_config(args.config)
    m = int(doc["M"])
    problem = inverse.EllipticProblem(
        M=m,
        f=np.asarray(doc.get("f", np.ones(m)), dtype=float),
        variant=doc["variant"],
    )
    prior = potential_from_spec(doc.get("prior", {"id": "quadratic"}), m)
    draws = args.draws if args.draws is not None else int(doc["draws"])
    try:
        cfg = inverse.BvMConfig(
            truth=np.asarray(doc["truth"], dtype=float),
            prior=prior,
            eps_list=tuple(doc["eps_list"]),
            draws=draws,
            seed=args.seed if args.seed is not None else int(doc.get("seed", DEFAULT_SEED)),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    result = inverse.bvm_experiment(problem, cfg)
    _write(result.to_csv(), args.out)
    return EXIT_ABORTED if result.any_aborted else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="klgauss",
        description=(
            "Best-KL Gaussian/mixture approximation of concentrating measures"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("-v", "--verbose", action="store_true")

    def estimators(p):
        p.add_argument("--estimator", choices=("gh", "mc"), default="gh")
        p.add_argument("--logz", choices=("laplace", "quadrature"), default="laplace")

    p_modes = sub.add_parser("modes", help="locate modes and Laplace weights")
    p_modes.add_argument("--problem", required=True)
    common(p_modes)
    p_modes.set_defaults(handler=cmd_modes)

    p_approx = sub.add_parser("approx", help="best single/mixture approximation")
    p_approx.add_argument("--problem", required=True)
    p_approx.add_argument("--eps", type=float, required=True)
    p_approx.add_argument("--family", choices=("single", "mixture"), default="single")
    p_approx.add_argument("--n", type=int, default=None)
    p_approx.add_argument("--xi1", type=float, default=0.05)
    p_approx.add_argument("--xi2", type=float, default=1.0)
    common(p_approx)
    estimators(p_approx)
    p_approx.set_defaults(handler=cmd_approx)

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with rate fits (CSV)")
    p_sweep.add_argument("--problem", required=True)
    p_sweep.add_argument("--eps-list", required=True)
    p_sweep.add_argument("--family", choices=("single", "mixture"), default="single")
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--xi1", type=float, default=0.05)
    p_sweep.add_argument("--xi2", type=float, default=1.0)
    common(p_sweep)
    estimators(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_bvm = sub.add_parser("bvm", help="Bernstein-von Mises rate experiment (CSV)")
    p_bvm.add_argument("--config", required=True, help="JSON config path or bundled name")
    p_bvm.add_argument("--draws", type=int, default=None,
                       help="override the config's noise draws per level")
    common(p_bvm)
    # seed None: the config's seed, else DEFAULT_SEED
    p_bvm.set_defaults(handler=cmd_bvm, seed=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, InfeasibleConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateModeError, ModeSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
