import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klgauss
from klgauss.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- modes -----------------------------------------------------------------------


def test_modes_double_well(capsys):
    code, out, _ = run_cli(capsys, "modes", "--problem", "double-well")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(sorted(m[0] for m in doc["modes"]), [-1.0, 1.0], atol=1e-6)
    assert np.allclose(doc["beta"], [0.5, 0.5])


def test_modes_quadratic(capsys):
    code, out, _ = run_cli(capsys, "modes", "--problem", "quadratic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["modes"]) == 1
    assert abs(doc["modes"][0][0]) <= 1e-6


def test_modes_malformed_problem_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "modes", "--problem", str(bad))
    assert code == 1
    assert err


def test_modes_unknown_problem(capsys):
    code, _, err = run_cli(capsys, "modes", "--problem", "no-such-problem")
    assert code == 1


def test_modes_degenerate_exit_code(tmp_path, capsys):
    # a flat dominant potential has no SPD Hessian anywhere
    doc = {
        "name": "flat",
        "dim": 1,
        "v1": {"id": "zero", "params": {}},
        "v2": {"id": "zero", "params": {}},
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "modes", "--problem", str(path))
    assert code == 2
    assert err


# --- approx -----------------------------------------------------------------------


def test_approx_quadratic_single(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--problem", "quadratic", "--eps", "0.01",
        "--family", "single",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] <= 1e-8
    assert doc["converged"] is True


def test_approx_double_well_mixture(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--problem", "double-well", "--eps", "0.001",
        "--family", "mixture", "--n", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] <= 0.05
    assert np.allclose(doc["weights"], [0.5, 0.5], atol=1e-2)


def test_approx_infeasible_xi(capsys):
    code, _, err = run_cli(
        capsys, "approx", "--problem", "double-well", "--eps", "0.01",
        "--family", "mixture", "--n", "2", "--xi1", "0.6",
    )
    assert code == 1
    assert "xi1" in err


@pytest.mark.parametrize("key", ["bogus", "gauss_newton"])
def test_approx_rejects_unknown_elliptic_params(key, tmp_path, capsys):
    # an elliptic spec takes M, f, truth and eta; any other key is a
    # validation error naming it, not a traceback
    doc = {
        "name": "ell",
        "dim": 1,
        "v1": {"id": "elliptic-exp", "params": {"M": 1, key: 1}},
        "v2": {"id": "quadratic", "params": {}},
    }
    spec = tmp_path / "ell.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "approx", "--problem", str(spec), "--eps", "0.01")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize(
    "v1, v2",
    [
        ({"id": "double-well", "params": {"bogus": 1}}, {"id": "zero"}),
        ({"id": "double-well"}, {"id": "quadratic", "params": {"bogus": 1}}),
    ],
    ids=["v1", "v2"],
)
def test_approx_rejects_unknown_analytic_params(v1, v2, tmp_path, capsys):
    # an analytic spec takes its builder's arguments; any other key is a
    # validation error naming it, not a TypeError traceback
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"name": "bad", "dim": 1, "v1": v1, "v2": v2}))
    code, out, err = run_cli(capsys, "approx", "--problem", str(spec), "--eps", "0.01")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "'bogus'" in err


@pytest.mark.parametrize("eps", ["1e-3", "1e-4"])
def test_approx_quadrature_log_z_exact_on_a_3d_gaussian(eps, tmp_path, capsys):
    # the target is exactly Gaussian, so the best single Gaussian is the
    # target and its KL is 0; the oracle's box, sized by the posterior's
    # width, makes its log Z exact (a floor of radius 2 gave -0.580 and
    # +1.525)
    spec = tmp_path / "quadratic-3d.json"
    spec.write_text(json.dumps({"name": "quadratic-3d", "dim": 3,
                                "v1": {"id": "quadratic"}, "v2": {"id": "zero"}}))
    code, out, _ = run_cli(capsys, "approx", "--problem", str(spec), "--eps", eps,
                           "--logz", "quadrature")
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-10


@pytest.mark.parametrize("argv", [
    ("--problem", "double-well"),
    ("--problem", "double-well", "--family", "mixture", "--n", "2"),
    ("--problem", "elliptic-exp"),
], ids=["double-well-single", "double-well-mixture", "elliptic-exp"])
def test_approx_quadrature_finds_the_modes_once(argv, capsys, monkeypatch):
    # the oracle box and the optimizer share the one mode search, run with
    # the family's box and --seed
    from klgauss import measure, optimizer

    calls = []
    find_modes = measure.find_modes

    def counted(*args, **kwargs):
        calls.append(args[2].seed)
        return find_modes(*args, **kwargs)

    monkeypatch.setattr(measure, "find_modes", counted)
    monkeypatch.setattr(optimizer, "find_modes", counted)
    code, _, _ = run_cli(capsys, "approx", *argv, "--eps", "0.01", "--logz", "quadrature",
                         "--seed", "5")
    assert code == 0
    assert calls == [5]


def test_approx_bad_eps(capsys):
    code, _, _ = run_cli(
        capsys, "approx", "--problem", "quadratic", "--eps", "-1.0",
    )
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("approx", "--problem", "double-well", "--eps", "nan"),
    ("approx", "--problem", "double-well", "--eps", "inf"),
    ("sweep", "--problem", "double-well", "--eps-list", "0.1,nan"),
    ("sweep", "--problem", "double-well", "--eps-list", "inf,0.1"),
    ("approx", "--problem", "double-well", "--eps", "0.01", "--family", "mixture", "--xi2", "nan"),
    ("approx", "--problem", "double-well", "--eps", "0.01", "--family", "mixture", "--xi2", "inf"),
])
def test_non_finite_eps_and_xi2_are_validation_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


# --- sweep ------------------------------------------------------------------------


def test_sweep_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = (
        "sweep", "--problem", "double-well", "--eps-list", "1e-1,3e-2,1e-2",
        "--family", "single", "--seed", "7",
    )
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "epsilon,value,limit_value,gap,mode_dist,weight_dist,converged"


def test_modes_and_approx_byte_deterministic(tmp_path, capsys):
    for args in (
        ("modes", "--problem", "shifted-double-well"),
        ("approx", "--problem", "quadratic", "--eps", "0.1", "--family", "single"),
    ):
        a, b = tmp_path / "x.json", tmp_path / "y.json"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_eps_list(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--problem", "quadratic", "--eps-list", "1e-2,not-a-number",
    )
    assert code == 1


# --- bvm --------------------------------------------------------------------------


def bvm_config(tmp_path, draws, seed=11):
    doc = {
        "M": 1,
        "variant": "exp",
        "f": [100.0],
        "truth": [0.0],
        "prior": {"id": "quadratic", "params": {}},
        "eps_list": [1e-2, 3e-3],
        "draws": draws,
        "seed": seed,
    }
    if seed is None:
        del doc["seed"]
    path = tmp_path / "bvm.json"
    path.write_text(json.dumps(doc))
    return path


def test_bvm_small_config_deterministic(tmp_path, capsys):
    cfg = bvm_config(tmp_path, draws=30)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run_cli(capsys, "bvm", "--config", str(cfg), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "bvm", "--config", str(cfg), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "epsilon,mean_kl,stderr_kl,failures,d_tv_violations"
    assert len(lines) == 4


def test_bvm_zero_draws_rejected(tmp_path, capsys):
    cfg = bvm_config(tmp_path, draws=0)
    code, _, err = run_cli(capsys, "bvm", "--config", str(cfg))
    assert code == 1
    assert "draws" in err


def test_bvm_draws_flag_overrides_config(tmp_path, capsys):
    cfg = bvm_config(tmp_path, draws=100)
    out = tmp_path / "short.csv"
    code, _, _ = run_cli(
        capsys, "bvm", "--config", str(cfg), "--draws", "30", "--out", str(out)
    )
    assert code == 0
    code, _, err = run_cli(capsys, "bvm", "--config", str(cfg), "--draws", "0")
    assert code == 1


def test_bvm_seed_flag_overrides_config(tmp_path, capsys):
    def run(cfg, *flags):
        code, out, _ = run_cli(capsys, "bvm", "--config", str(cfg), *flags)
        assert code == 0
        return out

    cfg = bvm_config(tmp_path, draws=30)
    own = run(cfg)
    assert run(cfg, "--seed", "11") == own
    assert run(cfg, "--seed", "5") != own
    # without a seed in the config, the default seed
    unseeded = bvm_config(tmp_path, draws=30, seed=None)
    assert run(unseeded) == run(unseeded, "--seed", "1234") != own


def test_bvm_missing_config_rejected(capsys):
    code, _, err = run_cli(capsys, "bvm", "--config", "no-such-config.json")
    assert code == 1
    assert "not found" in err


def test_bvm_bundled_config_resolves():
    from klgauss.cli import _load_bvm_config

    doc = _load_bvm_config("bvm-m1.json")
    assert doc["M"] == 1 and doc["variant"] == "exp"
    assert doc["draws"] == 100


@pytest.mark.parametrize("argv", [
    ("approx", "--problem", "double-well"),  # --eps missing
    ("approx", "--problem", "double-well", "--eps", "0.01", "--family", "foo"),
    ("modes", "--problem", "double-well", "--logz", "quadrature"),  # not a modes flag
    ("bvm", "--config", "bvm-m1.json", "--jobs", "2"),  # no such flag
    ("no-such-command",),
])
def test_usage_errors_exit_1(argv, capsys):
    # a usage error is a validation error (1), not a degenerate problem (2)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["approx", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--estimator" in capsys.readouterr().out


def test_exit_codes_documented():
    from klgauss import cli

    assert (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_DEGENERATE,
            cli.EXIT_NOT_CONVERGED, cli.EXIT_ABORTED) == (0, 1, 2, 3, 4)


def test_approx_nonconvergence_exit_code(capsys, monkeypatch):
    # exit 3 with the result still printed
    import klgauss.cli as cli
    from klgauss.optimizer import minimize_single as real_minimize

    def exhausted(mu, cfg=None, **kwargs):
        from klgauss.optimizer import OptimizerConfig

        return real_minimize(
            mu, OptimizerConfig(max_iters=1, grad_tol=1e-13, multistart=1), **kwargs
        )

    monkeypatch.setattr(cli, "minimize_single", exhausted)
    code, out, _ = run_cli(
        capsys, "approx", "--problem", "double-well", "--eps", "0.01",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False


def test_bvm_aborted_level_exit_code(tmp_path, capsys, monkeypatch):
    from klgauss import inverse

    def always_aborts(p, cfg, jobs=1, **kwargs):
        level = inverse.BvMLevel(
            epsilon=cfg.eps_list[0], mean_kl=math.nan, stderr_kl=math.nan,
            n_ok=0, failures=cfg.draws, pinsker_violations=0, tv_violations=0,
            aborted=True, kl_values=np.array([]), tv_values=np.array([]),
        )
        return inverse.BvMResult(levels=[level], rate_fit=None)

    import klgauss.cli as cli

    monkeypatch.setattr(cli.inverse, "bvm_experiment", always_aborts)
    cfg = bvm_config(tmp_path, draws=30)
    code, _, _ = run_cli(capsys, "bvm", "--config", str(cfg))
    assert code == 4


def test_approx_mc_estimator_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "--problem", "double-well", "--eps", "0.01",
        "--family", "mixture", "--n", "2", "--estimator", "mc",
        "--logz", "quadrature",
    )
    assert code == 0
    doc = json.loads(out)
    est = doc["value_estimate"]
    assert est["method"] == "monte-carlo"
    assert abs(est["value"] - doc["value"]) <= 3 * est["stderr"] + 1e-3


def read_sweep_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            break
        cells = ln.split(",")
        rows.append({k: v for k, v in zip(header, cells)})
    return rows


def test_sweep_quadratic_end_to_end(tmp_path, capsys):
    out = tmp_path / "quad.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--problem", "quadratic",
        "--eps-list", "1e-1,1e-2,1e-3,1e-4", "--out", str(out),
    )
    assert code == 0
    for row in read_sweep_csv(out):
        assert float(row["value"]) <= 1e-6
        assert row["converged"] == "true"


def test_sweep_mixture_end_to_end(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--problem", "double-well",
        "--eps-list", "1e-1,1e-2,1e-3,1e-4", "--family", "mixture", "--n", "2",
        "--logz", "quadrature", "--out", str(out),
    )
    assert code == 0
    rows = read_sweep_csv(out)
    last = rows[-1]
    assert float(last["epsilon"]) == 1e-4
    assert float(last["value"]) <= 0.02
    assert float(last["weight_dist"]) <= 0.02


def test_sweep_mc_estimator_runs(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--problem", "double-well", "--eps-list", "1e-1,3e-2",
        "--family", "single", "--estimator", "mc", "--out", str(out),
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


def cli_bytes_per_thread_count(tmp_path, argv):
    """The --out bytes of ``klgauss argv`` run under OPENBLAS_NUM_THREADS 1
    and 2, each in its own process, because OpenBLAS reads its thread count
    once, at load time."""
    src = str(Path(klgauss.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", "import sys; from klgauss.cli import main; sys.exit(main())",
             *argv, "--out", str(out)],
            env=env, check=True, timeout=300,
        )
        outputs.append(out.read_bytes())
    return outputs


def test_sweep_mc_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = cli_bytes_per_thread_count(tmp_path, [
        "sweep", "--problem", "double-well", "--eps-list", "0.1,0.01,0.001",
        "--family", "mixture", "--n", "2", "--logz", "quadrature", "--estimator", "mc",
    ])
    assert outputs[0] == outputs[1]


def test_bvm_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each draw's Simpson resolution is a discrete choice made from its
    # floating-point posterior width
    outputs = cli_bytes_per_thread_count(tmp_path, ["bvm", "--config", "bvm-m1.json", "--draws", "30"])
    assert outputs[0] == outputs[1]


# --- imports ----------------------------------------------------------------------


def test_modes_and_bvm_run_without_scipy(tmp_path):
    # scipy is imported on first use, by BFGS and the Gaussian triangular
    # solves; the modes and the BvM panel come from the batched Newton and
    # Simpson, so a fresh process that runs only them never loads it
    script = """if True:
        import json, sys
        import klgauss
        from klgauss import cli
        codes = [cli.main(["modes", "--problem", "double-well"]),
                 cli.main(["bvm", "--config", "bvm-m1.json", "--draws", "30", "--out", sys.argv[1]])]
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        klgauss.minimize_single(klgauss.builtin_problem("double-well").at(0.01))
        print(json.dumps([codes, loaded, "scipy.optimize" in sys.modules]))
    """
    src = str(Path(klgauss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "bvm.csv")],
                         env=env, check=True, timeout=300, capture_output=True, text=True)
    codes, loaded, bfgs_loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []
    assert bfgs_loaded
