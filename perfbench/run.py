"""Run one klgauss benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Rounds of the workload repeat until the next one would end after
``--seconds``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def timed_setup(name, seed):
    """Import the benchmark and klgauss and build the workload inputs.

    Returns (seconds, workload, seed, inputs), or None for an unknown name.
    """
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        return None
    seed = workload.default_seed if seed is None else seed
    inputs = workload.prepare(seed)
    return time.perf_counter() - t0, workload, seed, inputs


def setup_samples(args, seed, first):
    """Set-up time of this process plus SETUP_SAMPLES - 1 fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def round_seed(seed, index):
    """The seed of round ``index``: the run's own seed first, then seeds
    derived from it, so that a run's median averages over inputs as well as
    over machine noise."""
    if index == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Rounds:
    """Runs rounds of one workload and collects their checks."""

    def __init__(self, workload, seed, first_inputs, verdict):
        self.workload = workload
        self.seed = seed
        self.first_inputs = first_inputs
        self.verdict = verdict

    def inputs(self, index):
        if index == 0:
            return self.first_inputs
        return self.workload.prepare(round_seed(self.seed, index))

    def run(self, inputs, tracer=None):
        """One round: the timed program call, then the untimed checks."""
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            outputs = self.workload.execute(inputs)
        else:
            with tracer:
                outputs = self.workload.execute(inputs)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.verdict.merge(self.workload.verify(inputs, outputs))
        return wall, cpu


def measure(rounds, seconds):
    """Untraced rounds until the next would end after ``seconds``, and at
    least MIN_ROUNDS."""
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = rounds.run(rounds.inputs(len(walls)))
        walls.append(wall)
        cpus.append(cpu)
        if (len(walls) >= MIN_ROUNDS
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return walls, cpus


def measure_traced(rounds, seconds, trace_path):
    """Pairs of an untraced and a traced round on the same inputs until the
    next pair would end after ``seconds``.

    Counts come from the first traced round, which runs on the run's own
    seed; times are medians over the traced rounds.  The first traced
    round's spans are written to ``trace_path``.
    """
    import tracer as tracing

    start = time.perf_counter()
    plain, traced, layers = [], [], []
    while True:
        inputs = rounds.inputs(len(layers))
        plain.append(rounds.run(inputs)[0])
        t = tracing.Tracer()
        traced.append(rounds.run(inputs, tracer=t)[0])
        layers.append(tracing.layer_metrics(t.spans))
        if len(layers) == 1:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            t.write(trace_path)
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(lv[name][0] for lv in layers)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    print(f"# traced rounds {len(traced)}: wall_s {[round(w, 4) for w in traced]}, "
          f"untraced {[round(w, 4) for w in plain]}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "klgauss" / "__init__.py").is_file():
        print(f"error: no klgauss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    setup = timed_setup(args.workload, args.seed)
    if setup is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    first, workload, seed, inputs = setup
    if args.setup_probe:
        print(repr(first))
        return 0

    import checks
    import workloads

    verdict = checks.Verdict()
    rounds = Rounds(workload, seed, inputs, verdict)
    if args.trace:
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}-seed{seed}.csv.gz"
        metrics = measure_traced(rounds, args.seconds, trace_path)
        for name, base in (("optimizer.converged_ratio", "optimizer.starts"),
                           ("quadrature.grids_per_logz", "measure.oracle_logz_calls"),
                           ("inverse.draw_s", "inverse.draws"),
                           ("gamma.level_s", "gamma.levels")):
            print(f"# {name} = {metrics[name][0]:.6g} over {base} = {metrics[base][0]}")
        print(f"# spans written to {trace_path}")
    else:
        setup_times = setup_samples(args, seed, first)
        walls, cpus = measure(rounds, args.seconds)
        print(f"# rounds {len(walls)}: wall_s {[round(w, 4) for w in walls]}, "
              f"cpu_s {[round(c, 4) for c in cpus]}, "
              f"setup_s {[round(s, 4) for s in setup_times]}")
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for problem in verdict.problems[:20]:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
