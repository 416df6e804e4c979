"""Reference figures quoted in README.md, one fresh process per case.

    python3 perfbench/figures.py

Cases: bvm-m1 (seed 20) with jobs=1 and jobs=2, each with the default
OpenBLAS threads and with OPENBLAS_NUM_THREADS=1; posterior-m4 (seed 1234)
with Gauss-Hermite order 20 and 10.  Each case runs once and prints its
wall and process CPU seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = [
    ("bvm-m1", {"jobs": 1}, {}),
    ("bvm-m1", {"jobs": 2}, {}),
    ("bvm-m1", {"jobs": 1}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("bvm-m1", {"jobs": 2}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("posterior-m4", {"gh_order": 20}, {}),
    ("posterior-m4", {"gh_order": 10}, {}),
]


def run_case(name, option):
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from klgauss import inverse, optimizer

    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(workload.default_seed)
    w0, c0 = time.perf_counter(), time.process_time()
    if name == "bvm-m1":
        inverse.bvm_experiment(inputs["problem"], inputs["cfg"], jobs=option["jobs"])
    else:
        cfg = dataclasses.replace(inputs["cfg"], gh_order=option["gh_order"])
        optimizer.minimize_single(inputs["measure"], cfg, mode_set=inputs["mode_set"])
    return time.perf_counter() - w0, time.process_time() - c0


def main():
    if len(sys.argv) == 3:
        wall, cpu = run_case(sys.argv[1], json.loads(sys.argv[2]))
        print(json.dumps({"wall_s": wall, "cpu_s": cpu}))
        return 0
    for name, option, env in CASES:
        out = subprocess.run(
            [sys.executable, __file__, name, json.dumps(option)],
            env={**os.environ, **env}, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        label = " ".join([name, *(f"{k}={v}" for k, v in option.items()),
                          *(f"{k}={v}" for k, v in env.items())])
        print(f"{label}: wall {result['wall_s']:.2f} s, cpu {result['cpu_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
