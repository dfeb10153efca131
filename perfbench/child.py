"""One benchmark step in its own process: set-up, a timed stage, or the
traced run.

run.py starts this script with the package sources on the import path and
the OpenMP, OpenBLAS and MKL thread counts set to 1 in the environment.
The step writes one JSON object to the --result file; the package's own
stdout goes wherever run.py sent this process's stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import defield
from spec import WORKLOADS
from traced import run_traced
from workloads import Ops, break_output, check_stage, generate, run_stage


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_setup(args, w) -> dict:
    """Input set i goes to <inputs>/set<i>; every set is generated at
    least once and the first sets again until there were --repeats."""
    times = []
    for r in range(max(args.repeats, w.input_sets)):
        index = r % w.input_sets
        inputs = os.path.join(args.inputs, f"set{index}")
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        generate(w, w.set_seed(args.seed, index), args.grid, inputs)
        times.append(time.perf_counter() - start)
    return {"setup_s": times,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__,
                         "defield": defield.__version__}}


def cmd_stage(args, w) -> dict:
    ops = Ops()
    cpu0, start = cpu_seconds(), time.perf_counter()
    run_stage(w, args.inputs, args.out, ops.run)
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    rss = peak_rss_mb()
    if args.break_check:
        break_output(w, args.inputs, args.out)
    checks = check_stage(w, args.inputs, args.out, ops)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "ops": ops.as_dict(), **checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("setup", "stage", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--grid", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", help="stage or traced output directory")
    parser.add_argument("--untraced-out", help="an untraced stage's output")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--break-check", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    step = {"setup": cmd_setup, "stage": cmd_stage, "traced": run_traced}
    result = step[args.step](args, WORKLOADS[args.workload])
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
