"""Seeded offline benchmark of the defield pipeline.

    python3 perfbench/run.py --workload cohort-40 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The workload's inputs are phantom
volumes generated from --seed; the package sees only those files. Each
step runs in its own child process (set-up, every timed repetition of the
stage, the traced run) with the package sources on its import path and
the OpenMP, OpenBLAS and MKL thread counts set to 1 in its environment.

Set-up runs SETUP_REPEATS times. The timed stage runs once on each of the
workload's input sets (independent seeded inputs), then repeats while
another repetition fits in --seconds. Medians are reported. With --trace 1
the stage runs once, on input set 0, a traced run follows, and the
per-layer metrics are reported instead of the end-to-end ones. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed stage or output
check makes the exit code 1; a checkout without the package sources
exits 2 and prints no result. Every result, with its provenance, is also
written under .bench_results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import INFO_UNITS, WORKLOADS, metric_units  # noqa: E402

SETUP_REPEATS = 3
# every run, the first included, must end within this many seconds
RUN_BUDGET_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class StepFailed(Exception):
    pass


class Runner:
    """Starts child.py steps, each in its own process, and waits for them."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV,
                        PYTHONPATH=os.path.join(root, "src"))
        self.steps = 0

    def step(self, name: str, *args: str) -> dict:
        self.steps += 1
        result = os.path.join(self.workdir, f"step{self.steps}-{name}.json")
        log = os.path.join(self.workdir, f"step{self.steps}-{name}.log")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise StepFailed(f"{name}: no time left in the run budget")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), name,
               *args, "--result", result]
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                raise StepFailed(f"{name}: killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise StepFailed(f"{name}: exit code {proc.returncode}\n{tail}")
        with open(result) as fh:
            return json.load(fh)


def provenance(args, versions: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "grid": args.grid,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "versions": versions,
            "thread_env": {k: os.environ.get(k) for k in
                           (*THREAD_ENV, "DEFIELD_THREADS")},
            "child_thread_env": THREAD_ENV}


def run(args, root: str, workdir: str) -> dict:
    w = WORKLOADS[args.workload]
    grid = args.grid or w.grid
    runner = Runner(root, workdir, time.monotonic() + RUN_BUDGET_S)
    inputs = os.path.join(workdir, "inputs")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--grid", str(grid)]

    setup = runner.step("setup", *common, "--inputs", inputs,
                        "--repeats", str(SETUP_REPEATS))
    # the traced run needs one untraced repetition, on input set 0
    sets = 1 if args.trace else w.input_sets
    reps = []
    attempted = failed = 0
    failures = {}
    extra = ["--break-check"] if args.break_check else []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        out = os.path.join(workdir, f"stage{len(reps)}")
        set_dir = os.path.join(inputs, f"set{len(reps) % sets}")
        rep = runner.step("stage", *common, "--inputs", set_dir, "--out", out,
                          *extra)
        reps.append(rep)
        attempted += rep["ops"]["attempted"]
        failed += rep["ops"]["failed"]
        failures.update(rep["ops"]["failures"])
        # every input set once, then repeat only while another
        # repetition of this length still fits
        now = time.monotonic()
        fits = now - start + (now - began) <= args.seconds
        if len(reps) >= sets and (args.trace or not fits):
            break

    wall = statistics.median(r["wall_s"] for r in reps)
    e2e = {
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "pairs_per_s": w.pairs() / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    info = {
        "failed_frac": failed / attempted,
        "decisions_correct": statistics.median(r["decisions_correct"] for r in reps),
    }
    if "jac_region_err" in reps[0]:
        info["jac_region_err"] = statistics.median(r["jac_region_err"] for r in reps)

    layers = None
    traced = None
    if args.trace:
        traced = runner.step("traced", *common,
                             "--inputs", os.path.join(inputs, "set0"), "--out",
                             os.path.join(workdir, "traced"),
                             "--untraced-out", os.path.join(workdir, "stage0"),
                             "--spans", args.spans_path)
        attempted += traced["ops"]["attempted"]
        failed += traced["ops"]["failed"]
        failures.update({f"traced {k}": v for k, v in traced["ops"]["failures"].items()})
        layers = dict(traced["metrics"])
        layers["trace.overhead_s"] = traced["traced_wall_s"] - wall
        info["failed_frac"] = failed / attempted
        info["field_epe_vox"] = layers["registration.field_epe_vox"]
        info["jac_region_err"] = layers["defanalysis.jac_region_err"]

    return {"provenance": provenance(args, setup["versions"]),
            "setup_s_runs": setup["setup_s"], "stage_runs": reps,
            "traced": traced, "end_to_end": e2e, "info": info,
            "per_layer": layers, "attempted": attempted, "failed": failed,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int, default=None,
                        help="override the workload's grid (self-check only)")
    parser.add_argument("--break-check", action="store_true",
                        help="corrupt one output so its check fails (self-check only)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "defield", "__init__.py")):
        print(f"no package sources at {os.path.join(root, 'src', 'defield')}; "
              "run from the root of a defield checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units(root)
    results = os.path.join(root, ".bench_results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.spans_path = os.path.join(results, f"spans-{tag}.json")
    workdir = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = run(args, root, workdir)
    except StepFailed as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} nproc {prov['nproc']} "
          f"versions {json.dumps(prov['versions'], sort_keys=True)} "
          f"child threads {json.dumps(THREAD_ENV, sort_keys=True)}")
    units = {**e2e_units, **INFO_UNITS}
    for name, value in {**record["end_to_end"], **record["info"]}.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for op, reason in sorted(record["failures"].items()):
        print(f"FAILED {op}: {reason}")
    values = record["per_layer"] if args.trace else record["end_to_end"]
    chosen = layer_units if args.trace else e2e_units
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in chosen.items()}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
