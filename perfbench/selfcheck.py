"""Fast self-check of the benchmark itself, on a 24^3 grid.

    python3 perfbench/selfcheck.py        (from the root of a checkout)

Runs every workload once untraced and once traced, and asserts that each
run exits 0, passes its output checks and emits every metric named in
BENCHMARK.json with its unit, and that the untraced summary prints every
end-to-end figure. Then it corrupts one output per stage kind and asserts
that the failed check is counted in failed_frac and makes the exit code
non-zero, and that a directory holding only the benchmark exits non-zero
without printing a result. Takes about a minute on 2 CPUs.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import INFO_UNITS, WORKLOADS, metric_units  # noqa: E402

GRID = "24"
RUN = os.path.join(HERE, "run.py")


def bench(workload: str, trace: int, *extra: str, cwd=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--grid", GRID, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def summary(lines: list[str]) -> dict[str, tuple[float, str]]:
    """`name = value unit` lines printed before the result."""
    out = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep:
            value, unit = rest.split(" ", 1)
            out[name] = (float(value), unit)
    return out


def check_metrics(result: dict, units: dict[str, str]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    for name, unit in units.items():
        entry = metrics[name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)
        assert math.isfinite(entry["value"]), (name, entry)


def main() -> int:
    root = os.getcwd()
    e2e_units, layer_units = metric_units(root)
    for name, w in WORKLOADS.items():
        for trace, units in ((0, e2e_units), (1, layer_units)):
            code, lines, err = bench(name, trace)
            assert code == 0, (name, trace, err[-2000:])
            result = result_of(lines)
            assert result["correct"] and result["failed"] == 0, lines
            check_metrics(result, units)
            printed = summary(lines)
            expected = dict(e2e_units, failed_frac=INFO_UNITS["failed_frac"],
                            decisions_correct=INFO_UNITS["decisions_correct"])
            if trace or w.stage == "chain":
                expected["jac_region_err"] = INFO_UNITS["jac_region_err"]
            if trace:
                expected["field_epe_vox"] = INFO_UNITS["field_epe_vox"]
            for metric, unit in expected.items():
                assert printed.get(metric, (0, None))[1] == unit, (name, trace, metric)
            print(f"ok   {name} trace {trace}: {len(result['metrics'])} metrics")

    for name in ("cohort-64", "stats-chain-64"):
        code, lines, _ = bench(name, 0, "--break-check")
        result = result_of(lines)
        assert code != 0 and not result["correct"] and result["failed"] >= 1, lines
        assert summary(lines)["failed_frac"][0] > 0, lines
        print(f"ok   {name}: a corrupted output fails its check "
              f"({result['failed']} of {result['attempted']})")

    bare = os.path.join(root, ".bench_work", f"bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        code, lines, _ = bench("cohort-40", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not lines, (code, lines)
    print("ok   a directory without the package exits non-zero, no result")
    print("selfcheck PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
