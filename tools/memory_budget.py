"""Print the tracemalloc peak, in bytes per voxel, of `register` and of the
`phantom`, `jacobian`, `regions`, `stats` and `classify` commands, and the
peak RSS, in MB, of an untraced `classify`.

Usage:

    python tools/memory_budget.py [--src SRC] > budget.txt

Each probe runs in its own `python` subprocess with SRC (default: the `src`
directory next to this script) on PYTHONPATH. It imports the package,
starts tracemalloc, runs one call and prints the call's traced peak
divided by the grid's voxel count; the RSS probe starts no tracemalloc
and prints the process's ru_maxrss instead. Two trees compare line by
line:

    diff <(python tools/memory_budget.py --src old/src) \\
         <(python tools/memory_budget.py)

The probes:

* register-32, register-64: one `registration.register` with default
  parameters on the weeks 0 and 1 of a seed-7 phantom patient (radius 6)
  at 32^3 and 64^3, as `test_register_peak_memory_per_voxel` runs it;
* phantom-64: `python -m defield.cli phantom` writing one seed-7 64^3
  patient of two weeks (the benchmark's set-up command): its synthesis
  and the .vol writer, which writes one z-slab at a time;
* jacobian-64, regions-64, stats-64: `python -m defield.cli jacobian`,
  `regions` and `stats` on that patient's ground-truth week 0 -> 1 pair,
  each command reading what the one before it wrote. The .vol reader
  fills each field in place, one z-slab at a time; jacobian_map holds
  one x-slab of float64 temporaries next to its float32 result;
* classify-32: `python -m defield.cli classify` on a seed-7 cohort of 3
  patients of 4 weeks at 32^3 (9 week pairs, written by an untraced
  `phantom` run first). Its peak is the last pair's `register` next to
  the earlier pairs' float32 region samples (4 B per interior voxel
  each); the pooled float64 groups are built one at a time afterwards;
* classify-32-w2: the same `classify` with `--workers 2`. Its pairs run
  on two threads of the traced process, so its peak counts two
  registrations in flight at once. With --src naming an older tree whose
  `classify` spread pairs over worker processes, tracemalloc sees only
  the parent process, so that tree's line does not count the pairs;
* classify-32-rss: the same `classify` as classify-32, untraced, in MB of
  peak resident memory (ru_maxrss): the interpreter, the libraries and
  what the allocator keeps of freed memory, which tracemalloc cannot see.
  A change in how large short-lived arrays are allocated can move it
  with no change in the traced peaks.

The traced peaks count numpy's arrays and Python's objects, not the
interpreter or the libraries' own buffers. `register` runs its two halves
on two threads, so its peak moves with their interleaving (about 12 B per
voxel between runs). Each line reads `<probe> <value> <unit>`, the unit
being `B/voxel` for a traced peak and `MB` for classify-32-rss. The exit
code is 1 if a probe fails, after every probe has run. Standard library
only.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REGISTER_PROBE = """
import sys, tracemalloc
from defield.grids import GridGeometry
from defield.phantom import PhantomSpec, synth_cohort
from defield.registration import register
n = int(sys.argv[1])
grid = GridGeometry((n, n, n))
weeks = synth_cohort(PhantomSpec(grid=grid, radius=6.0, seed=7), 1)[0].weeks
tracemalloc.start()
register(weeks[0].volume, weeks[1].volume)
print(tracemalloc.get_traced_memory()[1] / grid.n_voxels)
"""

COMMAND_PROBE = """
import sys, tracemalloc
from defield import cli
n_voxels = int(sys.argv[1])
tracemalloc.start()
code = cli.main(sys.argv[2:])
if code != 0:
    sys.exit(f"exit code {code}")
print(tracemalloc.get_traced_memory()[1] / n_voxels)
"""

RSS_PROBE = """
import resource, sys
from defield import cli
code = cli.main(sys.argv[1:])
if code != 0:
    sys.exit(f"exit code {code}")
# ru_maxrss is in KiB on Linux
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

GRID = 64
PHANTOM = ["phantom", "--out", "phantom", "--grid", str(GRID), "--weeks", "2",
           "--patients", "1", "--seed", "7"]
COMMANDS = [
    ("jacobian", ["jacobian", "--field", "phantom/p00/gt_forward00.vol",
                  "--out", "jac"]),
    ("regions", ["regions", "--mask-prev", "phantom/p00/week00_mask.vol",
                 "--mask-next", "phantom/p00/week01_mask.vol",
                 "--field", "phantom/p00/gt_forward00.vol", "--out", "regions"]),
    ("stats", ["stats", "--samples", "regions/samples.csv", "--out", "stats"]),
]
COHORT_GRID = 32
COHORT = ["phantom", "--out", "cohort", "--grid", str(COHORT_GRID), "--weeks", "4",
          "--patients", "3", "--seed", "7"]
CLASSIFY = ["classify", "--manifest", "cohort/manifest.csv", "--out", "classify"]
CLASSIFY_W2 = ["classify", "--manifest", "cohort/manifest.csv", "--out", "classify-w2",
               "--workers", "2"]
CLASSIFY_RSS = ["classify", "--manifest", "cohort/manifest.csv", "--out", "classify-rss"]


def run(args: list[str], env: dict, cwd: str) -> tuple[str | None, str]:
    """Run python with args; return (stdout's last line, "") on success
    and (None, the reason) on failure."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        lines = (proc.stderr.strip() or f"exit code {proc.returncode}").splitlines()
        return None, lines[-1]
    lines = proc.stdout.strip().splitlines()
    return (lines[-1] if lines else ""), ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the defield package")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    failed = False

    def report(name: str, result: tuple[str | None, str], unit: str = "B/voxel") -> None:
        nonlocal failed
        value, reason = result
        if value is None:
            failed = True
            print(f"{name} failed: {reason}")
        else:
            print(f"{name} {float(value):.1f} {unit}")

    with tempfile.TemporaryDirectory() as workdir:
        for n in (32, 64):
            report(f"register-{n}", run(["-c", REGISTER_PROBE, str(n)], env, workdir))
        made, reason = run(["-c", COMMAND_PROBE, str(GRID ** 3), *PHANTOM], env, workdir)
        report(f"phantom-{GRID}", (made, reason))
        for name, cli_args in COMMANDS:
            result = (run(["-c", COMMAND_PROBE, str(GRID ** 3), *cli_args], env, workdir)
                      if made is not None else (None, f"phantom: {reason}"))
            report(f"{name}-{GRID}", result)
        made, reason = run(["-m", "defield.cli", *COHORT], env, workdir)
        for name, cli_args in ((f"classify-{COHORT_GRID}", CLASSIFY),
                               (f"classify-{COHORT_GRID}-w2", CLASSIFY_W2)):
            result = (run(["-c", COMMAND_PROBE, str(COHORT_GRID ** 3), *cli_args],
                          env, workdir)
                      if made is not None else (None, f"phantom: {reason}"))
            report(name, result)
        result = (run(["-c", RSS_PROBE, *CLASSIFY_RSS], env, workdir)
                  if made is not None else (None, f"phantom: {reason}"))
        report(f"classify-{COHORT_GRID}-rss", result, "MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
