"""The benchmark's workloads and metric units (standard library only, so
that run.py can start without the package or numpy)."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    weeks: int
    # (phantom mode, patients, RECIST label, seed offset)
    groups: tuple[tuple[str, int, str, int], ...]
    stage: str  # "classify" or "chain"
    # independent input sets per run, each from its own seed; the run
    # reports the median over them, which damps the seed-to-seed spread
    input_sets: int = 1

    @staticmethod
    def radius(grid: int) -> float:
        # 12 voxels, the phantom default; small self-check grids scale it
        # down to keep the phantom's radius < dim / 3 rule
        return min(12.0, round(0.3 * grid, 1))

    def pairs(self) -> int:
        return sum(n for _, n, _, _ in self.groups) * (self.weeks - 1)

    @staticmethod
    def set_seed(seed: int, index: int) -> int:
        # far apart from the phantom's own per-patient offsets (+1000 each)
        return seed + 100_003 * index


WORKLOADS = {
    "cohort-40": Workload("cohort-40", 40, 4,
                          (("shrink", 2, "PR", 0), ("grow", 1, "PD", 500)),
                          "classify", input_sets=2),
    "cohort-64": Workload("cohort-64", 64, 3, (("shrink", 1, "PR", 0),),
                          "classify"),
    "stats-chain-64": Workload("stats-chain-64", 64, 4,
                               (("shrink", 1, "PR", 0),), "chain"),
}

# reported beside the end-to-end metrics but not gated: failed_frac is 0
# on a correct run, the accuracy figures need the traced run's fields on
# the cohort workloads, and decisions_correct is a property of the seed code
INFO_UNITS = {"failed_frac": "fraction", "decisions_correct": "fraction",
              "field_epe_vox": "voxels", "jac_region_err": "1"}


def metric_units(root: str) -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})
