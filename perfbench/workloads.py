"""Workload definitions: input generation, the timed stage, output checks.

Imported only by child.py, which runs in a process whose import path holds
the package sources. Every workload generates its inputs with the
package's own ``phantom`` subcommand and then drives the package through
its public CLI entry point, ``defield.cli.main``.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from defield import cli, defanalysis, volio
from defield.cohort import Decision, RegionMeans, classify
from defield.defanalysis import (
    REGIONS,
    collect_samples,
    jacobian_map,
    partition_regions,
)
from defield.grids import warp_mask
from spec import Workload

# acceptance criterion 3: mean endpoint error below half a voxel on the
# phantom's intensity support (source intensity above 0.45)
EPE_BOUND_VOX = 0.5
EPE_SUPPORT_LEVEL = 0.45
# stats-chain: region means within 2% of the analytic Jacobian mean
JAC_REL_BOUND = 0.02
BOOTSTRAP_B = 1000
# the decision each phantom mode should receive on the full course
EXPECTED = {"shrink": Decision.PR_CLASSIFIED.value, "grow": Decision.NO_DECISION.value}
LABEL_CODES = {"U": defanalysis.LABEL_U, "R": defanalysis.LABEL_R,
               "G": defanalysis.LABEL_G}


class Ops:
    """Stage invocations attempted and failed, with the reason for each
    failure. A failed output check fails the invocation it checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def run(self, op_id: str, argv: list[str]) -> bool:
        self.attempted += 1
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a counted failure, not ours
            self.fail(op_id, f"raised {type(exc).__name__}: {exc}")
            return False
        if code != 0:
            self.fail(op_id, f"exit code {code}")
            return False
        return True

    def fail(self, op_id: str, reason: str) -> None:
        self.failures.setdefault(op_id, reason)

    def check(self, op_id: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op_id, reason)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures}


# ----------------------------------------------------------------------
# inputs

def generate(w: Workload, seed: int, grid: int, outdir: str,
             phantom_main=None) -> None:
    """Phantom volumes, masks and ground truth for every group, plus one
    manifest whose patient ids are prefixed with the phantom mode.
    phantom_main stands in for cli.main in the traced run."""
    phantom_main = phantom_main or cli.main
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for mode, patients, recist, offset in w.groups:
        sub = os.path.join(outdir, mode)
        code = phantom_main([
            "phantom", "--out", sub, "--mode", mode,
            "--patients", str(patients), "--grid", str(grid),
            "--radius", str(w.radius(grid)), "--weeks", str(w.weeks),
            "--seed", str(seed + offset), "--recist", recist])
        if code != 0:
            raise RuntimeError(f"phantom {mode} exited {code}")
        with open(os.path.join(sub, "manifest.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                row["patient_id"] = f"{mode}-{row['patient_id']}"
                for key in ("volume_path", "mask_path"):
                    row[key] = f"{mode}/{row[key]}"
                rows.append(row)
    with open(os.path.join(outdir, "manifest.csv"), "w", newline="\n") as fh:
        fh.write("patient_id,week,volume_path,mask_path,recist\n")
        for r in rows:
            fh.write(f"{r['patient_id']},{r['week']},{r['volume_path']},"
                     f"{r['mask_path']},{r['recist']}\n")


@dataclass(frozen=True)
class Pair:
    patient_id: str
    index: int
    volume_prev: str
    volume_next: str
    mask_prev: str
    mask_next: str
    gt_field: str
    gt_jacobian: str


def pairs(inputs: str) -> list[Pair]:
    """Consecutive week pairs of the manifest, with their ground truth."""
    weeks: dict[str, list[dict]] = {}
    with open(os.path.join(inputs, "manifest.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            weeks.setdefault(row["patient_id"], []).append(row)
    out = []
    for pid, rows in weeks.items():
        rows.sort(key=lambda r: int(r["week"]))
        for k in range(len(rows) - 1):
            a, b = rows[k], rows[k + 1]
            pdir = os.path.dirname(os.path.join(inputs, a["volume_path"]))
            out.append(Pair(pid, k,
                            os.path.join(inputs, a["volume_path"]),
                            os.path.join(inputs, b["volume_path"]),
                            os.path.join(inputs, a["mask_path"]),
                            os.path.join(inputs, b["mask_path"]),
                            os.path.join(pdir, f"gt_forward{k:02d}.vol"),
                            os.path.join(pdir, f"gt_jacobian{k:02d}.vol")))
    return out


# ----------------------------------------------------------------------
# the timed stage

def classify_argv(inputs: str, out: str) -> list[str]:
    return ["classify", "--manifest", os.path.join(inputs, "manifest.csv"),
            "--out", out, "--workers", "1"]


def chain_argvs(pair: Pair, out: str) -> list[tuple[str, list[str]]]:
    pdir = os.path.join(out, f"{pair.patient_id}-{pair.index}")
    return [
        ("jacobian", ["jacobian", "--field", pair.gt_field,
                      "--out", os.path.join(pdir, "jac")]),
        ("regions", ["regions", "--mask-prev", pair.mask_prev,
                     "--mask-next", pair.mask_next, "--field", pair.gt_field,
                     "--week", str(pair.index),
                     "--out", os.path.join(pdir, "regions")]),
        ("stats", ["stats", "--samples",
                   os.path.join(pdir, "regions", "samples.csv"),
                   "--out", os.path.join(pdir, "stats"),
                   "--bootstrap-b", str(BOOTSTRAP_B)]),
    ]


def op_id(pair: Pair, stage: str) -> str:
    return f"{stage}:{pair.patient_id}:{pair.index}"


def run_stage(w: Workload, inputs: str, out: str, run) -> None:
    """The timed stage: classify, or jacobian -> regions -> stats per pair.
    run(op_id, argv) invokes one CLI stage."""
    if w.stage == "classify":
        run("classify", classify_argv(inputs, out))
        return
    for pair in pairs(inputs):
        for stage, argv in chain_argvs(pair, out):
            run(op_id(pair, stage), argv)


# ----------------------------------------------------------------------
# output checks

def break_output(w: Workload, inputs: str, out: str) -> None:
    """Corrupt one output so that its check must fail (self-check only)."""
    if w.stage == "classify":
        path = os.path.join(out, "report.json")
        with open(path) as fh:
            report = json.load(fh)
        report["ordering"]["t_stats"]["U"]["R"] += 1.0
    else:
        pair = pairs(inputs)[0]
        path = os.path.join(out, f"{pair.patient_id}-{pair.index}",
                            "stats", "stats.json")
        with open(path) as fh:
            report = json.load(fh)
        report["regions"]["U"]["mean"] += 1e-3
    with open(path, "w") as fh:
        json.dump(report, fh)


def decisions_correct(decisions: dict[str, str]) -> float:
    """Share of patients whose full-course decision matches their mode."""
    hits = [EXPECTED[pid.split("-", 1)[0]] == d for pid, d in decisions.items()]
    return sum(hits) / len(hits)


def check_classify(inputs: str, out: str, ops: Ops) -> dict:
    path = os.path.join(out, "report.json")
    if not os.path.exists(path):
        ops.fail("classify", "report.json missing")
        return {"decisions_correct": 0.0}
    with open(path) as fh:
        report = json.load(fh)
    expected_ids = {p.patient_id for p in pairs(inputs)}
    got = {p["patient_id"]: p for p in report["patients"]}
    ops.check("classify", set(got) == expected_ids,
              f"patients {sorted(got)} != {sorted(expected_ids)}")
    for pid, p in got.items():
        ops.check("classify", set(p["decisions"]) == {"all", "3"},
                  f"{pid}: week-limit decisions {sorted(p['decisions'])}")
    ordering = report.get("ordering")
    if ordering is None:
        ops.fail("classify", "no population ordering")
    else:
        t = ordering["t_stats"]
        skew = all(t[x][y] == -t[y][x] for x in REGIONS for y in REGIONS if x != y)
        ops.check("classify", skew, "t matrix is not skew-symmetric")
    decisions = {pid: p["decisions"].get("all") for pid, p in got.items()}
    return {"decisions_correct": decisions_correct(decisions) if decisions else 0.0}


def region_values(jmap_data: np.ndarray, labels: np.ndarray, region: str):
    sl = (slice(1, -1),) * 3
    return jmap_data[sl][labels[sl] == LABEL_CODES[region]].astype(np.float64)


def jac_region_err(measured: np.ndarray, analytic: np.ndarray,
                   labels: np.ndarray) -> dict[str, tuple[float, float]]:
    """Per non-empty tumor region: (|mean measured J - mean analytic J|,
    mean analytic J) over the region's interior voxels."""
    out = {}
    for region in LABEL_CODES:
        m = region_values(measured, labels, region)
        if m.size:
            a = region_values(analytic, labels, region)
            out[region] = (abs(float(m.mean()) - float(a.mean())), float(a.mean()))
    return out


def check_chain(inputs: str, out: str, ops: Ops) -> dict:
    errors = []
    pooled = {r: [0, 0.0] for r in REGIONS}
    for pair in pairs(inputs):
        pdir = os.path.join(out, f"{pair.patient_id}-{pair.index}")
        jac_op, regions_op, stats_op = (op_id(pair, stage) for stage in
                                        ("jacobian", "regions", "stats"))
        try:
            jmap = defanalysis.read_jacobian(os.path.join(pdir, "jac", "jacobian.vol"))
            with open(os.path.join(pdir, "stats", "stats.json")) as fh:
                report = json.load(fh)["regions"]
        except (OSError, ValueError) as exc:
            ops.fail(stats_op, f"outputs unreadable: {exc}")
            continue
        ops.check(jac_op, float(jmap.data[1:-1, 1:-1, 1:-1].min()) > 0,
                  "interior Jacobian minimum <= 0")
        field = volio.read_field(pair.gt_field)
        part = partition_regions(
            warp_mask(volio.read_mask(pair.mask_prev), field),
            volio.read_mask(pair.mask_next), week_index=pair.index)
        memory = collect_samples(jacobian_map(field), part)
        for region in REGIONS:
            values = memory.samples[region]
            entry = report.get(region)
            if values.size == 0:
                ops.check(stats_op, entry is None, f"{region}: expected empty")
                continue
            ok = (entry is not None and entry["n"] == values.size
                  and entry["mean"] == float(values.mean()))
            ops.check(stats_op, ok, f"{region}: n/mean differ from in-memory samples")
            pooled[region][0] += values.size
            pooled[region][1] += values.size * float(values.mean())
        analytic = defanalysis.read_jacobian(pair.gt_jacobian).data
        for region, (err, mean) in jac_region_err(jmap.data, analytic,
                                                  part.labels).items():
            errors.append(err)
            ops.check(regions_op, err <= JAC_REL_BOUND * abs(mean),
                      f"{region}: |mean J - analytic| = {err:.4g} > 2% of {mean:.4g}")
    means = {r: (s / n if n else None) for r, (n, s) in pooled.items()}
    decision = classify(RegionMeans(means["R"], means["G"], means["U"], means["N"]))
    patient = pairs(inputs)[0].patient_id
    return {"jac_region_err": max(errors) if errors else 0.0,
            "decisions_correct": decisions_correct({patient: decision.value})}


def check_stage(w: Workload, inputs: str, out: str, ops: Ops) -> dict:
    if w.stage == "classify":
        return check_classify(inputs, out, ops)
    return check_chain(inputs, out, ops)
