"""The traced run: the workload's pipeline with a span around every call
into a package module, then the kernel probes.

Cohort workloads replay ``compute_pair_samples`` through public calls
(read -> register -> warp_mask -> partition_regions -> jacobian_map ->
collect_samples), put the samples on each ``PatientRecord`` and run
``classify`` on those records, so that ``run_cohort`` tabulates without
registering again. The stats chain runs its three subcommands per pair.
The decisions and means of the replay are checked against the untraced
stage's report. Kernel probes time single public kernels on each pair's
own arrays at every pyramid-level size after the pipeline spans close.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import ExitStack

import numpy as np

from defield import cli, cohort, defanalysis, phantom, volio
from defield.defanalysis import collect_samples, jacobian_map, partition_regions
from defield.grids import (
    Mask,
    VectorField,
    downsample2,
    gaussian_smooth,
    warp_mask,
    warp_volume,
)
from defield.registration import (
    RegistrationParams,
    auto_exp_steps,
    compose,
    exp_velocity,
    lcc_similarity,
    register,
)

import workloads as wl
from tracing import Tracer, swapped

LAYERS = ("phantom", "volio", "registration", "grids", "defanalysis",
          "stats", "cohort", "cli")
PROBE_REPEATS = 3
KERNELS = ("registration.exp", "registration.compose", "registration.lcc",
           "grids.warp", "grids.smooth", "grids.warp_mask")
# bytes each float32 kernel reads and writes per voxel, from array sizes
# (coordinate grid, inputs, gathered values, outputs); cache misses ignored
COMPOSE_BYTES_PER_VOXEL = 120
WARP_BYTES_PER_VOXEL = 56


def _add_size(key: str, arg: int = 0):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[arg])
    return count


def _count_samples(counts, args, result):
    counts["defanalysis.samples"] += sum(v.size for v in result.samples.values())


def _count_resampled(counts, args, result):
    # bootstrap_ci(samples, b, ...), as cmd_stats calls it
    counts["stats.bootstrap_resampled"] += args[1] * np.asarray(args[0]).size


READ = ("volio.read", _add_size("volio.bytes_read"))
WRITE = ("volio.write", _add_size("volio.bytes_written"))
PATCHES = (
    (volio, {"read_volume": READ, "read_mask": READ, "read_field": READ,
             "write_volume": WRITE, "write_mask": WRITE, "write_field": WRITE,
             "write_labels": WRITE}),
    (defanalysis, {
        "write_jacobian": "defanalysis.write_jacobian",
        "write_partition": "defanalysis.write_partition",
        "write_samples_csv": ("defanalysis.csv_write",
                              _add_size("defanalysis.csv_bytes")),
        "read_samples_csv": "defanalysis.csv_read"}),
    (cli, {"jacobian_map": "defanalysis.jacobian",
           "partition_regions": "defanalysis.partition",
           "collect_samples": ("defanalysis.collect", _count_samples),
           "warp_mask": "grids.warp_mask",
           "summarize": "stats.summarize", "normal_ci": "stats.normal_ci",
           "bootstrap_ci": ("stats.bootstrap", _count_resampled),
           "run_cohort": "cohort.tabulate",
           "synth_cohort": "phantom.synth"}),
    (cohort, {"summarize": "stats.summarize", "normal_ci": "stats.normal_ci",
              "pooled_t_test": "stats.ttest", "fisher_exact": "stats.fisher",
              "pool": "defanalysis.pool"}),
    (phantom.SyntheticCourse, {"write": "phantom.write"}),
)


def replay_pairs(tr: Tracer, ops: wl.Ops, inputs: str,
                 params: RegistrationParams) -> tuple[dict, list[dict]]:
    """compute_pair_samples for every patient, one span per public call.
    Returns the samples per patient and what each pair produced."""
    records = tr.call("cohort.load_manifest", cohort.load_manifest,
                      os.path.join(inputs, "manifest.csv"))
    samples, produced = {}, []
    for record in records:
        with tr.span("cohort.pairs"):
            samples[record.patient_id] = []
            vol_next = volio.read_volume(record.weeks[0].volume_path)
            mask_next = volio.read_mask(record.weeks[0].mask_path)
            for k in range(len(record.weeks) - 1):
                ops.attempted += 1
                vol_prev, mask_prev = vol_next, mask_next
                vol_next = volio.read_volume(record.weeks[k + 1].volume_path)
                mask_next = volio.read_mask(record.weeks[k + 1].mask_path)
                transform, trace = tr.call("registration.register", register,
                                           vol_prev, vol_next, params)
                warped = tr.call("grids.warp_mask", warp_mask, mask_prev,
                                 transform.forward)
                part = tr.call("defanalysis.partition", partition_regions,
                               warped, mask_next, week_index=k)
                jmap = tr.call("defanalysis.jacobian", jacobian_map,
                               transform.forward)
                pair_samples = tr.call("defanalysis.collect", collect_samples,
                                       jmap, part)
                _count_samples(tr.counts, (), pair_samples)
                samples[record.patient_id].append(pair_samples)
                produced.append({"patient_id": record.patient_id, "index": k,
                                 "source": vol_prev, "target": vol_next,
                                 "mask": mask_prev,
                                 "transform": transform, "trace": trace,
                                 "part": part, "jmap": jmap})
    return samples, produced


def manifest_loader(tr: Tracer, samples: dict):
    """load_manifest that hands run_cohort the replayed samples."""
    load = cohort.load_manifest

    def load_with_samples(path):
        records = tr.call("cohort.load_manifest", load, path)
        for record in records:
            record.pair_samples = samples[record.patient_id]
        return records
    return load_with_samples


def _report_outcome(out: str) -> dict:
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    return {p["patient_id"]: (p["decisions"], p["means"])
            for p in report["patients"]}


def check_pairs(ops: wl.Ops, inputs: str, produced: list[dict]) -> dict:
    """Registered fields against the phantoms' analytic ground truth."""
    gt = {(p.patient_id, p.index): p for p in wl.pairs(inputs)}
    epe, epe_tumor, errors, fallbacks = [], [], [], 0
    for item in produced:
        pair = gt[(item["patient_id"], item["index"])]
        op = f"replay:{pair.patient_id}:{pair.index}"
        transform = item["transform"]
        err = np.sqrt(((transform.forward.data
                        - volio.read_field(pair.gt_field).data) ** 2).sum(axis=0))
        support = item["source"].data > wl.EPE_SUPPORT_LEVEL
        epe.append(float(err[support].mean()))
        epe_tumor.append(float(err[item["part"].labels != defanalysis.LABEL_N].mean()))
        ops.check(op, epe[-1] < wl.EPE_BOUND_VOX,
                  f"field EPE {epe[-1]:.3f} >= {wl.EPE_BOUND_VOX} voxel")
        ops.check(op, float(item["jmap"].data[1:-1, 1:-1, 1:-1].min()) > 0,
                  "interior Jacobian minimum <= 0")
        analytic = defanalysis.read_jacobian(pair.gt_jacobian).data
        errors += [e for e, _ in wl.jac_region_err(
            item["jmap"].data, analytic, item["part"].labels).values()]
        if (not transform.velocity.data.any()
                and any(e.accepted for e in item["trace"].entries)):
            fallbacks += 1
    return {"field_epe_vox": statistics.fmean(epe),
            "field_epe_tumor_vox": statistics.fmean(epe_tumor),
            "field_epe_per_pair": epe,
            "jac_region_err": max(errors, default=0.0),
            "identity_fallbacks": fallbacks}


# ----------------------------------------------------------------------
# kernel probes

def _median_time(fn) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _pyramid(vol, levels: int) -> list:
    # the same level rule as register: halve while every dim is >= 8
    out = [vol]
    while len(out) < levels and all(d >= 8 for d in out[-1].geometry.dims):
        out.append(downsample2(out[-1]))
    return out[::-1]


def _field_at(field: VectorField, geometry) -> VectorField:
    step = field.geometry.dims[0] // geometry.dims[0]
    nx, ny, nz = geometry.dims
    data = field.data[:, ::step, ::step, ::step][:, :nx, :ny, :nz] / step
    return VectorField(geometry, np.ascontiguousarray(data))


def probe_pair(source, target, mask, velocity, forward,
               params: RegistrationParams) -> list[dict]:
    """Per pyramid level, coarsest first: median seconds per kernel call,
    the voxel count and the exp step count."""
    levels = []
    for src, tgt in zip(_pyramid(source, params.pyramid_levels),
                        _pyramid(target, params.pyramid_levels)):
        geom = src.geometry
        v, f = _field_at(velocity, geom), _field_at(forward, geom)
        step = mask.geometry.dims[0] // geom.dims[0]
        nx, ny, nz = geom.dims
        m = Mask(geom, np.ascontiguousarray(
            mask.data[::step, ::step, ::step][:nx, :ny, :nz]))
        steps = auto_exp_steps(v.max_norm(), params.exp_steps)
        times = {
            "registration.exp": _median_time(lambda: exp_velocity(v, steps)),
            "registration.compose": _median_time(lambda: compose(f, f)),
            "registration.lcc": _median_time(
                lambda: lcc_similarity(src, tgt, params.lcc_sigma)),
            "grids.warp": _median_time(lambda: warp_volume(src, f)),
            "grids.smooth": _median_time(
                lambda: gaussian_smooth(v, params.fluid_sigma)),
            "grids.warp_mask": _median_time(lambda: warp_mask(m, f)),
        }
        levels.append({"voxels": geom.n_voxels, "exp_steps": steps,
                       "seconds": times})
    return levels


def _iteration_estimate(level: dict) -> float:
    """Kernel seconds of one registration iteration at a level: two
    energy-force evaluations, two update smoothings, and a candidate made
    of two exponentials, two warps and two energies."""
    t = level["seconds"]
    return (2 * t["registration.exp"] + 2 * t["grids.warp"]
            + 4 * t["registration.lcc"] + 2 * t["grids.smooth"])


def _iteration_bytes(level: dict) -> int:
    n = level["voxels"]
    return (2 * level["exp_steps"] * COMPOSE_BYTES_PER_VOXEL * n
            + 2 * WARP_BYTES_PER_VOXEL * n)


# ----------------------------------------------------------------------

def run_traced(args, w: wl.Workload) -> dict:
    params = cli.PipelineConfig().registration_params()
    tr = Tracer(f"{w.name}-seed{args.seed}")
    ops = wl.Ops()

    def cli_stage(op_id: str, argv: list[str]) -> bool:
        with tr.span(f"cli.{argv[0]}"):
            return ops.run(op_id, argv)

    def phantom_main(argv):
        return tr.call(f"cli.{argv[0]}", cli.main, argv)

    produced = []
    with ExitStack() as stack:
        for target, names in PATCHES:
            stack.enter_context(tr.patch(target, names))
        wl.generate(w, args.seed, args.grid, os.path.join(args.out, "inputs"),
                    phantom_main)
        start = time.perf_counter()
        if w.stage == "classify":
            samples, produced = replay_pairs(tr, ops, args.inputs, params)
            stack.enter_context(swapped(cli, "load_manifest",
                                        manifest_loader(tr, samples)))
        wl.run_stage(w, args.inputs, os.path.join(args.out, "stage"), cli_stage)
        traced_wall = time.perf_counter() - start

    stage_out = os.path.join(args.out, "stage")
    checks = wl.check_stage(w, args.inputs, stage_out, ops)
    accuracy = {"field_epe_vox": 0.0, "identity_fallbacks": 0}
    if w.stage == "classify":
        accuracy = check_pairs(ops, args.inputs, produced)
        ops.check("classify", _report_outcome(stage_out)
                  == _report_outcome(args.untraced_out),
                  "replay decisions or means differ from the untraced report")
    else:
        accuracy["jac_region_err"] = checks["jac_region_err"]

    probes = []
    for item in produced:
        t = item["transform"]
        probes.append(probe_pair(item["source"], item["target"], item["mask"],
                                 t.velocity, t.forward, params))
    if not produced:
        for pair in wl.pairs(args.inputs):
            field = volio.read_field(pair.gt_field)
            probes.append(probe_pair(volio.read_volume(pair.volume_prev),
                                     volio.read_volume(pair.volume_next),
                                     volio.read_mask(pair.mask_prev),
                                     field, field, params))
    tr.dump(args.spans)
    metrics = layer_metrics(tr, produced, probes, accuracy, checks, traced_wall)
    return {"metrics": metrics, "traced_wall_s": traced_wall,
            "ops": ops.as_dict(), "probes": probes,
            "field_epe_per_pair": accuracy.get("field_epe_per_pair", []),
            "field_epe_tumor_vox": accuracy.get("field_epe_tumor_vox")}


def layer_metrics(tr: Tracer, produced, probes, accuracy, checks,
                  traced_wall: float) -> dict:
    m = {}
    reg = tr.durations("registration.register")
    entries = [e for item in produced for e in item["trace"].entries]
    accepted = sum(e.accepted for e in entries)
    n_levels = len(probes[0])
    m["registration.register_s_p50"] = statistics.median(reg) if reg else 0.0
    m["registration.register_s_max"] = max(reg, default=0.0)
    m["registration.iterations"] = len(entries)
    m["registration.accepted"] = accepted
    m["registration.rejected"] = len(entries) - accepted
    m["registration.accept_ratio"] = accepted / len(entries) if entries else 0.0
    m["registration.identity_fallbacks"] = accuracy["identity_fallbacks"]
    m["registration.field_epe_vox"] = accuracy["field_epe_vox"]

    finest = [pair[-1]["seconds"] for pair in probes]
    for kernel in KERNELS:
        m[f"{kernel}_s"] = statistics.median(f[kernel] for f in finest)
    estimate = 0.0
    for level in range(n_levels):
        iterations = [sum(1 for e in item["trace"].entries if e.level == level)
                      for item in produced]
        m[f"registration.iterations.level{level}"] = sum(iterations)
        level_est = sum(n * _iteration_estimate(pair[level])
                        for n, pair in zip(iterations, probes))
        m[f"registration.kernel_est_s.level{level}"] = level_est
        estimate += level_est
        m[f"registration.bytes_per_iter_mb.level{level}"] = statistics.median(
            _iteration_bytes(pair[level]) for pair in probes) / 1e6
    m["registration.kernel_share_est"] = estimate / sum(reg) if reg else 0.0

    for name in ("jacobian", "partition", "collect", "pool", "csv_write",
                 "csv_read"):
        m[f"defanalysis.{name}_s"] = tr.total(f"defanalysis.{name}")
    m["defanalysis.csv_bytes"] = tr.counts["defanalysis.csv_bytes"]
    m["defanalysis.samples_bytes"] = 8 * tr.counts["defanalysis.samples"]
    m["defanalysis.jac_region_err"] = accuracy["jac_region_err"]

    m["stats.bootstrap_s"] = tr.total("stats.bootstrap")
    m["stats.bootstrap_resampled"] = tr.counts["stats.bootstrap_resampled"]
    for name in ("summarize", "ttest", "fisher"):
        m[f"stats.{name}_s"] = tr.total(f"stats.{name}")

    patients = tr.durations("cohort.pairs")
    m["cohort.load_manifest_s"] = tr.total("cohort.load_manifest")
    m["cohort.pairs_s_p50"] = statistics.median(patients) if patients else 0.0
    m["cohort.tabulate_s"] = tr.total("cohort.tabulate")
    m["cohort.decisions_correct"] = checks.get("decisions_correct", 0.0)

    m["volio.read_s"] = tr.total("volio.read")
    m["volio.write_s"] = tr.total("volio.write")
    m["volio.bytes_read"] = tr.counts["volio.bytes_read"]
    m["volio.bytes_written"] = tr.counts["volio.bytes_written"]
    m["phantom.synth_s"] = tr.total("phantom.synth")
    m["phantom.write_s"] = tr.total("phantom.write")
    m["cli.stage_s"] = sum(s["end"] - s["start"] for s in tr.spans
                           if s["name"].startswith("cli.")
                           and s["name"] != "cli.phantom")
    self_times = tr.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    m["trace.wall_s"] = traced_wall
    return m
