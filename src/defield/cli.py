"""Command-line pipeline: registration, Jacobian analysis, region statistics,
cohort classification, phantom generation, and fixture reproduction.

register, stats and classify each read the PipelineConfig keys that
COMMAND_KEYS names (PipelineConfig inherits its registration keys from
RegistrationParams), from a flat `key value` --config file or as --key value
flags, through the one parser that phantom's values use too; classify always
reports both week limits. Artifacts land under --out. Errors print a JSON
record to stderr and exit with a code naming the failure class (2 missing
input, 3 malformed file, 4 invariant violation, 5 internal).
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, fields

from . import defanalysis, volio
from .cohort import (
    BOXPLOT_COLUMNS,
    WEEK_LIMITS,
    CohortReport,
    Decision,
    PatientRecord,
    Tabulation,
    ValidationError,
    _recist,
    boxplot_rows,
    load_fixture,
    load_manifest,
    reproduce_from_fixture,
    run_cohort,
    tabulate_limits,
    write_manifest,
)
from .defanalysis import collect_samples, jacobian_map, partition_regions
from .grids import DefieldError, GridGeometry, warp_mask
from .phantom import PhantomSpec, synth_cohort
from .registration import RegistrationParams, register, save_transform
from .stats import bootstrap_ci, normal_ci, record, summarize
from .volio import VolFormatError, write_csv

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_FORMAT = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5


@dataclass(frozen=True)
class PipelineConfig(RegistrationParams):
    """Flat pipeline configuration; every field is a config/CLI key."""

    bootstrap_b: int = 1000
    bootstrap_seed: int = 0
    confidence_level: float = 0.95
    population_ids: str = ""
    test_ids: str = ""
    workers: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.bootstrap_b < 100:
            raise ValidationError("bootstrap_b must be >= 100")
        if self.bootstrap_seed < 0:
            raise ValidationError("bootstrap_seed must be >= 0")
        if not 0 < self.confidence_level < 1:
            raise ValidationError("confidence_level must be in (0, 1)")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def registration_params(self) -> RegistrationParams:
        return RegistrationParams(**{f.name: getattr(self, f.name)
                                     for f in fields(RegistrationParams)})


_TYPES = {"int": int, "float": float, "str": str}
_FIELD_TYPES = {f.name: _TYPES[f.type] for f in fields(PipelineConfig)}
# phantom's value flags: the PhantomSpec scalars, whose defaults PhantomSpec
# holds, then the cube size, the cohort size and the cohort's RECIST label
_PHANTOM_TYPES = {**{f.name: _TYPES[f.type] for f in fields(PhantomSpec)
                     if f.type in _TYPES},
                  "grid": int, "patients": int, "recist": str}
_REGISTRATION_KEYS = tuple(f.name for f in fields(RegistrationParams))
COMMAND_KEYS = {
    "register": _REGISTRATION_KEYS,
    "stats": ("bootstrap_b", "bootstrap_seed", "confidence_level"),
    "classify": _REGISTRATION_KEYS + ("population_ids", "test_ids", "workers"),
}


def _parse(key: str, text, where: str):
    kind = _FIELD_TYPES.get(key) or _PHANTOM_TYPES[key]
    try:
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        expected = "a finite float" if kind is float else "an int"
        raise ValidationError(f"{where}: {key}: {text!r} is not {expected}") from None
    return value


def load_config(path=None, overrides=None, keys=tuple(_FIELD_TYPES)) -> PipelineConfig:
    """Defaults, then `key value` lines from path, then overrides, of keys only."""
    values = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: config is not UTF-8: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            if key not in keys or not value.strip():
                raise ValidationError(f"{path}:{lineno}: bad config line {line!r}")
            values[key] = _parse(key, value.strip(), f"{path}:{lineno}")
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _parse(key, value, "command line")
    return PipelineConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", help="flat key-value config file")
    for key in COMMAND_KEYS[command]:
        parser.add_argument("--" + key.replace("_", "-"), dest="cfg_" + key,
                            help=f"override config key {key}")


def _config_from_args(args) -> PipelineConfig:
    keys = COMMAND_KEYS[args.command]
    return load_config(args.config, {k: getattr(args, "cfg_" + k) for k in keys}, keys)


def _check_out(path: str) -> None:
    """Fail before any work, creating nothing, when --out is empty, lies
    under a regular file (os.stat raises) or is one (as os.makedirs would)."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "--out is empty", path)
    try:
        if not stat.S_ISDIR(os.stat(path).st_mode):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
    except FileNotFoundError:
        pass  # _outdir creates it


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _display(tab: Tabulation) -> dict[str, str]:
    """A table's accuracy, precision and recall to .1f (empty when
    undefined), odds ratio to .2f and p to .3f, as tables.csv and
    reproduce-paper show them."""
    orat, pval = tab.fisher
    return {**{name: "" if value is None else f"{value:.1f}"
               for name, value in tab.metrics.items()},
            "odds_ratio": f"{orat:.2f}", "p": f"{pval:.3f}"}


def _write_tables(path, tables: dict[str, Tabulation | None]) -> None:
    """tables.csv: one row per week limit that has a table."""
    write_csv(path, "limit,a,b,c,d,accuracy,precision,recall,odds_ratio,p",
              ([limit, *tab.contingency.as_tuple(), *_display(tab).values()]
               for limit, tab in tables.items() if tab is not None))


def _write_boxplot(path, rows: list[dict], keys: tuple[str, ...]) -> None:
    """boxplot.csv: the label columns in keys, then BOXPLOT_COLUMNS."""
    columns = keys + BOXPLOT_COLUMNS
    write_csv(path, ",".join(columns), ([row[c] for c in columns] for row in rows))


def cmd_register(args) -> int:
    cfg = _config_from_args(args)
    source = volio.read_volume(args.source)
    target = volio.read_volume(args.target)
    params = cfg.registration_params()
    transform, trace = register(source, target, params)
    save_transform(_outdir(args), transform, params, trace)
    print(f"registered {args.source} -> {args.target}: "
          f"max |g| = {transform.forward.max_norm():.3f} voxels, "
          f"artifacts in {args.out}")
    return EXIT_OK


def cmd_jacobian(args) -> int:
    field = volio.read_field(args.field)
    jmap = jacobian_map(field)
    out = os.path.join(_outdir(args), "jacobian.vol")
    defanalysis.write_jacobian(out, jmap)
    interior = jmap.data[defanalysis._interior(jmap.geometry.dims)]
    print(f"jacobian: min {interior.min():.4f} mean {interior.mean():.4f} "
          f"max {interior.max():.4f} -> {out}")
    return EXIT_OK


def cmd_regions(args) -> int:
    mask_prev = volio.read_mask(args.mask_prev)
    mask_next = volio.read_mask(args.mask_next)
    field = volio.read_field(args.field)
    part = partition_regions(warp_mask(mask_prev, field), mask_next, week_index=args.week)
    # each input is freed once read for the last time: the masks before the
    # Jacobian's slab temporaries, the field before the float64 samples
    del mask_prev, mask_next
    jmap = jacobian_map(field)
    del field
    samples = collect_samples(jmap, part)
    out = _outdir(args)
    defanalysis.write_partition(os.path.join(out, "partition.vol"), part)
    defanalysis.write_samples_csv(os.path.join(out, "samples.csv"), samples)
    print("region counts:", json.dumps(part.counts(), sort_keys=True))
    return EXIT_OK


def cmd_stats(args) -> int:
    cfg = _config_from_args(args)
    samples = defanalysis.read_samples_csv(args.samples)
    out = _outdir(args)
    report, summaries, records, rows = {}, {}, [], []
    for region, values in samples.samples.items():
        if values.size == 0:
            report[region] = summaries[region] = None
            continue
        stats = summaries[region] = summarize(values)
        entry = report[region] = {"n": stats.n, "mean": stats.mean, "sd": stats.sd}
        if stats.n < 2:
            continue
        ci = normal_ci(stats, cfg.confidence_level)
        inputs = {"region": region, "n": stats.n, "sd": stats.sd,
                  "level": cfg.confidence_level}
        records.append(record("normal_ci", inputs, stats.mean, interval=[ci.lo, ci.hi]))
        boot = None
        # N, the reference region, keeps only its normal interval (see the
        # stats module docstring)
        if region != "N":
            interval = bootstrap_ci(values, cfg.bootstrap_b, cfg.confidence_level,
                                    cfg.bootstrap_seed)
            boot = [interval.lo, interval.hi]
            records.append(record("bootstrap_ci",
                                  {**inputs, "b": cfg.bootstrap_b, "seed": cfg.bootstrap_seed},
                                  stats.mean, interval=boot))
        entry.update(normal_ci=[ci.lo, ci.hi], bootstrap_ci=boot)
        rows.append([region, stats.n, stats.mean, stats.sd, ci.lo, ci.hi,
                     *(boot or [None, None])])
    volio.write_json(os.path.join(out, "stats.json"),
                     {"confidence_level": cfg.confidence_level,
                      "bootstrap_b": cfg.bootstrap_b,
                      "bootstrap_seed": cfg.bootstrap_seed,
                      "regions": report,
                      "records": records})
    write_csv(os.path.join(out, "stats.csv"),
              "region,n,mean,sd,normal_lo,normal_hi,boot_lo,boot_hi", rows)
    _write_boxplot(os.path.join(out, "boxplot.csv"), boxplot_rows(samples, summaries),
                   ("region",))
    print(f"stats for {sum(1 for r in report.values() if r)} regions -> {out}")
    return EXIT_OK


def _split_report(report: CohortReport, ids: set[str]):
    sub = [p for p in report.patients if p.patient_id in ids]
    if not sub:
        return None
    tables, errors = tabulate_limits(sub)
    out = {"n": len(sub)}
    for limit, tab in tables.items():
        out[limit] = {"error": errors[limit]} if tab is None else tab.as_dict()
    return out


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    records = load_manifest(args.manifest)
    report = run_cohort(records, cfg.registration_params(), cfg.workers)
    out = _outdir(args)
    splits = {}
    for name, id_csv in (("population", cfg.population_ids),
                         ("test", cfg.test_ids)):
        if id_csv:
            ids = set(id_csv.split(","))
            unknown = ids - {p.patient_id for p in report.patients}
            if unknown:
                report.warnings.append(f"{name} split: ids not in the manifest: "
                                       + ", ".join(map(repr, sorted(unknown))))
            splits[name] = _split_report(report, ids)
    payload = report.as_dict()
    if splits:
        payload["splits"] = splits
    volio.write_json(os.path.join(out, "report.json"), payload)
    rows = []
    for p in report.patients:
        row = [p.patient_id, p.recist.value,
               p.decisions["all"].value, p.decisions["3"].value]
        for limit in WEEK_LIMITS:
            m = p.means[limit]
            row += [m.mu_R, m.mu_G, m.mu_U, m.mu_N]
        row.append("; ".join(m.note for m in p.means.values() if m.note))
        rows.append(row)
    write_csv(os.path.join(out, "decisions.csv"),
              "patient_id,recist,decision_full,decision_3w,"
              "mu_R_full,mu_G_full,mu_U_full,mu_N_full,"
              "mu_R_3w,mu_G_3w,mu_U_3w,mu_N_3w,note", rows)
    _write_tables(os.path.join(out, "tables.csv"), report.tables)
    _write_boxplot(os.path.join(out, "boxplot.csv"), report.boxplot,
                   ("group", "region"))
    n_pr = {limit: sum(1 for p in report.patients
                       if p.decisions[limit] == Decision.PR_CLASSIFIED)
            for limit in WEEK_LIMITS}
    print(f"classified {len(report.patients)} patients: "
          f"{n_pr['all']} PR (full), {n_pr['3']} PR (three weeks)")
    for warning in report.warnings:
        print("warning:", warning)
    return EXIT_OK


def cmd_phantom(args) -> int:
    values = {key: _parse(key, getattr(args, key), "command line")
              for key in _PHANTOM_TYPES if getattr(args, key) is not None}
    size = values.pop("grid", 40)
    n_patients = values.pop("patients", 1)
    recist = _recist("command line: recist", values.pop("recist", "NA"))
    spec = PhantomSpec(grid=GridGeometry((size, size, size)), **values)
    courses = synth_cohort(spec, n_patients)
    out = _outdir(args)
    records = [PatientRecord(f"p{i:02d}", course.write(out, f"p{i:02d}"), recist)
               for i, course in enumerate(courses)]
    manifest = os.path.join(out, "manifest.csv")
    write_manifest(manifest, records)
    print(f"wrote {n_patients} synthetic {spec.mode} patients -> {manifest}")
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    tables, payload = reproduce_from_fixture(load_fixture(args.fixture))
    out = _outdir(args)
    volio.write_json(os.path.join(out, "reproduction.json"), payload)
    _write_tables(os.path.join(out, "tables.csv"), tables)
    for limit, title in (("all", "full course"), ("3", "first three weeks")):
        shown = _display(tables[limit])
        print(f"{title}: contingency {tables[limit].contingency.as_tuple()}, "
              f"OR = {shown['odds_ratio']}, p = {shown['p']}, "
              f"accuracy {shown['accuracy']}, precision {shown['precision']}, "
              f"recall {shown['recall']}")
    for flag in payload["flags"]:
        print("flag:", flag)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defield",
        description="deformation-field analysis of serial 3-D scans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="register a source volume onto a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "register")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("jacobian", help="Jacobian-determinant map of a field")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("regions", help="partition tumor regions and collect samples")
    p.add_argument("--mask-prev", required=True, dest="mask_prev")
    p.add_argument("--mask-next", required=True, dest="mask_next")
    p.add_argument("--field", required=True, help="forward displacement field")
    p.add_argument("--week", type=int, default=0,
                   help="week index of the pair; accepted, changes no output")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("stats", help="confidence-interval report from samples CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "stats")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("classify", help="run the cohort pipeline from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "classify")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    for key in _PHANTOM_TYPES:
        p.add_argument("--" + key.replace("_", "-"))
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("reproduce-paper",
                       help="tables, metrics and Fisher results from the "
                            "shipped response fixture")
    p.add_argument("--fixture", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


def _error_record(code: str, message: str, input_path=None) -> None:
    record = {"error": code, "message": message}
    if input_path is not None:
        record["input"] = str(input_path)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        _error_record("missing-input", str(exc), exc.filename)
        return EXIT_MISSING_INPUT
    except VolFormatError as exc:
        _error_record("format-error", str(exc))
        return EXIT_FORMAT
    except DefieldError as exc:
        _error_record("invalid-input", str(exc))
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        _error_record("internal-error", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
