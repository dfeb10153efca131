"""Patient-level orchestration and the ordering-hypothesis classifier.

Per patient: register consecutive weekly volumes, warp the earlier
delineation forward, partition regions, collect Jacobian samples, pool
across week pairs, and classify. A patient is called PR when

    mu_R <= 1.0  and  mu_R <= mu_U  and  mu_R <= mu_G

with boundary equality counting as satisfied; otherwise no decision is
taken. Decisions against RECIST responses populate a 2x2 contingency table
(PR here meaning a response of either PR or CR; NA patients are excluded),
from which accuracy/precision/recall and Fisher's exact test follow.
"""
from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

from . import volio
from .defanalysis import (
    REGIONS,
    RegionSamples,
    collect_samples,
    jacobian_map,
    partition_regions,
    pool,
)
from .grids import GeometryMismatch, ValidationError, warp_mask
from .registration import RegistrationParams, register
from .stats import (
    Contingency2x2,
    SummaryStats,
    fisher_exact,
    normal_ci,
    pooled_t_test,
    summarize,
)

WEEK_LIMITS = ("all", "3")


class RecistLabel(str, Enum):
    CR = "CR"
    PR = "PR"
    SD = "SD"
    PD = "PD"
    DP = "DP"
    NA = "NA"

    @property
    def is_pr_or_cr(self) -> bool:
        return self in (RecistLabel.PR, RecistLabel.CR)


class Decision(str, Enum):
    PR_CLASSIFIED = "PR-classified"
    NO_DECISION = "no-decision"


@dataclass
class RegionMeans:
    """Per-patient Jacobian means pooled over week pairs.

    A mean is None when its region stayed empty; note records degenerate or
    insufficient cases.
    """

    mu_R: float | None
    mu_G: float | None
    mu_U: float | None
    mu_N: float | None
    week_limit: str = "all"
    counts: dict[str, int] = field(default_factory=dict)
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "mu_R": self.mu_R, "mu_G": self.mu_G,
            "mu_U": self.mu_U, "mu_N": self.mu_N,
            "week_limit": self.week_limit, "counts": self.counts,
            "note": self.note,
        }


@dataclass(frozen=True)
class WeekEntry:
    week: int
    volume_path: str
    mask_path: str


@dataclass
class PatientRecord:
    patient_id: str
    weeks: list[WeekEntry]
    recist: RecistLabel = RecistLabel.NA
    cached_means: dict[str, RegionMeans] = field(default_factory=dict)
    pair_samples: list[RegionSamples] | None = None

    def __post_init__(self):
        if len(self.weeks) < 2:
            raise ValidationError(
                f"patient {self.patient_id}: needs >= 2 weeks, has {len(self.weeks)}")
        order = [w.week for w in self.weeks]
        if any(a >= b for a, b in zip(order, order[1:])):
            raise ValidationError(
                f"patient {self.patient_id}: weeks must be strictly increasing, got {order}")


def classify(m: RegionMeans) -> Decision:
    """Ordering hypothesis: PR when mu_R <= 1, mu_R <= mu_U, mu_R <= mu_G.

    mu_N is not consulted. Missing means yield no decision.
    """
    if m.mu_R is None or m.mu_U is None or m.mu_G is None:
        return Decision.NO_DECISION
    for value in (m.mu_R, m.mu_U, m.mu_G):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite region mean {value}")
    if m.mu_R <= 1.0 and m.mu_R <= m.mu_U and m.mu_R <= m.mu_G:
        return Decision.PR_CLASSIFIED
    return Decision.NO_DECISION


def compute_pair_samples(record: PatientRecord,
                         params: RegistrationParams = RegistrationParams()
                         ) -> list[RegionSamples]:
    """Register each consecutive week pair and collect region samples.

    All analysis happens in the later week's frame: the earlier delineation
    is warped forward, and the Jacobian map of the forward field is sampled
    on that frame. Results are cached on the record.
    """
    if record.pair_samples is not None:
        return record.pair_samples
    samples = []
    vol_next = volio.read_volume(record.weeks[0].volume_path)
    mask_next = volio.read_mask(record.weeks[0].mask_path)
    for k in range(len(record.weeks) - 1):
        vol_prev, mask_prev = vol_next, mask_next
        vol_next = volio.read_volume(record.weeks[k + 1].volume_path)
        mask_next = volio.read_mask(record.weeks[k + 1].mask_path)
        try:
            transform, _ = register(vol_prev, vol_next, params)
            warped = warp_mask(mask_prev, transform.forward)
            part = partition_regions(warped, mask_next, week_index=k)
            samples.append(collect_samples(jacobian_map(transform.forward), part))
        except (GeometryMismatch, ValidationError) as exc:
            # same class, message as its only argument: it still pickles
            raise type(exc)(
                f"patient {record.patient_id}, weeks {record.weeks[k].week}->"
                f"{record.weeks[k + 1].week}: {exc}") from exc
    record.pair_samples = samples
    return samples


def _means_from_samples(pooled: RegionSamples, week_limit: str) -> RegionMeans:
    counts = pooled.counts()
    means = {r: pooled.mean(r) for r in REGIONS}
    note = ""
    if counts["U"] > 0 and counts["R"] == 0 and counts["G"] == 0:
        # delineations identical after warping: boundary case, means imputed
        means["R"] = means["G"] = 1.0
        note = "degenerate: delineations unchanged across pairs; mu_R, mu_G imputed as 1.0"
    else:
        missing = [r for r in ("U", "R", "G") if counts[r] == 0]
        if missing:
            note = "insufficient region: " + ", ".join(missing)
    if counts["N"] == 0 and not note:
        note = "insufficient region: N"
    return RegionMeans(means["R"], means["G"], means["U"], means["N"],
                       week_limit, counts, note)


def patient_region_means(record: PatientRecord, week_limit: str = "all",
                         params: RegistrationParams = RegistrationParams()
                         ) -> RegionMeans:
    """Pool per-region samples over the consecutive week pairs within the
    limit ("all" or "3" = first three weeks) and return the means."""
    if week_limit not in WEEK_LIMITS:
        raise ValidationError(f"week_limit must be 'all' or '3', got {week_limit!r}")
    if week_limit in record.cached_means:
        return record.cached_means[week_limit]
    samples = compute_pair_samples(record, params)
    n_pairs = len(samples) if week_limit == "all" else min(2, len(samples))
    if n_pairs < 1:
        raise ValidationError(
            f"patient {record.patient_id}: no week pairs within limit {week_limit}")
    means = _means_from_samples(pool(samples[:n_pairs]), week_limit)
    record.cached_means[week_limit] = means
    return means


def build_contingency(decisions: list[Decision],
                      labels: list[RecistLabel]) -> Contingency2x2:
    """Rows: hypothesis satisfied / not; columns: response PR-or-CR / other.

    NA patients are excluded; errors if nothing remains.
    """
    if len(decisions) != len(labels):
        raise ValidationError("decisions and labels must align per patient")
    a = b = c = d = 0
    for decision, label in zip(decisions, labels):
        if label == RecistLabel.NA:
            continue
        if decision == Decision.PR_CLASSIFIED:
            if label.is_pr_or_cr:
                a += 1
            else:
                b += 1
        else:
            if label.is_pr_or_cr:
                c += 1
            else:
                d += 1
    if a + b + c + d == 0:
        raise ValidationError("no patients left after excluding NA responses")
    return Contingency2x2(a, b, c, d)


@dataclass(frozen=True)
class Metrics:
    """Accuracy, precision, recall as percentages (None when undefined)."""

    accuracy: float | None
    precision: float | None
    recall: float | None

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall}


def metrics(table: Contingency2x2) -> Metrics:
    accuracy = 100.0 * (table.a + table.d) / table.total
    precision = 100.0 * table.a / (table.a + table.b) if table.a + table.b else None
    recall = 100.0 * table.a / (table.a + table.c) if table.a + table.c else None
    return Metrics(accuracy, precision, recall)


def tabulate(decisions: list[Decision], labels: list[RecistLabel]
             ) -> tuple[Contingency2x2, Metrics, tuple[float, float]]:
    """Contingency table, metrics and Fisher's exact test (odds ratio, p)
    of one week limit's decisions against the RECIST labels."""
    table = build_contingency(decisions, labels)
    return table, metrics(table), fisher_exact(table)


def fisher_json(result: tuple[float, float] | None) -> dict | None:
    """The report shape of a Fisher result: {"odds_ratio", "p"}, or None."""
    return None if result is None else {"odds_ratio": result[0], "p": result[1]}


@dataclass
class OrderingResult:
    """Region ordering by mean plus the skew-symmetric pairwise t matrix."""

    means: dict[str, float]
    order: list[str]
    t_stats: dict[str, dict[str, float]]
    p_values: dict[str, dict[str, float]]

    def as_dict(self) -> dict:
        return {"means": self.means, "order": self.order,
                "t_stats": self.t_stats, "p_values": self.p_values}


def population_ordering(pooled: RegionSamples) -> OrderingResult:
    """Pairwise pooled t-tests between all region pairs of a pooled sample
    and the region ordering by ascending mean."""
    empty = pooled.empty_regions()
    if empty:
        raise ValidationError(f"cannot order with empty regions: {empty}")
    summaries = {r: summarize(pooled.samples[r]) for r in REGIONS}
    t_stats: dict[str, dict[str, float]] = {r: {} for r in REGIONS}
    p_values: dict[str, dict[str, float]] = {r: {} for r in REGIONS}
    for x in REGIONS:
        for y in REGIONS:
            if x == y:
                continue
            t, p = pooled_t_test(summaries[x], summaries[y])
            t_stats[x][y] = t
            p_values[x][y] = p
    means = {r: summaries[r].mean for r in REGIONS}
    order = sorted(REGIONS, key=lambda r: means[r])
    return OrderingResult(means, order, t_stats, p_values)


@dataclass
class PatientResult:
    patient_id: str
    recist: RecistLabel
    means: dict[str, RegionMeans]
    decisions: dict[str, Decision]

    def as_dict(self) -> dict:
        return {
            "patient_id": self.patient_id,
            "recist": self.recist.value,
            "means": {k: v.as_dict() for k, v in self.means.items()},
            "decisions": {k: v.value for k, v in self.decisions.items()},
        }


@dataclass
class CohortReport:
    patients: list[PatientResult]
    contingency: dict[str, Contingency2x2 | None]
    metric_table: dict[str, Metrics | None]
    fisher: dict[str, tuple[float, float] | None]
    ordering: OrderingResult | None
    warnings: list[str]
    boxplot: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        records = []
        for limit, result in self.fisher.items():
            if result is None:
                continue
            records.append({
                "test": "fisher_exact",
                "inputs": {"week_limit": limit,
                           "table": self.contingency[limit].as_tuple()},
                "statistic": result[0], "p": result[1], "interval": None,
            })
        if self.ordering is not None:
            for x in REGIONS:
                for y in REGIONS:
                    if x < y:
                        records.append({
                            "test": "pooled_t_test",
                            "inputs": {"regions": [x, y]},
                            "statistic": self.ordering.t_stats[x][y],
                            "p": self.ordering.p_values[x][y],
                            "interval": None,
                        })
        return {
            "patients": [p.as_dict() for p in self.patients],
            "contingency": {k: (v.as_tuple() if v else None)
                            for k, v in self.contingency.items()},
            "metrics": {k: (v.as_dict() if v else None)
                        for k, v in self.metric_table.items()},
            "fisher": {k: fisher_json(v) for k, v in self.fisher.items()},
            "ordering": self.ordering.as_dict() if self.ordering else None,
            "records": records,
            "boxplot": self.boxplot,
            "warnings": self.warnings,
        }


def _patient_worker(args):
    record, params = args
    compute_pair_samples(record, params)
    return record


def run_cohort(records: list[PatientRecord],
               params: RegistrationParams = RegistrationParams(),
               workers: int = 1) -> CohortReport:
    """Process every patient (optionally in parallel), classify under both
    week limits, and assemble tables, metrics, Fisher results and the
    pooled population ordering."""
    if not records:
        raise ValidationError("empty cohort")
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool_exec:
            records = list(pool_exec.map(_patient_worker,
                                         [(r, params) for r in records]))
    warnings: list[str] = []
    results = []
    for record in records:
        means = {limit: patient_region_means(record, limit, params)
                 for limit in WEEK_LIMITS}
        decisions = {limit: classify(means[limit]) for limit in WEEK_LIMITS}
        for limit in WEEK_LIMITS:
            if means[limit].note:
                warnings.append(f"{record.patient_id} [{limit}]: {means[limit].note}")
        results.append(PatientResult(record.patient_id, record.recist,
                                     means, decisions))

    contingency: dict[str, Contingency2x2 | None] = {}
    metric_table: dict[str, Metrics | None] = {}
    fisher: dict[str, tuple[float, float] | None] = {}
    for limit in WEEK_LIMITS:
        try:
            contingency[limit], metric_table[limit], fisher[limit] = tabulate(
                [r.decisions[limit] for r in results], [r.recist for r in results])
        except ValidationError as exc:
            warnings.append(f"contingency [{limit}]: {exc}")
            contingency[limit] = metric_table[limit] = fisher[limit] = None

    ordering = None
    try:
        pooled = pool([s for r in records for s in (r.pair_samples or [])])
        ordering = population_ordering(pooled)
    except ValidationError as exc:
        warnings.append(f"ordering: {exc}")
    boxplot = _boxplot_rows(records)
    return CohortReport(results, contingency, metric_table, fisher,
                        ordering, warnings, boxplot)


def _boxplot_rows(records: list[PatientRecord]) -> list[dict]:
    """Plot-ready quartiles and 98%-CI whiskers per region, pooled over the
    whole cohort and split by actual response (PR-or-CR vs determined
    non-PR)."""
    def keep(record, group):
        if group == "all":
            return True
        if record.recist == RecistLabel.NA:
            return False
        return record.recist.is_pr_or_cr == (group == "PR")

    rows = []
    for group in ("all", "PR", "non-PR"):
        members = [r for r in records if keep(r, group) and r.pair_samples]
        if not members:
            continue
        pooled = pool([s for r in members for s in r.pair_samples])
        for region in REGIONS:
            values = pooled.samples[region]
            if values.size < 2:
                continue
            rows.append({"group": group, "region": region,
                         **boxplot_row(values, summarize(values))})
    return rows


def boxplot_row(values: np.ndarray, stats: SummaryStats) -> dict:
    """Box-plot entry of one region's samples (at least two): n, mean,
    median, quartiles and the 98% normal-CI whiskers of the mean, as
    Python ints and floats."""
    whiskers = normal_ci(stats, 0.98)
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"n": stats.n, "mean": stats.mean, "median": float(med),
            "q1": float(q1), "q3": float(q3),
            "whisker_lo98": whiskers.lo, "whisker_hi98": whiskers.hi}


def load_manifest(path) -> list[PatientRecord]:
    """Cohort manifest CSV `patient_id,week,volume_path,mask_path,recist`;
    relative paths resolve against the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    groups: dict[str, list[WeekEntry]] = {}
    labels: dict[str, RecistLabel] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"patient_id", "week", "volume_path", "mask_path", "recist"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(
                f"{path}: manifest must have columns {sorted(required)}")
        for row in reader:
            pid = row["patient_id"]
            try:
                week = int(row["week"])
            except ValueError as exc:
                raise ValidationError(f"{path}: bad week {row['week']!r}") from exc
            paths = []
            for key in ("volume_path", "mask_path"):
                p = row[key]
                paths.append(p if os.path.isabs(p) else os.path.join(base, p))
            groups.setdefault(pid, []).append(WeekEntry(week, *paths))
            try:
                label = RecistLabel(row["recist"])
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: unknown RECIST label {row['recist']!r}") from exc
            if pid in labels and labels[pid] != label:
                raise ValidationError(f"{path}: inconsistent RECIST for {pid}")
            labels[pid] = label
    if not groups:
        raise ValidationError(f"{path}: manifest has no rows")
    records = []
    for pid, weeks in groups.items():
        records.append(PatientRecord(pid, sorted(weeks, key=lambda w: w.week),
                                     labels[pid]))
    return records


# ---------------------------------------------------------------------------
# shipped response-table fixture and its reproduction

@dataclass(frozen=True)
class FixtureRow:
    patient_id: str
    full: Decision
    three_week: Decision
    recist: RecistLabel


# summary values this dataset's reference tabulation reports; the computed
# full-course recall (57.1 = 12/21) and accuracy (65.8 = 25/38) differ from
# the listed 60.0 and 65.7, which reproduce-paper flags rather than adopts
REFERENCE_SUMMARY = {
    "all": {"accuracy": 65.7, "recall": 60.0, "precision": 75.0,
            "odds_ratio": 4.33, "p": 0.051},
    "3": {"accuracy": 65.7, "recall": 52.4, "precision": 78.6,
          "odds_ratio": 5.13, "p": 0.043},
}


def fixture_path() -> str:
    return str(resources.files("defield").joinpath("data/appendix_response_table.csv"))


def load_fixture(path=None) -> list[FixtureRow]:
    path = path or fixture_path()
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"patient_id", "classification_full", "classification_3w",
                    "rx_response"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(
                f"{path}: fixture must have columns {sorted(required)}")
        for row in reader:
            def as_decision(token, row=row):
                if token not in ("Y", "N"):
                    raise ValidationError(
                        f"{path}: classification must be Y or N, got {token!r}")
                return Decision.PR_CLASSIFIED if token == "Y" else Decision.NO_DECISION
            rows.append(FixtureRow(
                row["patient_id"],
                as_decision(row["classification_full"]),
                as_decision(row["classification_3w"]),
                RecistLabel(row["rx_response"]),
            ))
    if not rows:
        raise ValidationError(f"{path}: fixture has no rows")
    return rows


@dataclass
class FixtureReproduction:
    n_patients: int
    n_na: int
    n_pr_or_cr: int
    contingency: dict[str, Contingency2x2]
    metric_table: dict[str, Metrics]
    fisher: dict[str, tuple[float, float]]
    flags: list[str]

    def as_dict(self) -> dict:
        return {
            "n_patients": self.n_patients,
            "n_na": self.n_na,
            "n_pr_or_cr": self.n_pr_or_cr,
            "contingency": {k: v.as_tuple() for k, v in self.contingency.items()},
            "metrics": {k: v.as_dict() for k, v in self.metric_table.items()},
            "fisher": {k: fisher_json(v) for k, v in self.fisher.items()},
            "reference_summary": REFERENCE_SUMMARY,
            "flags": self.flags,
        }


def reproduce_from_fixture(rows: list[FixtureRow]) -> FixtureReproduction:
    """Contingency tables, metrics and Fisher results from the shipped
    per-patient classification fixture, with discrepancies between computed
    and reference summary values flagged."""
    labels = [r.recist for r in rows]
    decisions = {"all": [r.full for r in rows],
                 "3": [r.three_week for r in rows]}
    contingency = {}
    metric_table = {}
    fisher = {}
    flags = []
    for limit in WEEK_LIMITS:
        contingency[limit], m, fisher[limit] = tabulate(decisions[limit], labels)
        metric_table[limit] = m
        ref = REFERENCE_SUMMARY[limit]
        for name, computed in (("accuracy", m.accuracy),
                               ("precision", m.precision),
                               ("recall", m.recall)):
            if computed is not None and abs(computed - ref[name]) > 0.1:
                flags.append(
                    f"{name} [{limit}]: computed {computed:.1f} differs from "
                    f"reference summary {ref[name]:.1f}")
    n_na = sum(1 for r in rows if r.recist == RecistLabel.NA)
    n_pr = sum(1 for r in rows if r.recist.is_pr_or_cr)
    return FixtureReproduction(len(rows), n_na, n_pr, contingency,
                               metric_table, fisher, flags)
