"""Patient-level orchestration and the ordering-hypothesis classifier.

Per week pair: register the consecutive weekly volumes, warp the earlier
delineation forward, partition regions and collect Jacobian samples. Per
patient: pool the samples across week pairs and classify. A patient is
called PR when

    mu_R <= 1.0  and  mu_R <= mu_U  and  mu_R <= mu_G

with boundary equality counting as satisfied; otherwise no decision is
taken. Decisions against RECIST responses populate a 2x2 contingency table
(PR here meaning a response of either PR or CR; NA patients are excluded),
from which accuracy/precision/recall and Fisher's exact test follow.
"""
from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
    record,
    summarize,
)

# week limit -> most weeks a pooled pair's later week lies after the first week
WEEK_LIMITS = {"all": math.inf, "3": 2}


class RecistLabel(str, Enum):
    CR = "CR"
    PR = "PR"
    SD = "SD"
    PD = "PD"
    DP = "DP"
    NA = "NA"

    @property
    def group(self) -> str | None:
        """Response group: "PR" (PR or CR), "non-PR", or None for NA."""
        if self is RecistLabel.NA:
            return None
        return "PR" if self in (RecistLabel.PR, RecistLabel.CR) else "non-PR"


class Decision(str, Enum):
    PR_CLASSIFIED = "PR-classified"
    NO_DECISION = "no-decision"


@dataclass
class RegionMeans:
    """Per-patient Jacobian means pooled over week pairs.

    A mean is None when its region stayed empty or no week pair lies within
    the limit; note records those and degenerate cases.
    """

    mu_R: float | None
    mu_G: float | None
    mu_U: float | None
    mu_N: float | None
    week_limit: str = "all"
    counts: dict[str, int] = field(default_factory=dict)
    note: str = ""


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


def pair_samples(pair: tuple[str, WeekEntry, WeekEntry],
                 params: RegistrationParams = RegistrationParams()
                 ) -> tuple[RegionSamples, bool]:
    """Region samples of one registered (patient id, earlier, later week) pair.

    All analysis happens in the later week's frame: the earlier delineation
    is warped forward, and the Jacobian map of the forward field is sampled
    on that frame. Returns the samples, float32 as the map holds them (4 B
    per interior voxel, held until the cohort is pooled), and whether the
    registration fell back to the identity transform.
    """
    patient_id, earlier, later = pair
    vol_prev = volio.read_volume(earlier.volume_path)
    mask_prev = volio.read_mask(earlier.mask_path)
    vol_next = volio.read_volume(later.volume_path)
    mask_next = volio.read_mask(later.mask_path)
    try:
        transform, trace = register(vol_prev, vol_next, params)
        warped = warp_mask(mask_prev, transform.forward)
        part = partition_regions(warped, mask_next)
        return (collect_samples(jacobian_map(transform.forward), part, np.float32),
                trace.identity_fallback)
    except (GeometryMismatch, ValidationError) as exc:
        raise type(exc)(f"patient {patient_id}, weeks {earlier.week}->"
                        f"{later.week}: {exc}") from exc


def region_means(samples: list[RegionSamples], weeks: list[int],
                 week_limit: str) -> RegionMeans:
    """Means of the region samples pooled over the week pairs within the
    limit. samples[k] belongs to the pair weeks[k] -> weeks[k + 1]; a pair
    is within the limit when its later week lies at most
    WEEK_LIMITS[week_limit] weeks after weeks[0]. With no pair within the
    limit every mean is None."""
    within = [s for s, week in zip(samples, weeks[1:])
              if week - weeks[0] <= WEEK_LIMITS[week_limit]]
    if not within:
        return RegionMeans(None, None, None, None, week_limit,
                           note=f"no week pairs within limit {week_limit}")
    pooled = pool(within)
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


def metrics(table: Contingency2x2) -> dict[str, float | None]:
    """Accuracy, precision and recall as percentages (None when undefined),
    in tables.csv's column order."""
    a, b, c, d = table.as_tuple()
    return {"accuracy": 100.0 * (a + d) / table.total,
            "precision": 100.0 * a / (a + b) if a + b else None,
            "recall": 100.0 * a / (a + c) if a + c else None}


@dataclass(frozen=True)
class Tabulation:
    """One week limit's contingency table, metrics and Fisher's exact test
    (odds ratio, p)."""

    contingency: Contingency2x2
    metrics: dict[str, float | None]
    fisher: tuple[float, float]

    def as_dict(self) -> dict:
        return {"contingency": list(self.contingency.as_tuple()),
                "metrics": self.metrics,
                "fisher": {"odds_ratio": self.fisher[0], "p": self.fisher[1]}}


def tabulate(patients, limit: str) -> Tabulation:
    """Tabulation of the patients' decisions under one week limit against
    their RECIST labels, over patients (anything with `decisions` and
    `recist`). Rows: hypothesis satisfied / not; columns: response group
    PR / non-PR. NA patients are excluded; errors if nothing remains."""
    cells = [(p.decisions[limit] == Decision.PR_CLASSIFIED, p.recist.group)
             for p in patients if p.recist.group is not None]
    if not cells:
        raise ValidationError("no patients left after excluding NA responses")
    table = Contingency2x2(*(cells.count((satisfied, group))
                             for satisfied in (True, False)
                             for group in ("PR", "non-PR")))
    return Tabulation(table, metrics(table), fisher_exact(table))


def tabulate_limits(patients) -> tuple[dict[str, Tabulation | None], dict[str, str]]:
    """Tabulation of each week limit over patients (anything with
    `decisions` and `recist`); a limit that cannot be tabulated maps to None
    and its error message is returned under the same limit."""
    tables: dict[str, Tabulation | None] = {}
    errors: dict[str, str] = {}
    for limit in WEEK_LIMITS:
        try:
            tables[limit] = tabulate(patients, limit)
        except ValidationError as exc:
            tables[limit] = None
            errors[limit] = str(exc)
    return tables, errors


def tables_json(tables: dict[str, Tabulation | None]) -> dict:
    """The report's `contingency`, `metrics` and `fisher` blocks, each
    keyed by week limit (None where the limit has no table)."""
    return {key: {limit: None if t is None else t.as_dict()[key]
                  for limit, t in tables.items()}
            for key in ("contingency", "metrics", "fisher")}


@dataclass
class OrderingResult:
    """Region ordering by mean plus the skew-symmetric pairwise t matrix."""

    means: dict[str, float]
    order: list[str]
    t_stats: dict[str, dict[str, float]]
    p_values: dict[str, dict[str, float]]


def region_summaries(samples: RegionSamples) -> dict[str, SummaryStats | None]:
    """Each region's summary of a pooled sample, None for an empty region."""
    return {r: summarize(values) if values.size else None
            for r, values in samples.samples.items()}


def population_ordering(summaries: dict[str, SummaryStats | None]) -> OrderingResult:
    """Pairwise pooled t-tests between all region pairs of a pooled
    sample's region summaries and the region ordering by ascending mean."""
    empty = [r for r in REGIONS if summaries[r] is None]
    if empty:
        raise ValidationError(f"cannot order with empty regions: {empty}")
    t_stats: dict[str, dict[str, float]] = {r: {} for r in REGIONS}
    p_values: dict[str, dict[str, float]] = {r: {} for r in REGIONS}
    for x in REGIONS:
        for y in REGIONS:
            if x != y:
                t_stats[x][y], p_values[x][y] = pooled_t_test(summaries[x], summaries[y])
    means = {r: summaries[r].mean for r in REGIONS}
    order = sorted(REGIONS, key=lambda r: means[r])
    return OrderingResult(means, order, t_stats, p_values)


BOXPLOT_COLUMNS = ("n", "mean", "median", "q1", "q3", "whisker_lo98", "whisker_hi98")


def boxplot_rows(samples: RegionSamples, summaries: dict[str, SummaryStats | None],
                 **labels) -> list[dict]:
    """Box-plot rows of the regions with at least two samples: the labels,
    the region, then BOXPLOT_COLUMNS (n, mean, median, quartiles and the
    98% normal-CI whiskers of the mean) as Python ints and floats."""
    rows = []
    for region, stats in summaries.items():
        if stats is None or stats.n < 2:
            continue
        whiskers = normal_ci(stats, 0.98)
        q1, med, q3 = np.quantile(samples.samples[region], [0.25, 0.5, 0.75])
        values = (stats.n, stats.mean, float(med), float(q1), float(q3),
                  whiskers.lo, whiskers.hi)
        rows.append({**labels, "region": region, **dict(zip(BOXPLOT_COLUMNS, values))})
    return rows


@dataclass
class PatientResult:
    patient_id: str
    recist: RecistLabel
    means: dict[str, RegionMeans]
    decisions: dict[str, Decision]


@dataclass
class CohortReport:
    patients: list[PatientResult]
    tables: dict[str, Tabulation | None]
    ordering: OrderingResult | None
    warnings: list[str]
    boxplot: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        records = [record("fisher_exact", {"week_limit": limit,
                                           "table": tab.contingency.as_tuple()},
                          *tab.fisher)
                   for limit, tab in self.tables.items() if tab is not None]
        if self.ordering is not None:
            records += [record("pooled_t_test", {"regions": [x, y]},
                               self.ordering.t_stats[x][y],
                               self.ordering.p_values[x][y])
                        for x in REGIONS for y in REGIONS if x < y]
        return {
            "patients": [asdict(p) for p in self.patients],
            **tables_json(self.tables),
            "ordering": asdict(self.ordering) if self.ordering else None,
            "records": records,
            "boxplot": self.boxplot,
            "warnings": self.warnings,
        }


def run_cohort(records: list[PatientRecord],
               params: RegistrationParams = RegistrationParams(),
               workers: int = 1) -> CohortReport:
    """Register every week pair on a pool of min(workers, pairs) threads,
    at least one (records with pair_samples set keep theirs), classify
    under both week limits, and assemble tables, metrics, Fisher results
    and the pooled ordering. The scipy kernels that dominate a pair release
    the GIL, and the pairs come back in order, so the report does not
    depend on workers."""
    if not records:
        raise ValidationError("empty cohort")
    for r in records:
        if r.pair_samples is not None and len(r.pair_samples) != len(r.weeks) - 1:
            raise ValidationError(f"patient {r.patient_id}: {len(r.pair_samples)} "
                                  f"preset pair samples for {len(r.weeks) - 1} week pairs")
    pairs = [(r.patient_id, earlier, later) for r in records if r.pair_samples is None
             for earlier, later in zip(r.weeks, r.weeks[1:])]
    job = functools.partial(pair_samples, params=params)
    with ThreadPoolExecutor(max(1, min(workers, len(pairs)))) as pool_exec:
        # drained inside the block: a failing pair cancels the pairs not started
        computed = list(pool_exec.map(job, pairs))
    done = iter(computed)
    warnings: list[str] = []
    results = []
    group_samples: dict[str, list[RegionSamples]] = {"all": [], "PR": [], "non-PR": []}
    for record in records:
        weeks = [w.week for w in record.weeks]
        outcomes = ([next(done) for _ in weeks[1:]] if record.pair_samples is None
                    else [(s, False) for s in record.pair_samples])
        samples = [s for s, _ in outcomes]
        warnings += [f"patient {record.patient_id}, weeks {a}->{b}: registration "
                     "fell back to the identity transform"
                     for a, b, (_, fell_back) in zip(weeks, weeks[1:], outcomes) if fell_back]
        result = PatientResult(record.patient_id, record.recist, {}, {})
        for limit in WEEK_LIMITS:
            m = result.means[limit] = region_means(samples, weeks, limit)
            result.decisions[limit] = classify(m)
            if m.note:
                warnings.append(f"{record.patient_id} [{limit}]: {m.note}")
        results.append(result)
        group_samples["all"] += samples
        if record.recist.group is not None:
            group_samples[record.recist.group] += samples

    tables, errors = tabulate_limits(results)
    warnings += [f"contingency [{limit}]: {msg}" for limit, msg in errors.items()]

    # "all" comes first and is never empty: every record has a week pair
    ordering = None
    boxplot = []
    for group, members in group_samples.items():
        if not members:
            continue
        pooled = pool(members)
        summaries = region_summaries(pooled)
        boxplot += boxplot_rows(pooled, summaries, group=group)
        del pooled  # the float64 copy goes before the next group is pooled
        if group == "all":
            try:
                ordering = population_ordering(summaries)
            except ValidationError as exc:
                warnings.append(f"ordering: {exc}")
    return CohortReport(results, tables, ordering, warnings, boxplot)


def _recist(path, token: str) -> RecistLabel:
    try:
        return RecistLabel(token)
    except ValueError:
        raise ValidationError(f"{path}: unknown RECIST label {token!r}") from None


def _read_table(path, what: str, required: set[str],
                unique: str | None = None) -> list[dict]:
    """Rows of a UTF-8 CSV table with a header line (a leading byte-order
    mark is skipped) that has the required columns, at least one row,
    every row as long as its header and, when `unique` names a column, no
    value of that column twice."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValidationError(
                    f"{path}: {what} must have columns {sorted(required)}")
            rows, seen = [], set()
            for row in reader:
                if None in row or None in row.values():
                    raise ValidationError(
                        f"{path}:{reader.line_num}: {what} row has "
                        f"{'more' if None in row else 'fewer'} fields than the header")
                if unique is not None:
                    if row[unique] in seen:
                        raise ValidationError(f"{path}:{reader.line_num}: {what} "
                                              f"repeats {unique} {row[unique]!r}")
                    seen.add(row[unique])
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {what} is not UTF-8: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: {what} has no rows")
    return rows


MANIFEST_COLUMNS = ("patient_id", "week", "volume_path", "mask_path", "recist")


def write_manifest(path, records: list[PatientRecord]) -> None:
    """Manifest CSV of records, with paths relative to its directory."""
    base = os.path.dirname(os.path.abspath(path))
    volio.write_csv(path, ",".join(MANIFEST_COLUMNS),
                    ([r.patient_id, w.week, os.path.relpath(w.volume_path, base),
                      os.path.relpath(w.mask_path, base), r.recist.value]
                     for r in records for w in r.weeks))


def load_manifest(path) -> list[PatientRecord]:
    """Cohort manifest CSV with MANIFEST_COLUMNS; relative paths resolve
    against the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    groups: dict[str, list[WeekEntry]] = {}
    labels: dict[str, RecistLabel] = {}
    for row in _read_table(path, "manifest", set(MANIFEST_COLUMNS)):
        pid = row["patient_id"]
        try:
            week = int(row["week"])
        except ValueError as exc:
            raise ValidationError(f"{path}: bad week {row['week']!r}") from exc
        # an absolute path replaces base in the join
        paths = [os.path.join(base, row[key]) for key in ("volume_path", "mask_path")]
        groups.setdefault(pid, []).append(WeekEntry(week, *paths))
        label = _recist(path, row["recist"])
        if pid in labels and labels[pid] != label:
            raise ValidationError(f"{path}: inconsistent RECIST for {pid}")
        labels[pid] = label
    return [PatientRecord(pid, sorted(weeks, key=lambda w: w.week), labels[pid])
            for pid, weeks in groups.items()]


# ---------------------------------------------------------------------------
# shipped response-table fixture and its reproduction

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


def load_fixture(path=None) -> list[PatientResult]:
    """The fixture's patients, with their decisions and no region means."""
    path = path or fixture_path()

    def as_decision(token):
        if token not in ("Y", "N"):
            raise ValidationError(
                f"{path}: classification must be Y or N, got {token!r}")
        return Decision.PR_CLASSIFIED if token == "Y" else Decision.NO_DECISION

    required = {"patient_id", "classification_full", "classification_3w",
                "rx_response"}
    # a row's classifications are checked before its response label
    return [PatientResult(row["patient_id"], means={},
                          decisions={"all": as_decision(row["classification_full"]),
                                     "3": as_decision(row["classification_3w"])},
                          recist=_recist(path, row["rx_response"]))
            for row in _read_table(path, "fixture", required, unique="patient_id")]


def reproduce_from_fixture(patients: list[PatientResult]
                           ) -> tuple[dict[str, Tabulation], dict]:
    """Contingency tables, metrics and Fisher results from the shipped
    per-patient classification fixture, with discrepancies between computed
    and reference summary values flagged. Returns the tables and the
    reproduction.json payload."""
    tables, errors = tabulate_limits(patients)
    if errors:
        raise ValidationError(next(iter(errors.values())))
    flags = []
    for limit, tab in tables.items():
        ref = REFERENCE_SUMMARY[limit]
        for name, computed in tab.metrics.items():
            if computed is not None and abs(computed - ref[name]) > 0.1:
                flags.append(
                    f"{name} [{limit}]: computed {computed:.1f} differs from "
                    f"reference summary {ref[name]:.1f}")
    groups = [p.recist.group for p in patients]
    return tables, {"n_patients": len(patients), "n_na": groups.count(None),
                    "n_pr_or_cr": groups.count("PR"), **tables_json(tables),
                    "reference_summary": REFERENCE_SUMMARY, "flags": flags}
