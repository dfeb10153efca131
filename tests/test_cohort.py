"""Classifier, contingency construction, metrics, population ordering, and
the shipped response-table fixture."""
import json
import os
import threading
import weakref

import numpy as np
import pytest

from defield.cohort import (
    Decision,
    PatientRecord,
    PatientResult,
    RecistLabel,
    RegionMeans,
    Tabulation,
    WeekEntry,
    classify,
    fixture_path,
    load_fixture,
    load_manifest,
    metrics,
    pair_samples,
    population_ordering,
    region_means,
    region_summaries,
    reproduce_from_fixture,
    run_cohort,
    tabulate,
    write_manifest,
)
from defield import cohort
from defield.defanalysis import (
    REGIONS,
    RegionSamples,
    collect_samples,
    jacobian_map,
    partition_regions,
)
from defield.grids import (
    GridGeometry,
    Mask,
    ValidationError,
    VectorField,
    Volume,
    warp_mask,
)
from defield.phantom import PhantomSpec, synth_cohort
from defield.registration import (
    ConvergenceTrace,
    RegistrationParams,
    SymmetricTransform,
    register,
)
from defield.stats import Contingency2x2, fisher_exact
from defield import volio
from oracles import full_volume


def means(mu_r, mu_g, mu_u, mu_n=1.0, **kw):
    return RegionMeans(mu_r, mu_g, mu_u, mu_n, **kw)


class TestClassify:
    def test_population_mean_case(self):
        # the pooled population means satisfy the hypothesis
        m = means(0.9969, 1.0174, 1.0408, 0.9895)
        assert classify(m) == Decision.PR_CLASSIFIED

    def test_first_clause_fails(self):
        assert classify(means(1.01, 2.0, 2.0)) == Decision.NO_DECISION

    def test_r_above_g_fails(self):
        assert classify(means(0.99, 0.98, 1.05)) == Decision.NO_DECISION

    def test_boundary_equality_counts(self):
        assert classify(means(1.0, 1.0, 1.0)) == Decision.PR_CLASSIFIED

    def test_missing_means_give_no_decision(self):
        assert classify(means(None, 1.0, 1.0)) == Decision.NO_DECISION
        assert classify(means(0.9, None, 1.0)) == Decision.NO_DECISION

    def test_mu_n_is_ignored(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r, g, u = rng.uniform(0.9, 1.1, size=3)
            base = classify(means(r, g, u, 1.0))
            assert classify(means(r, g, u, rng.uniform(0.1, 5.0))) == base

    def test_swapping_g_and_u_never_changes_decision(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r, g, u = rng.uniform(0.9, 1.1, size=3)
            assert classify(means(r, g, u)) == classify(means(r, u, g))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            classify(means(float("nan"), 1.0, 1.0))


FIXTURE = load_fixture()


def undecided(patients):
    """The patients with no decision under either week limit."""
    no = Decision.NO_DECISION
    return [PatientResult(p.patient_id, p.recist, {}, {"all": no, "3": no})
            for p in patients]


NA_ONLY = undecided([PatientResult(f"q{i}", RecistLabel.NA, {}, {}) for i in range(3)])


def test_response_group_of_each_label():
    assert {label.value: label.group for label in RecistLabel} == {
        "CR": "PR", "PR": "PR", "SD": "non-PR", "PD": "non-PR", "DP": "non-PR",
        "NA": None}


class TestFixture:
    def test_counts(self):
        assert len(FIXTURE) == 45
        assert sum(1 for r in FIXTURE if r.recist == RecistLabel.NA) == 7
        assert sum(1 for r in FIXTURE if r.recist.group == "PR") == 21

    def test_full_course_contingency(self):
        table = tabulate(FIXTURE, "all").contingency
        assert table.as_tuple() == (12, 4, 9, 13)

    def test_three_week_contingency(self):
        table = tabulate(FIXTURE, "3").contingency
        assert table.as_tuple() == (11, 3, 10, 14)

    def test_correct_classification_counts(self):
        # 12 of the 21 PR-or-CR patients and 13 of the 17 non-PR patients
        table = tabulate(FIXTURE, "all").contingency
        assert table.a == 12 and table.a + table.c == 21
        assert table.d == 13 and table.b + table.d == 17

    def test_all_na_rejected(self):
        for limit in ("all", "3"):
            with pytest.raises(ValidationError, match="no patients left"):
                tabulate(NA_ONLY, limit)

    def test_tabulate_matches_contingency_metrics_and_fisher(self):
        for patients, limit in ((FIXTURE, "all"), (FIXTURE, "3"),
                                (undecided(FIXTURE), "all")):
            tab = tabulate(patients, limit)
            table = tab.contingency
            assert tab == Tabulation(table, metrics(table), fisher_exact(table))

    def test_reproduction_flags_recall_discrepancy(self):
        tables, payload = reproduce_from_fixture(FIXTURE)
        assert any("recall" in f and "60.0" in f for f in payload["flags"])
        assert tables["all"].metrics["recall"] == pytest.approx(57.1, abs=0.1)


class TestMetrics:
    def test_three_week_values(self):
        m = metrics(Contingency2x2(11, 3, 10, 14))
        assert list(m) == ["accuracy", "precision", "recall"]
        assert m["accuracy"] == pytest.approx(65.8, abs=0.1)
        assert m["precision"] == pytest.approx(78.6, abs=0.1)
        assert m["recall"] == pytest.approx(52.4, abs=0.1)

    def test_full_course_values(self):
        m = metrics(Contingency2x2(12, 4, 9, 13))
        assert m["precision"] == pytest.approx(75.0, abs=0.1)
        assert m["recall"] == pytest.approx(57.1, abs=0.1)

    def test_perfect_table(self):
        m = metrics(Contingency2x2(7, 0, 0, 5))
        assert m == {"accuracy": 100.0, "precision": 100.0, "recall": 100.0}

    def test_undefined_metrics_flagged(self):
        m = metrics(Contingency2x2(0, 0, 3, 4))
        assert m["precision"] is None
        assert m["recall"] == 0.0


class TestPopulationOrdering:
    def test_identical_regions_give_zero_t(self):
        samples = RegionSamples({r: np.linspace(0.9, 1.1, 50) for r in "URGN"})
        result = population_ordering(region_summaries(samples))
        for x in "URGN":
            for y in "URGN":
                if x != y:
                    assert result.t_stats[x][y] == 0.0
                    assert result.p_values[x][y] == 1.0

    def test_planted_ordering_recovered(self):
        rng = np.random.default_rng(2)
        centers = {"N": 0.97, "R": 0.99, "G": 1.02, "U": 1.05}
        samples = RegionSamples({
            r: rng.normal(centers[r], 0.01, size=4000) for r in centers})
        result = population_ordering(region_summaries(samples))
        assert result.order == ["N", "R", "G", "U"]
        assert result.t_stats["R"]["G"] < 0 < result.t_stats["R"]["N"]

    def test_matrix_antisymmetry_exact(self):
        rng = np.random.default_rng(3)
        samples = RegionSamples({
            r: rng.uniform(0.9, 1.1, size=rng.integers(50, 200)) for r in "URGN"})
        result = population_ordering(region_summaries(samples))
        for x in "URGN":
            for y in "URGN":
                if x != y:
                    assert result.t_stats[x][y] == -result.t_stats[y][x]

    def test_empty_region_rejected(self):
        samples = RegionSamples({"U": [1.0], "R": [], "G": [1.0], "N": [1.0]})
        with pytest.raises(ValidationError):
            population_ordering(region_summaries(samples))


def write_week(tmp_path, name, volume, mask):
    vol_path = tmp_path / f"{name}_vol.vol"
    mask_path = tmp_path / f"{name}_mask.vol"
    volio.write_volume(vol_path, volume)
    volio.write_mask(mask_path, mask)
    return WeekEntry(int(name[-1]), str(vol_path), str(mask_path))


@pytest.fixture()
def identical_patient(tmp_path):
    g = GridGeometry((16, 16, 16))
    rng = np.random.default_rng(4)
    vol = Volume(g, rng.uniform(0.5, 1.5, size=g.dims).astype(np.float32))
    arr = np.zeros(g.dims, dtype=np.uint8)
    arr[5:11, 5:11, 5:11] = 1
    mask = Mask(g, arr)
    weeks = [write_week(tmp_path, f"week{k}", vol, mask) for k in range(3)]
    return PatientRecord("p-ident", weeks, RecistLabel.PR)


FAST = RegistrationParams(pyramid_levels=1, iterations_per_level=5)


def each_pair(record: PatientRecord) -> list[tuple[RegionSamples, bool]]:
    """pair_samples of each consecutive week pair of the record."""
    return [pair_samples((record.patient_id, earlier, later), FAST)
            for earlier, later in zip(record.weeks, record.weeks[1:])]


class TestPatientPipeline:
    def test_identical_weeks_are_degenerate_boundary_pr(self, identical_patient):
        samples = [s for s, _ in each_pair(identical_patient)]
        m = region_means(samples, [0, 1, 2], "all")
        assert m.mu_R == 1.0 and m.mu_G == 1.0
        assert m.mu_U == pytest.approx(1.0, abs=1e-4)
        assert "degenerate" in m.note
        assert classify(m) == Decision.PR_CLASSIFIED

    def test_empty_masks_give_insufficient_region(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        rng = np.random.default_rng(5)
        weeks = []
        for k in range(2):
            vol = Volume(g, rng.uniform(0.5, 1.5, size=g.dims).astype(np.float32))
            mask = Mask(g, np.zeros(g.dims, dtype=np.uint8))
            weeks.append(write_week(tmp_path, f"week{k}", vol, mask))
        record = PatientRecord("p-empty", weeks, RecistLabel.NA)
        m = region_means([pair_samples(("p-empty", *weeks), FAST)[0]], [0, 1], "all")
        assert "insufficient region" in m.note
        assert classify(m) == Decision.NO_DECISION

    def test_record_requires_two_weeks(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        vol = full_volume(g, 1.0)
        mask = Mask(g, np.zeros(g.dims, dtype=np.uint8))
        week = write_week(tmp_path, "week0", vol, mask)
        with pytest.raises(ValidationError):
            PatientRecord("p", [week], RecistLabel.NA)

    def test_weeks_must_be_strictly_ordered(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        vol = full_volume(g, 1.0)
        mask = Mask(g, np.zeros(g.dims, dtype=np.uint8))
        w = write_week(tmp_path, "week0", vol, mask)
        with pytest.raises(ValidationError):
            PatientRecord("p", [w, w], RecistLabel.NA)


def test_run_cohort_and_manifest_roundtrip(tmp_path, identical_patient):
    # manifest written by hand, loaded back, and run end to end
    manifest = tmp_path / "manifest.csv"
    lines = ["patient_id,week,volume_path,mask_path,recist"]
    for entry in identical_patient.weeks:
        lines.append(f"p0,{entry.week},{entry.volume_path},{entry.mask_path},PR")
    manifest.write_text("\n".join(lines) + "\n")
    records = load_manifest(manifest)
    assert len(records) == 1 and records[0].recist == RecistLabel.PR
    report = run_cohort(records, FAST)
    assert report.patients[0].decisions["all"] == Decision.PR_CLASSIFIED
    assert report.tables["all"].contingency.as_tuple() == (1, 0, 0, 0)
    assert report.tables["all"].metrics["accuracy"] == 100.0
    # degenerate note surfaces as a warning
    assert any("degenerate" in w for w in report.warnings)


@pytest.mark.parametrize("workers", [1, 2])
def test_identity_fallback_becomes_a_warning(monkeypatch, identical_patient, workers):
    # every pair's registration returns the zero transform it fell back to;
    # with workers > 1 the flags come back from two threads in pair order
    def fallback_register(source, target, params):
        zero = VectorField.zero(source.geometry)
        return (SymmetricTransform(zero, zero, zero),
                ConvergenceTrace(identity_fallback=True))

    monkeypatch.setattr(cohort, "register", fallback_register)
    report = run_cohort([identical_patient], FAST, workers)
    fallbacks = [w for w in report.warnings if "fell back" in w]
    assert fallbacks == [f"patient p-ident, weeks {a}->{b}: registration fell "
                         "back to the identity transform" for a, b in ((0, 1), (1, 2))]
    # the warnings are the report's only trace of the fallback: no new key
    assert "identity_fallback" not in json.dumps(report.as_dict())


def test_no_fallback_no_warning(identical_patient):
    report = run_cohort([identical_patient], FAST)
    assert not any("fell back" in w for w in report.warnings)
    assert [fell_back for _, fell_back in each_pair(identical_patient)] == [False, False]
    # results are return values: the record is not written to
    assert identical_patient.pair_samples is None


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool run_cohort starts."""
    sizes = []

    class RecordingPool(cohort.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(cohort, "ThreadPoolExecutor", RecordingPool)
    return sizes


def test_pool_spreads_one_patients_pairs(identical_patient, pool_sizes):
    # one patient with two week pairs still gets two threads; workers=1
    # maps its pairs over a pool of one
    report = run_cohort([identical_patient], FAST, workers=2)
    assert pool_sizes == [2]
    assert report.as_dict() == run_cohort([identical_patient], FAST).as_dict()
    assert pool_sizes == [2, 1]


def test_pairs_run_concurrently_in_the_calling_process(monkeypatch, identical_patient):
    # each fake pair waits until the other has started: two in flight at once
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def fake_pair_samples(pair, params):
        seen.append((os.getpid(), threading.get_ident()))
        barrier.wait()
        rng = np.random.default_rng(pair[2].week)
        return RegionSamples({r: rng.normal(1.0, 0.05, 50) for r in REGIONS}), False

    monkeypatch.setattr(cohort, "pair_samples", fake_pair_samples)
    report = run_cohort([identical_patient], FAST, workers=2)
    assert {pid for pid, _ in seen} == {os.getpid()}
    assert len({ident for _, ident in seen}) == 2
    assert threading.get_ident() not in {ident for _, ident in seen}
    assert len(report.patients) == 1


def preset_record(pid, label, n_weeks, n_pairs, rng):
    weeks = [WeekEntry(k, f"week{k}.vol", f"mask{k}.vol") for k in range(n_weeks)]
    pairs = [RegionSamples({r: rng.normal(1.0, 0.05, 50) for r in REGIONS})
             for _ in range(n_pairs)]
    return PatientRecord(pid, weeks, RecistLabel(label), pairs)


def test_preset_samples_start_no_pool(monkeypatch):
    # records with preset samples register no pair, whatever workers says
    def no_pair(pair, params):
        raise AssertionError(f"registered {pair[0]}")

    monkeypatch.setattr(cohort, "pair_samples", no_pair)
    rng = np.random.default_rng(7)
    records = [preset_record("p0", "PR", 3, 2, rng), preset_record("p1", "PD", 2, 1, rng)]
    report = run_cohort(records, workers=2)
    assert report.as_dict() == run_cohort(records, workers=1).as_dict()


def test_preset_samples_need_one_entry_per_week_pair():
    record = preset_record("p-extra", "PR", 2, 2, np.random.default_rng(8))
    with pytest.raises(ValidationError,
                       match="patient p-extra: 2 preset pair samples for 1 week pairs"):
        run_cohort([record])


def test_run_cohort_pools_the_whole_cohort_once(monkeypatch):
    # the population ordering and the "all" box-plot rows share one pool
    rng = np.random.default_rng(6)
    records = [preset_record("p0", "PR", 4, 3, rng), preset_record("p1", "PD", 3, 2, rng),
               preset_record("p2", "NA", 4, 3, rng)]
    sizes = []
    real_pool = cohort.pool

    def counted(samples):
        sizes.append(len(samples))
        return real_pool(samples)

    monkeypatch.setattr(cohort, "pool", counted)
    report = run_cohort(records)
    assert sizes.count(3 + 2 + 3) == 1
    assert report.ordering is not None
    assert [row["group"] for row in report.boxplot].count("all") == len(REGIONS)


def test_run_cohort_summarizes_each_pooled_region_once(monkeypatch):
    # the population ordering and the box plots read one summary per
    # non-empty region of each pooled group (all, PR, non-PR)
    rng = np.random.default_rng(9)
    sizes = {"p0": {"U": 11, "R": 12, "G": 0, "N": 14},
             "p1": {"U": 21, "R": 22, "G": 23, "N": 24}}
    records = [PatientRecord(pid, [WeekEntry(k, f"week{k}.vol", f"mask{k}.vol")
                                   for k in range(2)], RecistLabel(label),
                             [RegionSamples({r: rng.normal(1.0, 0.05, n)
                                             for r, n in sizes[pid].items()})])
               for pid, label in (("p0", "PR"), ("p1", "PD"))]
    summarized = []
    real_summarize = cohort.summarize

    def counted(values):
        summarized.append(len(values))
        return real_summarize(values)

    monkeypatch.setattr(cohort, "summarize", counted)
    report = run_cohort(records)
    pooled_sizes = [n for n in sizes["p0"].values() if n]
    pooled_sizes += list(sizes["p1"].values())
    pooled_sizes += [a + b for a, b in zip(sizes["p0"].values(), sizes["p1"].values())]
    assert sorted(summarized) == sorted(pooled_sizes)
    assert report.ordering is not None
    assert len(report.boxplot) == len(pooled_sizes)


def test_pair_samples_hold_float32_values(identical_patient):
    # the Jacobian map's own dtype: 4 B per interior voxel of the 16^3 grid
    for samples, _ in each_pair(identical_patient):
        assert all(values.dtype == np.float32 for values in samples.samples.values())
        assert sum(values.nbytes for values in samples.samples.values()) == 4 * 14 ** 3


@pytest.fixture(scope="module")
def phantom_records(tmp_path_factory):
    """Two 20^3 phantom patients of three weeks, labelled PR and PD."""
    out = tmp_path_factory.mktemp("cohort20")
    courses = synth_cohort(PhantomSpec(grid=GridGeometry((20, 20, 20)), weeks=3), 2)
    return [(f"p{i}", course.write(str(out), f"p{i}"), label)
            for i, (course, label) in enumerate(zip(courses, ("PR", "PD")))]


def float64_pair_samples(weeks) -> list[RegionSamples]:
    """Each week pair's samples as a caller that presets PatientRecord
    pair_samples builds them: register, warp the earlier mask, partition
    and collect_samples, which gives float64."""
    samples = []
    for earlier, later in zip(weeks, weeks[1:]):
        transform, _ = register(volio.read_volume(earlier.volume_path),
                                volio.read_volume(later.volume_path), FAST)
        part = partition_regions(warp_mask(volio.read_mask(earlier.mask_path),
                                           transform.forward),
                                 volio.read_mask(later.mask_path))
        samples.append(collect_samples(jacobian_map(transform.forward), part))
    return samples


@pytest.mark.parametrize("workers", [1, 2])
def test_float32_pairs_report_as_preset_float64_samples(phantom_records, workers):
    # widening float32 to float64 is exact and pooling concatenates before
    # any reduction, so every mean, t statistic and quantile is the same
    computed = [PatientRecord(pid, weeks, RecistLabel(label))
                for pid, weeks, label in phantom_records]
    preset = [PatientRecord(pid, weeks, RecistLabel(label), float64_pair_samples(weeks))
              for pid, weeks, label in phantom_records]
    assert all(values.dtype == np.float64 for record in preset
               for pair in record.pair_samples for values in pair.samples.values())
    report = json.dumps(run_cohort(computed, FAST, workers).as_dict())
    assert report == json.dumps(run_cohort(preset, FAST).as_dict())


def test_run_cohort_pools_one_group_at_a_time(monkeypatch):
    # every pooled array (a patient's, then the all, PR and non-PR
    # groups') is freed before the next pool is built
    rng = np.random.default_rng(10)
    records = [preset_record("p0", "PR", 3, 2, rng), preset_record("p1", "PD", 3, 2, rng),
               preset_record("p2", "NA", 2, 1, rng)]
    pooled = []
    real_pool = cohort.pool

    def tracked(samples):
        assert [ref for ref in pooled if ref() is not None] == []
        result = real_pool(samples)
        pooled.extend(weakref.ref(values) for values in result.samples.values())
        return result

    monkeypatch.setattr(cohort, "pool", tracked)
    report = run_cohort(records)
    assert {row["group"] for row in report.boxplot} == {"all", "PR", "non-PR"}
    assert [ref for ref in pooled if ref() is not None] == []


def test_week_limit_pools_pairs_by_week_number():
    # "3" pools the pairs whose later week is at most 2 weeks after the
    # first week, whatever their position in the course
    def pair(**values):
        return RegionSamples({r: np.array(values.get(r, [0.75, 1.25]))
                              for r in REGIONS})

    weeks = [WeekEntry(k, f"week{k}.vol", f"mask{k}.vol") for k in (0, 2, 5)]
    gapped = PatientRecord("gapped", weeks, RecistLabel.PR,
                           [pair(), pair(**{r: [2.75, 3.25] for r in REGIONS})])
    late = PatientRecord("late", [weeks[0], weeks[2]], RecistLabel.PD,
                         [pair(R=[0.75, 0.95], U=[1.0, 1.5])])
    report = run_cohort([gapped, late])
    means = {p.patient_id: p.means for p in report.patients}
    decisions = {p.patient_id: p.decisions for p in report.patients}
    # the 2->5 pair lies outside the first three weeks
    assert means["gapped"]["3"].mu_R == means["gapped"]["3"].mu_U == 1.0
    assert means["gapped"]["all"].mu_R == 2.0
    assert decisions["gapped"] == {"all": Decision.NO_DECISION,
                                   "3": Decision.PR_CLASSIFIED}
    # the only pair, 0->5, lies outside it too
    m = means["late"]["3"]
    assert (m.mu_R, m.mu_G, m.mu_U, m.mu_N) == (None, None, None, None)
    assert m.note == "no week pairs within limit 3"
    assert decisions["late"] == {"all": Decision.PR_CLASSIFIED,
                                 "3": Decision.NO_DECISION}
    assert "late [3]: no week pairs within limit 3" in report.warnings


def test_load_manifest_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("patient_id,week\np0,0\n")
    with pytest.raises(ValidationError):
        load_manifest(bad)


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_write_manifest_round_trips_through_load_manifest(tmp_path, monkeypatch,
                                                          absolute):
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "cohort") if absolute else "cohort"
    os.makedirs(out)

    def weeks(pid, numbers):
        return [WeekEntry(w, os.path.join(out, pid, f"week{w:02d}_vol.vol"),
                          os.path.join(out, pid, f"week{w:02d}_mask.vol"))
                for w in numbers]

    records = [PatientRecord("p00", weeks("p00", [0, 1, 2]), RecistLabel.PR),
               PatientRecord("p01", weeks("p01", [0, 3]))]
    manifest = os.path.join(out, "manifest.csv")
    write_manifest(manifest, records)
    with open(manifest) as fh:
        text = fh.read()
    assert text.splitlines()[:2] == ["patient_id,week,volume_path,mask_path,recist",
                                     "p00,0,p00/week00_vol.vol,p00/week00_mask.vol,PR"]
    expected = [PatientRecord(r.patient_id,
                              [WeekEntry(w.week, os.path.abspath(w.volume_path),
                                         os.path.abspath(w.mask_path))
                               for w in r.weeks], r.recist)
                for r in records]
    loaded = load_manifest(manifest)
    assert loaded == expected
    write_manifest(manifest, loaded)
    with open(manifest) as fh:
        assert fh.read() == text


def test_bom_manifest_and_fixture_load_the_same_rows(tmp_path):
    # a spreadsheet export may start the file with a UTF-8 byte-order mark
    text = ("patient_id,week,volume_path,mask_path,recist\n"
            "p0,0,v0.vol,m0.vol,PR\np0,1,v1.vol,m1.vol,PR\n"
            "p1,0,/abs/v0.vol,/abs/m0.vol,NA\np1,2,/abs/v2.vol,/abs/m2.vol,NA\n")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_manifest(bom) == load_manifest(plain)
    fixture = tmp_path / "fixture.csv"
    with open(fixture_path(), "rb") as fh:
        fixture.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert load_fixture(fixture) == FIXTURE


def test_crlf_manifest_loads_the_same_rows(tmp_path):
    # a manifest saved on Windows ends its lines with CRLF
    text = ("patient_id,week,volume_path,mask_path,recist\n"
            "p0,0,v0.vol,m0.vol,PR\np0,1,v1.vol,m1.vol,PR\n"
            "p1,0,/abs/v0.vol,/abs/m0.vol,NA\np1,2,/abs/v2.vol,/abs/m2.vol,NA\n")
    plain, crlf = tmp_path / "plain.csv", tmp_path / "crlf.csv"
    plain.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    records = load_manifest(crlf)
    assert records == load_manifest(plain)
    assert [r.recist.value for r in records] == ["PR", "NA"]
    assert records[0].weeks[1].mask_path.endswith("m1.vol")
