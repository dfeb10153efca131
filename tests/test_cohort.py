"""Classifier, contingency construction, metrics, population ordering, and
the shipped response-table fixture."""
import numpy as np
import pytest

from defield.cohort import (
    Decision,
    Metrics,
    PatientRecord,
    RecistLabel,
    RegionMeans,
    WeekEntry,
    build_contingency,
    classify,
    fixture_path,
    load_fixture,
    load_manifest,
    metrics,
    patient_region_means,
    population_ordering,
    reproduce_from_fixture,
    run_cohort,
    tabulate,
)
from defield.defanalysis import RegionSamples
from defield.grids import GridGeometry, Mask, ValidationError, Volume
from defield.registration import RegistrationParams
from defield.stats import Contingency2x2
from defield import volio


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


class TestFixture:
    def test_counts(self):
        assert len(FIXTURE) == 45
        assert sum(1 for r in FIXTURE if r.recist == RecistLabel.NA) == 7
        assert sum(1 for r in FIXTURE if r.recist.is_pr_or_cr) == 21

    def test_full_course_contingency(self):
        table = build_contingency([r.full for r in FIXTURE],
                                  [r.recist for r in FIXTURE])
        assert table.as_tuple() == (12, 4, 9, 13)

    def test_three_week_contingency(self):
        table = build_contingency([r.three_week for r in FIXTURE],
                                  [r.recist for r in FIXTURE])
        assert table.as_tuple() == (11, 3, 10, 14)

    def test_correct_classification_counts(self):
        # 12 of the 21 PR-or-CR patients and 13 of the 17 non-PR patients
        table = build_contingency([r.full for r in FIXTURE],
                                  [r.recist for r in FIXTURE])
        assert table.a == 12 and table.a + table.c == 21
        assert table.d == 13 and table.b + table.d == 17

    def test_all_na_rejected(self):
        with pytest.raises(ValidationError):
            build_contingency([Decision.NO_DECISION] * 3, [RecistLabel.NA] * 3)

    def test_tabulate_matches_contingency_metrics_and_fisher(self):
        from defield.stats import fisher_exact
        labels = [r.recist for r in FIXTURE]
        for decisions in ([r.full for r in FIXTURE], [r.three_week for r in FIXTURE],
                          [Decision.NO_DECISION] * len(FIXTURE)):
            table = build_contingency(decisions, labels)
            assert tabulate(decisions, labels) == (table, metrics(table),
                                                   fisher_exact(table))
        with pytest.raises(ValidationError):
            tabulate([Decision.NO_DECISION] * 3, [RecistLabel.NA] * 3)

    def test_reproduction_flags_recall_discrepancy(self):
        rep = reproduce_from_fixture(FIXTURE)
        assert any("recall" in f and "60.0" in f for f in rep.flags)
        assert rep.metric_table["all"].recall == pytest.approx(57.1, abs=0.1)


class TestMetrics:
    def test_three_week_values(self):
        m = metrics(Contingency2x2(11, 3, 10, 14))
        assert m.accuracy == pytest.approx(65.8, abs=0.1)
        assert m.precision == pytest.approx(78.6, abs=0.1)
        assert m.recall == pytest.approx(52.4, abs=0.1)

    def test_full_course_values(self):
        m = metrics(Contingency2x2(12, 4, 9, 13))
        assert m.precision == pytest.approx(75.0, abs=0.1)
        assert m.recall == pytest.approx(57.1, abs=0.1)

    def test_perfect_table(self):
        m = metrics(Contingency2x2(7, 0, 0, 5))
        assert (m.accuracy, m.precision, m.recall) == (100.0, 100.0, 100.0)

    def test_undefined_metrics_flagged(self):
        m = metrics(Contingency2x2(0, 0, 3, 4))
        assert m.precision is None
        assert m.recall == 0.0


class TestPopulationOrdering:
    def test_identical_regions_give_zero_t(self):
        samples = RegionSamples({r: np.linspace(0.9, 1.1, 50) for r in "URGN"})
        result = population_ordering(samples)
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
        result = population_ordering(samples)
        assert result.order == ["N", "R", "G", "U"]
        assert result.t_stats["R"]["G"] < 0 < result.t_stats["R"]["N"]

    def test_matrix_antisymmetry_exact(self):
        rng = np.random.default_rng(3)
        samples = RegionSamples({
            r: rng.uniform(0.9, 1.1, size=rng.integers(50, 200)) for r in "URGN"})
        result = population_ordering(samples)
        for x in "URGN":
            for y in "URGN":
                if x != y:
                    assert result.t_stats[x][y] == -result.t_stats[y][x]

    def test_empty_region_rejected(self):
        samples = RegionSamples({"U": [1.0], "R": [], "G": [1.0], "N": [1.0]})
        with pytest.raises(ValidationError):
            population_ordering(samples)


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


class TestPatientPipeline:
    def test_identical_weeks_are_degenerate_boundary_pr(self, identical_patient):
        m = patient_region_means(identical_patient, "all", FAST)
        assert m.mu_R == 1.0 and m.mu_G == 1.0
        assert m.mu_U == pytest.approx(1.0, abs=1e-4)
        assert "degenerate" in m.note
        assert classify(m) == Decision.PR_CLASSIFIED

    def test_week_limit_caching(self, identical_patient):
        m1 = patient_region_means(identical_patient, "all", FAST)
        m2 = patient_region_means(identical_patient, "all", FAST)
        assert m1 is m2

    def test_empty_masks_give_insufficient_region(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        rng = np.random.default_rng(5)
        weeks = []
        for k in range(2):
            vol = Volume(g, rng.uniform(0.5, 1.5, size=g.dims).astype(np.float32))
            mask = Mask(g, np.zeros(g.dims, dtype=np.uint8))
            weeks.append(write_week(tmp_path, f"week{k}", vol, mask))
        record = PatientRecord("p-empty", weeks, RecistLabel.NA)
        m = patient_region_means(record, "all", FAST)
        assert "insufficient region" in m.note
        assert classify(m) == Decision.NO_DECISION

    def test_record_requires_two_weeks(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        vol = Volume.full(g, 1.0)
        mask = Mask(g, np.zeros(g.dims, dtype=np.uint8))
        week = write_week(tmp_path, "week0", vol, mask)
        with pytest.raises(ValidationError):
            PatientRecord("p", [week], RecistLabel.NA)

    def test_weeks_must_be_strictly_ordered(self, tmp_path):
        g = GridGeometry((16, 16, 16))
        vol = Volume.full(g, 1.0)
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
    assert report.contingency["all"].as_tuple() == (1, 0, 0, 0)
    assert report.metric_table["all"].accuracy == 100.0
    # degenerate note surfaces as a warning
    assert any("degenerate" in w for w in report.warnings)


def test_load_manifest_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("patient_id,week\np0,0\n")
    with pytest.raises(ValidationError):
        load_manifest(bad)


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
