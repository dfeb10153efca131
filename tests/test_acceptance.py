"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from defield import volio
from defield.cli import main as cli_main
from defield.cohort import (
    Decision,
    PatientRecord,
    load_manifest,
    run_cohort,
    write_manifest,
)
from defield.defanalysis import (
    RegionPartition,
    RegionSamples,
    jacobian_map,
    read_samples_csv,
    write_partition,
    write_samples_csv,
    partition_regions,
)
from defield.grids import GridGeometry, Mask, VectorField, Volume, warp_volume
from defield.phantom import (
    PhantomSpec,
    RadialComponent,
    RadialMap,
    grid_center,
    synth_cohort,
    synth_course,
)
from defield.registration import (
    RegistrationParams,
    compose,
    lcc_similarity,
    register,
)
from defield.stats import (
    Contingency2x2,
    SummaryStats,
    bootstrap_ci,
    hypergeom_pmfs,
    normal_ci,
    pooled_t_test,
    summarize,
)
from oracles import affine_field, blob_volume, mean_norm, pullback, radial_gaussian_field


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


def test_criterion_1_fixture_reproduction(tmp_path, capsys):
    with criterion(1, "fixture reproduces the contingency tables, Fisher "
                      "results and metrics in under a second"):
        start = time.perf_counter()
        assert cli_main(["reproduce-paper", "--out", str(tmp_path)]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert "(12, 4, 9, 13)" in out
        assert "(11, 3, 10, 14)" in out

        from defield.cohort import load_fixture, reproduce_from_fixture
        tables, payload = reproduce_from_fixture(load_fixture())
        assert tables["all"].contingency.as_tuple() == (12, 4, 9, 13)
        assert tables["3"].contingency.as_tuple() == (11, 3, 10, 14)
        or_full, p_full = tables["all"].fisher
        or_3w, p_3w = tables["3"].fisher
        assert or_full == pytest.approx(4.33, abs=0.01)
        assert p_full == pytest.approx(0.051, abs=0.005)
        assert or_3w == pytest.approx(5.13, abs=0.01)
        assert p_3w == pytest.approx(0.043, abs=0.005)
        m_full, m_3w = tables["all"].metrics, tables["3"].metrics
        assert m_full["precision"] == pytest.approx(75.0, abs=0.1)
        assert m_3w["precision"] == pytest.approx(78.6, abs=0.1)
        assert m_3w["recall"] == pytest.approx(52.4, abs=0.1)
        assert m_full["accuracy"] == pytest.approx(65.8, abs=0.1)
        assert m_3w["accuracy"] == pytest.approx(65.8, abs=0.1)
        # computed full-course recall, with the reference 60.0 flagged
        assert m_full["recall"] == pytest.approx(57.1, abs=0.1)
        assert any("60.0" in f for f in payload["flags"])
        assert elapsed < 1.0


def test_criterion_2_jacobian_correctness():
    with criterion(2, "Jacobian maps match analytic determinants on 64^3 "
                      "grids (affine 1e-6, radial Gaussian 2%)"):
        g = GridGeometry((64, 64, 64))
        interior = (slice(1, -1),) * 3
        matrices = [
            1.2 * np.eye(3),
            np.diag([1.1, 0.9, 1.0]),
            np.array([[1.05, 0.04, 0.0], [-0.03, 0.97, 0.05], [0.02, 0.0, 1.02]]),
        ]
        for matrix in matrices:
            field, det = affine_field(matrix, [0.5, -0.25, 1.0], g)
            jm = jacobian_map(field)
            assert np.abs(jm.data[interior] - det).max() < 1e-6

        center = grid_center(g)
        for amplitude, width in ((0.3, 10.0), (-0.25, 8.0), (0.15, 14.0)):
            field, analytic = radial_gaussian_field(center, amplitude, width, g)
            jm = jacobian_map(field)
            rel = np.abs(jm.data[interior] / analytic.data[interior] - 1.0)
            assert rel.max() < 0.02


def test_criterion_3_registration_properties():
    with criterion(3, "blob-phantom registration: mean EPE < 0.5 voxels, "
                      "positive Jacobians, inverse-consistent, monotone energy, "
                      "under 5 minutes"):
        start = time.perf_counter()
        g = GridGeometry((64, 64, 64))
        center = grid_center(g)
        source = blob_volume(g, center, 18.0, seed=5)
        gt_map = RadialMap((RadialComponent(0.42, 12.0),))
        gt, _ = pullback(gt_map, center, g)
        assert 2.5 < gt.max_norm() <= 3.2  # known diffeomorphism of ~3 voxels
        target = warp_volume(source, gt)

        params = RegistrationParams()
        transform, trace = register(source, target, params)

        err = np.sqrt(((transform.forward.data - gt.data) ** 2).sum(axis=0))
        support = source.data > 0.45
        assert err[support].mean() < 0.5

        interior = (slice(1, -1),) * 3
        assert jacobian_map(transform.forward).data[interior].min() > 0
        assert jacobian_map(transform.backward).data[interior].min() > 0

        residual = compose(transform.forward, transform.backward)
        assert mean_norm(residual) < 0.1

        for level in {e.level for e in trace.entries}:
            energies = [e.energy for e in trace.entries
                        if e.level == level and e.accepted]
            assert all(b >= a - 1e-6 for a, b in zip(energies, energies[1:]))

        sim_before = lcc_similarity(source, target, params.lcc_sigma)
        sim_after = lcc_similarity(warp_volume(source, transform.forward),
                                   target, params.lcc_sigma)
        assert sim_after >= sim_before
        assert time.perf_counter() - start < 300.0


COHORT_PARAMS = RegistrationParams(pyramid_levels=2, iterations_per_level=40)


def _run_phantom_cohort(tmp_path, mode, n_patients=10, seed=101):
    spec = PhantomSpec(grid=GridGeometry((40, 40, 40)), mode=mode, seed=seed)
    courses = synth_cohort(spec, n_patients)
    outdir = tmp_path / mode
    outdir.mkdir()
    manifest = outdir / "manifest.csv"
    write_manifest(manifest, [PatientRecord(f"p{index:02d}",
                                            course.write(str(outdir), f"p{index:02d}"))
                              for index, course in enumerate(courses)])
    records = load_manifest(manifest)
    return run_cohort(records, COHORT_PARAMS, workers=2)


def test_criterion_4_cohort_ordering(tmp_path):
    with criterion(4, "10-patient shrink cohort: population ordering "
                      "N<=R<=G<=U and >=8/10 PR; grow cohort <=2/10 PR; "
                      "t matrix skew-symmetric; under 30 minutes"):
        start = time.perf_counter()

        shrink = _run_phantom_cohort(tmp_path, "shrink")
        assert shrink.ordering is not None
        means = shrink.ordering.means
        assert means["N"] <= means["R"] <= means["G"] <= means["U"]
        assert shrink.ordering.order == ["N", "R", "G", "U"]
        pr_count = sum(1 for p in shrink.patients
                       if p.decisions["all"] == Decision.PR_CLASSIFIED)
        assert pr_count >= 8

        # the clinical t magnitudes are not reproducible; assert the
        # sign/antisymmetry structure instead
        t = shrink.ordering.t_stats
        for x in "URGN":
            for y in "URGN":
                if x != y:
                    assert t[x][y] == -t[y][x]
                    assert (t[x][y] > 0) == (means[x] > means[y])

        grow = _run_phantom_cohort(tmp_path, "grow")
        grow_pr = sum(1 for p in grow.patients
                      if p.decisions["all"] == Decision.PR_CLASSIFIED)
        assert grow_pr <= 2

        assert time.perf_counter() - start < 1800.0


def test_criterion_5_statistics_oracles():
    with criterion(5, "statistics oracles: hand-computed t, bootstrap-vs-"
                      "normal CI agreement, hypergeometric mass, seeded "
                      "reproducibility"):
        t, _ = pooled_t_test(SummaryStats(1000, 1.04, 0.1),
                             SummaryStats(1000, 1.00, 0.1))
        assert t == pytest.approx(8.944, abs=1e-2)
        ci = normal_ci(summarize([1.0, 2.0, 3.0]))
        assert ci.lo == pytest.approx(0.868, abs=1e-3)
        assert ci.hi == pytest.approx(3.132, abs=1e-3)

        rng = np.random.default_rng(12)
        samples = rng.normal(1.0, 0.1, size=100_000)
        boot = bootstrap_ci(samples, b=1000, seed=4)
        norm = normal_ci(summarize(samples))
        assert boot.hi - boot.lo == pytest.approx(norm.hi - norm.lo, rel=0.10)

        for table in ((12, 4, 9, 13), (11, 3, 10, 14), (40, 17, 23, 55)):
            _, pmf, _ = hypergeom_pmfs(Contingency2x2(*table))
            assert abs(pmf.sum() - 1.0) < 1e-9

        again = bootstrap_ci(samples, b=1000, seed=4)
        assert (again.lo, again.hi) == (boot.lo, boot.hi)
        spec = PhantomSpec(grid=GridGeometry((32, 32, 32)), radius=9.0,
                           mode="shrink", weeks=3, seed=9)
        a, b = synth_course(spec), synth_course(spec)
        assert all(np.array_equal(x.volume.data, y.volume.data)
                   for x, y in zip(a.weeks, b.weeks))


def test_criterion_6_format_roundtrips(tmp_path):
    with criterion(6, "every .vol, field, partition and samples-CSV artifact "
                      "survives write -> read -> write byte-identically"):
        g = GridGeometry((6, 5, 4), spacing=(0.9, 1.1, 1.3), origin=(4.5, -2.0, 0.25))
        rng = np.random.default_rng(3)

        vol = Volume(g, rng.uniform(-3, 3, size=g.dims).astype(np.float32))
        p1, p2 = tmp_path / "v1.vol", tmp_path / "v2.vol"
        volio.write_volume(p1, vol)
        volio.write_volume(p2, volio.read_volume(p1))
        assert p1.read_bytes() == p2.read_bytes()

        mask = Mask(g, (rng.uniform(size=g.dims) > 0.4).astype(np.uint8))
        m1, m2 = tmp_path / "m1.vol", tmp_path / "m2.vol"
        volio.write_mask(m1, mask)
        volio.write_mask(m2, volio.read_mask(m1))
        assert m1.read_bytes() == m2.read_bytes()

        field = VectorField(g, rng.normal(size=(3, *g.dims)).astype(np.float32))
        f1, f2 = tmp_path / "f1.vol", tmp_path / "f2.vol"
        volio.write_field(f1, field)
        volio.write_field(f2, volio.read_field(f1))
        assert f1.read_bytes() == f2.read_bytes()

        other = Mask(g, (rng.uniform(size=g.dims) > 0.6).astype(np.uint8))
        part = partition_regions(mask, other)
        pt1, pt2 = tmp_path / "p1.vol", tmp_path / "p2.vol"
        write_partition(pt1, part)
        geometry, labels, *_ = volio.read_raw(pt1)
        write_partition(pt2, RegionPartition(geometry, labels))
        assert pt1.read_bytes() == pt2.read_bytes()

        samples = RegionSamples({r: rng.uniform(0.5, 2.0, size=7) for r in "URGN"})
        c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_samples_csv(c1, samples)
        write_samples_csv(c2, read_samples_csv(c1))
        assert c1.read_bytes() == c2.read_bytes()
