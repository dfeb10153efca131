"""Analytic phantom fields and synthetic course generation."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from defield.cli import main
from defield.defanalysis import (
    collect_samples,
    jacobian_map,
    partition_regions,
    pool,
)
from defield.grids import GridGeometry, ValidationError, warp_mask
from defield.phantom import (
    PhantomSpec,
    RadialComponent,
    RadialMap,
    _radius_grid,
    grid_center,
    pullback,
    synth_cohort,
    synth_course,
)
from oracles import affine_field, radial_gaussian_field, voxelwise_pullback

G32 = GridGeometry((32, 32, 32))
C32 = grid_center(G32)


class TestAffineField:
    def test_identity(self):
        field, det = affine_field(np.eye(3), [0, 0, 0], G32)
        assert det == pytest.approx(1.0)
        assert np.allclose(field.data, 0.0)
        assert np.allclose(jacobian_map(field).data, 1.0)

    def test_isotropic_scaling(self):
        field, det = affine_field(1.2 * np.eye(3), [0, 0, 0], G32)
        assert det == pytest.approx(1.728)
        jm = jacobian_map(field)
        assert np.allclose(jm.data[1:-1, 1:-1, 1:-1], 1.728, atol=1e-6)

    def test_diagonal(self):
        field, det = affine_field(np.diag([1.1, 0.9, 1.0]), [0, 0, 0], G32)
        assert det == pytest.approx(0.99)
        jm = jacobian_map(field)
        assert np.allclose(jm.data[1:-1, 1:-1, 1:-1], 0.99, atol=1e-6)

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValidationError):
            affine_field(np.diag([1.0, -1.0, 1.0]), [0, 0, 0], G32)


class TestRadialGaussianField:
    def test_zero_amplitude(self):
        field, jmap = radial_gaussian_field(C32, 0.0, 5.0, G32)
        assert np.allclose(field.data, 0.0)
        assert np.allclose(jmap.data, 1.0)

    def test_center_value_closed_form(self):
        a = 0.1
        comp = RadialComponent(a, 5.0)
        assert comp.jacobian(0.0) == pytest.approx((1 + a) ** 3)
        # voxel exactly at an integer center
        _, jmap = radial_gaussian_field((16.0, 16.0, 16.0), a, 5.0, G32)
        assert jmap.data[16, 16, 16] == pytest.approx((1 + a) ** 3, rel=1e-5)

    def test_far_field_is_identity(self):
        comp = RadialComponent(0.3, 3.0)
        assert comp.jacobian(30.0) == pytest.approx(1.0, abs=1e-4)
        field, jmap = radial_gaussian_field(C32, 0.3, 3.0, G32)
        assert abs(jmap.data[0, 0, 0] - 1.0) < 1e-4
        assert np.abs(field.data[:, 0, 0, 0]).max() < 1e-4

    def test_monotonicity_guards(self):
        with pytest.raises(ValidationError):
            RadialComponent(-1.0, 5.0)           # inward fold
        with pytest.raises(ValidationError):
            RadialComponent(2.3, 5.0)            # outward fold
        with pytest.raises(ValidationError):
            RadialComponent(1.0, 0.5)            # |a|/sigma >= sqrt(e)

    def test_numeric_jacobian_matches_analytic(self):
        field, analytic = radial_gaussian_field(C32, 0.25, 6.0, G32)
        jm = jacobian_map(field)
        sl = (slice(2, -2),) * 3
        assert np.abs(jm.data[sl] / analytic.data[sl] - 1.0).max() < 0.02


class TestRadialMap:
    def test_inverse_roundtrip(self):
        rm = RadialMap((RadialComponent(-0.25, 7.0), RadialComponent(0.03, 16.0)))
        r = np.linspace(0.0, 30.0, 200)
        assert np.abs(rm.map(rm.inverse(r)) - r).max() < 2e-6

    def test_pullback_field_matches_analytic_jacobian(self):
        # stencil truncation error scales with per-voxel curvature: 3% at
        # this compact 32^3 scale, under 2% on 64^3-proportioned fields
        rm = RadialMap((RadialComponent(-0.3, 7.0),))
        field, analytic = pullback(rm, C32, G32)
        jm = jacobian_map(field)
        sl = (slice(2, -2),) * 3
        assert np.abs(jm.data[sl] / analytic.data[sl] - 1.0).max() < 0.03

    def test_pullback_two_percent_on_64_cube(self):
        g = GridGeometry((64, 64, 64))
        rm = RadialMap((RadialComponent(-0.3, 11.0), RadialComponent(0.04, 26.0)))
        center = grid_center(g)
        field, analytic = pullback(rm, center, g)
        jm = jacobian_map(field)
        sl = (slice(1, -1),) * 3
        assert np.abs(jm.data[sl] / analytic.data[sl] - 1.0).max() < 0.02

    def test_composite_jacobian_chains(self):
        inner = RadialComponent(-0.2, 6.0)
        outer = RadialComponent(0.05, 15.0)
        rm = RadialMap((inner, outer))
        r = np.array([0.0, 4.0, 9.0, 14.0])
        expected = inner.jacobian(r) * outer.jacobian(inner.map(r))
        assert np.allclose(rm.jacobian(r), expected, rtol=1e-12)


def gt_region_means(course):
    samples = []
    for k, field in enumerate(course.gt_fields):
        warped = warp_mask(course.weeks[k].mask, field)
        part = partition_regions(warped, course.weeks[k + 1].mask, week_index=k)
        samples.append(collect_samples(jacobian_map(field), part))
    return pool(samples)


class TestSynthCourse:
    def spec(self, mode, **kw):
        defaults = dict(grid=GridGeometry((40, 40, 40)), mode=mode, seed=11)
        defaults.update(kw)
        return PhantomSpec(**defaults)

    def test_stable_masks_identical_and_no_change_regions(self):
        course = synth_course(self.spec("stable"))
        first = course.weeks[0].mask.data
        assert all(np.array_equal(first, w.mask.data) for w in course.weeks)
        pooled = gt_region_means(course)
        assert pooled.counts()["R"] == 0 and pooled.counts()["G"] == 0

    def test_shrink_mask_volume_strictly_decreases(self):
        course = synth_course(self.spec("shrink"))
        volumes = [int(w.mask.data.sum()) for w in course.weeks]
        assert all(a > b for a, b in zip(volumes, volumes[1:]))

    def test_grow_has_empty_r_and_nonempty_g(self):
        course = synth_course(self.spec("grow"))
        pooled = gt_region_means(course)
        assert pooled.counts()["R"] == 0
        assert pooled.counts()["G"] > 0

    def test_shrink_satisfies_ordering_hypothesis_with_gt_fields(self):
        course = synth_course(self.spec("shrink"))
        pooled = gt_region_means(course)
        means = {r: pooled.mean(r) for r in "URGN"}
        assert means["R"] <= 1.0
        assert means["R"] <= means["U"]
        assert means["R"] <= means["G"]
        assert means["N"] <= means["R"] <= means["G"] <= means["U"]

    def test_grow_does_not_satisfy_hypothesis(self):
        course = synth_course(self.spec("grow"))
        pooled = gt_region_means(course)
        # reduced region empty: the classifier must not reach a decision
        assert pooled.counts()["R"] == 0

    def test_bit_reproducible(self):
        a = synth_course(self.spec("shrink", seed=5))
        b = synth_course(self.spec("shrink", seed=5))
        for wa, wb in zip(a.weeks, b.weeks):
            assert np.array_equal(wa.volume.data, wb.volume.data)
            assert np.array_equal(wa.mask.data, wb.mask.data)
        for fa, fb in zip(a.gt_fields, b.gt_fields):
            assert np.array_equal(fa.data, fb.data)

    def test_gt_fields_generate_the_next_week(self):
        # warping a mask by the retained field reproduces the next anatomy ball
        course = synth_course(self.spec("grow"))
        warped = warp_mask(course.weeks[0].mask, course.gt_fields[0])
        nxt = course.weeks[1].mask
        overlap = (warped.data & nxt.data).sum()
        assert overlap / warped.data.sum() > 0.99

    def test_default_radius_follows_the_grid(self):
        radii = {n: PhantomSpec(grid=GridGeometry((n, n, n))).radius
                 for n in (21, 36, 40, 64)}
        assert radii == {21: 6.3, 36: 10.8, 40: 12.0, 64: 12.0}
        assert PhantomSpec(grid=GridGeometry((64, 21, 40))).radius == 6.3

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            self.spec("implode")
        with pytest.raises(ValidationError):
            self.spec("shrink", radius=14.0)  # >= min dim / 3
        with pytest.raises(ValidationError):
            self.spec("shrink", weeks=1)

    def test_analytic_jacobians_match_numeric(self):
        course = synth_course(self.spec("shrink"))
        sl = (slice(2, -2),) * 3
        for field, analytic in zip(course.gt_fields, course.gt_jacobians):
            jm = jacobian_map(field)
            assert np.abs(jm.data[sl] / analytic.data[sl] - 1.0).max() < 0.03

    def test_course_fields_two_percent_on_64_cube(self):
        # proportionally sized course on a 64^3 grid meets the 2% bound
        spec = PhantomSpec(grid=GridGeometry((64, 64, 64)), radius=19.0,
                           mode="shrink", weeks=3, seed=4)
        course = synth_course(spec)
        sl = (slice(1, -1),) * 3
        for field, analytic in zip(course.gt_fields, course.gt_jacobians):
            jm = jacobian_map(field)
            assert np.abs(jm.data[sl] / analytic.data[sl] - 1.0).max() < 0.02


def test_synth_cohort_varies_seeds():
    spec = PhantomSpec(grid=GridGeometry((40, 40, 40)), mode="shrink", seed=1)
    courses = synth_cohort(spec, 3)
    assert len(courses) == 3
    assert courses[0].spec.seed != courses[1].spec.seed
    assert not np.array_equal(courses[0].weeks[0].volume.data,
                              courses[1].weeks[0].volume.data)


def test_course_write_creates_manifest_rows(tmp_path):
    spec = PhantomSpec(grid=GridGeometry((32, 32, 32)), radius=9.0,
                       mode="shrink", weeks=2, seed=2)
    course = synth_course(spec)
    entries = course.write(tmp_path, "p00")
    assert [e.week for e in entries] == [0, 1]
    from defield import volio
    vol = volio.read_volume(entries[0].volume_path)
    assert np.array_equal(vol.data, course.weeks[0].volume.data)
    mask = volio.read_mask(entries[1].mask_path)
    assert np.array_equal(mask.data, course.weeks[1].mask.data)


# sha256 over the "<relpath> <sha256>" lines of every file that `defield
# phantom` writes (volumes, masks, ground-truth fields and Jacobians, the
# manifest) for each mode of test_phantom_bytes_are_pinned
PHANTOM_SHA256 = {
    "shrink": "45c1efe49578888be8f6b7c6ccff05df3fe32aeaa367a651ab848c65858f6f0f",
    "grow": "a10420a00ea299e2495fe4dee63f188561ff85490cabf85b71daacfc418584b6",
    "stable": "64442034fc96d3f4337df6a2636b101b37d5c22f84d42e33a2d0c1e9e53614fe",
}


def _tree_digest(root) -> str:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{path.relative_to(root).as_posix()} {digest}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PHANTOM_SHA256))
def test_phantom_bytes_are_pinned(mode, tmp_path):
    assert main(["phantom", "--out", str(tmp_path / "out"), "--mode", mode, "--grid", "24",
                 "--radius", "6", "--weeks", "3", "--patients", "2",
                 "--seed", "5", "--recist", "PR"]) == 0
    assert _tree_digest(tmp_path / "out") == PHANTOM_SHA256[mode]


@pytest.mark.parametrize("mode, calls", [("shrink", 3), ("grow", 3), ("stable", 0)])
def test_one_radial_inversion_per_week(mode, calls, monkeypatch):
    sizes = []
    real_inverse = RadialMap.inverse

    def counted(self, rho, tol=1e-6):
        sizes.append(np.size(rho))
        return real_inverse(self, rho, tol)

    monkeypatch.setattr(RadialMap, "inverse", counted)
    grid = GridGeometry((24, 24, 24))
    synth_course(PhantomSpec(grid=grid, radius=6.0, mode=mode, weeks=4, seed=5))
    # each week bisects the distinct radii only: 152 of the 13 824 voxels
    distinct = np.unique(_radius_grid(grid, grid_center(grid))[1]).size
    assert distinct < grid.n_voxels
    assert sizes == [distinct] * calls


@pytest.mark.parametrize("dims, center", [
    ((21, 21, 21), (10.0, 10.0, 10.0)),     # the centre voxel has r = 0
    ((24, 24, 24), (11.5, 11.5, 11.5)),
    ((20, 27, 17), (9.3, 12.7, 8.1)),       # non-cubic, off-grid centre
])
def test_pullback_is_bitwise_the_voxelwise_bisection(dims, center):
    grid = GridGeometry(dims)
    rm = RadialMap((RadialComponent(-0.52, 3.5), RadialComponent(0.068, 8.1)))
    field, jac = pullback(rm, center, grid)
    ref_field, ref_jac = voxelwise_pullback(rm, center, grid)
    assert np.array_equal(field.data, ref_field.data)
    assert np.array_equal(jac.data, ref_jac.data)


def test_cohort_jitter_keeps_the_radius_rules():
    # +1 would reach a third of the grid at 21^3 and 30^3, and -1 would
    # leave 2 voxels or less at radius 2.5: those patients keep the base radius
    def radii(n, **kw):
        spec = PhantomSpec(grid=GridGeometry((n, n, n)), weeks=2, **kw)
        return [c.spec.radius for c in synth_cohort(spec, 3)]

    assert radii(21) == [6.3, 5.3, 6.3]
    assert radii(30) == [9.0, 8.0, 9.0]
    assert radii(31) == [9.3, 8.3, 10.3]
    assert radii(40) == [12.0, 11.0, 13.0]
    assert radii(24, radius=2.5, amplitude=0.5) == [2.5, 2.5, 3.5]


def test_cohort_jitter_keeps_the_amplitude_range():
    # at 16^3 the -1 jitter (radius 3.8) would leave the monotone amplitude
    # range in a later week, and +1 (5.8) would reach a third of the grid
    spec = PhantomSpec(grid=GridGeometry((16, 16, 16)), weeks=4)
    assert [c.spec.radius for c in synth_cohort(spec, 3)] == [4.8, 4.8, 4.8]
    with pytest.raises(ValidationError, match="monotone range"):
        synth_course(replace(spec, radius=3.8))


# sha256 of the tree that `defield phantom --grid 40 --patients 3 --weeks 2
# --seed 5` writes, recorded before the pullback solved per distinct radius;
# the third patient's jittered radius 13 is under 40 / 3, so it is kept
PHANTOM_40_SHA256 = "821c6230da6d051044ab9d04ea80ca63d1a01fdd847512b5d4240ab65dc69b54"


def test_phantom_40_three_patients_bytes_are_pinned(tmp_path):
    assert main(["phantom", "--out", str(tmp_path / "out"), "--grid", "40",
                 "--patients", "3", "--weeks", "2", "--seed", "5"]) == 0
    assert _tree_digest(tmp_path / "out") == PHANTOM_40_SHA256
