"""Container invariants and the resampling/smoothing/differentiation primitives."""
from pathlib import Path

import numpy as np
import pytest

from defield import grids
from defield.defanalysis import JacobianMap, RegionPartition
from defield.grids import (
    GeometryMismatch,
    GridGeometry,
    Mask,
    ValidationError,
    VectorField,
    Volume,
    downsample2,
    gaussian_kernel1d,
    gaussian_smooth,
    gradient_central,
    index_coords,
    trilinear_sample,
    upsample_field,
    warp_mask,
    warp_volume,
)

G8 = GridGeometry((8, 8, 8))


def xyz(geometry):
    return np.indices(geometry.dims, dtype=np.float32)


def uniform_field(geometry, gx, gy, gz):
    data = np.stack([
        np.full(geometry.dims, gx), np.full(geometry.dims, gy),
        np.full(geometry.dims, gz),
    ]).astype(np.float32)
    return VectorField(geometry, data)


class TestContainers:
    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            GridGeometry((1, 8, 8))
        with pytest.raises(ValidationError):
            GridGeometry((8, 8, 8), spacing=(0.0, 1.0, 1.0))

    def test_volume_rejects_bad_data(self):
        with pytest.raises(ValidationError):
            Volume(G8, np.zeros((8, 8, 4), dtype=np.float32))
        bad = np.zeros(G8.dims, dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume(G8, bad)

    def test_mask_rejects_nonbinary(self):
        arr = np.zeros(G8.dims, dtype=np.uint8)
        arr[1, 1, 1] = 2
        with pytest.raises(ValidationError):
            Mask(G8, arr)

    def test_field_shape(self):
        with pytest.raises(ValidationError):
            VectorField(G8, np.zeros((8, 8, 8), dtype=np.float32))

    def test_data_is_read_only(self):
        vol = Volume.full(G8, 1.0)
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 2.0


# class, array attribute, dtype, shape on G8, a value outside the allowed range
CONTAINERS = [
    (Volume, "data", np.float32, G8.dims, np.nan),
    (JacobianMap, "data", np.float32, G8.dims, np.inf),
    (VectorField, "data", np.float32, (3, *G8.dims), np.nan),
    (Mask, "data", np.uint8, G8.dims, 2),
    (RegionPartition, "labels", np.uint8, G8.dims, 4),
]


@pytest.mark.parametrize("cls, attr, dtype, shape, bad", CONTAINERS,
                         ids=[c[0].__name__ for c in CONTAINERS])
def test_container_validates_and_freezes(cls, attr, dtype, shape, bad):
    with pytest.raises(ValidationError):
        cls(G8, np.zeros((*shape[:-1], 4), dtype=dtype))
    arr = np.zeros(shape, dtype=dtype)
    arr.flat[5] = bad
    with pytest.raises(ValidationError):
        cls(G8, arr)
    arr.flat[5] = 1
    stored = getattr(cls(G8, arr), attr)
    assert stored.dtype == dtype and stored.shape == shape
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored.flat[0] = 1
    # the caller's array of the same dtype is copied, not aliased
    assert not np.shares_memory(stored, arr)
    arr.flat[0] = 1
    assert stored.flat[0] == 0


def test_one_sampler_and_one_freezer():
    # every pull-back sample and every read-only freeze goes through grids.py
    src = Path(grids.__file__).parent
    offenders = [(path.name, word) for path in sorted(src.glob("*.py"))
                 if path.name != "grids.py"
                 for word in ("map_coordinates", "flags.writeable")
                 if word in path.read_text(encoding="utf-8")]
    assert offenders == []


class TestTrilinearSample:
    def test_constant(self):
        vol = Volume.full(G8, 5.0)
        for p in [(0, 0, 0), (3.3, 4.7, 1.1), (-2.0, 9.5, 3.0)]:
            assert trilinear_sample(vol, p) == pytest.approx(5.0)

    def test_linearity_on_tiny_grid(self):
        g2 = GridGeometry((2, 2, 2))
        x = np.indices(g2.dims, dtype=np.float32)[0]
        vol = Volume(g2, x)
        assert trilinear_sample(vol, (0.5, 0.0, 0.0)) == pytest.approx(0.5)

    def test_affine_exact(self):
        x, y, z = xyz(G8)
        vol = Volume(G8, x + 2 * y + 3 * z)
        assert trilinear_sample(vol, (1.25, 2.5, 0.75)) == pytest.approx(8.5, abs=1e-5)

    def test_affine_exact_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, size=4)
            x, y, z = xyz(G8)
            vol = Volume(G8, coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * z)
            p = rng.uniform(0, 7, size=3)
            expected = coeffs[0] + coeffs[1:] @ p
            assert trilinear_sample(vol, p) == pytest.approx(expected, abs=1e-4)

    def test_out_of_range_clamps(self):
        x = xyz(G8)[0]
        vol = Volume(G8, x)
        assert trilinear_sample(vol, (-3.0, 0, 0)) == pytest.approx(0.0)
        assert trilinear_sample(vol, (12.0, 0, 0)) == pytest.approx(7.0)


class TestWarpVolume:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(1)
        vol = Volume(G8, rng.uniform(size=G8.dims).astype(np.float32))
        out = warp_volume(vol, VectorField.zero(G8))
        assert np.array_equal(out.data, vol.data)

    def test_uniform_shift_of_ramp(self):
        x = xyz(G8)[0]
        vol = Volume(G8, x)
        out = warp_volume(vol, uniform_field(G8, 1.0, 0.0, 0.0))
        # output(x) = input(x - 1) = x - 1, clamped at the low border
        assert np.allclose(out.data[1:], x[1:] - 1.0)
        assert np.allclose(out.data[0], 0.0)

    def test_constant_volume_any_field(self):
        vol = Volume.full(G8, 2.5)
        rng = np.random.default_rng(2)
        disp = VectorField(G8, rng.uniform(-2, 2, size=(3, *G8.dims)).astype(np.float32))
        out = warp_volume(vol, disp)
        assert np.allclose(out.data, 2.5)

    def test_geometry_mismatch(self):
        other = GridGeometry((8, 8, 9))
        with pytest.raises(GeometryMismatch):
            warp_volume(Volume.full(G8, 0.0), VectorField.zero(other))


class TestWarpMask:
    def test_zero_field_identity(self):
        arr = np.zeros(G8.dims, dtype=np.uint8)
        arr[2:5, 2:5, 2:5] = 1
        mask = Mask(G8, arr)
        out = warp_mask(mask, VectorField.zero(G8))
        assert np.array_equal(out.data, mask.data)

    def test_single_voxel_shift(self):
        # output(z) = mask(z - g): the voxel at (5,5,5) lands at (6,5,5)
        arr = np.zeros(G8.dims, dtype=np.uint8)
        arr[5, 5, 5] = 1
        out = warp_mask(Mask(G8, arr), uniform_field(G8, 1.0, 0.0, 0.0))
        assert np.argwhere(out.data).tolist() == [[6, 5, 5]]

    def test_empty_mask_stays_empty(self):
        rng = np.random.default_rng(3)
        disp = VectorField(G8, rng.uniform(-3, 3, size=(3, *G8.dims)).astype(np.float32))
        out = warp_mask(Mask(G8, np.zeros(G8.dims, dtype=np.uint8)), disp)
        assert out.data.sum() == 0

    def test_output_always_binary(self):
        rng = np.random.default_rng(4)
        arr = (rng.uniform(size=G8.dims) > 0.5).astype(np.uint8)
        disp = VectorField(G8, rng.uniform(-4, 4, size=(3, *G8.dims)).astype(np.float32))
        out = warp_mask(Mask(G8, arr), disp)
        assert set(np.unique(out.data)) <= {0, 1}


class TestGradient:
    def test_constant(self):
        grad = gradient_central(Volume.full(G8, 3.0))
        assert np.allclose(grad.data, 0.0)

    def test_linear_exact_everywhere(self):
        x = xyz(G8)[0]
        grad = gradient_central(Volume(G8, 3.0 * x))
        assert np.allclose(grad.data[0], 3.0)
        assert np.allclose(grad.data[1:], 0.0)

    def test_quadratic_interior_stencil(self):
        x = xyz(G8)[0]
        grad = gradient_central(Volume(G8, x * x))
        # central difference at x=4: (25 - 9) / 2 = 8
        assert grad.data[0, 4, 4, 4] == pytest.approx(8.0)


class TestGaussianSmooth:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(5)
        vol = Volume(G8, rng.uniform(size=G8.dims).astype(np.float32))
        assert np.array_equal(gaussian_smooth(vol, 0.0).data, vol.data)

    def test_constant_unchanged(self):
        vol = Volume.full(G8, 4.0)
        assert np.allclose(gaussian_smooth(vol, 1.7).data, 4.0, atol=1e-6)

    def test_impulse_center_weight(self):
        g = GridGeometry((16, 16, 16))
        arr = np.zeros(g.dims, dtype=np.float32)
        arr[8, 8, 8] = 1.0
        out = gaussian_smooth(Volume(g, arr), 1.0)
        # closed-form discrete kernel at offset 0, radius ceil(3*1) = 3
        k = np.exp(-0.5 * np.arange(-3, 4) ** 2)
        k0 = k[3] / k.sum()
        assert out.data[8, 8, 8] == pytest.approx(k0 ** 3, rel=1e-5)

    def test_kernel_radius_and_normalization(self):
        k = gaussian_kernel1d(1.1)
        assert k.size == 2 * 4 + 1  # ceil(3.3) = 4
        assert k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_smooth(Volume.full(G8, 0.0), -0.5)

    def test_mean_preserved_away_from_boundary(self):
        g = GridGeometry((24, 24, 24))
        rng = np.random.default_rng(6)
        arr = np.zeros(g.dims, dtype=np.float32)
        arr[8:16, 8:16, 8:16] = rng.uniform(1, 2, size=(8, 8, 8)).astype(np.float32)
        out = gaussian_smooth(Volume(g, arr), 1.5)  # radius 5 stays inside
        assert out.data.mean(dtype=np.float64) == pytest.approx(
            arr.mean(dtype=np.float64), rel=1e-5)

    def test_field_smoothing_per_component(self):
        field = uniform_field(G8, 1.0, 2.0, 3.0)
        out = gaussian_smooth(field, 2.0)
        assert np.allclose(out.data[0], 1.0, atol=1e-5)
        assert np.allclose(out.data[2], 3.0, atol=1e-5)


class TestPyramid:
    def test_downsample_constant(self):
        vol = Volume.full(G8, 1.5)
        out = downsample2(vol)
        assert out.geometry.dims == (4, 4, 4)
        assert out.geometry.spacing == (2.0, 2.0, 2.0)
        assert np.allclose(out.data, 1.5, atol=1e-6)

    def test_downsample_ramp_block_means(self):
        x = xyz(G8)[0]
        out = downsample2(Volume(G8, x))
        # independent oracle: explicit kernel smoothing then 2x2x2 means
        k = np.exp(-0.5 * np.arange(-3, 4) ** 2)
        k /= k.sum()
        from scipy import ndimage
        sm = x.copy()
        for axis in range(3):
            sm = ndimage.correlate1d(sm, k, axis=axis, mode="nearest")
        expected = sm.reshape(4, 2, 4, 2, 4, 2).mean(axis=(1, 3, 5))
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_downsample_needs_dims_4(self):
        with pytest.raises(ValidationError):
            downsample2(Volume.full(GridGeometry((3, 8, 8)), 0.0))

    def test_upsample_uniform_doubles(self):
        coarse = GridGeometry((4, 4, 4), spacing=(2, 2, 2))
        fine = GridGeometry((8, 8, 8))
        field = VectorField(coarse, np.ones((3, 4, 4, 4), dtype=np.float32))
        out = upsample_field(field, fine)
        assert out.geometry == fine
        assert np.allclose(out.data, 2.0, atol=1e-6)


def test_index_coords_matches_indices():
    coords = index_coords(G8)
    assert coords.shape == (3, 8, 8, 8)
    assert coords[0, 3, 0, 0] == 3.0 and coords[2, 0, 0, 5] == 5.0
