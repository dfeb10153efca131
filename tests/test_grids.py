"""Container invariants and the resampling/smoothing primitives."""
import math
import tracemalloc
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
    _upsample_array,
    downsample2,
    gaussian_kernel1d,
    gaussian_smooth,
    warp_mask,
    warp_volume,
)
from oracles import full_volume

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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                GridGeometry((8, 8, 8), spacing=(bad, 1.0, 1.0))
            with pytest.raises(ValidationError, match="finite"):
                GridGeometry((8, 8, 8), origin=(0.0, 0.0, bad))

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
        vol = full_volume(G8, 1.0)
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


@pytest.mark.parametrize("cls, attr, dtype, shape, bad", CONTAINERS,
                         ids=[c[0].__name__ for c in CONTAINERS])
def test_container_adopts_only_an_owned_read_only_array(cls, attr, dtype, shape, bad):
    # the caller's writeable array is copied
    arr = np.zeros(shape, dtype=dtype)
    assert not np.shares_memory(getattr(cls(G8, arr), attr), arr)
    # a read-only view into memory the array does not own is copied
    view = np.frombuffer(bytes(arr.nbytes), dtype=dtype).reshape(shape)
    assert not view.flags.writeable and not view.flags.owndata
    assert not np.shares_memory(getattr(cls(G8, view), attr), view)
    # a handed-over array (owns its memory, read-only) is adopted as it is
    owned = grids._handover(np.zeros(shape, dtype=dtype))
    assert getattr(cls(G8, owned), attr) is owned


def test_one_sampler_and_one_freezer():
    # every pull-back sample and every read-only freeze goes through grids.py
    src = Path(grids.__file__).parent
    offenders = [(path.name, word) for path in sorted(src.glob("*.py"))
                 if path.name != "grids.py"
                 for word in ("map_coordinates", "flags.writeable")
                 if word in path.read_text(encoding="utf-8")]
    assert offenders == []


class TestTrilinearSample:
    """The trilinear blend and the boundary clamping of every pull-back
    sample, through warp_volume with a constant displacement: voxel z
    samples z - shift."""

    def test_constant(self):
        vol = full_volume(G8, 5.0)
        for shift in [(0, 0, 0), (3.3, 4.7, 1.1), (-2.0, 9.5, 3.0)]:
            out = warp_volume(vol, uniform_field(G8, *shift))
            assert np.allclose(out.data, 5.0)

    def test_linearity_on_tiny_grid(self):
        g2 = GridGeometry((2, 2, 2))
        out = warp_volume(Volume(g2, xyz(g2)[0]), uniform_field(g2, -0.5, 0.0, 0.0))
        # voxel 0 samples x = 0.5; voxel 1 samples x = 1.5, clamped to 1
        assert np.allclose(out.data[0], 0.5)
        assert np.allclose(out.data[1], 1.0)

    def test_affine_exact(self):
        x, y, z = xyz(G8)
        out = warp_volume(Volume(G8, x + 2 * y + 3 * z),
                          uniform_field(G8, -0.25, -0.5, 0.25))
        # voxel (1, 2, 1) samples (1.25, 2.5, 0.75)
        assert out.data[1, 2, 1] == pytest.approx(8.5, abs=1e-5)

    def test_affine_exact_property(self):
        rng = np.random.default_rng(0)
        x, y, z = xyz(G8)
        inner = (slice(1, -1),) * 3
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, size=4)
            shift = rng.uniform(-1, 1, size=3)
            vol = Volume(G8, coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * z)
            out = warp_volume(vol, uniform_field(G8, *shift))
            expected = vol.data - coeffs[1:] @ shift
            assert np.allclose(out.data[inner], expected[inner], atol=1e-4)

    def test_out_of_range_clamps(self):
        vol = Volume(G8, xyz(G8)[0])
        low = warp_volume(vol, uniform_field(G8, 3.0, 0.0, 0.0))
        high = warp_volume(vol, uniform_field(G8, -5.0, 0.0, 0.0))
        # voxel 0 samples x = -3, voxel 7 samples x = 12
        assert np.allclose(low.data[0], 0.0)
        assert np.allclose(high.data[7], 7.0)


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
        vol = full_volume(G8, 2.5)
        rng = np.random.default_rng(2)
        disp = VectorField(G8, rng.uniform(-2, 2, size=(3, *G8.dims)).astype(np.float32))
        out = warp_volume(vol, disp)
        assert np.allclose(out.data, 2.5)

    def test_geometry_mismatch(self):
        other = GridGeometry((8, 8, 9))
        with pytest.raises(GeometryMismatch):
            warp_volume(full_volume(G8, 0.0), VectorField.zero(other))


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

    def test_peak_memory_per_voxel(self):
        # the result (1 B/voxel) plus one x-slab of float32 coordinates
        # (12 B per slab voxel: 1.5 B/voxel on 8 of 64 planes), not a
        # whole-grid coordinate array
        g = GridGeometry((64, 64, 64))
        rng = np.random.default_rng(6)
        mask = Mask(g, (rng.uniform(size=g.dims) > 0.5).astype(np.uint8))
        disp = VectorField(g, rng.uniform(-2, 2, size=(3, *g.dims)).astype(np.float32))
        tracemalloc.start()
        try:
            warp_mask(mask, disp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n_voxels <= 4


class TestGaussianSmooth:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(5)
        vol = Volume(G8, rng.uniform(size=G8.dims).astype(np.float32))
        assert np.array_equal(gaussian_smooth(vol, 0.0).data, vol.data)

    def test_constant_unchanged(self):
        vol = full_volume(G8, 4.0)
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
            gaussian_smooth(full_volume(G8, 0.0), -0.5)

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
        vol = full_volume(G8, 1.5)
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
            downsample2(full_volume(GridGeometry((3, 8, 8)), 0.0))

    def test_upsample_uniform_doubles(self):
        out = _upsample_array(np.ones((3, 4, 4, 4), dtype=np.float32), (8, 8, 8))
        assert out.shape == (3, 8, 8, 8) and out.dtype == np.float32
        assert np.allclose(out, 2.0, atol=1e-6)

    def test_upsample_allocates_its_result_once(self):
        # per fine voxel: the float32 result (12 B), which is doubled in
        # place, and one x-slab of coordinates (1.5 B at 64^3); 15.0 B
        # measured, 24 with whole-grid coordinates
        fine = GridGeometry((64, 64, 64))
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 32, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            _upsample_array(data, fine.dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / fine.n_voxels <= 16

    @pytest.mark.parametrize("components, bound", [(3, 14), (1, 6)])
    def test_pull_allocates_its_result_once(self, components, bound):
        # per voxel: the float32 result (12 B for a field, 4 for a scalar)
        # and one x-slab of coordinates (1.5 B at 64^3); 13.6 and 5.6 B
        # measured, 24.0 and 16.0 with whole-grid coordinates
        g = GridGeometry((64, 64, 64))
        rng = np.random.default_rng(8)
        disp = rng.normal(0.0, 2.0, size=(3, *g.dims)).astype(np.float32)
        shape = (3, *g.dims) if components == 3 else g.dims
        data = rng.normal(size=shape).astype(np.float32)
        tracemalloc.start()
        try:
            grids._pull(data, disp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n_voxels <= bound
