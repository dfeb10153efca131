"""Voxel-grid containers and resampling/smoothing primitives.

Conventions used throughout the package:

* arrays are indexed ``[x, y, z]`` with shape ``(nx, ny, nz)``; vector
  fields carry a leading component axis, shape ``(3, nx, ny, nz)``;
* displacements are stored in voxel (index) units and realize the mapping
  ``phi(z) = z - g(z)``: warping samples the input at ``z - g(z)``;
* out-of-range sample coordinates clamp to the nearest boundary voxel;
* scalar data is float32, masks are uint8 with values in {0, 1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# x-planes per slab of jacobian_map, _gather, _pull and _upsample_array:
# bounds the per-slab temporaries (_pull's coordinates, 12 B per slab voxel)
SLAB_PLANES = 8


class DefieldError(Exception):
    """Base class for errors raised by this package."""


class GeometryMismatch(DefieldError):
    """Two grid objects that must share geometry do not."""


class ValidationError(DefieldError):
    """A container invariant or parameter precondition is violated."""


@dataclass(frozen=True)
class GridGeometry:
    """Voxel counts, spacing (mm) and origin (mm) of a regular 3-D grid."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or len(self.spacing) != 3 or len(self.origin) != 3:
            raise ValidationError("geometry fields must have three entries")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if any(d < 2 for d in self.dims):
            raise ValidationError(f"all dims must be >= 2, got {self.dims}")
        if not all(map(math.isfinite, self.spacing + self.origin)):
            raise ValidationError(f"spacing and origin must be finite, got "
                                  f"{self.spacing} and {self.origin}")
        if any(s <= 0 for s in self.spacing):
            raise ValidationError(f"all spacings must be > 0, got {self.spacing}")

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


def _frozen(data, dtype, shape, what: str, finite: bool = False,
            max_value: int | None = None) -> np.ndarray:
    """data as a read-only array of dtype and shape; raises ValidationError
    naming `what`. An array handed over (one that owns its memory and is
    read-only already, see _handover) is adopted as it stands; the caller's
    writeable array, or a view into memory it does not own, is copied."""
    arr = np.asarray(data, dtype=dtype)
    if arr.shape != shape:
        raise ValidationError(f"{what} data shape {arr.shape} != {shape}")
    # min and max propagate NaN and reach +-inf, with no per-voxel temporary
    if finite and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValidationError(f"{what} contains non-finite values")
    if max_value is not None and arr.max(initial=0) > max_value:
        raise ValidationError(f"{what} values must be in 0..{max_value}")
    if arr is data and (arr.flags.writeable or not arr.flags.owndata):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _handover(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, for a step that built it and keeps no other
    reference: a container adopts it without a copy."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume:
    """Scalar intensity grid (float32)."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(
            self.data, np.float32, self.geometry.dims, type(self).__name__,
            finite=True))


@dataclass(frozen=True)
class Mask:
    """Binary label grid (uint8, values 0/1)."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(
            self.data, np.uint8, self.geometry.dims, "Mask", max_value=1))


@dataclass(frozen=True)
class VectorField:
    """Per-voxel 3-vector grid (float32, voxel units), shape (3, nx, ny, nz)."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(
            self.data, np.float32, (3, *self.geometry.dims), "VectorField",
            finite=True))

    @staticmethod
    def zero(geometry: GridGeometry) -> "VectorField":
        return VectorField(geometry, np.zeros((3, *geometry.dims), dtype=np.float32))

    def max_norm(self) -> float:
        return _max_norm(self.data)


def require_same_geometry(a, b) -> None:
    if a.geometry != b.geometry:
        raise GeometryMismatch(
            f"geometry mismatch: {a.geometry} vs {b.geometry}")


def _sample_many(data: np.ndarray, coords: np.ndarray, order: int,
                 out: np.ndarray) -> None:
    """Sample a scalar or a (3, nx, ny, nz) array at index coordinates (3, ...)
    into out, each component into its plane."""
    # mode="nearest" extends edges, which for order<=1 equals clamping the
    # coordinates to [0, dim-1].
    for comp, plane in zip(data, out) if data.ndim == 4 else [(data, out)]:
        ndimage.map_coordinates(comp, coords, output=plane, order=order,
                                mode="nearest")


def _axis_indices(x0: int, shape) -> list[np.ndarray]:
    """Each axis's float32 voxel indices on the x-planes x0:x0 + shape[0]
    of a grid, one arange per axis shaped to broadcast over `shape`."""
    return [np.arange(start, start + n, dtype=np.float32).reshape(
                [n if i == axis else 1 for i in range(3)])
            for axis, (start, n) in enumerate(zip((x0, 0, 0), shape))]


def _coords(disp: np.ndarray, x0: int, x1: int) -> np.ndarray:
    """The float32 coordinates z - disp(z) of the x-planes x0:x1: each
    axis's index minus that component of disp, written into one buffer."""
    part = disp[:, x0:x1]
    coords = np.empty(part.shape, dtype=np.float32)
    for axis, index in enumerate(_axis_indices(x0, part.shape[1:])):
        np.subtract(index, part[axis], out=coords[axis])
    return coords


def _pull(data: np.ndarray, disp: np.ndarray, order: int = 1) -> np.ndarray:
    """Sample data (scalar or 3-component) through the mapping z - disp(z)
    into one new array, in x-slabs of SLAB_PLANES planes: each slab's
    coordinates are built once and serve every component."""
    out = np.empty((*data.shape[:-3], *disp.shape[1:]), dtype=data.dtype)
    for x0 in range(0, disp.shape[1], SLAB_PLANES):
        x1 = x0 + SLAB_PLANES
        _sample_many(data, _coords(disp, x0, x1), order, out[..., x0:x1, :, :])
    return out


def warp_volume(vol: Volume, disp: VectorField) -> Volume:
    """Resample vol through the mapping z - g(z) (trilinear)."""
    require_same_geometry(vol, disp)
    return Volume(vol.geometry, _handover(_pull(vol.data, disp.data, order=1)))


def warp_mask(mask: Mask, disp: VectorField) -> Mask:
    """Resample a binary mask through z - g(z) (nearest neighbor), through
    _pull's x-slabs of coordinates."""
    require_same_geometry(mask, disp)
    return Mask(mask.geometry, _handover(_pull(mask.data, disp.data, order=0)))


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), renormalized to
    sum 1. sigma=0 yields the identity kernel [1]."""
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.ones(1)
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _smooth_array(arr: np.ndarray, sigma: float, out=None) -> np.ndarray:
    """Separable Gaussian smoothing, one pass per axis; the last pass writes
    into `out` when it is given (sigma > 0 only)."""
    if sigma == 0:
        return arr.copy()
    kernel = gaussian_kernel1d(sigma)
    for axis in range(arr.ndim):
        last = axis == arr.ndim - 1
        arr = ndimage.correlate1d(arr, kernel, axis=axis, mode="nearest",
                                  output=out if last else None)
    return arr


def _smooth_field_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Per-component smoothing of a (3, nx, ny, nz) array into one new
    array; sigma=0 returns arr."""
    if sigma == 0:
        return arr
    out = np.empty_like(arr)
    for comp, plane in zip(arr, out):
        _smooth_array(comp, sigma, out=plane)
    return out


def _max_norm(arr: np.ndarray) -> float:
    """Largest vector length of a (3, nx, ny, nz) array, in float64: the
    squared components are summed into one float64 array in component
    order, as .sum(axis=0) adds them (each float32 square is exact)."""
    total = np.square(arr[0], dtype=np.float64)
    square = np.empty_like(total)
    for comp in arr[1:]:
        total += np.square(comp, out=square, dtype=np.float64)
    return float(np.sqrt(total.max()))


def gaussian_smooth(obj, sigma: float):
    """Separable Gaussian smoothing of a Volume or (per component) a
    VectorField; sigma is in voxels and sigma=0 is the identity."""
    if isinstance(obj, Volume):
        return Volume(obj.geometry, _smooth_array(obj.data, sigma))
    if isinstance(obj, VectorField):
        return VectorField(obj.geometry, _smooth_field_array(obj.data, sigma))
    raise ValidationError(f"cannot smooth object of type {type(obj).__name__}")


def downsample2(vol: Volume) -> Volume:
    """Halve each dimension: Gaussian pre-smooth (sigma=1) then 2x2x2 block
    means. Coarse voxel c corresponds to fine voxel 2c; spacing doubles,
    origin is kept."""
    dims = vol.geometry.dims
    if any(d < 4 for d in dims):
        raise ValidationError(f"downsample2 needs dims >= 4, got {dims}")
    smoothed = _smooth_array(vol.data, 1.0)
    nx, ny, nz = (d // 2 for d in dims)
    trimmed = smoothed[: 2 * nx, : 2 * ny, : 2 * nz]
    blocks = trimmed.reshape(nx, 2, ny, 2, nz, 2)
    coarse = blocks.mean(axis=(1, 3, 5))
    geom = GridGeometry(
        (nx, ny, nz),
        tuple(2.0 * s for s in vol.geometry.spacing),
        vol.geometry.origin,
    )
    return Volume(geom, coarse)


def _upsample_array(data: np.ndarray, dims) -> np.ndarray:
    """A (3, ...) displacement array trilinearly interpolated onto the finer
    grid dims with its magnitudes doubled (voxel units rescale with the
    grid), as one new array.

    Inverse of the downsample2 index convention: fine voxel f samples the
    coarse array at f/2. The coordinates are built for x-slabs of
    SLAB_PLANES fine planes, each sampled into its planes of the result,
    which is then doubled in place.
    """
    out = np.empty((3, *dims), dtype=np.float32)
    for x0 in range(0, dims[0], SLAB_PLANES):
        x1 = min(x0 + SLAB_PLANES, dims[0])
        coords = np.empty((3, x1 - x0, *dims[1:]), dtype=np.float32)
        for axis, index in enumerate(_axis_indices(x0, coords.shape[1:])):
            np.multiply(index, 0.5, out=coords[axis])
        _sample_many(data, coords, 1, out[:, x0:x1])
    out *= 2.0
    return out
