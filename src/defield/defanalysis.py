"""Jacobian-determinant maps and the tumor-region partition.

A displacement field g realizes the mapping phi(z) = z - g(z); the Jacobian
determinant of phi measures local volume change. On a forward field, which
maps each later-week voxel to where it came from, it is the earlier-week
volume per unit of later-week volume: 1 where nothing changed, >1 where
tissue contracted between the weeks, <1 where it expanded. Comparing the warped previous-week tumor mask against the
next week's delineation splits the grid into unchanged (U), reduced (R),
newly grown (G) and non-tumor (N) voxels, and Jacobian samples are pooled
per region for the downstream statistics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import volio
from .grids import (
    GridGeometry,
    Mask,
    ValidationError,
    VectorField,
    Volume,
    _frozen,
    require_same_geometry,
)

# uint8 codes used on disk and in RegionPartition.labels
LABEL_N, LABEL_U, LABEL_R, LABEL_G = 0, 1, 2, 3
REGIONS = ("U", "R", "G", "N")
_CODE = {"N": LABEL_N, "U": LABEL_U, "R": LABEL_R, "G": LABEL_G}
SLAB_PLANES = 8  # x-planes per jacobian_map slab: bounds its float64 temporaries


class JacobianMap(Volume):
    """Per-voxel determinant of phi(z) = z - g(z) (float32); the invariants
    of a Volume."""


@dataclass(frozen=True)
class RegionPartition:
    """Exactly one of U/R/G/N per voxel, in the next-week frame."""

    geometry: GridGeometry
    labels: np.ndarray
    week_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen(
            self.labels, np.uint8, self.geometry.dims, "RegionPartition",
            max_value=LABEL_G))

    def counts(self) -> dict[str, int]:
        return {r: int((self.labels == _CODE[r]).sum()) for r in REGIONS}


@dataclass
class RegionSamples:
    """Jacobian values pooled per region (float64 arrays, all positive)."""

    samples: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for region in REGIONS:
            arr = np.asarray(self.samples.get(region, ()), dtype=np.float64).ravel()
            if arr.size and not (np.isfinite(arr).all() and arr.min() > 0):
                raise ValidationError(
                    f"region {region} has non-finite or non-positive samples")
            clean[region] = arr
        self.samples = clean

    def counts(self) -> dict[str, int]:
        return {r: int(self.samples[r].size) for r in REGIONS}

    def mean(self, region: str) -> float | None:
        arr = self.samples[region]
        return float(arr.mean()) if arr.size else None


def jacobian_map(disp: VectorField) -> JacobianMap:
    """Determinant of the 3x3 derivative of phi(z) = z - g(z) at each voxel.

    Central differences at interior voxels, one-sided at faces. A zero
    field yields J = 1 everywhere. The differences are local, so the map is
    built in x-slabs of SLAB_PLANES planes with a one-plane halo, bit for
    bit equal to the whole-grid computation.
    """
    dims = disp.geometry.dims
    if any(d < 3 for d in dims):
        raise ValidationError(f"jacobian_map needs dims >= 3, got {dims}")
    det = np.empty(dims)
    for x0 in range(0, dims[0], SLAB_PLANES):
        x1 = min(x0 + SLAB_PLANES, dims[0])
        lo = max(x0 - 1, 0)
        # m[k][l] = d(phi_k)/d(z_l) = delta_kl - d(g_k)/d(z_l)
        m = [[None] * 3 for _ in range(3)]
        for k in range(3):
            slab = disp.data[k, lo:x1 + 1].astype(np.float64)
            grads = np.gradient(slab, axis=(0, 1, 2))
            for l in range(3):
                m[k][l] = (1.0 if k == l else 0.0) - grads[l][x0 - lo:x1 - lo]
        det[x0:x1] = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    return JacobianMap(disp.geometry, det)


def partition_regions(tumor_warped: Mask, tumor_next: Mask,
                      week_index: int = 0) -> RegionPartition:
    """U = warped & next, R = warped \\ next, G = next \\ warped, N = rest.

    tumor_warped is the previous week's delineation warped into the next
    week's frame; tumor_next is the delineation drawn in that frame.
    """
    require_same_geometry(tumor_warped, tumor_next)
    w = tumor_warped.data.astype(bool)
    n = tumor_next.data.astype(bool)
    labels = np.full(w.shape, LABEL_N, dtype=np.uint8)
    labels[w & n] = LABEL_U
    labels[w & ~n] = LABEL_R
    labels[n & ~w] = LABEL_G
    return RegionPartition(tumor_warped.geometry, labels, week_index)


def _interior(dims) -> tuple[slice, slice, slice]:
    return tuple(slice(1, d - 1) for d in dims)


def collect_samples(jmap: JacobianMap, part: RegionPartition) -> RegionSamples:
    """Group Jacobian values by region label.

    Face voxels are excluded: their one-sided stencils bias the
    determinant.
    """
    require_same_geometry(jmap, part)
    sl = _interior(jmap.geometry.dims)
    values = jmap.data[sl]
    labels = part.labels[sl]
    return RegionSamples({r: values[labels == _CODE[r]] for r in REGIONS})


def pool(samples: list[RegionSamples]) -> RegionSamples:
    """Concatenate per-region samples; counts are additive."""
    if not samples:
        raise ValidationError("cannot pool an empty list")
    return RegionSamples({
        r: np.concatenate([s.samples[r] for s in samples]) for r in REGIONS
    })


def write_jacobian(path, jmap: JacobianMap) -> None:
    volio.write_volume(path, jmap)  # same float32 scalar payload as a Volume


def read_jacobian(path) -> JacobianMap:
    vol = volio.read_volume(path)
    return JacobianMap(vol.geometry, vol.data)


def write_partition(path, part: RegionPartition) -> None:
    volio.write_labels(path, part.geometry, part.labels)


def write_samples_csv(path, samples: RegionSamples) -> None:
    """Flat `label,j_value` CSV, regions in U,R,G,N order."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("label,j_value\n")
        for region in REGIONS:
            arr = samples.samples[region]
            # one write per 1024 values: few calls, few Python floats alive
            for start in range(0, arr.size, 1024):
                chunk = arr[start:start + 1024].tolist()
                fh.write("".join([f"{region},{v!r}\n" for v in chunk]))


def read_samples_csv(path) -> RegionSamples:
    collected: dict[str, list[float]] = {r: [] for r in REGIONS}
    with open(path, "r", encoding="ascii") as fh:
        try:
            header = fh.readline().strip()
            if header != "label,j_value":
                raise ValidationError(f"{path}: unexpected samples header {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                region, _, value = line.partition(",")
                if region not in _CODE:
                    raise ValidationError(f"{path}: unknown region label {region!r}")
                collected[region].append(float(value))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not ASCII: {exc}") from None
        except ValueError:
            raise ValidationError(f"{path}: bad j_value {value!r}") from None
    try:
        return RegionSamples({r: np.array(v) for r, v in collected.items()})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
