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

import math
import warnings
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
    _handover,
    _x_slabs,
    require_same_geometry,
)

# uint8 codes used on disk and in RegionPartition.labels
LABEL_N, LABEL_U, LABEL_R, LABEL_G = 0, 1, 2, 3
REGIONS = ("U", "R", "G", "N")
_CODE = {"N": LABEL_N, "U": LABEL_U, "R": LABEL_R, "G": LABEL_G}
CSV_CHUNK = 4096  # values per samples.csv write
# a two-character label field: a longer label stays unknown after truncation
_SAMPLES_DTYPE = np.dtype([("label", "U2"), ("j_value", np.float64)])
_LOOSE_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
    """Jacobian values per region, all positive: float32 for a cohort's
    week pair (the map's own dtype, collect_samples(..., np.float32)),
    float64 otherwise, as collect_samples and read_samples_csv give them.
    A float32 array is kept as given and anything else is converted to
    float64. pool and mean widen to float64 before they reduce, so every
    statistic sees the float64 values it would see had they been stored
    as float64."""

    samples: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for region in REGIONS:
            values = self.samples.get(region, ())
            keep = isinstance(values, np.ndarray) and values.dtype == np.float32
            arr = np.asarray(values, dtype=np.float32 if keep else np.float64).ravel()
            # min and max propagate NaN and reach +-inf, with no per-value temporary
            if arr.size and not (math.isfinite(arr.max()) and arr.min() > 0):
                raise ValidationError(
                    f"region {region} has non-finite or non-positive samples")
            clean[region] = arr
        self.samples = clean

    def counts(self) -> dict[str, int]:
        return {r: int(self.samples[r].size) for r in REGIONS}

    def mean(self, region: str) -> float | None:
        arr = self.samples[region]
        return float(np.asarray(arr, dtype=np.float64).mean()) if arr.size else None


def jacobian_map(disp: VectorField) -> JacobianMap:
    """Determinant of the 3x3 derivative of phi(z) = z - g(z) at each voxel.

    Central differences at interior voxels, one-sided at faces. A zero
    field yields J = 1 everywhere. The differences are local, so the map is
    built in the x-slabs of _x_slabs with a one-plane halo, each
    slab's float64 determinant cast into the float32 result: bit for bit
    the whole-grid computation followed by one cast.
    """
    dims = disp.geometry.dims
    if any(d < 3 for d in dims):
        raise ValidationError(f"jacobian_map needs dims >= 3, got {dims}")
    jac = np.empty(dims, dtype=np.float32)
    for x0, x1 in _x_slabs(dims[0]):
        jac[x0:x1] = _slab_determinant(disp.data, x0, x1)
    return JacobianMap(disp.geometry, _handover(jac))


def _derivative_row(data: np.ndarray, k: int, x0: int, x1: int) -> list[np.ndarray]:
    """m[k][l] = d(phi_k)/d(z_l) = delta_kl - d(g_k)/d(z_l) on the x-planes
    x0:x1, in float64. Only the x-derivative reads the halo planes."""
    lo = max(x0 - 1, 0)
    slab = data[k, lo:x1 + 1].astype(np.float64)
    inner = slice(x0 - lo, x1 - lo)
    row = []
    for l in range(3):
        grad = (np.gradient(slab, axis=0)[inner] if l == 0
                else np.gradient(slab[inner], axis=l))
        row.append(np.subtract(1.0 if k == l else 0.0, grad, out=grad))
    return row


def _slab_determinant(data: np.ndarray, x0: int, x1: int) -> np.ndarray:
    """The cofactor expansion m00 A - m01 B + m02 C of the x-planes x0:x1,
    with A = m11 m22 - m12 m21, B = m10 m22 - m12 m20 and
    C = m10 m21 - m11 m20: each product and difference the whole-grid
    expression's, in its order, written in place into a factor that
    nothing reads again."""
    m10, m11, m12 = _derivative_row(data, 1, x0, x1)
    m20, m21, m22 = _derivative_row(data, 2, x0, x1)
    a = m11 * m22
    a -= m12 * m21
    b = np.multiply(m22, m10, out=m22)
    b -= np.multiply(m12, m20, out=m12)
    c = np.multiply(m21, m10, out=m21)
    c -= np.multiply(m20, m11, out=m20)
    del m10, m11, m12, m20, m21, m22
    m00, m01, m02 = _derivative_row(data, 0, x0, x1)
    a *= m00
    a -= np.multiply(b, m01, out=b)
    a += np.multiply(c, m02, out=c)
    return a


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


def collect_samples(jmap: JacobianMap, part: RegionPartition,
                    dtype=np.float64) -> RegionSamples:
    """Each region's interior Jacobian values as dtype, in C order.

    Face voxels are excluded: their one-sided stencils bias the
    determinant. Each region's result is allocated once and filled from
    the x-slabs of _x_slabs, so no whole-region float32 gather sits next
    to a float64 result."""
    require_same_geometry(jmap, part)
    sl = _interior(jmap.geometry.dims)
    values = jmap.data[sl]
    labels = part.labels[sl]
    gathered = {}
    for region in REGIONS:
        code = _CODE[region]
        out = gathered[region] = np.empty(np.count_nonzero(labels == code), dtype)
        end = 0
        for x0, x1 in _x_slabs(len(labels)):
            slab = values[x0:x1][labels[x0:x1] == code]
            out[end:end + slab.size] = slab
            end += slab.size
    return RegionSamples(gathered)


def pool(samples: list[RegionSamples]) -> RegionSamples:
    """Concatenate per-region samples into float64; counts are additive."""
    if not samples:
        raise ValidationError("cannot pool an empty list")
    return RegionSamples({
        r: np.concatenate([s.samples[r] for s in samples], dtype=np.float64)
        for r in REGIONS
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
            sep = f"\n{region},"
            # one join and one write per chunk: few calls, few Python floats alive
            for start in range(0, arr.size, CSV_CHUNK):
                chunk = arr[start:start + CSV_CHUNK].tolist()
                fh.write(f"{region}," + sep.join(map(repr, chunk)) + "\n")


def read_samples_csv(path) -> RegionSamples:
    """RegionSamples from a `label,j_value` CSV.

    numpy's C text reader parses the file in one pass. Whatever it does not
    take as it stands (a bad line, but also a blank-only line or a label
    with leading spaces) is read again by _scan_samples_csv, line by line,
    which accepts the same inputs with the same values and names the first
    bad line.
    """
    collected = _parse_samples_csv(path)
    if collected is None:
        collected = _scan_samples_csv(path)
    try:
        return RegionSamples(collected)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_samples_csv(path) -> dict[str, np.ndarray] | None:
    """The per-region values, or None where the line scan must decide."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            if fh.readline().strip() != "label,j_value":
                return None
            with warnings.catch_warnings():
                # a header-only file is valid: every region is empty
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", dtype=_SAMPLES_DTYPE,
                                   comments=None, ndmin=1)
        except ValueError:  # UnicodeDecodeError included
            return None
    if _has_loose_bytes(path):
        return None
    labels, values = table["label"], table["j_value"]
    masks = {r: labels == r for r in REGIONS}
    if sum(int(m.sum()) for m in masks.values()) != labels.size:
        return None
    return {r: values[m] for r, m in masks.items()}


def _has_loose_bytes(path) -> bool:
    """True if the file holds a byte that numpy's text reader takes for
    padding or whitespace where float() and the label check do not: NUL
    (dropped from the end of a label) and the ASCII separators 0x1c-0x1f
    (skipped before a value)."""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            if any(byte in block for byte in _LOOSE_BYTES):
                return True
    return False


def _scan_samples_csv(path) -> dict[str, list[float]]:
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
                # float() takes "1_0" for 10.0; a j_value is plain decimal
                if "_" in value:
                    raise ValueError(value)
                collected[region].append(float(value))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not ASCII: {exc}") from None
        except ValueError:
            raise ValidationError(f"{path}: bad j_value {value!r}") from None
    return collected
