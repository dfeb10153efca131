"""Reading and writing the ".vol" container format.

Layout: a text header of ``KEY value`` lines

    DIMS nx ny nz
    SPACING sx sy sz
    ORIGIN ox oy oz
    DTYPE float32-le|uint8
    COMPONENTS 3          (vector fields only)

terminated by one blank line, followed by raw little-endian voxel data,
x-fastest, then y, then z. Vector fields are component-interleaved per
voxel. The writer is canonical (fixed key order, shortest round-trip float
formatting), so write -> read -> write is byte-identical.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from .grids import DefieldError, GridGeometry, Mask, VectorField, Volume, _handover


class VolFormatError(DefieldError):
    """Malformed .vol header or truncated payload."""


_DTYPES = {"float32-le": np.dtype("<f4"), "uint8": np.dtype("u1")}
# z-planes per slab that a read or a write holds. The in-memory arrays are
# z-fastest, so each slab covers 12 consecutive values of every z-row: three
# quarters of a 64-byte line of float32, which keeps the transposing copy
# near the speed of one over the whole array (thinner slabs touch each line
# more often: 4 planes took twice as long at 64^3)
SLAB_PLANES = 12
HEADER_BLOCK = 4096  # bytes per read while the header's blank line is sought


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _header(geometry: GridGeometry, dtype: str, components: int | None) -> bytes:
    lines = [
        "DIMS " + " ".join(str(d) for d in geometry.dims),
        "SPACING " + _fmt_floats(geometry.spacing),
        "ORIGIN " + _fmt_floats(geometry.origin),
        "DTYPE " + dtype,
    ]
    if components is not None:
        lines.append(f"COMPONENTS {components}")
    return ("\n".join(lines) + "\n\n").encode("ascii")


def _z_slabs(shape, dtype):
    """(z-slice, buffer) for each slab of SLAB_PLANES z-planes of an array of
    shape (..., nz). The buffer holds the slab as stored, with the array's
    axes reversed (components fastest); one buffer serves every slab."""
    nz = shape[-1]
    stored = np.empty((min(SLAB_PLANES, nz), *shape[-2::-1]), dtype=dtype)
    for z0 in range(0, nz, SLAB_PLANES):
        z1 = min(z0 + SLAB_PLANES, nz)
        yield slice(z0, z1), stored[:z1 - z0]


def _write(path, geometry, dtype: str, components: int | None, arr) -> None:
    """Header, then arr cast to the little-endian DTYPE in x-fastest order,
    one z-slab at a time (z varies slowest on disk)."""
    arr = np.asarray(arr)
    with open(path, "wb") as fh:
        fh.write(_header(geometry, dtype, components))
        for zs, slab in _z_slabs(arr.shape, _DTYPES[dtype]):
            np.copyto(slab.T, arr[..., zs], casting="unsafe")
            fh.write(slab)


def write_volume(path, vol: Volume) -> None:
    _write(path, vol.geometry, "float32-le", None, vol.data)


def write_mask(path, mask: Mask) -> None:
    _write(path, mask.geometry, "uint8", None, mask.data)


def write_labels(path, geometry: GridGeometry, labels: np.ndarray) -> None:
    """uint8 label grid (e.g. region partitions with codes 0..3)."""
    if np.shape(labels) != geometry.dims:
        raise VolFormatError(f"label shape {np.shape(labels)} != dims {geometry.dims}")
    _write(path, geometry, "uint8", None, labels)


def write_field(path, field: VectorField) -> None:
    _write(path, field.geometry, "float32-le", 3, field.data)


def write_json(path, payload: dict) -> None:
    """Canonical JSON artifact: two-space indent, sorted keys, LF end."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: str, rows) -> None:
    """A header line, then the rows through csv.writer: str() of each field,
    None as an empty field, quotes where a field needs them; LF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _read_header(fh) -> bytes:
    """The file's bytes up to and including its first blank line (or all of
    them when it has none), read a block at a time."""
    raw = bytearray()
    while True:
        block = fh.read(HEADER_BLOCK)
        raw += block
        if not block or b"\n\n" in raw[-len(block) - 1:]:
            return bytes(raw)


def _parse_header(path, raw: bytes):
    """(geometry, dtype, components, payload offset) of a header that starts
    raw."""
    if raw.endswith(b"\r\n", 0, raw.find(b"\n") + 1):
        raise VolFormatError(f"{path}: header has CRLF line endings, expected LF")
    end = raw.find(b"\n\n")
    if end < 0:
        raise VolFormatError(f"{path}: missing blank line after header")
    fields = {}
    for line in raw[:end].decode("ascii", errors="replace").splitlines():
        key, _, value = line.partition(" ")
        if not value:
            raise VolFormatError(f"{path}: malformed header line {line!r}")
        if key in fields:
            raise VolFormatError(f"{path}: duplicate header key {key!r}")
        fields[key] = value
    for key in ("DIMS", "SPACING", "ORIGIN", "DTYPE"):
        if key not in fields:
            raise VolFormatError(f"{path}: header missing {key}")
    try:
        dims = tuple(int(t) for t in fields["DIMS"].split())
        spacing = tuple(float(t) for t in fields["SPACING"].split())
        origin = tuple(float(t) for t in fields["ORIGIN"].split())
        geometry = GridGeometry(dims, spacing, origin)
    except (ValueError, DefieldError) as exc:
        raise VolFormatError(f"{path}: bad geometry: {exc}") from exc
    dtype = fields["DTYPE"]
    if dtype not in _DTYPES:
        raise VolFormatError(f"{path}: unknown DTYPE {dtype!r}")
    components = None
    if "COMPONENTS" in fields:
        try:
            components = int(fields["COMPONENTS"])
        except ValueError as exc:
            raise VolFormatError(f"{path}: bad COMPONENTS") from exc
        if components != 3:
            raise VolFormatError(f"{path}: only COMPONENTS 3 supported")
    return geometry, dtype, components, end + 2


def read_raw(path):
    """Parse any .vol file: (geometry, array, dtype_name, components).

    Scalar arrays come back with shape (nx, ny, nz); vector payloads with
    shape (3, nx, ny, nz); both C-ordered and read-only. The header and the
    payload's length are checked before the array is allocated; the payload
    is then read one z-slab at a time into the array, in place.
    """
    with open(path, "rb") as fh:
        geometry, dtype, components, offset = _parse_header(path, _read_header(fh))
        shape = (components, *geometry.dims) if components else geometry.dims
        item = _DTYPES[dtype]
        expected = geometry.n_voxels * (components or 1) * item.itemsize
        size = os.fstat(fh.fileno()).st_size - offset
        if size != expected:
            raise VolFormatError(f"{path}: payload is {size} bytes, expected {expected}")
        fh.seek(offset)
        arr = np.empty(shape, dtype=item)
        for zs, slab in _z_slabs(shape, item):
            if fh.readinto(slab) != slab.nbytes:
                raise VolFormatError(f"{path}: payload ends early")
            arr[..., zs] = slab.T
    return geometry, _handover(arr), dtype, components


def _read(path, dtype: str, components: int | None, what: str):
    """(geometry, array) of a .vol file that must hold the given DTYPE and
    COMPONENTS."""
    geometry, arr, got_dtype, got_components = read_raw(path)
    if got_dtype != dtype or got_components != components:
        raise VolFormatError(f"{path}: not a {what}")
    return geometry, arr


def read_volume(path) -> Volume:
    return Volume(*_read(path, "float32-le", None, "scalar float32 volume"))


def read_mask(path) -> Mask:
    geometry, arr = _read(path, "uint8", None, "uint8 mask")
    if arr.max(initial=0) > 1:
        raise VolFormatError(f"{path}: mask has values outside {{0,1}}")
    return Mask(geometry, arr)


def read_field(path) -> VectorField:
    return VectorField(*_read(path, "float32-le", 3, "3-component float32 field"))
