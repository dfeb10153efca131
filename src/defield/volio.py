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

import numpy as np

from .grids import DefieldError, GridGeometry, Mask, VectorField, Volume


class VolFormatError(DefieldError):
    """Malformed .vol header or truncated payload."""


_DTYPES = {"float32-le": np.dtype("<f4"), "uint8": np.dtype("u1")}


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


def _write(path, geometry, dtype: str, components: int | None, arr) -> None:
    """Header, then arr cast to the little-endian DTYPE in x-fastest order."""
    with open(path, "wb") as fh:
        fh.write(_header(geometry, dtype, components))
        fh.write(np.asarray(arr).astype(_DTYPES[dtype]).ravel(order="F").tobytes())


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


def _parse_header(path, raw: bytes):
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
    return geometry, dtype, components, raw[end + 2:]


def read_raw(path):
    """Parse any .vol file: (geometry, array, dtype_name, components).

    Scalar arrays come back with shape (nx, ny, nz); vector payloads with
    shape (3, nx, ny, nz).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    geometry, dtype, components, payload = _parse_header(path, raw)
    count = geometry.n_voxels * (components or 1)
    expected = count * _DTYPES[dtype].itemsize
    if len(payload) != expected:
        raise VolFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype=_DTYPES[dtype])
    shape = (components, *geometry.dims) if components else geometry.dims
    return geometry, flat.reshape(shape, order="F"), dtype, components


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


def read_labels(path):
    return _read(path, "uint8", None, "uint8 label grid")


def read_field(path) -> VectorField:
    return VectorField(*_read(path, "float32-le", 3, "3-component float32 field"))
