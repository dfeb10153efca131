"""Byte-level round trips and malformed-header handling for the .vol format."""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from defield import volio
from defield.defanalysis import read_jacobian
from defield.grids import GridGeometry, Mask, VectorField, Volume
from defield.volio import VolFormatError

GEOM = GridGeometry((4, 3, 2), spacing=(1.0, 1.25, 2.5), origin=(-1.0, 0.0, 3.5))


def test_volume_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume(GEOM, rng.uniform(-5, 5, size=GEOM.dims).astype(np.float32))
    p1, p2 = tmp_path / "a.vol", tmp_path / "b.vol"
    volio.write_volume(p1, vol)
    back = volio.read_volume(p1)
    assert back.geometry == vol.geometry
    assert np.array_equal(back.data, vol.data)
    volio.write_volume(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    mask = Mask(GEOM, (rng.uniform(size=GEOM.dims) > 0.5).astype(np.uint8))
    p1, p2 = tmp_path / "m1.vol", tmp_path / "m2.vol"
    volio.write_mask(p1, mask)
    back = volio.read_mask(p1)
    assert np.array_equal(back.data, mask.data)
    volio.write_mask(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_roundtrip_component_interleaved(tmp_path):
    rng = np.random.default_rng(2)
    field = VectorField(GEOM, rng.normal(size=(3, *GEOM.dims)).astype(np.float32))
    p1, p2 = tmp_path / "f1.vol", tmp_path / "f2.vol"
    volio.write_field(p1, field)
    back = volio.read_field(p1)
    assert np.array_equal(back.data, field.data)
    volio.write_field(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    # interleaving: first 3 floats of the payload are the (x,y,z)=(0,0,0) vector
    raw = p1.read_bytes()
    payload = raw[raw.find(b"\n\n") + 2:]
    first = np.frombuffer(payload[:12], dtype="<f4")
    assert np.array_equal(first, field.data[:, 0, 0, 0])


def test_labels_roundtrip(tmp_path):
    labels = np.arange(24, dtype=np.uint8).reshape(GEOM.dims) % 4
    p1, p2 = tmp_path / "l1.vol", tmp_path / "l2.vol"
    volio.write_labels(p1, GEOM, labels)
    geom, back, dtype, components = volio.read_raw(p1)
    assert (dtype, components) == ("uint8", None)
    assert geom == GEOM
    assert np.array_equal(back, labels)
    volio.write_labels(p2, geom, back)
    assert p1.read_bytes() == p2.read_bytes()


# nz spans two whole z-slabs and a partial third
SLABBED = GridGeometry((5, 3, 2 * volio.SLAB_PLANES + 5))


@pytest.mark.parametrize("kind", ["volume", "mask", "field", "float64-labels"])
def test_slabbed_payload_is_the_whole_array_in_x_fastest_order(tmp_path, kind):
    rng = np.random.default_rng(3)
    dims = SLABBED.dims
    path = tmp_path / "s.vol"
    if kind == "volume":
        data = rng.normal(size=dims).astype(np.float32)
        volio.write_volume(path, Volume(SLABBED, data))
        back, dtype = volio.read_volume(path).data, "<f4"
    elif kind == "mask":
        data = (rng.random(dims) < 0.5).astype(np.uint8)
        volio.write_mask(path, Mask(SLABBED, data))
        back, dtype = volio.read_mask(path).data, "u1"
    elif kind == "field":
        data = rng.normal(size=(3, *dims)).astype(np.float32)
        volio.write_field(path, VectorField(SLABBED, data))
        back, dtype = volio.read_field(path).data, "<f4"
    else:  # the writer casts each slab as the whole array would be cast
        data = rng.integers(0, 4, size=dims).astype(np.float64)
        volio.write_labels(path, SLABBED, data)
        back, dtype = volio.read_raw(path)[1], "u1"
    raw = path.read_bytes()
    assert raw[raw.find(b"\n\n") + 2:] == np.asarray(data, dtype=dtype).tobytes(order="F")
    assert np.array_equal(back, data)
    assert back.flags.c_contiguous and back.flags.owndata and not back.flags.writeable


def test_payload_that_ends_while_it_is_read(tmp_path, monkeypatch):
    # the file shrinks after its length was checked: no slab is left unfilled
    field = VectorField(SLABBED, np.ones((3, *SLABBED.dims), dtype=np.float32))
    path = tmp_path / "f.vol"
    volio.write_field(path, field)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-5])
    monkeypatch.setattr(volio.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(VolFormatError, match="payload ends early"):
        volio.read_field(path)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_header_is_found_across_read_blocks(tmp_path, monkeypatch, block):
    # the blank line may straddle two blocks, or end one exactly
    monkeypatch.setattr(volio, "HEADER_BLOCK", block)
    field = VectorField(GEOM, np.arange(3 * 24, dtype=np.float32).reshape(3, *GEOM.dims))
    path = tmp_path / "f.vol"
    volio.write_field(path, field)
    back = volio.read_field(path)
    assert back.geometry == GEOM
    assert np.array_equal(back.data, field.data)


def test_read_field_peak_is_the_array_and_one_slab(tmp_path):
    # no whole-file bytes and no second copy: the array, one z-slab of
    # SLAB_PLANES planes (12 of 64 here) and the header
    g = GridGeometry((64, 64, 64))
    rng = np.random.default_rng(4)
    path = tmp_path / "f.vol"
    volio.write_field(path, VectorField(g, rng.normal(size=(3, *g.dims)).astype(np.float32)))
    payload = 12 * g.n_voxels
    tracemalloc.start()
    try:
        volio.read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * payload


def test_x_fastest_byte_layout(tmp_path):
    header = b"DIMS 2 2 2\nSPACING 1.0 1.0 1.0\nORIGIN 0.0 0.0 0.0\nDTYPE uint8\n\n"
    payload = bytes(range(8))  # x fastest, then y, then z
    path = tmp_path / "layout.vol"
    path.write_bytes(header + payload)
    _, arr, *_ = volio.read_raw(path)
    assert arr[1, 0, 0] == 1
    assert arr[0, 1, 0] == 2
    assert arr[0, 0, 1] == 4


def test_missing_blank_line(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"DIMS 2 2 2\nDTYPE uint8\n" + bytes(8))
    with pytest.raises(VolFormatError):
        volio.read_raw(path)


def test_unknown_dtype(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(
        b"DIMS 2 2 2\nSPACING 1.0 1.0 1.0\nORIGIN 0.0 0.0 0.0\nDTYPE float64\n\n"
        + bytes(8))
    with pytest.raises(VolFormatError):
        volio.read_raw(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(
        b"DIMS 2 2 2\nSPACING 1.0 1.0 1.0\nORIGIN 0.0 0.0 0.0\nDTYPE uint8\n\n"
        + bytes(5))
    with pytest.raises(VolFormatError):
        volio.read_raw(path)


def test_missing_header_key(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"DIMS 2 2 2\nDTYPE uint8\n\n" + bytes(8))
    with pytest.raises(VolFormatError):
        volio.read_raw(path)


def test_wrong_reader_rejects(tmp_path):
    vol = Volume(GEOM, np.zeros(GEOM.dims, dtype=np.float32))
    path = tmp_path / "v.vol"
    volio.write_volume(path, vol)
    with pytest.raises(VolFormatError):
        volio.read_mask(path)
    with pytest.raises(VolFormatError):
        volio.read_field(path)
    mask_path, field_path = tmp_path / "m.vol", tmp_path / "f.vol"
    volio.write_mask(mask_path, Mask(GEOM, np.zeros(GEOM.dims, dtype=np.uint8)))
    volio.write_field(field_path, VectorField.zero(GEOM))
    for other in (mask_path, field_path):
        with pytest.raises(VolFormatError):
            read_jacobian(other)


def test_mask_reader_rejects_label_values(tmp_path):
    labels = np.full(GEOM.dims, 3, dtype=np.uint8)
    path = tmp_path / "l.vol"
    volio.write_labels(path, GEOM, labels)
    with pytest.raises(VolFormatError):
        volio.read_mask(path)


def test_duplicate_header_key(tmp_path):
    # a repeated key must not silently overwrite the first value: the
    # payload fits the second DIMS, so overwriting would read it as 4x2x2
    path = tmp_path / "dup.vol"
    path.write_bytes(
        b"DIMS 2 2 2\nDIMS 4 2 2\nSPACING 1.0 1.0 1.0\nORIGIN 0.0 0.0 0.0\n"
        b"DTYPE uint8\n\n" + bytes(16))
    with pytest.raises(VolFormatError, match="duplicate header key 'DIMS'"):
        volio.read_raw(path)


def test_write_csv_quotes_fields_with_separators(tmp_path):
    path = tmp_path / "t.csv"
    volio.write_csv(path, "a,b,c", [["x, y", 1.5, None], ['say "hi"', 2, "z"]])
    assert path.read_bytes() == b'a,b,c\n"x, y",1.5,\n"say ""hi""",2,z\n'
