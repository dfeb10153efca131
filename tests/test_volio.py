"""Byte-level round trips and malformed-header handling for the .vol format."""
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
    geom, back = volio.read_labels(p1)
    assert geom == GEOM
    assert np.array_equal(back, labels)
    volio.write_labels(p2, geom, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_x_fastest_byte_layout(tmp_path):
    header = b"DIMS 2 2 2\nSPACING 1.0 1.0 1.0\nORIGIN 0.0 0.0 0.0\nDTYPE uint8\n\n"
    payload = bytes(range(8))  # x fastest, then y, then z
    path = tmp_path / "layout.vol"
    path.write_bytes(header + payload)
    _, arr = volio.read_labels(path)
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
    with pytest.raises(VolFormatError):
        volio.read_labels(path)
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
