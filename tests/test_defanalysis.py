"""Jacobian maps, region partitions, sample collection and pooling."""
import tracemalloc

import numpy as np
import pytest

from defield import grids
from defield.defanalysis import (
    CSV_CHUNK,
    LABEL_G,
    LABEL_N,
    LABEL_R,
    LABEL_U,
    JacobianMap,
    RegionSamples,
    _slab_determinant,
    collect_samples,
    jacobian_map,
    partition_regions,
    pool,
    read_samples_csv,
    write_samples_csv,
)
from defield.grids import (
    GeometryMismatch,
    GridGeometry,
    Mask,
    ValidationError,
    VectorField,
    gaussian_smooth,
)
from defield.registration import compose
from oracles import radial_gaussian_field, whole_grid_jacobian

G12 = GridGeometry((12, 12, 12))
INTERIOR = (slice(1, -1),) * 3


def linear_field(geometry, matrix):
    """Displacement with phi(z) = M z, i.e. g = (I - M) z."""
    coords = np.indices(geometry.dims, dtype=np.float32)
    m = np.asarray(matrix, dtype=np.float64)
    mapped = np.einsum("kl,lxyz->kxyz", m, coords)
    return VectorField(geometry, (coords - mapped).astype(np.float32))


class TestJacobianMap:
    def test_zero_field_is_one(self):
        jm = jacobian_map(VectorField.zero(G12))
        assert np.allclose(jm.data, 1.0)

    def test_linear_scaling(self):
        jm = jacobian_map(linear_field(G12, 1.2 * np.eye(3)))
        assert np.allclose(jm.data[INTERIOR], 1.728, atol=1e-6)

    def test_general_linear_map(self):
        m = np.array([[1.1, 0.05, 0.0], [0.0, 0.9, 0.1], [0.02, 0.0, 1.0]])
        jm = jacobian_map(linear_field(G12, m))
        assert np.allclose(jm.data[INTERIOR], np.linalg.det(m), atol=1e-6)

    def test_radial_phantom_against_analytic(self):
        g = GridGeometry((48, 48, 48))
        field, analytic = radial_gaussian_field((23.5, 23.5, 23.5), -0.2, 9.0, g)
        jm = jacobian_map(field)
        rel = np.abs(jm.data[INTERIOR] / analytic.data[INTERIOR] - 1.0)
        assert rel.max() < 0.02

    def test_composition_multiplies_determinants(self):
        m1 = np.diag([1.05, 0.95, 1.0])
        m2 = np.diag([0.98, 1.02, 1.04])
        f = linear_field(G12, m1)
        g = linear_field(G12, m2)
        jm = jacobian_map(compose(f, g))
        expected = np.linalg.det(m1) * np.linalg.det(m2)
        inner = (slice(3, -3),) * 3
        assert np.allclose(jm.data[inner], expected, atol=1e-6)

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError):
            jacobian_map(VectorField.zero(GridGeometry((2, 12, 12))))

    def test_constant(self):
        # a uniform displacement has zero derivative, faces included
        data = np.stack([np.full(G12.dims, v, np.float32) for v in (3.0, -1.5, 0.25)])
        assert np.allclose(jacobian_map(VectorField(G12, data)).data, 1.0)

    def test_linear_exact_everywhere(self):
        # one-sided differences on the faces are exact for a linear field
        jm = jacobian_map(linear_field(G12, np.diag([1.5, 1.0, 1.0])))
        assert np.allclose(jm.data, 1.5, atol=1e-6)

    def test_quadratic_interior_stencil(self):
        # g_x = x^2 / 64: the central difference at x = 4 is
        # (25 - 9) / (2 * 64) = 0.125, so J = 1 - 0.125
        x = np.indices(G12.dims, dtype=np.float32)[0]
        data = np.stack([x * x / 64, np.zeros_like(x), np.zeros_like(x)])
        jm = jacobian_map(VectorField(G12, data))
        assert jm.data[4, 4, 4] == pytest.approx(0.875)


# nx below, equal to, one above and not a multiple of the slab thickness
SLAB_DIMS = [(3, 3, 3), (7, 5, 4), (8, 6, 5), (9, 6, 5), (17, 9, 6), (33, 10, 7)]


@pytest.mark.parametrize("kind", ["smoothed-random", "radial"])
@pytest.mark.parametrize("dims", SLAB_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_slabbed_jacobian_matches_whole_grid_bitwise(dims, kind):
    g = GridGeometry(dims)
    if kind == "radial":
        field, _ = radial_gaussian_field(tuple((d - 1) / 2 for d in dims), 0.3,
                                         max(dims) / 3, g)
    else:
        rng = np.random.default_rng(sum(dims))
        field = gaussian_smooth(
            VectorField(g, rng.normal(0.0, 2.0, (3, *dims))), 1.0)
    ref = whole_grid_jacobian(field)
    # each slab's float64 determinant, before its cast into the result
    for x0 in range(0, dims[0], grids.SLAB_PLANES):
        x1 = min(x0 + grids.SLAB_PLANES, dims[0])
        assert _slab_determinant(field.data, x0, x1).tobytes() == ref[x0:x1].tobytes()
    # the float32 result: the same bytes as the whole-grid determinant cast once
    jm = jacobian_map(field)
    assert jm.data.tobytes() == JacobianMap(g, ref).data.tobytes()


def box_mask(geometry, lo, hi):
    arr = np.zeros(geometry.dims, dtype=np.uint8)
    arr[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return Mask(geometry, arr)


class TestPartitionRegions:
    def test_identical_masks(self):
        m = box_mask(G12, (3, 3, 3), (7, 7, 7))
        part = partition_regions(m, m)
        assert np.array_equal(part.labels == LABEL_U, m.data.astype(bool))
        assert not (part.labels == LABEL_R).any()
        assert not (part.labels == LABEL_G).any()

    def test_disjoint_masks(self):
        a = box_mask(G12, (1, 1, 1), (4, 4, 4))
        b = box_mask(G12, (6, 6, 6), (9, 9, 9))
        part = partition_regions(a, b)
        assert not (part.labels == LABEL_U).any()
        assert np.array_equal(part.labels == LABEL_R, a.data.astype(bool))
        assert np.array_equal(part.labels == LABEL_G, b.data.astype(bool))

    def test_line_example(self):
        g = GridGeometry((8, 2, 2))
        warped = box_mask(g, (2, 0, 0), (5, 2, 2))   # x in {2,3,4}
        nxt = box_mask(g, (3, 0, 0), (6, 2, 2))      # x in {3,4,5}
        part = partition_regions(warped, nxt)
        xs = lambda code: sorted(set(np.argwhere(part.labels == code)[:, 0]))
        assert xs(LABEL_U) == [3, 4]
        assert xs(LABEL_R) == [2]
        assert xs(LABEL_G) == [5]

    def test_coverage_and_disjointness(self):
        rng = np.random.default_rng(5)
        a = Mask(G12, (rng.uniform(size=G12.dims) > 0.6).astype(np.uint8))
        b = Mask(G12, (rng.uniform(size=G12.dims) > 0.6).astype(np.uint8))
        part = partition_regions(a, b)
        # one label per voxel covering the grid
        assert part.labels.size == G12.n_voxels
        u = (part.labels == LABEL_U)
        r = (part.labels == LABEL_R)
        gx = (part.labels == LABEL_G)
        assert np.array_equal(u | r, a.data.astype(bool))
        assert np.array_equal(u | gx, b.data.astype(bool))

    def test_swap_symmetry_exchanges_r_and_g(self):
        rng = np.random.default_rng(6)
        a = Mask(G12, (rng.uniform(size=G12.dims) > 0.5).astype(np.uint8))
        b = Mask(G12, (rng.uniform(size=G12.dims) > 0.5).astype(np.uint8))
        ab = partition_regions(a, b)
        ba = partition_regions(b, a)
        assert np.array_equal(ab.labels == LABEL_U, ba.labels == LABEL_U)
        assert np.array_equal(ab.labels == LABEL_R, ba.labels == LABEL_G)
        assert np.array_equal(ab.labels == LABEL_G, ba.labels == LABEL_R)

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            partition_regions(box_mask(G12, (0, 0, 0), (2, 2, 2)),
                              box_mask(GridGeometry((12, 12, 13)), (0, 0, 0), (2, 2, 2)))


class TestCollectSamples:
    def test_unit_jacobian_means(self):
        jm = JacobianMap(G12, np.ones(G12.dims, dtype=np.float32))
        part = partition_regions(box_mask(G12, (2, 2, 2), (6, 6, 6)),
                                 box_mask(G12, (4, 4, 4), (8, 8, 8)))
        s = collect_samples(jm, part)
        for region in "URGN":
            assert s.mean(region) == pytest.approx(1.0)

    def test_empty_region_flagged(self):
        jm = JacobianMap(G12, np.ones(G12.dims, dtype=np.float32))
        m = box_mask(G12, (3, 3, 3), (7, 7, 7))
        s = collect_samples(jm, partition_regions(m, m))
        assert s.counts()["R"] == 0 and s.counts()["G"] == 0
        assert s.mean("G") is None

    def test_region_specific_values(self):
        m = box_mask(G12, (3, 3, 3), (7, 7, 7))
        part = partition_regions(m, m)
        data = np.full(G12.dims, 0.5, dtype=np.float32)
        data[part.labels == LABEL_U] = 2.0
        s = collect_samples(JacobianMap(G12, data), part)
        assert s.mean("U") == pytest.approx(2.0)
        assert s.mean("N") == pytest.approx(0.5)

    def test_face_voxels_excluded(self):
        g = GridGeometry((4, 4, 4))
        jm = JacobianMap(g, np.ones(g.dims, dtype=np.float32))
        part = partition_regions(Mask(g, np.ones(g.dims, dtype=np.uint8)),
                                 Mask(g, np.ones(g.dims, dtype=np.uint8)))
        s = collect_samples(jm, part)
        assert s.counts()["U"] == 8  # only the 2x2x2 interior

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValidationError):
            RegionSamples({"U": np.array([1.0, -0.5])})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, value):
        with pytest.raises(ValidationError, match="region G has non-finite"):
            RegionSamples({"U": [1.0], "G": [1.0, value]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_float32_samples_rejected(self, value):
        # a kept float32 array passes the same check
        with pytest.raises(ValidationError, match="region G has non-finite"):
            RegionSamples({"G": np.array([1.0, value], dtype=np.float32)})

    def test_float32_kept_anything_else_widened(self):
        values = np.array([0.5, 1.25], dtype=np.float32)
        s = RegionSamples({"U": values, "R": values.astype(np.float16), "G": [1, 2],
                           "N": values.tolist()})
        assert s.samples["U"].dtype == np.float32
        assert np.shares_memory(s.samples["U"], values)
        assert [s.samples[r].dtype for r in "RGN"] == [np.float64] * 3

    def test_mean_widens_before_it_reduces(self):
        # the float32 array's own mean rounds differently here
        values = np.random.default_rng(11).uniform(0.5, 2.0, 100_003).astype(np.float32)
        s = RegionSamples({"U": values})
        assert s.mean("U") == float(values.astype(np.float64).mean())

    @pytest.mark.parametrize("planes", [3, 7, grids.SLAB_PLANES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slabbed_gather_matches_boolean_index(self, monkeypatch, planes, dtype):
        # 13 interior x-planes in slabs of 3 (4 x 3 + 1), of 7 (7 + 6) and
        # of the default
        monkeypatch.setattr(grids, "SLAB_PLANES", planes)
        g = GridGeometry((15, 9, 11))
        rng = np.random.default_rng(12)
        part = partition_regions(Mask(g, (rng.random(g.dims) < 0.4).astype(np.uint8)),
                                 Mask(g, (rng.random(g.dims) < 0.4).astype(np.uint8)))
        jm = JacobianMap(g, rng.uniform(0.5, 2.0, g.dims).astype(np.float32))
        s = collect_samples(jm, part, dtype)
        for region, code in zip("URGN", (LABEL_U, LABEL_R, LABEL_G, LABEL_N)):
            expected = jm.data[INTERIOR][part.labels[INTERIOR] == code].astype(dtype)
            assert s.samples[region].dtype == dtype
            assert s.samples[region].tobytes() == expected.tobytes()

    def test_collect_samples_peak_memory_per_voxel(self):
        """The float64 samples (8 B per interior voxel, 7.3 B per voxel at
        64^3) and one x-slab of float32 gather: each region is allocated
        once and filled slab by slab (8.3 B per voxel measured; widening
        four whole-region float32 gathers took 11.8)."""
        g = GridGeometry((64, 64, 64))
        x, y, z = np.indices(g.dims)
        r2 = (x - 31.5) ** 2 + (y - 31.5) ** 2 + (z - 31.5) ** 2
        part = partition_regions(Mask(g, (r2 < 12 ** 2).astype(np.uint8)),
                                 Mask(g, (r2 < 11 ** 2).astype(np.uint8)))
        jm = JacobianMap(g, np.random.default_rng(13).uniform(
            0.5, 2.0, g.dims).astype(np.float32))
        del x, y, z, r2
        tracemalloc.start()
        try:
            s = collect_samples(jm, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(values.nbytes for values in s.samples.values()) == 8 * 62 ** 3
        assert peak / g.n_voxels <= 9


class TestPool:
    def make(self, seed):
        rng = np.random.default_rng(seed)
        return RegionSamples({r: rng.uniform(0.5, 2.0, size=rng.integers(1, 20))
                              for r in "URGN"})

    def test_single_element_identity(self):
        s = self.make(0)
        p = pool([s])
        for region in "URGN":
            assert np.array_equal(p.samples[region], s.samples[region])

    def test_counts_additive(self):
        a, b = self.make(1), self.make(2)
        p = pool([a, b])
        for region in "URGN":
            assert p.counts()[region] == a.counts()[region] + b.counts()[region]

    def test_grand_mean_is_weighted_mean(self):
        a, b = self.make(3), self.make(4)
        p = pool([a, b])
        for region in "URGN":
            na, nb = a.counts()[region], b.counts()[region]
            expected = (a.mean(region) * na + b.mean(region) * nb) / (na + nb)
            assert p.mean(region) == pytest.approx(expected, rel=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            pool([])

    def test_float32_members_pool_into_float64(self):
        a, b = self.make(5), self.make(6)
        narrow = RegionSamples({r: a.samples[r].astype(np.float32) for r in "URGN"})
        p = pool([narrow, b])
        for region in "URGN":
            expected = np.concatenate([narrow.samples[region].astype(np.float64),
                                       b.samples[region]])
            assert p.samples[region].dtype == np.float64
            assert p.samples[region].tobytes() == expected.tobytes()


def test_samples_csv_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    # an empty region, regions that end on and across CSV_CHUNK-value
    # writes, and values whose repr switches between its fixed and
    # exponent forms or is the shortest round-trip of a long binary
    edges = [1e-05, 1e16, 5e-324, 0.1, 1.0, float(np.finfo(np.float32).max)]
    sizes = {"U": 10, "R": 0, "G": CSV_CHUNK, "N": 2 * CSV_CHUNK + 1}
    values = {r: rng.uniform(0.5, 2.0, size=n) for r, n in sizes.items()}
    values["U"] = np.concatenate([edges, values["U"]])
    s = RegionSamples(values)
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_samples_csv(p1, s)
    lines = [f"{r},{float(v)!r}\n" for r in "URGN" for v in s.samples[r]]
    assert p1.read_text() == "label,j_value\n" + "".join(lines)
    back = read_samples_csv(p1)
    for region in "URGN":
        assert back.samples[region].tobytes() == s.samples[region].tobytes()
    write_samples_csv(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("body, expected", [
    (b"U,1.0\n\nR,0.9\n", {"U": [1.0], "R": [0.9]}),
    (b"U,1.0\n \t\nR,0.9\n", {"U": [1.0], "R": [0.9]}),
    (b"U,1.0\r\nR,0.9\r\n", {"U": [1.0], "R": [0.9]}),
    (b" U,1.0 \nR, 0.9\n", {"U": [1.0], "R": [0.9]}),
    (b"U,1.0\nR,0.9", {"U": [1.0], "R": [0.9]}),
    (b"N,1.5\nU,1.0\nN,0.5\n", {"U": [1.0], "N": [1.5, 0.5]}),
    (b"", {}),
], ids=["blank-line", "whitespace-line", "crlf", "spaces", "no-final-newline",
        "interleaved", "header-only"])
def test_samples_csv_reader_accepts(tmp_path, body, expected):
    header = b"label,j_value\r\n" if b"\r\n" in body else b"label,j_value\n"
    path = tmp_path / "samples.csv"
    path.write_bytes(header + body)
    back = read_samples_csv(path)
    for region in "URGN":
        got = back.samples[region]
        assert got.dtype == np.float64
        assert got.tolist() == expected.get(region, [])


@pytest.mark.parametrize("n, bound", [(32, 28), (64, 15)], ids=["32", "64"])
def test_jacobian_map_peak_memory_per_voxel(n, bound):
    """jacobian_map casts each x-slab's float64 determinant into its float32
    result (4 B/voxel), which JacobianMap adopts without a copy; the rest
    is one slab's float64 temporaries, which weigh less per voxel on a
    longer grid (25.3 and 13.7 B/voxel measured at 32^3 and 64^3)."""
    g = GridGeometry((n, n, n))
    c = (n - 1) / 2
    field, _ = radial_gaussian_field((c, c, c), 0.3, 5.0 * n / 32, g)
    tracemalloc.start()
    try:
        jm = jacobian_map(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jm.data.dtype == np.float32
    assert peak / g.n_voxels <= bound
