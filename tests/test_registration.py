"""Similarity measure, exponential map, composition, and registration
properties on blob phantoms."""
import hashlib
import json
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from defield import volio
from defield.defanalysis import jacobian_map
from defield.grids import (
    GridGeometry,
    ValidationError,
    VectorField,
    Volume,
    _smooth_array,
    warp_volume,
)
from defield import registration
from defield.phantom import (
    PhantomSpec,
    RadialComponent,
    RadialMap,
    synth_cohort,
)
from defield.registration import (
    MIN_STEP_FRACTION,
    ConvergenceTrace,
    RegistrationParams,
    TraceEntry,
    auto_exp_steps,
    compose,
    exp_velocity,
    lcc_similarity,
    register,
    save_transform,
)
from oracles import blob_volume, full_volume, mean_norm, pullback

G24 = GridGeometry((24, 24, 24))


def uniform_field(geometry, vec):
    data = np.stack([np.full(geometry.dims, v) for v in vec]).astype(np.float32)
    return VectorField(geometry, data)


class TestLccSimilarity:
    def test_self_similarity_is_one(self):
        vol = blob_volume(G24, (11.5, 11.5, 11.5), 7.0, seed=1)
        assert lcc_similarity(vol, vol, 3.0) == pytest.approx(1.0, abs=1e-6)

    def test_affine_intensity_invariance(self):
        a = blob_volume(G24, (11.5, 11.5, 11.5), 7.0, seed=2)
        b = Volume(G24, 2.0 * a.data + 3.0)
        assert lcc_similarity(a, b, 3.0) == pytest.approx(1.0, abs=1e-6)

    def test_independent_noise_scores_low(self):
        rng = np.random.default_rng(3)
        a = Volume(G24, rng.standard_normal(G24.dims).astype(np.float32))
        b = Volume(G24, rng.standard_normal(G24.dims).astype(np.float32))
        assert lcc_similarity(a, b, 2.0) < 0.2

    def test_sigma_validated(self):
        vol = full_volume(G24, 0.0)
        with pytest.raises(ValidationError):
            lcc_similarity(vol, vol, 0.0)

    def test_cached_fixed_stats_match_recomputing_them(self):
        """_lcc against a fixed image's precomputed (fbar, C) is bitwise
        the computation that smooths both images itself."""
        m = blob_volume(G24, (11.5, 11.5, 11.5), 7.0, seed=7).data
        f = blob_volume(G24, (12.0, 11.0, 11.5), 6.5, seed=8).data
        sigma, eps_m, eps_f = 3.0, 1e-7, 2e-7

        mbar = m - _smooth_array(m, sigma)
        fbar = f - _smooth_array(f, sigma)
        a = _smooth_array(mbar * fbar, sigma)
        b = _smooth_array(mbar * mbar, sigma)
        c = _smooth_array(fbar * fbar, sigma)
        valid = (b > eps_m) & (c > eps_f)
        rho2 = np.zeros_like(a)
        np.divide(a * a, b * c, out=rho2, where=valid)
        np.clip(rho2, 0.0, 1.0, out=rho2)

        fixed = registration._fixed_stats(f, sigma)
        energy, stats = registration._lcc(m, eps_m, fixed, eps_f, sigma)
        assert energy == float(rho2.mean(dtype=np.float64))
        for got, want in zip(stats, (mbar, fbar, a, b, c, valid)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the cache is only read: a second use gives the same bits
        assert registration._lcc(m, eps_m, fixed, eps_f, sigma)[0] == energy


class TestExpVelocity:
    def test_zero_velocity(self):
        d = exp_velocity(VectorField.zero(G24), 4)
        assert np.allclose(d.data, 0.0)

    def test_uniform_velocity_exact(self):
        v = uniform_field(G24, (0.7, 0.0, 0.0))
        d = exp_velocity(v, 5)
        assert np.allclose(d.data[0], 0.7, atol=1e-6)
        assert np.allclose(d.data[1:], 0.0, atol=1e-6)

    @pytest.mark.parametrize("a", [0.1, 0.2, -0.2])
    def test_linear_velocity_closed_form(self, a):
        # v(z) = a (z - c): the flow displacement under phi(z) = z - g(z)
        # is (1 - e^{-a}) (z - c); checked on the interior (border samples clamp)
        g = GridGeometry((32, 32, 32))
        idx = np.indices(g.dims, dtype=np.float32)
        v = VectorField(g, (a * (idx - 15.5)).astype(np.float32))
        d = exp_velocity(v, auto_exp_steps(v.max_norm(), 4))
        expected = (1.0 - math.exp(-a)) * (idx - 15.5)
        sl = (slice(None),) + (slice(5, -5),) * 3
        scale = np.abs(expected[sl]).max()
        assert np.abs(d.data[sl] - expected[sl]).max() < 0.01 * scale

    def test_jacobian_stays_positive(self):
        g = GridGeometry((32, 32, 32))
        idx = np.indices(g.dims, dtype=np.float32)
        r2 = ((idx - 15.5) ** 2).sum(axis=0)
        bump = np.exp(-r2 / (2 * 6.0 ** 2)).astype(np.float32)
        v = VectorField(g, np.stack([4.0 * bump, 2.0 * bump, -3.0 * bump]))
        d = exp_velocity(v, auto_exp_steps(v.max_norm(), 4))
        jm = jacobian_map(d)
        assert jm.data[1:-1, 1:-1, 1:-1].min() > 0.0

    def test_inverse_composition_residual(self):
        g = GridGeometry((48, 48, 48))
        idx = np.indices(g.dims, dtype=np.float32)
        r2 = ((idx - 23.5) ** 2).sum(axis=0)
        bump = np.exp(-r2 / (2 * 8.0 ** 2)).astype(np.float32)
        v = VectorField(g, np.stack([5.0 * bump, np.zeros(g.dims, np.float32),
                                     2.0 * bump]))
        assert v.max_norm() <= 5.5
        steps = auto_exp_steps(v.max_norm(), 4)
        fwd = exp_velocity(v, steps)
        bwd = exp_velocity(VectorField(g, -v.data), steps)
        assert mean_norm(compose(fwd, bwd)) < 0.05

    def test_steps_validated(self):
        with pytest.raises(ValidationError):
            exp_velocity(VectorField.zero(G24), 0)


class TestAutoExpSteps:
    def test_scaled_norm_below_half_voxel(self):
        for norm in (0.3, 1.0, 3.7, 20.0):
            steps = auto_exp_steps(norm, 1)
            assert norm / 2 ** steps < 0.5

    def test_respects_minimum(self):
        assert auto_exp_steps(0.1, 4) == 4


class TestCompose:
    def test_identity_left_and_right(self):
        rng = np.random.default_rng(4)
        g = VectorField(G24, rng.uniform(-1.5, 1.5, size=(3, *G24.dims)).astype(np.float32))
        zero = VectorField.zero(G24)
        assert np.array_equal(compose(zero, g).data, g.data)
        assert np.allclose(compose(g, zero).data, g.data, atol=1e-6)

    def test_uniform_fields_add(self):
        f = uniform_field(G24, (1.0, 0.0, 0.0))
        g = uniform_field(G24, (2.0, 0.0, 0.0))
        h = compose(f, g)
        # interior is exactly additive; the low-x border clamps
        assert np.allclose(h.data[0][4:], 3.0, atol=1e-6)


BLOB_PARAMS = RegistrationParams(pyramid_levels=2, iterations_per_level=30)


def _blob_pair():
    """A blob and its image under a known 1.5-voxel diffeomorphism."""
    g = GridGeometry((32, 32, 32))
    center = (15.5, 15.5, 15.5)
    source = blob_volume(g, center, 9.0, seed=13)
    gt, _ = pullback(RadialMap((RadialComponent(0.4, 6.0),)), center, g)
    return g, source, warp_volume(source, gt), gt


@pytest.fixture(scope="module")
def blob_registration():
    """One registration of the blob pair."""
    g, source, target, gt = _blob_pair()
    transform, trace = register(source, target, BLOB_PARAMS)
    return g, source, target, gt, BLOB_PARAMS, transform, trace


@pytest.fixture(scope="module")
def shrink_registration():
    """Weeks 0 -> 1 of the first patient of a seed-3100 40^3 shrink cohort,
    registered with the default (classify) params."""
    spec = PhantomSpec(grid=GridGeometry((40, 40, 40)), mode="shrink", seed=3100)
    weeks = synth_cohort(spec, 1)[0].weeks
    params = RegistrationParams()
    return (params, *register(weeks[0].volume, weeks[1].volume, params))


def _field_digests(transform):
    return {name: hashlib.sha256(getattr(transform, name).data.tobytes()).hexdigest()
            for name in ("velocity", "forward", "backward")}


# sha256 of the registered fields, recorded before a level could end on a
# halved step that scores no higher than the step it halved: on these pairs
# that rule drops only candidates that would have been rejected anyway
FIELD_SHA256 = {
    "blob": {
        "velocity": "8a822598d014b8a3f639641dbb6c865a128366b673a7181e4ff80ac21dfd747b",
        "forward": "46a32c3d8e2432a0dd2066329a69b467ffc9f9261e79b311d86b561b13cdc402",
        "backward": "5a6c6c503640704899cdef6c80363801c4ebf1d8b653fc3044be3c4b7e095493",
    },
    "shrink": {
        "velocity": "96548d8426032721dd180e6a4f75ab22bf790d0ce16532b0d0d4aea2542c4522",
        "forward": "042dedeeb24beef59995e5c381882520aac1f3b4cabcf6017e670bb6c95d23b2",
        "backward": "dfc7d1024c616c1217c804a670f1a346b0ab53da355fd51c49adf4204ce9ee7b",
    },
}
# _exp_array calls of the blob registration when only the step floor ended
# a level: its level 0 rejected steps 1/2, 1/4, 1/8 and 1/16 in a row
BLOB_EXP_CALLS_FLOOR_ONLY = 30


def test_blob_fields_are_pinned(blob_registration):
    *_, transform, trace = blob_registration
    assert _field_digests(transform) == FIELD_SHA256["blob"]


def test_shrink_fields_are_pinned(shrink_registration):
    _, transform, trace = shrink_registration
    assert _field_digests(transform) == FIELD_SHA256["shrink"]


class TestRegister:
    def test_identical_volumes_give_near_zero_field(self):
        vol = blob_volume(G24, (11.5, 11.5, 11.5), 7.0, seed=5)
        transform, _ = register(vol, vol,
                                RegistrationParams(pyramid_levels=1,
                                                   iterations_per_level=5))
        assert mean_norm(transform.forward) < 0.05

    def test_constant_volume_rejected(self):
        flat = full_volume(G24, 1.0)
        blob = blob_volume(G24, (11.5, 11.5, 11.5), 7.0, seed=6)
        with pytest.raises(ValidationError):
            register(flat, blob)
        with pytest.raises(ValidationError):
            register(blob, flat)

    def test_recovers_known_field(self, blob_registration):
        g, source, target, gt, params, transform, trace = blob_registration
        err = np.sqrt(((transform.forward.data - gt.data) ** 2).sum(axis=0))
        support = source.data > 0.45
        assert err[support].mean() < 0.5

    def test_similarity_not_worse_than_identity(self, blob_registration):
        g, source, target, gt, params, transform, trace = blob_registration
        before = lcc_similarity(source, target, params.lcc_sigma)
        after = lcc_similarity(warp_volume(source, transform.forward), target,
                               params.lcc_sigma)
        assert after >= before

    def test_diffeomorphic_fields(self, blob_registration):
        *_, transform, trace = blob_registration
        interior = (slice(1, -1),) * 3
        assert jacobian_map(transform.forward).data[interior].min() > 0
        assert jacobian_map(transform.backward).data[interior].min() > 0

    def test_inverse_consistency(self, blob_registration):
        *_, transform, trace = blob_registration
        residual = compose(transform.forward, transform.backward)
        assert mean_norm(residual) < 0.1
        assert residual.max_norm() < 0.5

    def test_transform_consistent_with_velocity(self, blob_registration):
        *_, params, transform, trace = blob_registration
        # the registration's own minimum, raised by the half-voxel rule
        steps = auto_exp_steps(transform.velocity.max_norm(), params.exp_steps)
        fwd = exp_velocity(transform.velocity, steps)
        assert np.abs(fwd.data - transform.forward.data).max() < 1e-4

    def test_trace_monotone_and_bounded(self, blob_registration):
        *_, params, transform, trace = blob_registration
        for level in {e.level for e in trace.entries}:
            energies = [e.energy for e in trace.entries
                        if e.level == level and e.accepted]
            assert all(b >= a - 1e-6 for a, b in zip(energies, energies[1:]))
        assert len(trace.entries) <= params.pyramid_levels * params.iterations_per_level
        assert all(math.isfinite(e.energy) for e in trace.entries)

    def test_step_floor_ends_levels(self, shrink_registration):
        # the blob pair's levels now end on the halving rule before the
        # floor; level 0 of the shrink pair still rejects at the floor
        params, transform, trace = shrink_registration
        floor = MIN_STEP_FRACTION * params.step_scale
        assert all(e.max_update >= floor for e in trace.entries)
        # the rule is exercised: some level ends on a rejection at the floor
        assert any(not e.accepted and e.max_update == floor for e in trace.entries)

    def test_swapped_inputs_negate_velocity(self, blob_registration):
        g, source, target, gt, params, transform, trace = blob_registration
        reverse, _ = register(target, source, params)
        residual = np.sqrt(((transform.velocity.data
                             + reverse.velocity.data) ** 2).sum(axis=0))
        assert residual.mean() < 0.2

    def test_mean_jacobian_near_unity_without_net_volume_change(self):
        # same anatomy, fresh sensor noise: whole-grid mean J stays in [0.9, 1.1]
        g = GridGeometry((24, 24, 24))
        base = blob_volume(g, (11.5, 11.5, 11.5), 7.0, seed=21)
        rng = np.random.default_rng(22)
        noisy = Volume(g, base.data + 0.02 * rng.standard_normal(g.dims).astype(np.float32))
        transform, _ = register(base, noisy,
                                RegistrationParams(pyramid_levels=1,
                                                   iterations_per_level=10))
        mean_j = jacobian_map(transform.forward).data.mean(dtype=np.float64)
        assert 0.9 <= mean_j <= 1.1


def _small_pair(seed):
    center = (11.5, 11.5, 11.5)
    source = blob_volume(G24, center, 7.0, seed=seed)
    gt, _ = pullback(RadialMap((RadialComponent(0.4, 5.0),)), center, G24)
    return source, warp_volume(source, gt)


SMALL_PARAMS = RegistrationParams(pyramid_levels=2, iterations_per_level=8)


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    lock = threading.Lock()  # the helper thread counts too

    def counted(name, fn):
        def wrapper(*args):
            with lock:
                counts[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(registration, name,
                            counted(name, getattr(registration, name)))
    return counts


def test_register_work_counts(monkeypatch):
    """Each iteration builds one candidate (one forward + backward
    exponential pair); forces are built once per state that proposes a
    step, never again after a rejection; the result adds no exponentials.
    The fixed images' statistics are computed once per level and
    direction, so a state smooths only its two warped moving images."""
    counts = _count_calls(monkeypatch, ("_exp_array", "_lcc_force",
                                        "_fixed_stats", "_smooth_array"))
    _, trace = register(*_small_pair(31),
                        RegistrationParams(pyramid_levels=1,
                                           iterations_per_level=20))
    entries = trace.entries
    assert any(not e.accepted for e in entries)
    # the initial state, then every accepted candidate that proposes a step
    proposing = 1 + sum(e.accepted for e in entries[:-1])
    states = 1 + len(entries)
    assert counts["_lcc_force"] == 2 * proposing
    assert counts["_exp_array"] == 2 * states
    assert counts["_fixed_stats"] == 2
    # fbar and C of each fixed image (2 x 2); mbar, A and B of each half
    # (2 x 3 per state); two per force; the final never-worse-than-
    # identity check's two energies
    assert counts["_smooth_array"] == (2 * 2 + 2 * 3 * states
                                       + 2 * counts["_lcc_force"] + 2 * 3)


def test_fixed_stats_once_per_level_and_direction(monkeypatch):
    counts = _count_calls(monkeypatch, ("_fixed_stats",))
    _, trace = register(*_small_pair(45), SMALL_PARAMS)
    assert sorted({e.level for e in trace.entries}) == [0, 1]
    assert counts["_fixed_stats"] == 2 * 2


def test_identity_energy_once_at_the_finest_level(monkeypatch):
    """Two energies per state (one per half); at the finest level, one
    identity energy shared by the coarse-velocity check and the final
    never-worse-than-identity check, and the final warped energy."""
    counts = _count_calls(monkeypatch, ("_exp_array", "_lcc"))
    _, trace = register(*_small_pair(45), SMALL_PARAMS)
    # the finest level starts from v != 0
    assert any(e.accepted for e in trace.entries if e.level == 0)
    assert counts["_lcc"] == counts["_exp_array"] + 1 + 1


def test_register_leaves_no_thread_behind():
    # a helper thread that outlived register would pile up, one per pair,
    # in a process that registers a cohort on run_cohort's pool threads
    before = threading.active_count()
    register(*_small_pair(41), SMALL_PARAMS)
    assert threading.active_count() == before


def test_concurrent_registers_match_serial():
    """Register calls from several Python threads at once (more threads
    than cores, with a short switch interval) give the serial results."""
    pairs = [_small_pair(seed) for seed in (42, 43, 44)]
    serial = [register(*pair, SMALL_PARAMS) for pair in pairs]
    results = [None] * len(pairs)

    def run(i):
        results[i] = register(*pairs[i], SMALL_PARAMS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(pairs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (want, want_trace), got in zip(serial, results):
        assert got is not None
        transform, trace = got
        for name in ("velocity", "forward", "backward"):
            assert np.array_equal(getattr(transform, name).data,
                                  getattr(want, name).data)
        assert trace.entries == want_trace.entries


def test_trace_rejects_nonfinite_energy():
    trace = ConvergenceTrace()
    with pytest.raises(ValidationError):
        trace.append(TraceEntry(0, 0, float("nan"), 1.0, True, 0.5))
    with pytest.raises(ValidationError):
        trace.append(TraceEntry(0, 0, 0.5, 1.0, False, float("nan")))


def _read_sidecar(dirpath):
    """The params, trace entries and identity_fallback in transform.json."""
    sidecar = json.loads((dirpath / "transform.json").read_text())
    return (RegistrationParams(**sidecar["params"]),
            [TraceEntry(**e) for e in sidecar["trace"]], sidecar["identity_fallback"])


def test_transform_with_four_exp_steps_loads(tmp_path):
    """A transform saved with the earlier default minimum of four squarings
    records that minimum, and its fields match it."""
    params = RegistrationParams(pyramid_levels=1, iterations_per_level=5,
                                exp_steps=4)
    transform, trace = register(*_small_pair(46), params)
    save_transform(tmp_path, transform, params, trace)
    params_back, _, _ = _read_sidecar(tmp_path)
    velocity = volio.read_field(tmp_path / "velocity.vol")
    forward = volio.read_field(tmp_path / "forward.vol")
    assert params_back.exp_steps == 4
    steps = auto_exp_steps(velocity.max_norm(), params_back.exp_steps)
    fwd = exp_velocity(velocity, steps)
    assert np.abs(fwd.data - forward.data).max() < 1e-4


def test_transform_save_load_roundtrip(tmp_path, blob_registration):
    *_, params, transform, trace = blob_registration
    save_transform(tmp_path, transform, params, trace)
    params_back, entries_back, fallback_back = _read_sidecar(tmp_path)
    assert np.array_equal(volio.read_field(tmp_path / "velocity.vol").data,
                          transform.velocity.data)
    assert np.array_equal(volio.read_field(tmp_path / "forward.vol").data,
                          transform.forward.data)
    assert params_back == params
    assert entries_back == trace.entries
    assert fallback_back is False


def _check_level_ends(trace, params):
    """Every level that ends on a rejection ends at the step floor, at the
    iteration cap, or on a halved candidate that scored no higher than the
    candidate it halved; and no earlier pair of rejections in the level
    met that rule."""
    floor = MIN_STEP_FRACTION * params.step_scale
    for level in sorted({e.level for e in trace.entries}):
        entries = [e for e in trace.entries if e.level == level]

        def halving_rule(i):
            prev, cur = entries[i - 1], entries[i]
            return (i > 0 and not prev.accepted and not cur.accepted
                    and cur.max_update == prev.max_update / 2
                    and cur.candidate_energy <= prev.candidate_energy)

        assert not any(halving_rule(i) for i in range(len(entries) - 1))
        last = entries[-1]
        if not last.accepted:
            assert (last.max_update / 2 < floor
                    or last.iteration == params.iterations_per_level - 1
                    or halving_rule(len(entries) - 1)), level


def test_levels_end_at_the_floor_or_on_the_halving_rule(
        blob_registration, shrink_registration):
    *_, params, transform, trace = blob_registration
    _check_level_ends(trace, params)
    params, transform, trace = shrink_registration
    _check_level_ends(trace, params)
    for seed in (31, 45):
        _, trace = register(*_small_pair(seed), SMALL_PARAMS)
        _check_level_ends(trace, SMALL_PARAMS)


def test_candidate_energy_recorded(blob_registration):
    *_, transform, trace = blob_registration
    for e in trace.entries:
        if e.accepted:
            assert e.candidate_energy == e.energy
        else:
            assert e.candidate_energy < e.energy


def test_halving_rule_ends_a_level_before_the_floor(monkeypatch):
    """Level 0 of the blob pair used to reject halvings down to the floor;
    it now ends at the second rejection, which scored no higher than the
    first, with fewer exponentials and the same fields."""
    counts = _count_calls(monkeypatch, ("_exp_array",))
    _, source, target, _ = _blob_pair()
    transform, trace = register(source, target, BLOB_PARAMS)
    *_, first, second = [e for e in trace.entries if e.level == 0]
    assert not first.accepted and not second.accepted
    assert second.max_update == first.max_update / 2
    assert second.max_update > MIN_STEP_FRACTION * BLOB_PARAMS.step_scale
    assert second.candidate_energy <= first.candidate_energy
    assert counts["_exp_array"] < BLOB_EXP_CALLS_FLOOR_ONLY
    assert _field_digests(transform) == FIELD_SHA256["blob"]


def test_normal_run_reports_no_identity_fallback(blob_registration):
    *_, transform, trace = blob_registration
    assert trace.identity_fallback is False
    assert transform.velocity.data.any()


def test_identity_fallback_is_reported(monkeypatch, tmp_path):
    """When the registered alignment scores below the identity, register
    returns the zero transform and says so in its trace and sidecar."""
    source, target = _small_pair(47)
    params = RegistrationParams(pyramid_levels=1, iterations_per_level=5)
    _, want_trace = register(source, target, params)
    lcc = registration._lcc

    def identity_scores_perfect(m, *args):
        energy, stats = lcc(m, *args)
        # single level: the unwarped source is scored only by the final
        # never-worse-than-identity check
        return (1.0 if m is source.data else energy), stats

    monkeypatch.setattr(registration, "_lcc", identity_scores_perfect)
    transform, trace = register(source, target, params)
    assert trace.identity_fallback is True
    assert trace.entries == want_trace.entries
    for name in ("velocity", "forward", "backward"):
        assert not getattr(transform, name).data.any()
    save_transform(tmp_path, transform, params, trace)
    assert _read_sidecar(tmp_path)[2] is True


def test_registration_arrays_stay_float32(monkeypatch):
    """The containers own dtype conversion, so registration casts nothing:
    its exponentials, forces, velocities and warped images are float32
    because their float32 inputs keep them so."""
    rng = np.random.default_rng(3)
    v = rng.normal(size=(3, 12, 12, 12)).astype(np.float32)
    assert registration._exp_array(v, 2).dtype == np.float32
    fixed = rng.normal(size=(12, 12, 12)).astype(np.float32)
    moving = rng.normal(size=(12, 12, 12)).astype(np.float32)
    _, stats = registration._lcc(moving, 1e-6, registration._fixed_stats(fixed, 2.0),
                                 1e-6, 2.0)
    assert registration._lcc_force(stats, 2.0).dtype == np.float32

    dtypes = set()

    class Recorded(registration._LevelState):
        def __init__(self, v, *args):
            super().__init__(v, *args)
            dtypes.update(a.dtype for a in (v, self.fwd, self.bwd, self.warped_src))

    monkeypatch.setattr(registration, "_LevelState", Recorded)
    _, trace = register(*_small_pair(31), SMALL_PARAMS)
    assert len(trace.entries) > 1 and dtypes == {np.dtype(np.float32)}


def test_register_peak_memory_per_voxel():
    """One register on a 32^3 and on a 64^3 phantom pair allocates at most
    190 bytes per voxel at its tracemalloc peak: the grid kernels write
    into the arrays they return, the backward half scales v by -2^-steps
    instead of negating a copy, and a rejected candidate is freed before
    the next one is built."""
    for n in (32, 64):
        grid = GridGeometry((n, n, n))
        weeks = synth_cohort(PhantomSpec(grid=grid, radius=6.0, seed=7), 1)[0].weeks
        tracemalloc.start()
        try:
            _, trace = register(weeks[0].volume, weeks[1].volume)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(not e.accepted for e in trace.entries)
        assert peak / grid.n_voxels <= 190, n


def test_no_replaced_direction_outlives_its_state(monkeypatch):
    """When a state builds its direction (_lcc_force), no earlier state's
    direction is alive: register's loop drops its reference to a direction
    once the candidate velocity is built from it, so an accepted candidate
    frees the direction of the state it replaces."""
    directions, alive = [], []
    lock = threading.Lock()  # the helper thread builds forces too

    def direction(self, _direction=registration._LevelState.direction):
        d, dmax = _direction(self)
        with lock:
            directions.append(weakref.ref(d))
        return d, dmax

    def lcc_force(*args, _lcc_force=registration._lcc_force):
        with lock:
            alive.append(len({id(d) for d in (r() for r in directions)
                              if d is not None}))
        return _lcc_force(*args)

    monkeypatch.setattr(registration._LevelState, "direction", direction)
    monkeypatch.setattr(registration, "_lcc_force", lcc_force)
    _, trace = register(*_small_pair(31),
                        RegistrationParams(pyramid_levels=1,
                                           iterations_per_level=20))
    # directions were built after accepted candidates
    assert sum(e.accepted for e in trace.entries) >= 2
    assert len(alive) > 2 and alive == [0] * len(alive)


def test_only_the_final_state_survives_to_the_final_check(monkeypatch):
    """When the final never-worse-than-identity check's _lcc runs, every
    other state (the last rejected candidate among them), every local
    statistic and every direction is already freed: only the final state's
    velocity, exponentials and warped source are alive."""
    states, directions, snapshots = [], [], []

    class Recorded(registration._LevelState):
        def __init__(self, *args):
            super().__init__(*args)
            # mbar, A, B and the valid mask of each half; fbar and C are
            # the level's, shared by every state
            stats = [arr for half in (self._stats_f, self._stats_b)
                     for arr in (half[0], half[2], half[3], half[5])]
            states.append((weakref.ref(self.warped_src),
                           [weakref.ref(a) for a in (self.v, self.fwd, self.bwd)],
                           [weakref.ref(a) for a in stats]))

        def direction(self):
            d, dmax = super().direction()
            directions.append(weakref.ref(d))
            return d, dmax

    lcc = registration._lcc

    def recorded_lcc(m, *args):
        snapshots.append((
            [(warped() is m, warped() is not None,
              [r() is not None for r in arrays], [r() is not None for r in stats])
             for warped, arrays, stats in states],
            [r() is not None for r in directions]))
        return lcc(m, *args)

    monkeypatch.setattr(registration, "_LevelState", Recorded)
    monkeypatch.setattr(registration, "_lcc", recorded_lcc)
    _, trace = register(*_small_pair(45), SMALL_PARAMS)
    # the finest level ends on a rejected candidate
    assert not trace.entries[-1].accepted and trace.entries[-1].level == 1
    final_states, final_directions = snapshots[-1]
    # one starting state per level and one state per candidate
    assert len(final_states) == 1 + len(trace.entries) + 1
    assert [checked for checked, *_ in final_states].count(True) == 1
    for checked, warped_alive, arrays_alive, stats_alive in final_states:
        assert arrays_alive == [checked] * 3 and warped_alive == checked
        assert not any(stats_alive)
    assert directions and not any(final_directions)
