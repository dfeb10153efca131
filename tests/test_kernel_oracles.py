"""The grid and registration kernels that write into preallocated outputs
match the whole-array expressions in oracles.py byte for byte."""
import numpy as np
import pytest

from defield import grids, registration
from oracles import (
    added_compose,
    negated_exp,
    stacked_lcc_force,
    stacked_pull,
    stacked_smooth_field,
    widened_max_norm,
    zero_filled_lcc,
)

DIMS = (7, 9, 11)


def _displacement(seed: int) -> np.ndarray:
    """A (3, 7, 9, 11) float32 displacement whose sample coordinates leave
    the grid through every face, with exact integers and -0.0 entries."""
    rng = np.random.default_rng(seed)
    disp = rng.normal(0.0, 4.0, size=(3, *DIMS)).astype(np.float32)
    disp[:, 1::3] = np.round(disp[:, 1::3])
    disp[:, :, ::4] = -0.0
    for axis, n in enumerate(DIMS):
        disp[axis, 0, 0, 0] = n + 2.5    # below index 0
        disp[axis, -1, -1, -1] = -n - 2  # above index n - 1
    coords = np.indices(DIMS, dtype=np.float32) - disp
    for axis, n in enumerate(DIMS):
        assert coords[axis].min() < 0 and coords[axis].max() > n - 1
    assert np.any(np.signbit(disp) & (disp == 0))
    return disp


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pull_matches_stacked_samples(seed):
    rng = np.random.default_rng(100 + seed)
    disp = _displacement(seed)
    volume = rng.normal(size=DIMS).astype(np.float32)
    field = rng.normal(0.0, 3.0, size=(3, *DIMS)).astype(np.float32)
    mask = (rng.random(DIMS) < 0.4).astype(np.uint8)
    for data, order in ((volume, 1), (field, 1), (mask, 0)):
        assert _same_bytes(grids._pull(data, disp, order),
                           stacked_pull(data, disp, order))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compose_matches_added_pull(seed):
    f = _displacement(seed)
    g = _displacement(seed + 10)
    assert _same_bytes(registration._compose_arrays(f, g), added_compose(f, g))


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exp_matches_scaling_a_negated_copy(steps, sign):
    v = _displacement(steps)
    assert _same_bytes(registration._exp_array(v, steps, sign),
                       negated_exp(v, steps, sign))


def test_max_norm_matches_widened_sum():
    rng = np.random.default_rng(5)
    # x = 1 and y = z = 3 * 2^-28: (x^2 + y^2) + z^2 rounds to 1 + 2^-51,
    # (z^2 + y^2) + x^2 to 1 + 2^-52, so the order of the sum shows
    ordered = np.full((3, *DIMS), 3 * 2.0 ** -28, dtype=np.float32)
    ordered[0] = 1.0
    arrays = [ordered, _displacement(4),
              rng.normal(0.0, 1e-3, size=(3, *DIMS)).astype(np.float32),
              np.full((3, *DIMS), -0.0, dtype=np.float32),
              np.full((3, *DIMS), np.finfo(np.float32).max, dtype=np.float32)]
    for arr in arrays:
        assert grids._max_norm(arr).hex() == widened_max_norm(arr).hex()


@pytest.mark.parametrize("sigma", [0.75, 1.5, 2.0])
def test_field_smoothing_matches_stacked_components(sigma):
    arr = _displacement(6)
    assert _same_bytes(grids._smooth_field_array(arr, sigma),
                       stacked_smooth_field(arr, sigma))
    assert grids._smooth_field_array(arr, 0.0) is arr


def test_lcc_and_force_match_zero_filled_and_stacked():
    """With a flat slab in the moving image, so that some voxels are
    invalid and keep rho^2 = 0."""
    rng = np.random.default_rng(7)
    fixed = rng.normal(size=DIMS).astype(np.float32)
    moving = rng.normal(size=DIMS).astype(np.float32)
    moving[:, :, :7] = 0.25
    sigma = 1.0
    eps_m = registration.VARIANCE_FLOOR * float(moving.var(dtype=np.float64))
    eps_f = registration.VARIANCE_FLOOR * float(fixed.var(dtype=np.float64))
    stats_f = registration._fixed_stats(fixed, sigma)
    energy, stats = registration._lcc(moving, eps_m, stats_f, eps_f, sigma)
    assert not stats[-1].all()
    assert energy.hex() == zero_filled_lcc(moving, eps_m, stats_f, eps_f,
                                           sigma).hex()
    assert _same_bytes(registration._lcc_force(stats, sigma),
                       stacked_lcc_force(stats, sigma))
