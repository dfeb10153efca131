"""Analytic fields with closed-form Jacobians, used as test oracles."""
import numpy as np
from scipy import ndimage

from defield.defanalysis import JacobianMap
from defield.grids import (
    GridGeometry,
    ValidationError,
    VectorField,
    Volume,
    gaussian_kernel1d,
)
from defield.phantom import (
    RadialComponent,
    RadialMap,
    _blob,
    _distinct,
    _pullback,
    _radius_grid,
    grid_center,
)


def full_volume(geometry: GridGeometry, value: float) -> Volume:
    """A float32 volume holding one value everywhere."""
    return Volume(geometry, np.full(geometry.dims, value, dtype=np.float32))


def blob_volume(grid: GridGeometry, center, radius: float,
                seed: int = 0) -> Volume:
    """Gaussian intensity blob about center over a smooth seeded background
    texture: the phantom's clean image, centred anywhere."""
    return _blob(grid, _radius_grid(grid, center)[1], radius, seed)


def affine_field(a_matrix, b, grid: GridGeometry) -> tuple[VectorField, float]:
    """Field realizing phi(z) = A (z - c) + c + b about the grid center.

    The analytic Jacobian determinant is det(A) everywhere; A must have
    positive determinant.
    """
    a_matrix = np.asarray(a_matrix, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    det = float(np.linalg.det(a_matrix))
    if det <= 0:
        raise ValidationError(f"affine matrix must have det > 0, got {det}")
    offsets, _ = _radius_grid(grid, grid_center(grid))
    mapped = np.einsum("kl,lxyz->kxyz", a_matrix, offsets) + b.reshape(3, 1, 1, 1)
    disp = (offsets - mapped).astype(np.float32)
    return VectorField(grid, disp), det


def radial_gaussian_field(center, amplitude: float, width: float,
                          grid: GridGeometry) -> tuple[VectorField, JacobianMap]:
    """Field realizing the outward radial map r -> r (1 + a e^{-r^2/2s^2})
    about center, together with its analytic Jacobian determinant map.

    Positive amplitude models growth (J > 1 near the center), negative
    shrink.
    """
    comp = RadialComponent(amplitude, width)
    offsets, r = _radius_grid(grid, center)
    disp = (-offsets * comp.factor(r)).astype(np.float32)
    jac = comp.jacobian(r).astype(np.float32)
    return VectorField(grid, disp), JacobianMap(grid, jac)


def pullback(rm: RadialMap, center,
             grid: GridGeometry) -> tuple[VectorField, JacobianMap]:
    """The phantom's pullback of rm about any center: the displacement g
    with z - g(z) = inverse of the radial map and its analytic Jacobian
    1 / J(map^{-1}(r)), solved once per distinct radius as each phantom
    week is."""
    offsets, r = _radius_grid(grid, center)
    return _pullback(rm, grid, offsets, *_distinct(r))


def voxelwise_pullback(rm: RadialMap, center,
                       grid: GridGeometry) -> tuple[VectorField, JacobianMap]:
    """The phantom pullback with the radial map inverted at every voxel: one
    bisection over the whole radius grid, then the displacement and the
    analytic Jacobian 1 / J(map^{-1}(r)) per voxel. The reference that the
    per-distinct-radius solve must match bit for bit.
    """
    offsets, r = _radius_grid(grid, center)
    rinv = rm.inverse(r)
    scale = np.ones_like(r)
    nonzero = r > 1e-12
    scale[nonzero] = 1.0 - rinv[nonzero] / r[nonzero]
    return VectorField(grid, offsets * scale), JacobianMap(grid, 1.0 / rm.jacobian(rinv))


def whole_grid_jacobian(disp: VectorField) -> np.ndarray:
    """float64 Jacobian determinant of phi(z) = z - g(z) over the whole grid
    at once: np.gradient of each widened field component, then the 3x3
    cofactor expansion. The reference that slabbed computations must match
    bit for bit.
    """
    m = [[None] * 3 for _ in range(3)]
    for k in range(3):
        grads = np.gradient(disp.data[k].astype(np.float64), axis=(0, 1, 2))
        for l in range(3):
            m[k][l] = (1.0 if k == l else 0.0) - grads[l]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mean_norm(field: VectorField) -> float:
    """Mean vector length of a field, in float64."""
    return float(np.sqrt((field.data.astype(np.float64) ** 2).sum(axis=0)).mean())


# The grid kernels as whole-array expressions, each building its own
# temporaries: the references that the kernels writing into preallocated
# outputs must match bit for bit.

def stacked_pull(data: np.ndarray, disp: np.ndarray, order: int = 1) -> np.ndarray:
    """Sample data at np.indices - disp, each component into its own array,
    then np.stack them."""
    coords = np.indices(disp.shape[1:], dtype=np.float32) - disp
    if data.ndim == 4:
        return np.stack([ndimage.map_coordinates(comp, coords, order=order,
                                                 mode="nearest")
                         for comp in data])
    return ndimage.map_coordinates(data, coords, order=order, mode="nearest")


def doubled_upsample(data: np.ndarray, dims) -> np.ndarray:
    """A (3, ...) field sampled at np.indices(dims) * 0.5, each component
    into its own array, np.stack'ed, then multiplied by 2.0 into a new
    array."""
    coords = np.indices(dims, dtype=np.float32) * 0.5
    return 2.0 * np.stack([ndimage.map_coordinates(comp, coords, order=1,
                                                   mode="nearest")
                           for comp in data])


def added_compose(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g + f pulled through g."""
    return g + stacked_pull(f, g)


def negated_exp(v: np.ndarray, steps: int, sign: float = 1.0) -> np.ndarray:
    """Scaling and squaring of v, or of a negated copy -v when sign < 0."""
    d = (-v if sign < 0 else v) / float(2 ** steps)
    for _ in range(steps):
        d = added_compose(d, d)
    return d


def widened_max_norm(arr: np.ndarray) -> float:
    """Largest vector length from the widened squares summed over axis 0."""
    return float(np.sqrt((arr.astype(np.float64) ** 2).sum(axis=0).max()))


def _smoothed(arr: np.ndarray, sigma: float) -> np.ndarray:
    kernel = gaussian_kernel1d(sigma)
    for axis in range(arr.ndim):
        arr = ndimage.correlate1d(arr, kernel, axis=axis, mode="nearest")
    return arr


def stacked_smooth_field(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Per-component Gaussian smoothing, np.stack'ed."""
    return np.stack([_smoothed(comp, sigma) for comp in arr])


def zero_filled_lcc(m, eps_m, fixed, eps_f, sigma) -> float:
    """Mean squared local correlation, with rho^2 divided from a*a into a
    zero-filled array."""
    fbar, c = fixed
    mbar = m - _smoothed(m, sigma)
    a = _smoothed(mbar * fbar, sigma)
    b = _smoothed(mbar * mbar, sigma)
    valid = (b > eps_m) & (c > eps_f)
    rho2 = np.zeros_like(a)
    np.divide(a * a, b * c, out=rho2, where=valid)
    np.clip(rho2, 0.0, 1.0, out=rho2)
    return float(rho2.mean(dtype=np.float64))


def stacked_lcc_force(stats, sigma: float) -> np.ndarray:
    """The LCC force as np.stack of -k times each np.gradient component."""
    mbar, fbar, a, b, c, valid = stats
    r1 = np.zeros_like(a)
    np.divide(a, b * c, out=r1, where=valid)
    r2 = np.zeros_like(a)
    np.divide(a * a, b * b * c, out=r2, where=valid)
    k = 2.0 * (fbar * _smoothed(r1, sigma) - mbar * _smoothed(r2, sigma))
    grads = np.gradient(mbar, axis=(0, 1, 2))
    return np.stack([-k * grads[axis] for axis in range(3)])
