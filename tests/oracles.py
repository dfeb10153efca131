"""Analytic fields with closed-form Jacobians, used as test oracles."""
import numpy as np

from defield.defanalysis import JacobianMap
from defield.grids import GridGeometry, ValidationError, VectorField, Volume
from defield.phantom import RadialComponent, RadialMap, _radius_grid, grid_center


def full_volume(geometry: GridGeometry, value: float) -> Volume:
    """A float32 volume holding one value everywhere."""
    return Volume(geometry, np.full(geometry.dims, value, dtype=np.float32))


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
