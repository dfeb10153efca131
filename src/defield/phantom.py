"""Synthetic volumes, masks and deformation fields with analytic ground truth.

Deformations are radial maps r -> r * (1 + a * exp(-r^2 / 2 sigma^2)) about a
center, optionally composed (a local tumor component plus a wide shallow
background component with the opposite sign, mimicking surrounding tissue
that expands into the space a shrinking tumor vacates). Radial maps have a
closed-form Jacobian determinant and a monotone profile, so their inverses
are computable to 1e-6 voxels by bisection and every generated field can be
checked against analytic truth. The profile depends on the radius alone, so
a course builds its radius grid once and bisects once per distinct radius
(1192 of the 262 144 voxels of a 64^3 grid), then expands the result to the
voxels, which gives the per-voxel values bit for bit.

Weekly images are generated by warping the previous week's clean image
through the pullback of the anatomy map; per-week sensor noise is added on
top. A smooth background texture is baked into the week-0 scene so that
registration has structure to lock onto outside the tumor as well.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import volio
from .cohort import WeekEntry
from .defanalysis import JacobianMap, write_jacobian
from .grids import (
    GridGeometry,
    Mask,
    ValidationError,
    VectorField,
    Volume,
    _smooth_array,
    warp_volume,
)

_INV_SQRT_E = math.exp(-0.5)
# bounds keeping r (1 + a exp(-r^2/2s^2)) strictly monotone:
# d/dr = 1 + a e^{-t^2/2} (1 - t^2) with extremes 1 (t=0) and -2 e^{-3/2}
_A_MIN = -1.0
_A_MAX = 0.5 * math.exp(1.5)


@dataclass(frozen=True)
class RadialComponent:
    """One Gaussian bump of a radial map, f(r) = a * exp(-r^2 / 2 sigma^2)."""

    amplitude: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValidationError(f"radial width must be > 0, got {self.width}")
        a = self.amplitude
        if abs(a) / self.width >= math.sqrt(math.e):
            raise ValidationError(
                f"|amplitude|/width = {abs(a) / self.width:.3f} >= sqrt(e)")
        if not _A_MIN < a < _A_MAX:
            raise ValidationError(
                f"amplitude {a} outside the monotone range ({_A_MIN}, {_A_MAX:.3f})")

    def factor(self, r):
        return self.amplitude * np.exp(-0.5 * (r / self.width) ** 2)

    def map(self, r):
        return r * (1.0 + self.factor(r))

    def jacobian(self, r):
        """det of the 3-D radial map: (1+f)^2 (1 + f + r f')."""
        f = self.factor(r)
        dmap = 1.0 + f * (1.0 - (r / self.width) ** 2)
        return (1.0 + f) ** 2 * dmap

    @property
    def peak_displacement(self) -> float:
        return abs(self.amplitude) * self.width * _INV_SQRT_E


@dataclass(frozen=True)
class RadialMap:
    """Composition of radial components, applied first-to-last."""

    components: tuple[RadialComponent, ...]

    def map(self, r):
        out = np.asarray(r, dtype=np.float64)
        for comp in self.components:
            out = comp.map(out)
        return out

    def jacobian(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.ones_like(r)
        for comp in self.components:
            out = out * comp.jacobian(r)
            r = comp.map(r)
        return out

    @property
    def peak_displacement(self) -> float:
        return sum(c.peak_displacement for c in self.components)

    def inverse(self, rho, tol: float = 1e-6):
        """Solve map(r) = rho by bisection on the monotone profile."""
        rho = np.asarray(rho, dtype=np.float64)
        lo = np.zeros_like(rho)
        hi = np.full_like(rho, float(rho.max(initial=0.0)) + self.peak_displacement + 1.0)
        span = float(hi.flat[0]) if hi.size else 0.0
        iterations = max(1, math.ceil(math.log2(max(span / tol, 2.0))))
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            below = self.map(mid) < rho
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _radius_grid(grid: GridGeometry, center) -> tuple[np.ndarray, np.ndarray]:
    coords = np.indices(grid.dims, dtype=np.float64)
    offsets = coords - np.asarray(center, dtype=np.float64).reshape(3, 1, 1, 1)
    return offsets, np.sqrt((offsets ** 2).sum(axis=0))


def _distinct(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct radii of a radius grid and each voxel's index into them."""
    radii, where = np.unique(r, return_inverse=True)
    return radii, where.reshape(r.shape)  # numpy < 2 returns the index flat


def grid_center(grid: GridGeometry) -> tuple[float, float, float]:
    return tuple((d - 1) / 2.0 for d in grid.dims)


def _pullback(rm: RadialMap, grid: GridGeometry, offsets: np.ndarray,
              radii: np.ndarray, where: np.ndarray) -> tuple[VectorField, JacobianMap]:
    """Displacement g with z - g(z) = inverse of the radial map, together
    with its analytic Jacobian 1 / J(map^{-1}(r)), solved on the distinct
    radii of _distinct and expanded through where.

    This is the forward registration field for an anatomy that evolved by
    rm: warping a week-k image with it produces the week-(k+1) image.
    """
    rinv = rm.inverse(radii)
    scale = np.ones_like(radii)
    nonzero = radii > 1e-12
    scale[nonzero] = 1.0 - rinv[nonzero] / radii[nonzero]
    return (VectorField(grid, offsets * scale[where]),
            JacobianMap(grid, (1.0 / rm.jacobian(rinv))[where]))


@dataclass(frozen=True)
class PhantomSpec:
    """Configuration of a synthetic multi-week patient course."""

    grid: GridGeometry
    radius: float = None           # initial tumor radius, voxels; None: min(12, 0.3 min dim)
    mode: str = "shrink"           # shrink | grow | stable
    amplitude: float = 1.1         # peak displacement per week, voxels
    noise_sd: float = 0.02
    weeks: int = 4
    seed: int = 7

    def __post_init__(self):
        if self.radius is None:
            object.__setattr__(self, "radius",
                               min(12.0, round(0.3 * min(self.grid.dims), 1)))
        if self.mode not in ("shrink", "grow", "stable"):
            raise ValidationError(f"unknown growth mode {self.mode!r}")
        if self.radius >= min(self.grid.dims) / 3.0:
            raise ValidationError(
                f"radius {self.radius} must be < min dim / 3 = {min(self.grid.dims) / 3:.1f}")
        if self.radius <= 2:
            raise ValidationError("radius must exceed 2 voxels")
        if self.amplitude < 0:
            raise ValidationError("amplitude must be >= 0")
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be >= 0")
        if self.weeks < 2:
            raise ValidationError("a course needs at least 2 weeks")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


# shape constants of the generated scene, relative to the tumor radius
_TUMOR_WIDTH_FACTOR = 0.58     # contraction-zone width vs current radius
_BG_WIDTH_FACTOR = 1.35        # background component width vs initial radius
_BG_AMPLITUDE_FACTOR = -0.13   # background amplitude vs tumor amplitude
_BLOB_WIDTH_FACTOR = 0.70      # intensity blob width vs initial radius
_TEXTURE_SIGMA = 2.5
_TEXTURE_AMPLITUDE = 0.12
_GROW_DELINEATION_MARGIN = 1.5  # voxels/week: delineations over-cover growth

# delineation realism in shrink mode: the drawn contour loses a little
# extra radius each week and carries a few re-drawn angular notches, so the
# reduced region is a solid outer annulus and the newly-grown region comes
# from notch sites the next delineation re-includes (inner, higher J)
_SHRINK_DELINEATION_BIAS = 0.5  # extra voxels of radius removed per week
_NOTCH_COUNT = 3
_NOTCH_DEPTH = 2.2              # voxels below the contour radius
_NOTCH_COS = 0.88               # angular half-width ~28 degrees


@dataclass
class SyntheticWeek:
    volume: Volume
    mask: Mask


@dataclass
class SyntheticCourse:
    spec: PhantomSpec
    weeks: list[SyntheticWeek]
    gt_fields: list[VectorField]       # forward field per consecutive pair
    gt_jacobians: list[JacobianMap]    # analytic Jacobian of each gt field

    def write(self, outdir, patient_id: str) -> list[WeekEntry]:
        """Write week volumes/masks (and ground truth) under
        outdir/patient_id; returns the week entries of the written files."""
        pdir = os.path.join(outdir, patient_id)
        os.makedirs(pdir, exist_ok=True)
        entries = [WeekEntry(week, os.path.join(pdir, f"week{week:02d}_vol.vol"),
                             os.path.join(pdir, f"week{week:02d}_mask.vol"))
                   for week in range(len(self.weeks))]
        for entry, wk in zip(entries, self.weeks):
            volio.write_volume(entry.volume_path, wk.volume)
            volio.write_mask(entry.mask_path, wk.mask)
        for pair, (fld, jac) in enumerate(zip(self.gt_fields, self.gt_jacobians)):
            volio.write_field(os.path.join(pdir, f"gt_forward{pair:02d}.vol"), fld)
            write_jacobian(os.path.join(pdir, f"gt_jacobian{pair:02d}.vol"), jac)
        return entries


def _tumor_amplitude(spec: PhantomSpec, radius: float) -> float:
    sigma_t = _TUMOR_WIDTH_FACTOR * radius
    a = spec.amplitude / (sigma_t * _INV_SQRT_E)
    return -a if spec.mode == "shrink" else a


def _week_map(spec: PhantomSpec, radius: float, bg_amplitude: float) -> RadialMap:
    if spec.mode == "stable":
        return RadialMap(())
    a_t = _tumor_amplitude(spec, radius)
    components = (
        RadialComponent(a_t, _TUMOR_WIDTH_FACTOR * radius),
        RadialComponent(bg_amplitude, _BG_WIDTH_FACTOR * spec.radius),
    )
    return RadialMap(components)


def _blob(grid: GridGeometry, r: np.ndarray, radius: float, seed: int) -> Volume:
    """Gaussian intensity blob over a smooth seeded background texture, on
    the radius grid r."""
    img = 0.2 + np.exp(-0.5 * (r / (_BLOB_WIDTH_FACTOR * radius)) ** 2)
    rng = np.random.default_rng((seed, 0))
    tex = _smooth_array(rng.standard_normal(grid.dims), _TEXTURE_SIGMA)
    img = img + _TEXTURE_AMPLITUDE * tex / tex.std()
    return Volume(grid, img)


def _delineation_mask(grid: GridGeometry, offsets: np.ndarray, r: np.ndarray,
                      radius: float, rng: np.random.Generator | None) -> Mask:
    """Ball of the given radius, minus a few seeded angular notches."""
    inside = r <= radius
    if rng is not None:
        safe_r = np.maximum(r, 1e-12)
        for _ in range(_NOTCH_COUNT):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            cosang = np.einsum("c,cxyz->xyz", direction, offsets) / safe_r
            notch = (cosang > _NOTCH_COS) & (r > radius - _NOTCH_DEPTH)
            inside &= ~notch
    return Mask(grid, inside)


def synth_course(spec: PhantomSpec) -> SyntheticCourse:
    """Generate a full multi-week course with retained ground truth.

    Shrink mode contracts the tumor week over week, grow mode expands it
    (with delineations over-covering the anatomy so the reduced region is
    empty under ground-truth warping), stable mode repeats the scene.
    Bit-reproducible for a fixed seed.
    """
    grid = spec.grid
    offsets, r = _radius_grid(grid, grid_center(grid))
    radii, where = _distinct(r)
    clean = _blob(grid, r, spec.radius, spec.seed)
    bg_amp = _BG_AMPLITUDE_FACTOR * _tumor_amplitude(spec, spec.radius)

    tumor_radii = [spec.radius]
    volumes, masks, fields, jacobians = [], [], [], []
    for week in range(spec.weeks):
        noisy = clean.data
        if spec.noise_sd > 0:
            rng = np.random.default_rng((spec.seed, 100 + week))
            noisy = noisy + spec.noise_sd * rng.standard_normal(grid.dims).astype(np.float32)
        volumes.append(Volume(grid, noisy))
        contour, notch_rng = tumor_radii[week], None
        if spec.mode == "shrink":
            contour -= _SHRINK_DELINEATION_BIAS * week
            notch_rng = np.random.default_rng((spec.seed, 300 + week))
        elif spec.mode == "grow":
            contour += _GROW_DELINEATION_MARGIN * week
        masks.append(_delineation_mask(grid, offsets, r, contour, notch_rng))
        if week == spec.weeks - 1:
            break
        rm = _week_map(spec, tumor_radii[week], bg_amp)
        if rm.components:
            field, jac = _pullback(rm, grid, offsets, radii, where)
        else:
            # bisection on the empty map is not exactly zero
            field = VectorField.zero(grid)
            jac = JacobianMap(grid, np.ones(grid.dims, dtype=np.float32))
        fields.append(field)
        jacobians.append(jac)
        clean = warp_volume(clean, field)
        tumor_radii.append(float(rm.map(tumor_radii[week])))

    weeks = [SyntheticWeek(v, m) for v, m in zip(volumes, masks)]
    return SyntheticCourse(spec, weeks, fields, jacobians)


def synth_cohort(spec: PhantomSpec, n_patients: int) -> list[SyntheticCourse]:
    """Independent courses with per-patient seeds and mild radius jitter.

    A patient whose jittered radius would break PhantomSpec's radius rules,
    or whose jittered course leaves the monotone amplitude range in any
    week, keeps the base radius.
    """
    if n_patients < 1:
        raise ValidationError("n_patients must be >= 1")
    courses = []
    for p in range(n_patients):
        jitter = [0.0, -1.0, 1.0][p % 3]
        course_spec = replace(spec, seed=spec.seed + 1000 * p)
        try:
            course = synth_course(replace(course_spec, radius=spec.radius + jitter))
        except ValidationError:
            if not jitter:
                raise
            course = synth_course(course_spec)
        courses.append(course)
    return courses
