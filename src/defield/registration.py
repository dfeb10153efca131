"""Symmetric log-domain diffeomorphic registration with local-correlation forces.

The transform is parameterized by a stationary velocity field v; the
forward and backward displacement fields are exp(v) and exp(-v) computed by
scaling and squaring, so both mappings are smooth with smooth inverses.
Forces maximize the mean squared local correlation coefficient, which is
invariant to locally affine intensity rescaling: the gradient of the
energy with respect to the displacement at z is

    force(z) = -2 [ fbar(z) G*(A/(BC)) - mbar(z) G*(A^2/(B^2 C)) ] grad mbar(z)

where mbar/fbar are the Gaussian-window mean-centered moving/fixed images
and A = G*(mbar fbar), B = G*(mbar^2), C = G*(fbar^2). The update is the
average of the forward force and the sign-flipped backward force, fluid
smoothing is applied to the update and diffusion smoothing to the velocity,
and a step is accepted only if the symmetric similarity energy does not
decrease. Otherwise the per-level step is halved along the same direction.
The level ends at the second rejection in a row when the halved candidate
scores no higher than the candidate it halved: if the energy is concave
along the ray s -> E(exp(smooth(v + s d / max|d|))) and does not rise from
s to s/2, it stays at or below E(s/2) on all of [0, s/2], and E(s/2) is
already below the state's energy, so every further halving would be
rejected too. An accepted candidate is a new state with a new direction,
so it forgets the rejected energy. A level also ends once the halved step
falls below MIN_STEP_FRACTION * step_scale, the backstop for a ray that is
not concave. The trace records every candidate's energy, so it shows which
rule ended each level.

Each level state computes its symmetric energy once, and builds its
smoothed update direction at most once from the same local statistics: a
rejection only rescales the cached direction, and the returned transform
reuses the final state's exponentials and warped source. The fixed image's
statistics (fbar and C) do not change within a pyramid level, so they are
computed once per level for each direction (the target for the forward
half, the source for the backward half) and shared by every state of the
level, the identity check and the final never-worse-than-identity check;
a state smooths only its warped moving image.

What a state holds, in float32 bytes per voxel: its velocity v, exp(v),
exp(-v) and the warped source (40), each half's local statistics (mbar,
A, B and the valid mask, 26 in all) until its direction is built from
them, and then the fluid-smoothed direction (12). A candidate is a state
built from smooth(v + s d / max|d|). A squaring step holds the scaled
velocity and the sampled output (24) and one x-slab of sampling
coordinates. The grid kernels write into the arrays they return, and the
backward half scales v by -2^-steps instead of negating a copy. A
rejected candidate is freed before the next one is built, and a level's
last state drops its statistics and its direction, so the final
never-worse-than-identity check sees only the final state and the
target's fixed statistics. register's loop drops its reference to a
direction once the candidate velocity is built from it, so a replaced
state's direction is freed with that state. register peaks in one of two
places, within a few bytes per voxel of each other; the two threads'
interleaving decides which. One is a candidate's two _lcc passes: each
half holds its exponential, warped image, local statistics and squared
correlation (37), next to the state with its direction (52), the fixed
statistics (16) and the candidate velocity (12). The other is an
accepted state's two halves building their forces (_lcc_force): the
state (40), its local statistics (26), the fixed statistics (16) and
each half's force with its temporaries (about 35).

Scaling and squaring takes the fewest steps that keep the scaled velocity
below half a voxel (auto_exp_steps, as in Arsigny et al., MICCAI 2006);
exp_steps is only a lower bound on that count.

The forward half of a state (exp(v), the warped source, the forward
statistics and force) and its backward half (exp(-v), the warped target,
the backward statistics and force) are independent, so the backward half
runs on one helper thread while the calling thread runs the forward half;
the scipy.ndimage kernels that dominate both release the GIL. The results
are combined in the same order as a serial run, so the fields are
identical. Each register call owns its executor and joins its thread
before it returns; otherwise threads would pile up, one per pair, in a
process that registers a cohort's pairs on run_cohort's pool threads.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import volio
from .grids import (
    ValidationError,
    VectorField,
    Volume,
    _handover,
    _max_norm,
    _pull,
    _smooth_array,
    _smooth_field_array,
    _upsample_array,
    downsample2,
    require_same_geometry,
)

# local-variance floor, as a fraction of the global intensity variance
VARIANCE_FLOOR = 1e-6
# a level ends once the halved step falls below this fraction of step_scale:
# the backstop behind the rule that ends a level when a halved candidate
# scores no higher than the one it halved (see the module docstring); on
# the phantom pairs checked no step below it was ever accepted
MIN_STEP_FRACTION = 1.0 / 16


@dataclass(frozen=True)
class RegistrationParams:
    pyramid_levels: int = 3
    iterations_per_level: int = 50
    lcc_sigma: float = 3.0        # Gaussian window of the local correlation
    fluid_sigma: float = 2.0      # update-field smoothing
    diffusion_sigma: float = 1.5  # velocity-field smoothing
    exp_steps: int = 1            # minimum scaling-and-squaring steps (auto-raised)
    step_scale: float = 1.0       # max update length in voxels per iteration
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.pyramid_levels < 1:
            raise ValidationError("pyramid_levels must be >= 1")
        if self.iterations_per_level < 1:
            raise ValidationError("iterations_per_level must be >= 1")
        if self.lcc_sigma <= 0:
            raise ValidationError("lcc_sigma must be > 0")
        if self.fluid_sigma < 0 or self.diffusion_sigma < 0:
            raise ValidationError("smoothing sigmas must be >= 0")
        if self.exp_steps < 1:
            raise ValidationError("exp_steps must be >= 1")
        if not 0 < self.step_scale <= 2:
            raise ValidationError("step_scale must be in (0, 2]")
        if self.convergence_tol < 0:
            raise ValidationError("convergence_tol must be >= 0")


@dataclass(frozen=True)
class SymmetricTransform:
    """Stationary velocity plus its exponentials.

    forward warps the source onto the target (phi(z) = z - forward(z));
    backward is the inverse mapping's displacement.
    """

    velocity: VectorField
    forward: VectorField
    backward: VectorField

    def __post_init__(self):
        require_same_geometry(self.velocity, self.forward)
        require_same_geometry(self.velocity, self.backward)


@dataclass(frozen=True)
class TraceEntry:
    """One candidate step: energy is the state's energy after the step
    (the candidate's if accepted), candidate_energy what the candidate
    scored."""

    level: int
    iteration: int
    energy: float
    max_update: float
    accepted: bool
    candidate_energy: float


@dataclass
class ConvergenceTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    # register returned the zero transform: the registered alignment scored
    # below the identity
    identity_fallback: bool = False

    def append(self, entry: TraceEntry) -> None:
        if not (math.isfinite(entry.energy) and math.isfinite(entry.candidate_energy)):
            raise ValidationError("trace energy must be finite")
        self.entries.append(entry)

    def to_json_dict(self) -> list[dict]:
        return [vars(e) for e in self.entries]


def compose(f: VectorField, g: VectorField) -> VectorField:
    """Displacement of the composed mapping: z - h(z) = (z' - f(z'))
    evaluated at z' = z - g(z)."""
    require_same_geometry(f, g)
    return VectorField(f.geometry, _compose_arrays(f.data, g.data))


def _compose_arrays(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = _pull(f, g)
    out += g
    return out


def exp_velocity(v: VectorField, exp_steps: int) -> VectorField:
    """Scaling and squaring: scale v by 2^-exp_steps, then self-compose
    exp_steps times. exp_steps should keep the scaled max norm below half a
    voxel (see auto_exp_steps)."""
    if exp_steps < 1:
        raise ValidationError("exp_steps must be >= 1")
    return VectorField(v.geometry, _exp_array(v.data, exp_steps))


def auto_exp_steps(max_norm: float, minimum: int = 1) -> int:
    """Smallest step count >= minimum with max_norm / 2^steps < 0.5 voxel."""
    steps = minimum
    while max_norm / (2 ** steps) >= 0.5:
        steps += 1
    return steps


def _fixed_stats(f, sigma):
    """The fixed image's share of the local statistics: (fbar, C)."""
    fbar = f - _smooth_array(f, sigma)
    return fbar, _smooth_array(fbar * fbar, sigma)


def _lcc(m, eps_m, fixed, eps_f, sigma):
    """Mean squared local correlation of m against the fixed image whose
    _fixed_stats are `fixed`, and the local statistics (mbar, fbar, A, B,
    C, valid) that its force needs."""
    fbar, c = fixed
    mbar = m - _smooth_array(m, sigma)
    a = _smooth_array(mbar * fbar, sigma)
    b = _smooth_array(mbar * mbar, sigma)
    valid = (b > eps_m) & (c > eps_f)
    rho2 = a * a
    np.divide(rho2, b * c, out=rho2, where=valid)
    np.copyto(rho2, 0.0, where=~valid)
    np.clip(rho2, 0.0, 1.0, out=rho2)
    return float(rho2.mean(dtype=np.float64)), (mbar, fbar, a, b, c, valid)


def _lcc_force(stats, sigma) -> np.ndarray:
    mbar, fbar, a, b, c, valid = stats
    r1 = np.zeros_like(a)
    np.divide(a, b * c, out=r1, where=valid)
    r2 = np.zeros_like(a)
    np.divide(a * a, b * b * c, out=r2, where=valid)
    k = 2.0 * (fbar * _smooth_array(r1, sigma) - mbar * _smooth_array(r2, sigma))
    np.negative(k, out=k)
    force = np.empty((3, *k.shape), dtype=k.dtype)
    for axis, plane in enumerate(force):
        np.multiply(k, np.gradient(mbar, axis=axis), out=plane)
    return force


def lcc_similarity(a: Volume, b: Volume, lcc_sigma: float) -> float:
    """Mean over voxels of the squared local correlation in [0, 1].

    Voxels whose local variance falls below 1e-6 of either image's global
    variance contribute the neutral value 0.
    """
    require_same_geometry(a, b)
    if lcc_sigma <= 0:
        raise ValidationError("lcc_sigma must be > 0")
    eps_a = VARIANCE_FLOOR * float(a.data.var(dtype=np.float64))
    eps_b = VARIANCE_FLOOR * float(b.data.var(dtype=np.float64))
    return _lcc(a.data, eps_a, _fixed_stats(b.data, lcc_sigma), eps_b,
                lcc_sigma)[0]


class _LevelState:
    """Velocity plus its exponentials, warped source and symmetric energy
    at one level; the local statistics are kept only until the update
    direction is built from them. `fwd_in` and `bwd_in` are the level's
    (moving, eps_moving, fixed stats, eps_fixed) for each half. The
    backward half of each computation runs on the helper thread of `pool`
    while the caller runs the forward half."""

    def __init__(self, v, fwd_in, bwd_in, params, pool):
        self.v = v
        self.params = params
        self._pool = pool
        steps = auto_exp_steps(_max_norm(v), params.exp_steps)
        sigma = params.lcc_sigma

        # the backward half exponentiates -v by scaling v by -2^-steps, so
        # it builds no negated copy (the call is positional: the tests count
        # _exp_array calls through a wrapper that passes *args only)
        def half(sign, moving, eps_m, fixed, eps_f):
            disp = _exp_array(v, steps, sign)
            warped = _pull(moving, disp)
            return (disp, warped, *_lcc(warped, eps_m, fixed, eps_f, sigma))

        backward = pool.submit(half, -1.0, *bwd_in)
        self.fwd, self.warped_src, e_f, self._stats_f = half(1.0, *fwd_in)
        self.bwd, _, e_b, self._stats_b = backward.result()
        self.energy = 0.5 * (e_f + e_b)
        self._direction = None

    def direction(self) -> tuple[np.ndarray, float]:
        """Fluid-smoothed symmetric force d and max_norm(d), built once."""
        if self._direction is None:
            sigma = self.params.lcc_sigma
            backward = self._pool.submit(_lcc_force, self._stats_b, sigma)
            u = _lcc_force(self._stats_f, sigma)
            u -= backward.result()
            u *= 0.5
            del backward
            self._stats_f = self._stats_b = None
            u = _smooth_field_array(u, self.params.fluid_sigma)
            self._direction = u, _max_norm(u)
        return self._direction

    def release(self) -> None:
        """Drop the local statistics and the direction, keeping the velocity,
        its exponentials and the warped source."""
        self._stats_f = self._stats_b = self._direction = None


def _exp_array(v: np.ndarray, steps: int, sign: float = 1.0) -> np.ndarray:
    """exp(sign * v) by scaling and squaring; sign is 1 or -1, and dividing
    by -2^steps negates exactly as dividing -v by 2^steps does."""
    d = v / (sign * float(2 ** steps))
    for _ in range(steps):
        d = _compose_arrays(d, d)
    return d


def register(source: Volume, target: Volume,
             params: RegistrationParams = RegistrationParams()
             ) -> tuple[SymmetricTransform, ConvergenceTrace]:
    """Multiresolution symmetric registration of source onto target.

    Returns a transform whose forward field warps source onto target, and
    the per-iteration convergence trace. The accepted similarity energy is
    non-decreasing within each level, so the final forward similarity is at
    least the initial one.
    """
    require_same_geometry(source, target)
    largest = max(source.geometry.dims)
    for name in ("lcc_sigma", "fluid_sigma", "diffusion_sigma"):
        if 3.0 * getattr(params, name) > largest:  # same as ceil(3 sigma) > largest
            raise ValidationError(f"{name} {getattr(params, name)}: ceil(3 * {name}) "
                                  f"exceeds the largest grid dimension {largest}")
    for name, vol in (("source", source), ("target", target)):
        if float(vol.data.var(dtype=np.float64)) == 0.0:
            raise ValidationError(
                f"{name} volume is constant: local correlation is undefined")

    pyramid = [(source, target)]
    while (len(pyramid) < params.pyramid_levels
           and all(d >= 8 for d in pyramid[-1][0].geometry.dims)):
        pyramid.append(tuple(downsample2(vol) for vol in pyramid[-1]))

    sigma = params.lcc_sigma
    trace = ConvergenceTrace()
    state = None
    # one helper thread per call, joined before return (see module docstring)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for level, (src_l, tgt_l) in enumerate(reversed(pyramid)):
            geom = src_l.geometry
            if state is None:
                v = np.zeros((3, *geom.dims), dtype=np.float32)
            else:
                v = _upsample_array(state.v, geom.dims)

            s_arr = src_l.data
            t_arr = tgt_l.data
            eps_s = VARIANCE_FLOOR * float(s_arr.var(dtype=np.float64))
            eps_t = VARIANCE_FLOOR * float(t_arr.var(dtype=np.float64))
            fwd_in = (s_arr, eps_s, _fixed_stats(t_arr, sigma), eps_t)
            bwd_in = (t_arr, eps_t, _fixed_stats(s_arr, sigma), eps_s)

            state = _LevelState(v, fwd_in, bwd_in, params, pool)
            # coarse-level velocities that do not beat the identity are discarded
            e_zero = None
            if level > 0 and _max_norm(v) > 0:
                e_zero = _lcc(*fwd_in, sigma)[0]
                if state.energy < e_zero:
                    state = _LevelState(np.zeros_like(v), fwd_in, bwd_in, params,
                                        pool)

            del v  # only the state keeps the starting velocity

            step = params.step_scale
            # the energy of the last rejected candidate on the state's direction
            rejected = None
            for iteration in range(params.iterations_per_level):
                d, dmax = state.direction()
                if dmax < 1e-12:
                    break
                # v + s d / max|d|, summed in the scaled direction's array
                v_cand = d * (step / dmax)
                del d  # the state alone keeps its direction
                v_cand += state.v
                v_cand = _smooth_field_array(v_cand, params.diffusion_sigma)
                cand = _LevelState(v_cand, fwd_in, bwd_in, params, pool)
                accepted = cand.energy >= state.energy - 1e-12
                trace.append(TraceEntry(level, iteration,
                                        cand.energy if accepted else state.energy,
                                        step, accepted, cand.energy))
                if accepted:
                    rel = abs(cand.energy - state.energy) / max(abs(state.energy), 1e-12)
                    state = cand
                    rejected = None
                    if rel < params.convergence_tol:
                        break
                else:
                    # a halving that did not raise the energy ends the level
                    if rejected is not None and cand.energy <= rejected:
                        break
                    rejected = cand.energy
                    # free its arrays before the next candidate is built
                    del cand, v_cand
                    step *= 0.5
                    if step < MIN_STEP_FRACTION * params.step_scale:
                        break
            # nothing reads the last rejected candidate or a direction again
            d = cand = v_cand = None
            state.release()
        # the final check reads only the forward half's inputs
        del bwd_in

    # contract: never worse than the identity alignment, measured as
    # lcc_similarity would against the finest level's fixed statistics; the
    # identity energy is the finest level's e_zero when that was computed
    sim_before = e_zero if e_zero is not None else _lcc(*fwd_in, sigma)[0]
    eps_w = VARIANCE_FLOOR * float(state.warped_src.var(dtype=np.float64))
    sim_after = _lcc(state.warped_src, eps_w, fwd_in[2], eps_t, sigma)[0]
    geometry = source.geometry
    if sim_after < sim_before:
        zero = VectorField.zero(geometry)
        trace.identity_fallback = True
        return SymmetricTransform(zero, zero, zero), trace
    # the fields pass to the transform without a copy: nothing else holds them
    return SymmetricTransform(VectorField(geometry, _handover(state.v)),
                              VectorField(geometry, _handover(state.fwd)),
                              VectorField(geometry, _handover(state.bwd))), trace


def save_transform(dirpath, transform: SymmetricTransform,
                   params: RegistrationParams, trace: ConvergenceTrace) -> None:
    """Three .vol field files plus a JSON sidecar of params, trace and
    whether register fell back to the identity. The sidecar is a record of
    the run: nothing reads it back (jacobian and regions read forward.vol)."""
    os.makedirs(dirpath, exist_ok=True)
    volio.write_field(os.path.join(dirpath, "velocity.vol"), transform.velocity)
    volio.write_field(os.path.join(dirpath, "forward.vol"), transform.forward)
    volio.write_field(os.path.join(dirpath, "backward.vol"), transform.backward)
    sidecar = {"params": vars(params), "trace": trace.to_json_dict(),
               "identity_fallback": trace.identity_fallback}
    volio.write_json(os.path.join(dirpath, "transform.json"), sidecar)
