"""Classical comparator: BMT rest-frame spin precession in a uniform field.

For a neutral particle whose magnetic moment is entirely anomalous, the
rest-frame spin s obeys ds/dt = Omega x s with

    Omega = B_hat - (gamma/(gamma+1)) (beta . B_hat) beta

in units of 2|mu|H/hbar, the same clock the quantum engine uses.  The
field direction is the Z axis.  Omega is constant, so the exact solution
is an axis-angle rotation; a fixed-step fourth-order integrator is kept
alongside it as an independent cross-check.

The lab-frame polarization is recovered from s by boosting the
magnetic-type components of the spin tensor:

    pi = gamma s - (gamma - 1)(s . beta_hat) beta_hat,  beta_pi = beta (s . beta_hat)

which turns |pi|^2/gamma^2 + beta_pi^2 = |s|^2 into an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    TWO_PI, Kinematics, _held, _sinusoids, _Workspace, check_time_grid, check_unit, motion_axis
)

#: floor demanded of the cross-check integrator
MIN_STEPS_PER_PERIOD = 200
#: default.  On 16 samples per period, s is off by 4.3e-8 per period at 200 steps and by 2.9e-9
#: at 400; pi, boosted, by up to gamma times more (3.0e-4 and 2.0e-5 at beta = 1 - 1e-8)
DEFAULT_STEPS_PER_PERIOD = 400
#: most RK4 substeps one integrate call may take: K of them leave ~K eps, 2e-9 < the 1e-8 tolerance
MAX_RK4_SUBSTEPS = 10**7
#: bound on a trajectory's norm_drift per period, and on all of it in a run shorter than one.
#: RK4's drift per period does not depend on the span: on 16 samples per period it is 1.1e-9 at
#: the 200-step floor, past this bound, 1.7e-10 at 300 steps and 4.0e-11 at 400
NORM_DRIFT_TOL = 1e-9
#: grid intervals integrate maps at once; bounds its memory on any grid
_BLOCK = 4096


def _norm_drift_bound(periods: float) -> float:
    """The largest norm_drift a run of ``periods`` passes with; under one period, all of the tolerance."""
    return NORM_DRIFT_TOL * max(1.0, periods)


@dataclass(frozen=True)
class PrecessionVector:
    """Constant precession vector of the rest-frame spin (units 2|mu|H/hbar); |Omega| >= 1/gamma."""

    omega_vec: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.magnitude < math.inf:
            raise ValueError(f"omega_vec must be finite and nonzero, got {self.omega_vec}")

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.omega_vec))


@dataclass(frozen=True)
class PrecessionTrajectory:
    """Rest-frame spin samples with their mapped lab polarization; ``s`` is None in a comparison."""

    t: np.ndarray
    s: np.ndarray | None
    pi: np.ndarray
    beta_pi: np.ndarray

    @property
    def norm_drift(self) -> float:
        """max ||s| - 1| over the samples, which :data:`NORM_DRIFT_TOL` bounds per period; needs ``s``."""
        return float(np.abs(np.linalg.norm(self.s, axis=1) - 1.0).max())


def omega_vector(kin: Kinematics) -> PrecessionVector:
    """Precession vector for motion in the XZ plane, field along Z.

    |Omega| = sqrt(1 - beta^2 cos^2(alpha)), matching the magnitude of the
    quantum level-splitting frequency.  Omega_z = 1 - gamma beta_z^2/(gamma + 1)
    is written, by gamma beta^2 = gamma - 1/gamma, as

        Omega_z = (1 + 1/gamma + gamma beta_perp^2)/(gamma + 1)

    whose terms are all positive: the difference cancels towards 1/gamma
    when the motion runs along the field.
    """
    g = kin.gamma / (kin.gamma + 1.0)
    omega_z = (1.0 + 1.0 / kin.gamma + kin.gamma * kin.beta_perp**2) / (kin.gamma + 1.0)
    return PrecessionVector(np.array([-g * kin.beta_z * kin.beta_perp, 0.0, omega_z]))


def map_rest_to_pi(s, kin: Kinematics) -> tuple[np.ndarray, np.ndarray]:
    """Lab polarization (pi, beta_pi) of rest-frame spin s; accepts (..., 3)."""
    s = np.asarray(s, dtype=float)
    bhat = motion_axis(kin)
    proj = s @ bhat
    return kin.gamma * s - ((kin.gamma - 1.0) * proj)[..., None] * bhat, kin.beta * proj


def map_pi_to_rest(pi, kin: Kinematics) -> np.ndarray:
    """Inverse of map_rest_to_pi; exact round trip up to roundoff."""
    pi = np.asarray(pi, dtype=float)
    bhat = motion_axis(kin)
    proj = pi @ bhat
    return (pi + (kin.gamma - 1.0) * proj[..., None] * bhat) / kin.gamma


def _cross(a, b):
    """a x b of two 3-sequences of floats, with the multiplies and subtractions of np.cross."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def trajectory_exact(
    s0, omega: PrecessionVector, t_grid, kin: Kinematics, *, workspace: _Workspace | None = None
) -> PrecessionTrajectory:
    """Rotate ``s0`` about Omega by |Omega| t at each grid time; map to lab polarization.

    ``s0`` must be a unit 3-vector and ``t_grid`` nonempty, finite and strictly ascending.
    ``s`` and ``pi`` are component-major: each row of ``s.T`` and ``pi.T`` is
    contiguous.  With the workspace of a comparison and its grid only ``pi`` and
    ``beta_pi``, which a comparison reads, are evaluated, into the workspace's rows,
    and ``s`` is None.
    """
    s0 = check_unit(s0, "s0")
    workspace = _held(workspace, t_grid)
    t = t_grid if workspace is not None else check_time_grid(t_grid)
    w = omega.magnitude
    # Rodrigues: s(t) = along + (s0 - along) cos(wt) + (axis x s0) sin(wt).  The boost
    # is linear, so pi and beta_pi are the same sinusoid of the three boosted vectors.
    axis = omega.omega_vec / w
    along = axis * (axis @ s0)
    vecs = np.array([along, s0 - along, _cross(axis.tolist(), s0.tolist())])
    pi_vecs, beta_pi_vecs = map_rest_to_pi(vecs, kin)
    # coefs[r] = (c0, c1, c2) of output row r: s x3, pi x3, beta_pi
    coefs = np.concatenate([vecs.T, pi_vecs.T, beta_pi_vecs[None]]).tolist()
    if workspace is not None:
        rows = _sinusoids(workspace.classical, coefs[3:], w, t, workspace)
        return PrecessionTrajectory(t, None, rows[:3].T, rows[3])
    rows = _sinusoids(np.empty((7, t.size)), coefs, w, t)
    return PrecessionTrajectory(t, rows[:3].T, rows[3:6].T, rows[6])


def _interval_maps(cross, dts, steps):
    """Each interval's RK4 map, its one-substep map raised to the interval's substep count."""
    eye = np.eye(3)
    # each interval's one-substep map: the four RK4 stages, acting on the identity
    k1 = (dts / steps)[:, None, None] * cross
    k2 = k1 @ (eye + 0.5 * k1)
    k3 = k1 @ (eye + 0.5 * k2)
    k4 = k1 @ (eye + k3)
    power = eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    maps = eye
    for bit in range(int(steps.max()).bit_length()):  # to the power steps, by repeated squaring
        maps = np.where((steps // 2**bit % 2 == 1)[:, None, None], power @ maps, maps)
        power = power @ power
    return maps


def _chain(maps, s0):
    """The state after each of a block's intervals: s[i] = maps[i] @ ... @ maps[0] @ s0.

    By recursive pairing: the products of neighbouring maps chain every second
    state, and one matvec on the state before fills each state in between.
    That is about n 3x3 products and n matvecs for n maps, in log2(n) levels.
    """
    s = np.empty((len(maps), 3))
    if len(maps) > 1:
        s[1::2] = _chain(maps[1::2] @ maps[: len(maps) - 1 : 2], s0)
    before = np.concatenate([s0[None], s[1:-1:2]])  # the state before each even interval
    s[::2] = (maps[::2] @ before[:, :, None])[:, :, 0]
    return s


def check_steps_per_period(steps_per_period: int) -> None:
    """Refuse an RK4 step density below :data:`MIN_STEPS_PER_PERIOD`."""
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"steps_per_period must be >= {MIN_STEPS_PER_PERIOD}, got {steps_per_period}"
        )


def integrate(
    s0,
    omega: PrecessionVector,
    t_grid,
    kin: Kinematics,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
) -> PrecessionTrajectory:
    """Fixed-step RK4 cross-check of the exact rotation.

    The step is capped at period/steps_per_period; each grid interval is
    subdivided to land exactly on the sample times.
    """
    s0 = check_unit(s0, "s0")
    t = check_time_grid(t_grid)
    check_steps_per_period(steps_per_period)
    dts = np.diff(t)
    substeps = np.maximum(1.0, np.ceil(dts / (TWO_PI / omega.magnitude / steps_per_period)))
    total = float(substeps.sum())
    if total > MAX_RK4_SUBSTEPS:
        raise ValueError(
            f"{total:.3g} rk4 substeps exceed the {MAX_RK4_SUBSTEPS:.0e}-substep guard"
        )
    # row j is e_j x Omega: cross @ s = Omega x s
    cross = np.array([_cross(e, omega.omega_vec.tolist()) for e in np.eye(3).tolist()])
    s = np.tile(s0, (t.size, 1))
    for lo in range(0, dts.size, _BLOCK):
        hi = lo + _BLOCK  # s[lo], the last state of the block before, carries over
        # substeps is a function of dt alone, so intervals of equal dt share one map
        u, first, which = np.unique(dts[lo:hi], return_index=True, return_inverse=True)
        maps = _interval_maps(cross, u, substeps[lo:hi][first])
        s[lo + 1 : hi + 1] = _chain(maps[which], s[lo])
    pi, beta_pi = map_rest_to_pi(s, kin)
    return PrecessionTrajectory(t, s, pi, beta_pi)
