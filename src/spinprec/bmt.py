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

from dataclasses import dataclass

import numpy as np

from .kinematics import TWO_PI, Kinematics, check_time_grid, check_unit, motion_axis

#: floor demanded of the cross-check integrator
MIN_STEPS_PER_PERIOD = 200
#: default; 200 leaves ~5e-8 per-period error, 400 stays under 1e-8
DEFAULT_STEPS_PER_PERIOD = 400
#: most RK4 substeps one integrate call may take: 11-15 s at 1.1-1.5 us each on a 2-vCPU Xeon
MAX_RK4_SUBSTEPS = 10**7


@dataclass(frozen=True)
class PrecessionVector:
    """Constant precession vector of the rest-frame spin (units 2|mu|H/hbar)."""

    omega_vec: np.ndarray

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.omega_vec))


@dataclass(frozen=True)
class PrecessionTrajectory:
    """Rest-frame spin samples with their mapped lab polarization."""

    t: np.ndarray
    s: np.ndarray
    pi: np.ndarray
    beta_pi: np.ndarray


def omega_vector(kin: Kinematics) -> PrecessionVector:
    """Precession vector for motion in the XZ plane, field along Z.

    |Omega| = sqrt(1 - beta^2 cos^2(alpha)), matching the magnitude of the
    quantum level-splitting frequency.
    """
    g = kin.gamma / (kin.gamma + 1.0)
    return PrecessionVector(
        np.array(
            [-g * kin.beta_z * kin.beta_perp, 0.0, 1.0 - g * kin.beta_z**2]
        )
    )


def map_rest_to_pi(s, kin: Kinematics) -> tuple[np.ndarray, np.ndarray]:
    """Lab polarization (pi, beta_pi) of rest-frame spin s; accepts (..., 3)."""
    s = np.asarray(s, dtype=float)
    bhat = motion_axis(kin)
    proj = s @ bhat
    scaled = (kin.gamma - 1.0) * proj
    # component-major: pi[..., j] is the contiguous row j of pi_rows, computed in place
    pi_rows = np.empty((3,) + s.shape[:-1])
    term = np.empty(s.shape[:-1])
    for j in range(3):
        row = pi_rows[j, ...]
        np.multiply(s[..., j], kin.gamma, out=row)
        np.multiply(scaled, bhat[j], out=term)
        row -= term
    return np.moveaxis(pi_rows, 0, -1), kin.beta * proj


def map_pi_to_rest(pi, kin: Kinematics) -> np.ndarray:
    """Inverse of map_rest_to_pi; exact round trip up to roundoff."""
    pi = np.asarray(pi, dtype=float)
    bhat = motion_axis(kin)
    proj = pi @ bhat
    return (pi + (kin.gamma - 1.0) * proj[..., None] * bhat) / kin.gamma


def trajectory_exact(
    s0, omega: PrecessionVector, t_grid, kin: Kinematics
) -> PrecessionTrajectory:
    """Rotate ``s0`` about Omega by |Omega| t at each grid time; map to lab polarization.

    ``s0`` must be a unit 3-vector and ``t_grid`` nonempty, finite and strictly ascending.
    """
    s0 = check_unit(s0, "s0")
    t = check_time_grid(t_grid)
    w = omega.magnitude
    if w == 0.0:
        s = np.tile(s0, (t.size, 1))
    else:
        axis = omega.omega_vec / w
        cross = np.cross(axis, s0)
        along = axis * (axis @ s0)
        c = w * t
        si = np.sin(c)
        np.cos(c, out=c)
        one_minus_c = 1.0 - c
        s = np.empty((t.size, 3))
        row = np.empty(t.size)
        term = np.empty(t.size)
        for j in range(3):
            # (s0_j c + cross_j si) + along_j (1 - c), the Rodrigues sum in its vector order
            np.multiply(c, s0[j], out=row)
            np.multiply(si, cross[j], out=term)
            row += term
            np.multiply(one_minus_c, along[j], out=term)
            row += term
            s[:, j] = row
    pi, beta_pi = map_rest_to_pi(s, kin)
    return PrecessionTrajectory(t, s, pi, beta_pi)


def _rk4_segment(s, omega_vec, dt: float, steps: int):
    """Advance ds/dt = Omega x s by steps equal RK4 substeps of length dt/steps."""
    wx, wy, wz = omega_vec
    sx, sy, sz = s
    h = dt / steps
    hh = 0.5 * h
    for _ in range(steps):
        k1x = wy * sz - wz * sy
        k1y = wz * sx - wx * sz
        k1z = wx * sy - wy * sx
        ax, ay, az = sx + hh * k1x, sy + hh * k1y, sz + hh * k1z
        k2x = wy * az - wz * ay
        k2y = wz * ax - wx * az
        k2z = wx * ay - wy * ax
        bx, by, bz = sx + hh * k2x, sy + hh * k2y, sz + hh * k2z
        k3x = wy * bz - wz * by
        k3y = wz * bx - wx * bz
        k3z = wx * by - wy * bx
        cx, cy, cz = sx + h * k3x, sy + h * k3y, sz + h * k3z
        k4x = wy * cz - wz * cy
        k4y = wz * cx - wx * cz
        k4z = wx * cy - wy * cx
        sx += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        sy += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        sz += h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
    return sx, sy, sz


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
    w = omega.magnitude
    if w > 0.0:
        dts = np.diff(t)
        substeps = np.maximum(1.0, np.ceil(dts / (TWO_PI / w / steps_per_period)))
        total = float(substeps.sum())
        if total > MAX_RK4_SUBSTEPS:
            raise ValueError(
                f"{total:.3g} rk4 substeps exceed the {MAX_RK4_SUBSTEPS:.0e}-substep guard"
            )
        wv = tuple(float(c) for c in omega.omega_vec)
        cur = (float(s0[0]), float(s0[1]), float(s0[2]))
        # one flat list of floats, converted once: cheaper than a NumPy row
        # assignment per interval, and than a list of row tuples
        flat = list(cur)
        for dt, steps in zip(dts.tolist(), substeps.tolist()):
            cur = _rk4_segment(cur, wv, dt, int(steps))
            flat.extend(cur)
        s = np.array(flat).reshape(t.size, 3)
    else:
        s = np.tile(s0, (t.size, 1))
    pi, beta_pi = map_rest_to_pi(s, kin)
    return PrecessionTrajectory(t, s, pi, beta_pi)
