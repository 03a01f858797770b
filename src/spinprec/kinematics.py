"""Dimensionless kinematic state, precession frequency and grid sinusoids.

Geometry: the magnetic field points along +Z and the particle moves
uniformly in the XZ plane with velocity beta*(sin(alpha), 0, cos(alpha)),
in units of c.  Everything downstream is dimensionless: energies in units
of the rest energy m0*c^2, time in units of hbar/(2*|mu|*H), so a spin
state precesses through phase omega*t with omega = sqrt(1 -
beta^2*cos^2(alpha)).  Physical units enter only at the CLI boundary.
The input rules every layer shares (``check_*``) live here as well, and
so do the one evaluator of a precessing output on a time grid and the
workspace whose rows a comparison fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: largest | |v| - 1 | accepted of a spin axis or a start spin
UNIT_TOL = 1e-12
#: fewest samples of a uniform grid whose sinusoids :func:`_sin_cos` builds by angle
#: addition; below it libm per sample is faster (in-process on a 2-vCPU Xeon, sin and cos
#: of 1,025 samples took 32 us by libm against 41 us, of 2,049 samples 59 us against 53 us)
SINCOS_MIN_SAMPLES = 2048


@dataclass(frozen=True)
class Kinematics:
    """Derived kinematic state; construct with :func:`make_kinematics`.

    ``q = gamma*sqrt(1 - beta^2*cos^2(alpha)) = sqrt(1 + gamma^2*beta_perp^2)``
    is the transverse-energy factor; it is also the magnitude of the
    spin-projection eigenvalue along the field axis.
    """

    beta: float
    alpha: float
    gamma: float
    beta_perp: float
    beta_z: float
    q: float


@dataclass(frozen=True)
class FieldCoupling:
    """Moment-field coupling s = |mu|*H/(m0*c^2) and spin projection zeta."""

    s: float
    zeta: int


@dataclass(frozen=True)
class SRScales:
    """Synchrotron-radiation timescale estimates for a stored Lorentz factor."""

    omega0: float
    omega_max: float
    rho: float
    time_ratio: float


def make_kinematics(beta: float, alpha: float) -> Kinematics:
    """Build the kinematic state for speed ``beta`` and pitch angle ``alpha``.

    ``alpha`` is the angle (radians) between the velocity and the field axis.
    Raises ValueError unless 0 <= beta < 1 and ``alpha`` is finite.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be < 1 and >= 0, got {beta}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    # (1-beta)*(1+beta) keeps gamma accurate as beta -> 1
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    beta_perp = beta * math.sin(alpha)
    beta_z = beta * math.cos(alpha)
    q = math.hypot(1.0, gamma * beta_perp)
    return Kinematics(beta, alpha, gamma, beta_perp, beta_z, q)


def make_coupling(s: float, zeta: int) -> FieldCoupling:
    """Validate and build a field coupling."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"coupling strength must be finite and >= 0, got {s}")
    check_sign("zeta", zeta)
    return FieldCoupling(s, zeta)


def precession_frequency(kin: Kinematics) -> float:
    """Spin precession frequency sqrt(1 - beta^2*cos^2(alpha)).

    Units 2*|mu|*H/hbar, i.e. the level splitting divided by 2*s; neither
    s nor the branch sign enters.  Equals q/gamma, which is how it is
    evaluated.
    """
    return kin.q / kin.gamma


def motion_axis(kin: Kinematics) -> np.ndarray:
    """Unit vector along the velocity, (sin(alpha), 0, cos(alpha)).

    Well defined also at beta = 0, where it is the axis the pitch angle
    refers to.
    """
    return np.array([math.sin(kin.alpha), 0.0, math.cos(kin.alpha)])


def sr_scales(gamma: float, omega0: float) -> SRScales:
    """Spin-flip timescale estimates at Lorentz factor ``gamma``.

    ``omega0`` is an externally supplied cyclotron-scale frequency; the
    characteristic radiated frequency is omega0*gamma^3 and the ratio of
    the transition time to the radiation-forming time is 2*pi/gamma^4.
    ``rho = 1/omega0`` is the associated curvature radius.
    Raises ValueError unless every estimate is a finite number.
    """
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be finite and > 0, got {omega0}")
    try:
        omega_max = omega0 * gamma**3
    except OverflowError:
        omega_max = math.inf
    rho = 1.0 / omega0
    if not (math.isfinite(omega_max) and math.isfinite(rho)):
        raise ValueError(f"timescales overflow at gamma={gamma:g}, omega0={omega0:g}")
    try:
        time_ratio = TWO_PI / gamma**4
    except OverflowError:
        # gamma**4 leaves the float range from gamma ~1.2e77, gamma**3 only from ~5.6e102
        time_ratio = TWO_PI / gamma**2 / gamma**2
    return SRScales(omega0=omega0, omega_max=omega_max, rho=rho, time_ratio=time_ratio)


def check_sign(name: str, value: int) -> None:
    """Refuse a branch sign ``name`` (zeta, epsilon) other than +1 or -1."""
    if value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value}")


def check_unit(v, name: str) -> np.ndarray:
    """``v`` as a float 3-vector, refused unless | |v| - 1 | <= :data:`UNIT_TOL`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {norm!r}")
    return v


def check_time_grid(t_grid) -> np.ndarray:
    """A nonempty, finite, strictly ascending time grid as a 1-d float array."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.ndim != 1:
        raise ValueError(f"time grid must be 1-d, got shape {t.shape}")
    if t.size == 0:
        raise ValueError("time grid must be nonempty")
    # ascending order bounds the interior by the ends
    if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
        raise ValueError("time grid must be finite")
    if not (t[1:] > t[:-1]).all():
        raise ValueError("time grid must be strictly ascending")
    return t


class _Workspace:
    """The rows a comparison reads, kept for the next comparison on a grid of one length.

    ``t`` is the grid the rows were last filled for: :func:`spinprec.compare.run_comparison`
    builds it with ``period_grid``, and :meth:`hold` checks it once and makes it
    read-only.  An evaluator handed a workspace together with that grid object
    skips the grid checks, including the ``linspace`` test of :func:`_sin_cos`, and writes
    into the workspace's rows: ``quantum`` holds pi_x, pi_y, pi_z, beta_pi and the invariant,
    ``classical`` pi_x, pi_y, pi_z and beta_pi.  ``scratch`` holds three work rows laid
    out for :func:`_sin_cos` and ``signs`` two boolean rows.  With any other grid an
    evaluator checks it and allocates, as without a workspace.
    """

    def __init__(self) -> None:
        self.t = None

    def hold(self, t: np.ndarray) -> None:
        """Check the ``period_grid`` output ``t`` and take it; rows change only with its length."""
        t = check_time_grid(t)
        t.flags.writeable = False
        n = t.size
        if self.t is None or self.t.size != n:
            m = math.isqrt(n - 1) + 1
            self.quantum = np.empty((5, n))
            self.classical = np.empty((4, n))
            self.scratch = np.empty((3, -(-n // m) * m))
            self.signs = np.empty((2, n), dtype=bool)
        self.t = t


def _held(workspace: _Workspace | None, t_grid) -> _Workspace | None:
    """``workspace`` if it holds the grid object ``t_grid``, else None."""
    return workspace if workspace is not None and t_grid is workspace.t else None


def _sin_cos(
    w: float, t: np.ndarray, workspace: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """sin(w t) and cos(w t) on a grid that :func:`check_time_grid` accepted.

    A grid of at least :data:`SINCOS_MIN_SAMPLES` samples that equals ``np.linspace``
    of its ends is cut into blocks of m = ceil(sqrt(n)) samples.  libm runs only at the
    block starts b = w t[k m], which are grid samples, and at the offsets a = (w h) j,
    j < m, with h the grid step; each sample is then

        sin(b + a) = sin b cos a + cos b sin a,  cos(b + a) = cos b cos a - sin b sin a.

    Both lie within 4 eps max(1, |w t|) of libm's, with |w t| the largest on the
    grid, and equal libm's at the block starts.  Any other grid takes libm per sample.
    ``workspace``, if given, holds ``t``: a ``period_grid``, so a ``linspace``, which
    is not tested again, and the sinusoids are written into its scratch rows.
    """
    n = t.size
    # linspace keeps every sample within a few ulps of t[0] + i h, which the bound needs
    if n < SINCOS_MIN_SAMPLES or (
        workspace is None and not np.array_equal(t, np.linspace(t[0], t[-1], n))
    ):
        phase = w * t
        sin = np.sin(phase)
        return sin, np.cos(phase, out=phase)
    m = math.isqrt(n - 1) + 1
    b = w * t[::m, None]
    a = (w * ((t[-1] - t[0]) / (n - 1))) * np.arange(m)
    sin_b, cos_b, sin_a, cos_a = np.sin(b), np.cos(b), np.sin(a), np.cos(a)
    # (blocks, m) outer products, whose rows laid end to end are the grid
    sin = cos = term = None
    if workspace is not None:
        sin, cos, term = workspace.scratch.reshape(3, -1, m)
    sin = np.multiply(sin_b, cos_a, out=sin)
    term = np.multiply(cos_b, sin_a, out=term)
    sin += term
    cos = np.multiply(cos_b, cos_a, out=cos)
    np.multiply(sin_b, sin_a, out=term)
    cos -= term
    return sin.ravel()[:n], cos.ravel()[:n]


def _sinusoids(
    rows: np.ndarray, coefs, w: float, t: np.ndarray, workspace: _Workspace | None = None
) -> np.ndarray:
    """Fill row r of ``rows`` in place with (c0 + c1 cos(w t)) + c2 sin(w t), (c0, c1, c2) = coefs[r].

    Both closed paths give every output in this form, so this is where each is
    evaluated on ``t``, a grid :func:`check_time_grid` accepted, with the
    sinusoids of :func:`_sin_cos`; ``workspace``, if given, holds ``t`` and lends
    them its scratch rows.  Each row of ``rows`` must be contiguous; returns ``rows``.
    """
    sin, cos = _sin_cos(w, t, workspace)
    # _sin_cos leaves the third scratch row free
    term = np.empty(t.size) if workspace is None else workspace.scratch[2, : t.size]
    for row, (c0, c1, c2) in zip(rows, coefs):
        np.multiply(cos, c1, out=row)
        row += c0
        np.multiply(sin, c2, out=term)
        row += term
    return rows
