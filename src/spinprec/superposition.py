"""Two-level spin superpositions and their polarization dynamics.

A nonstationary spin state is a superposition of the two stationary
states, amp_plus*|+> and amp_minus*|->, fixed at t = 0 by requiring the
state to be an eigenvector of the spin projection on a chosen axis.  The
three polarization expectation values then precess at the level-splitting
frequency; the invariant

    I = |<Pi>|^2/gamma^2 + <beta.Pi>^2

stays equal to 1 for every orientation and time.

Two evolution paths are provided: the closed form built from the
stationary matrix elements, and a brute-force path that evolves the full
4-spinor and sandwiches the operator matrices.  They must agree to
roundoff; the second exists to audit the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    FieldCoupling, Kinematics, _sinusoids, check_sign, check_time_grid, check_unit,
    precession_frequency,
)
from .spinors import (
    AXES,
    closed_form_matrix_elements,
    matrix_element,
    pi_component_matrix,
    spin_coefficients,
)

_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class SpinSuperposition:
    """Initial-condition amplitudes of the two spin branches.

    ``eigenvalue`` is the spin projection on ``axis`` at t = 0; ``epsilon``
    selects its sign branch.  |amp_plus|^2 + |amp_minus|^2 = 1.
    """

    amp_plus: complex
    amp_minus: complex
    eigenvalue: float
    epsilon: int
    axis: np.ndarray


@dataclass(frozen=True)
class PolarizationHistory:
    """Sampled polarization components, helicity and invariant."""

    t: np.ndarray
    pi_x: np.ndarray
    pi_y: np.ndarray
    pi_z: np.ndarray
    beta_pi: np.ndarray
    invariant: np.ndarray


def initial_amplitudes_closed(
    axis: str, epsilon: int, kin: Kinematics
) -> SpinSuperposition:
    """:func:`initial_amplitudes_general` on the X, Y or Z row of :data:`AXES`.

    Up to a global phase, Y gives (epsilon, -i)/sqrt(2) at eigenvalue
    epsilon*gamma; Z the single branch zeta = epsilon at epsilon*q; and X,
    with x = epsilon*w/sqrt(1 + w^2) and w = gamma*beta^2*sin(alpha)*cos(alpha),
    (-epsilon*sqrt(1 - x), sqrt(1 + x))/sqrt(2) at epsilon*sqrt(1 + (gamma*beta_z)^2).
    """
    key = axis.lower()
    if key not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return initial_amplitudes_general(AXES["xyz".index(key)], epsilon, kin)


def doublet_matrix(n, kin: Kinematics) -> np.ndarray:
    """Spin projection on ``n`` reduced to the {|+>, |->} doublet (2x2 Hermitian)."""
    m = pi_component_matrix(n, kin)
    states = (spin_coefficients(+1, kin), spin_coefficients(-1, kin))
    return np.array(
        [[matrix_element(bi, m, bj) for bj in states] for bi in states]
    )


def initial_amplitudes_general(
    n, epsilon: int, kin: Kinematics
) -> SpinSuperposition:
    """Amplitudes for initial spin along an arbitrary unit axis ``n``.

    The doublet of Pi . n is [[a, conj(b)], [b, -a]], with a = n . diag_+ and
    b = n . cross_+ of :func:`closed_form_matrix_elements` written as

        a = (n_z + (gamma*beta)^2 sin(alpha) (n_z sin(alpha) - n_x cos(alpha)))/q
        b = -n_x*gamma/q - i*n_y*gamma

    so that the bracket is exactly 0 on the motion axis.  Its eigenvalues are
    -lam, +lam with lam = sqrt(a^2 + |b|^2) in [1, gamma].  Of the eigenvectors
    (L + a, b) and (conj(b), L - a) of L = epsilon*lam, the one whose large
    entry is lam + |a| in modulus is normalised and phase-fixed so that the
    first nonzero amplitude is real positive.
    """
    check_sign("epsilon", epsilon)
    n = check_unit(n, "n")
    nx, ny, nz = n.tolist()
    sin, cos = math.sin(kin.alpha), math.cos(kin.alpha)
    a = (nz + (kin.gamma * kin.beta) ** 2 * sin * (nz * sin - nx * cos)) / kin.q
    b = complex(-nx * kin.gamma / kin.q, -ny * kin.gamma)
    eig = epsilon * math.hypot(a, b.real, b.imag)
    v0, v1 = (eig + a, b) if epsilon * a >= 0.0 else (b.conjugate(), eig - a)
    norm = math.hypot(v0.real, v0.imag, v1.real, v1.imag)
    v0, v1 = v0 / norm, v1 / norm
    # a unit 2-vector has a component of modulus >= 1/sqrt(2): if v0 fails the test, v1 passes
    phase = v0 if abs(v0) > _PHASE_TOL else v1
    rot = phase.conjugate() / abs(phase)
    return SpinSuperposition(complex(v0 * rot), complex(v1 * rot), eig, epsilon, n)


def evolve_expectations(
    sup: SpinSuperposition,
    kin: Kinematics,
    coupling: FieldCoupling,
    t_grid,
) -> PolarizationHistory:
    """Polarization components over time from the closed matrix-element forms.

    For each component k,

        <Pi_k>_t = |A|^2 <+|Pi_k|+> + |B|^2 <-|Pi_k|->
                   + 2 Re[conj(A) B e^{+i omega t} <+|Pi_k|->]

    with omega the precession frequency; the +i phase sign is the one that
    makes the Y orientation give <Pi_x>_t proportional to -sin(omega t).
    The helicity beta.Pi = beta_perp Pi_x + beta_z Pi_z is the fourth such
    row, on its own closed elements <zeta|beta.Pi|zeta> = zeta*beta_z/q and
    <-zeta|beta.Pi|zeta> = -beta_perp*gamma/q: summed from <Pi_x> and <Pi_z>,
    which grow like gamma, it would be off by about eps*gamma.
    ``coupling`` is not read: no closed-form output depends on it.
    """
    t = check_time_grid(t_grid)
    me_p = closed_form_matrix_elements(kin, +1)
    me_m = closed_form_matrix_elements(kin, -1)
    wp = abs(sup.amp_plus) ** 2
    wm = abs(sup.amp_minus) ** 2
    cw = sup.amp_plus.conjugate() * sup.amp_minus
    diag = [*(wp * me_p.diag.real + wm * me_m.diag.real).tolist(), (wp - wm) * kin.beta_z / kin.q]
    cross = [*me_m.cross.tolist(), -kin.beta_perp * kin.gamma / kin.q]
    # row k is diag_k + cos(omega t) Re g_k - sin(omega t) Im g_k with g_k = 2 conj(A) B cross_k
    coefs = [(d, g.real, -g.imag) for d, g in zip(diag, (2.0 * cw * c for c in cross))]
    pi_x, pi_y, pi_z, beta_pi = _sinusoids(coefs, precession_frequency(kin), t)
    invariant = np.square(pi_x)
    term = np.empty(t.size)
    for c in (pi_y, pi_z):
        np.square(c, out=term)
        invariant += term
    invariant /= kin.gamma**2
    np.square(beta_pi, out=term)
    invariant += term
    return PolarizationHistory(t, pi_x, pi_y, pi_z, beta_pi, invariant)


def evolve_expectations_spinor(
    sup: SpinSuperposition,
    kin: Kinematics,
    coupling: FieldCoupling,
    t_grid,
) -> PolarizationHistory:
    """Brute-force audit path: evolve the 4-spinor and sandwich the matrices.

    The state at time t is A e^{-i gamma_+ t/(2s)} |+> + B e^{-i gamma_- t/(2s)} |->,
    built for every grid time at once.  With gamma_+/- = gamma +/- s q/gamma
    the branch phases share the factor e^{-i gamma t/(2s)}, which cancels
    exactly in every <psi|Pi_k|psi>; so only the relative phases
    e^{-/+ i (q/(2 gamma)) t} are evolved, and ``coupling`` is not read.
    """
    t = check_time_grid(t_grid)
    ket_p = spin_coefficients(+1, kin)
    ket_m = spin_coefficients(-1, kin)
    mats = np.array([pi_component_matrix(axis, kin) for axis in AXES])
    z_rel = np.exp(-1j * (kin.q / (2.0 * kin.gamma)) * t)[:, None]
    states = sup.amp_plus * z_rel * ket_p + sup.amp_minus * z_rel.conj() * ket_m
    # pi[n, k] = <state_n| mats[k] |state_n>, every sample and component at once
    pi = np.einsum("ni,kni->nk", states.conj(), states @ mats.transpose(0, 2, 1)).real
    beta_pi = kin.beta_perp * pi[:, 0] + kin.beta_z * pi[:, 2]
    invariant = (pi**2).sum(axis=1) / kin.gamma**2 + beta_pi**2
    return PolarizationHistory(t, *pi.T, beta_pi, invariant)

