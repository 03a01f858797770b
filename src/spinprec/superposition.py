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
    FieldCoupling, Kinematics, check_sign, check_time_grid, check_unit, precession_frequency
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
    """Closed-form amplitudes for initial spin along the X, Y or Z axis.

    Y:  amp_plus = epsilon/sqrt(2), amp_minus = -i/sqrt(2), eigenvalue
        epsilon*gamma.
    X:  with w = gamma*beta^2*sin(alpha)*cos(alpha) and x = epsilon*w/
        sqrt(1+w^2): amp_plus = -(epsilon/sqrt(2))*sqrt(1-x), amp_minus =
        sqrt(1+x)/sqrt(2), eigenvalue epsilon*sqrt(1+gamma^2*beta^2*
        cos^2(alpha)).
    Z:  the state is a single branch, epsilon playing the role of zeta;
        eigenvalue epsilon*q.
    """
    check_sign("epsilon", epsilon)
    key = axis.lower()
    if key not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    n = AXES["xyz".index(key)]
    if key == "y":
        a = complex(epsilon / math.sqrt(2.0))
        b = -1j / math.sqrt(2.0)
        lam = epsilon * kin.gamma
    elif key == "x":
        w = kin.gamma * kin.beta_perp * kin.beta_z
        x = epsilon * w / math.hypot(1.0, w)
        a = complex(-(epsilon / math.sqrt(2.0)) * math.sqrt(1.0 - x))
        b = complex(math.sqrt(1.0 + x) / math.sqrt(2.0))
        lam = epsilon * math.hypot(1.0, kin.gamma * kin.beta_z)
    else:
        a, b = (1.0 + 0j, 0j) if epsilon > 0 else (0j, 1.0 + 0j)
        lam = epsilon * kin.q
    return SpinSuperposition(a, b, lam, epsilon, n)


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

    Solves the doublet eigenproblem of the projected spin operator and
    returns the epsilon-sign eigenbranch, phase-fixed so the first nonzero
    amplitude is real positive.  Reproduces the closed forms for the
    coordinate axes up to a global phase.
    """
    check_sign("epsilon", epsilon)
    n = check_unit(n, "n")
    # the doublet matrix is [[a, conj(b)], [b, -a]] with a^2 + |b|^2 = n.G.n, where
    # G_kl = tr(D_k D_l)/2 over the doublet matrices D_k of Pi_k has eigenvalues 1,
    # gamma^2, gamma^2: the eigenvalues are -lam, +lam with 1 <= lam <= gamma, never equal
    vals, vecs = np.linalg.eigh(doublet_matrix(n, kin))
    idx = int(np.argmax(epsilon * vals))
    v = vecs[:, idx]
    # a unit 2-vector has a component of modulus >= 1/sqrt(2): if v[0] fails the test, v[1] passes
    phase = v[0] if abs(v[0]) > _PHASE_TOL else v[1]
    v = v * (phase.conjugate() / abs(phase))
    return SpinSuperposition(
        complex(v[0]), complex(v[1]), float(vals[idx]), epsilon, n
    )


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
    ``coupling`` is not read: no closed-form output depends on it.
    """
    t = check_time_grid(t_grid)
    me_p = closed_form_matrix_elements(kin, +1)
    me_m = closed_form_matrix_elements(kin, -1)
    omega = precession_frequency(kin)
    wp = abs(sup.amp_plus) ** 2
    wm = abs(sup.amp_minus) ** 2
    cw = sup.amp_plus.conjugate() * sup.amp_minus
    phase = np.exp(1j * omega * t)
    # row k is <Pi_k>_t, each operation in the order of the formula above
    diag = wp * me_p.diag.real + wm * me_m.diag.real
    pi_x, pi_y, pi_z = diag[:, None] + 2.0 * np.real(cw * phase * me_m.cross[:, None])
    beta_pi = kin.beta_perp * pi_x + kin.beta_z * pi_z
    invariant = (pi_x**2 + pi_y**2 + pi_z**2) / kin.gamma**2 + beta_pi**2
    return PolarizationHistory(t, pi_x, pi_y, pi_z, beta_pi, invariant)


def evolve_expectations_spinor(
    sup: SpinSuperposition,
    kin: Kinematics,
    coupling: FieldCoupling,
    t_grid,
) -> PolarizationHistory:
    """Brute-force audit path: evolve the 4-spinor and sandwich the matrices.

    The state at time t is A e^{-i gamma_+ t/(2s)} |+> + B e^{-i gamma_-
    t/(2s)} |->, built for every grid time at once.  The branch phase is
    evaluated as the product e^{-i (gamma/(2s)) t} * e^{-/+ i (q/(2 gamma)) t}
    so the large common phase never enters a floating-point difference.
    Requires s > 0.
    """
    if coupling.s <= 0.0:
        raise ValueError("spinor evolution needs a positive coupling strength")
    t = check_time_grid(t_grid)
    ket_p = spin_coefficients(+1, kin)
    ket_m = spin_coefficients(-1, kin)
    mats = np.array([pi_component_matrix(axis, kin) for axis in AXES])
    common_rate = kin.gamma / (2.0 * coupling.s)
    rel_rate = kin.q / (2.0 * kin.gamma)
    z_rel = np.exp(-1j * rel_rate * t)[:, None]
    states = np.exp(-1j * common_rate * t)[:, None] * (
        sup.amp_plus * z_rel * ket_p + sup.amp_minus * z_rel.conj() * ket_m
    )
    # pi[n, k] = <state_n| mats[k] |state_n>, every sample and component at once
    pi = np.einsum("ni,kni->nk", states.conj(), states @ mats.transpose(0, 2, 1)).real
    beta_pi = kin.beta_perp * pi[:, 0] + kin.beta_z * pi[:, 2]
    invariant = (pi**2).sum(axis=1) / kin.gamma**2 + beta_pi**2
    return PolarizationHistory(t, *pi.T, beta_pi, invariant)

