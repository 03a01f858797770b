"""Stationary spin states and spin-projection operators in the Dirac basis.

The spin projection on a unit axis n is represented by the 4x4 Hermitian
operator

    Pi_n = n . sigma + rho2 * n . (sigma x b),

where sigma is the block-diagonal Pauli vector, rho2 the off-diagonal
block matrix with -i*I / +i*I blocks (standard Dirac representation), and
b = gamma*beta*(sin(alpha), 0, cos(alpha)) the dimensionless kinetic
momentum.  Pi_z commutes with the Hamiltonian; its eigenvectors are the
two stationary spin states with eigenvalues +/- q.

Spin-dependent corrections to b are dropped: the coefficients are first
order in the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Kinematics

AXIS_UNIT_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _block_diag(m: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = m
    out[2:, 2:] = m
    return out


#: block-diagonal Pauli vector, sigma_k = diag(pauli_k, pauli_k)
SIGMA4 = tuple(_block_diag(p) for p in _PAULI)

#: rho2 in the standard Dirac representation: upper-right -i*I, lower-left +i*I
RHO2 = np.block([[np.zeros((2, 2)), -1j * _I2], [1j * _I2, np.zeros((2, 2))]])

#: row k is the axis of Pi_k, k = 0, 1, 2 for x, y, z
AXES = np.eye(3)
AXES.flags.writeable = False


@dataclass(frozen=True)
class MatrixElements:
    """Matrix elements of Pi_x, Pi_y, Pi_z between the stationary states.

    ``diag[k]`` = <zeta| Pi_k |zeta> and ``cross[k]`` = <-zeta| Pi_k |zeta>:
    complex arrays of shape (3,), indexed like the rows of :data:`AXES`.
    """

    diag: np.ndarray
    cross: np.ndarray


def spin_axis(theta_n: float, phi_n: float) -> np.ndarray:
    """Unit vector (sin(theta_n)cos(phi_n), sin(theta_n)sin(phi_n), cos(theta_n))."""
    if not (math.isfinite(theta_n) and math.isfinite(phi_n)):
        raise ValueError(f"spin axis angles must be finite, got {theta_n}, {phi_n}")
    st = math.sin(theta_n)
    return np.array([st * math.cos(phi_n), st * math.sin(phi_n), math.cos(theta_n)])


def _check_axis(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"spin axis must be a 3-vector, got shape {n.shape}")
    if not abs(np.linalg.norm(n) - 1.0) <= AXIS_UNIT_TOL:
        raise ValueError(f"spin axis must be a unit vector, |n| = {np.linalg.norm(n)!r}")
    return n


def spin_coefficients(zeta: int, kin: Kinematics) -> np.ndarray:
    """Four real spin coefficients of the stationary state |zeta>.

    The column is the Pi_z eigenvector with eigenvalue zeta*q for motion in
    the XZ plane, unit norm by construction:

        c1 = +(zeta/2) a_plus  (u_plus + zeta u_minus)
        c2 = -(1/2)    a_minus (u_plus - zeta u_minus)
        c3 = +(zeta/2) a_plus  (u_plus - zeta u_minus)
        c4 = +(1/2)    a_minus (u_plus + zeta u_minus)

    with u_pm = sqrt(1 +/- beta_z) and a_pm = sqrt((1 +/- zeta/q)/2).
    """
    if zeta not in (-1, 1):
        raise ValueError(f"zeta must be +1 or -1, got {zeta}")
    q = kin.q
    up = math.sqrt(1.0 + kin.beta_z)
    um = math.sqrt(1.0 - kin.beta_z)
    # q - 1 = (gamma*beta_perp)^2/(q + 1): keeps a_minus accurate as q -> 1
    x = kin.gamma * kin.beta_perp
    half_plus = (q + 1.0) / (2.0 * q)
    half_minus = x * x / (2.0 * q * (q + 1.0))
    if zeta > 0:
        ap, am = math.sqrt(half_plus), math.sqrt(half_minus)
    else:
        ap, am = math.sqrt(half_minus), math.sqrt(half_plus)
    return np.array(
        [
            0.5 * zeta * ap * (up + zeta * um),
            -0.5 * am * (up - zeta * um),
            0.5 * zeta * ap * (up - zeta * um),
            0.5 * am * (up + zeta * um),
        ],
        dtype=complex,
    )


def pi_component_matrix(n, kin: Kinematics) -> np.ndarray:
    """4x4 Hermitian matrix of the spin projection Pi . n.

    ``n`` must be a unit 3-vector (tolerance 1e-12).
    """
    n = _check_axis(n)
    b = kin.gamma * np.array([kin.beta_perp, 0.0, kin.beta_z])
    sigma_cross_b = (
        SIGMA4[1] * b[2] - SIGMA4[2] * b[1],
        SIGMA4[2] * b[0] - SIGMA4[0] * b[2],
        SIGMA4[0] * b[1] - SIGMA4[1] * b[0],
    )
    m = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        if n[k] != 0.0:
            m += n[k] * (SIGMA4[k] + RHO2 @ sigma_cross_b[k])
    return m


def matrix_element(bra: np.ndarray, m: np.ndarray, ket: np.ndarray) -> complex:
    """Brute-force inner product <bra| m |ket>."""
    return complex(np.vdot(bra, m @ ket))


def closed_form_matrix_elements(kin: Kinematics, zeta: int) -> MatrixElements:
    """Closed forms of the matrix elements of Pi_x, Pi_y, Pi_z.

    With r = sqrt(1 - beta^2*cos^2(alpha)) = q/gamma:

        <zeta |Pi_x| zeta> = -zeta*gamma*beta^2*sin(alpha)*cos(alpha)/r
        <-zeta|Pi_x| zeta> = -1/r
        <zeta |Pi_y| zeta> = 0
        <-zeta|Pi_y| zeta> = -i*zeta*gamma
        <zeta |Pi_z| zeta> = zeta*gamma*r
        <-zeta|Pi_z| zeta> = 0

    Entry k of ``diag`` and ``cross`` equals :func:`matrix_element` of
    Pi_k, built on row k of :data:`AXES`, between the stationary states.
    """
    if zeta not in (-1, 1):
        raise ValueError(f"zeta must be +1 or -1, got {zeta}")
    g, q = kin.gamma, kin.q
    diag = [-zeta * g * g * kin.beta_perp * kin.beta_z / q, 0.0, zeta * q]
    return MatrixElements(np.array(diag, dtype=complex), np.array([-g / q, -1j * zeta * g, 0j]))
