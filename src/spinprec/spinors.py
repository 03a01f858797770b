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

from .kinematics import Kinematics, check_sign, check_unit

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

#: block-diagonal Pauli vector, Sigma_k = I2 (x) pauli_k
SIGMA4 = tuple(np.kron(np.eye(2), p) for p in _PAULI)

#: rho2 = pauli_y (x) I2: upper-right -i*I, lower-left +i*I
RHO2 = np.kron(_PAULI[1], np.eye(2))

#: rho2 Sigma_k, the matrices that the components of b x n weigh in Pi . n
_RHO2_SIGMA4 = tuple(RHO2 @ s for s in SIGMA4)

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


def spin_coefficients(zeta: int, kin: Kinematics) -> np.ndarray:
    """Four real spin coefficients of the stationary state |zeta>, as float64.

    The column is the Pi_z eigenvector with eigenvalue zeta*q for motion in
    the XZ plane, unit norm by construction:

        c1 = +(zeta/2) a_plus  (u_plus + zeta u_minus)
        c2 = -(1/2)    a_minus (u_plus - zeta u_minus)
        c3 = +(zeta/2) a_plus  (u_plus - zeta u_minus)
        c4 = +(1/2)    a_minus (u_plus + zeta u_minus)

    with u_pm = sqrt(1 +/- beta_z) and a_pm = sqrt((1 +/- zeta/q)/2), the smaller
    a_pm taking the sign of gamma*beta_perp.
    """
    check_sign("zeta", zeta)
    q = kin.q
    up = math.sqrt(1.0 + kin.beta_z)
    um = math.sqrt(1.0 - kin.beta_z)
    # q - 1 = (gamma*beta_perp)^2/(q + 1): keeps a_minus accurate as q -> 1; the
    # small coefficient carries the sign of gamma*beta_perp, which x*x drops
    x = kin.gamma * kin.beta_perp
    large = math.sqrt((q + 1.0) / (2.0 * q))
    small = math.copysign(math.sqrt(x * x / (2.0 * q * (q + 1.0))), x)
    ap, am = (large, small) if zeta > 0 else (small, large)
    return np.array(
        [
            0.5 * zeta * ap * (up + zeta * um),
            -0.5 * am * (up - zeta * um),
            0.5 * zeta * ap * (up - zeta * um),
            0.5 * am * (up + zeta * um),
        ]
    )


def pi_component_matrix(n, kin: Kinematics) -> np.ndarray:
    """4x4 Hermitian matrix of the spin projection Pi . n, for a unit 3-vector ``n``."""
    n = check_unit(n, "n")
    bx, bz = kin.gamma * kin.beta_perp, kin.gamma * kin.beta_z
    # n . (Sigma x b) = (b x n) . Sigma, with b_y = 0
    b_cross_n = (-bz * n[1], bz * n[0] - bx * n[2], bx * n[1])
    return sum(n[k] * SIGMA4[k] + b_cross_n[k] * _RHO2_SIGMA4[k] for k in range(3))


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
    check_sign("zeta", zeta)
    g, q = kin.gamma, kin.q
    diag = [-zeta * g * g * kin.beta_perp * kin.beta_z / q, 0.0, zeta * q]
    return MatrixElements(np.array(diag, dtype=complex), np.array([-g / q, -1j * zeta * g, 0j]))
