import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprec import (
    closed_form_matrix_elements,
    make_kinematics,
    matrix_element,
    pi_component_matrix,
    spin_axis,
    spin_coefficients,
)
from spinprec.spinors import RHO2, SIGMA4

#: not up to 1 as --beta: the absolute bounds here suit gamma <= 7; high gamma has its own tests
betas = st.floats(min_value=0.0, max_value=0.99)
#: the whole circle and beyond, as --alpha-deg accepts any finite angle
alphas = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi)
zetas = st.sampled_from([-1, 1])

AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


def test_spin_axis():
    assert np.allclose(spin_axis(0.0, 0.0), [0, 0, 1])
    assert np.allclose(spin_axis(math.pi / 2, 0.0), [1, 0, 0], atol=1e-15)
    n = spin_axis(1.1, 2.3)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)


def test_dirac_matrix_algebra():
    eye = np.eye(4)
    for s in SIGMA4:
        assert np.allclose(s @ s, eye)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(RHO2 @ RHO2, eye)
    assert np.allclose(RHO2, RHO2.conj().T)


def test_dirac_matrices_are_the_block_matrices():
    i2, o2 = np.eye(2), np.zeros((2, 2))
    pauli = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    for s, p in zip(SIGMA4, map(np.array, pauli)):
        assert np.array_equal(s, np.block([[p, o2], [o2, p]]))
    assert np.array_equal(RHO2, np.block([[o2, -1j * i2], [1j * i2, o2]]))


def _pi_reference(n, kin):
    """Pi . n summed term by term as n_k (Sigma_k + rho2 (Sigma x b)_k)."""
    b = kin.gamma * np.array([kin.beta_perp, 0.0, kin.beta_z])
    m = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        if n[k] != 0.0:
            m += n[k] * (SIGMA4[k] + RHO2 @ (SIGMA4[i] * b[j] - SIGMA4[j] * b[i]))
    return m


@settings(deadline=None, max_examples=300)
@given(
    st.floats(min_value=0.0, max_value=1.0 - 1e-12),
    alphas,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_operator_equals_the_term_by_term_sum(beta, alpha, theta, phi):
    # each real or imaginary part of an entry is +-1 times one component of n
    # or of b x n, and the reference rounds those products and sums alike
    kin = make_kinematics(beta, alpha)
    for n in (AXES["x"], AXES["y"], AXES["z"], spin_axis(theta, phi)):
        assert np.array_equal(pi_component_matrix(n, kin), _pi_reference(n, kin))


@pytest.mark.parametrize("zeta", [1, -1])
def test_spin_coefficients_are_real(zeta):
    assert spin_coefficients(zeta, make_kinematics(0.6, -0.7)).dtype == np.float64


def test_operator_is_hermitian():
    kin = make_kinematics(0.8, 1.0)
    for n in (AXES["x"], AXES["y"], AXES["z"], spin_axis(0.7, 2.0)):
        m = pi_component_matrix(n, kin)
        assert np.allclose(m, m.conj().T)


def test_operator_rejects_bad_axis():
    kin = make_kinematics(0.3, 0.5)
    with pytest.raises(ValueError):
        pi_component_matrix(np.array([1.0, 1.0, 0.0]), kin)
    with pytest.raises(ValueError):
        pi_component_matrix(np.array([1.0, 0.0]), kin)


def test_spin_coefficients_rest_frame():
    kin = make_kinematics(0.0, 0.0)
    assert np.allclose(spin_coefficients(1, kin), [1, 0, 0, 0])
    assert np.allclose(spin_coefficients(-1, kin), [0, -1, 0, 0])


def test_spin_coefficients_frozen_parallel():
    # beta=0.6, alpha=0: only the large components survive
    kin = make_kinematics(0.6, 0.0)
    c = spin_coefficients(1, kin).real
    assert c[0] == pytest.approx(0.9486832980505137996, abs=1e-15)
    assert c[1] == 0.0
    assert c[2] == pytest.approx(0.3162277660168379332, abs=1e-15)
    assert c[3] == 0.0


def test_spin_coefficients_frozen_oblique():
    kin = make_kinematics(0.6, math.pi / 4)
    cp = spin_coefficients(1, kin).real
    cm = spin_coefficients(-1, kin).real
    expected_p = [
        0.94723158762951338991,
        -0.052462552328985061329,
        0.21089908415224963416,
        0.23563016849236926014,
    ]
    expected_m = [
        -0.052462552328985061329,
        -0.94723158762951338991,
        -0.23563016849236926014,
        0.21089908415224963416,
    ]
    assert cp == pytest.approx(expected_p, abs=1e-15)
    assert cm == pytest.approx(expected_m, abs=1e-15)


def test_spin_coefficients_rejects_bad_zeta():
    kin = make_kinematics(0.1, 0.1)
    with pytest.raises(ValueError):
        spin_coefficients(0, kin)


@settings(deadline=None, max_examples=300)
@given(betas, alphas, zetas)
def test_eigenvector_properties(beta, alpha, zeta):
    kin = make_kinematics(beta, alpha)
    psi = spin_coefficients(zeta, kin)
    other = spin_coefficients(-zeta, kin)
    mz = pi_component_matrix(AXES["z"], kin)
    assert np.linalg.norm(mz @ psi - zeta * kin.q * psi) < 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-13
    assert abs(np.vdot(other, psi)) < 1e-13


@settings(deadline=None, max_examples=300)
@given(betas, alphas, zetas)
def test_closed_forms_match_brute_force(beta, alpha, zeta):
    kin = make_kinematics(beta, alpha)
    psi = spin_coefficients(zeta, kin)
    other = spin_coefficients(-zeta, kin)
    closed = closed_form_matrix_elements(kin, zeta)
    for k, name in enumerate("xyz"):
        m = pi_component_matrix(AXES[name], kin)
        assert abs(matrix_element(psi, m, psi) - closed.diag[k]) < 1e-12
        assert abs(matrix_element(other, m, psi) - closed.cross[k]) < 1e-12


def test_closed_forms_frozen_values():
    kin = make_kinematics(0.6, math.pi / 4)
    me = closed_form_matrix_elements(kin, 1)
    assert me.diag.shape == me.cross.shape == (3,)
    assert me.diag[0] == pytest.approx(-0.24847093366840472451, abs=1e-15)
    assert me.cross[0] == pytest.approx(-1.1043152607484654423, abs=1e-15)
    assert me.diag[1] == 0j
    assert me.cross[1] == pytest.approx(-1.25j, abs=1e-15)
    assert me.diag[2] == pytest.approx(1.1319231422671770783, abs=1e-15)
    assert me.cross[2] == 0j


def test_closed_forms_zeta_flip():
    kin = make_kinematics(0.7, 0.9)
    p = closed_form_matrix_elements(kin, 1)
    m = closed_form_matrix_elements(kin, -1)
    assert m.diag[0] == -p.diag[0]
    assert m.diag[2] == -p.diag[2]
    assert m.cross[1] == -p.cross[1]
    assert m.cross[0] == p.cross[0]


def test_matrix_element_hermiticity():
    kin = make_kinematics(0.5, 0.8)
    a = spin_coefficients(1, kin)
    b = spin_coefficients(-1, kin)
    m = pi_component_matrix(AXES["y"], kin)
    assert matrix_element(a, m, b) == pytest.approx(
        matrix_element(b, m, a).conjugate(), abs=1e-15
    )
