import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprec import (
    FieldCoupling,
    evolve_expectations,
    initial_amplitudes_closed,
    integrate,
    make_kinematics,
    map_pi_to_rest,
    map_rest_to_pi,
    motion_axis,
    omega_vector,
    precession_frequency,
    spin_axis,
    trajectory_exact,
)
from spinprec.bmt import MAX_RK4_SUBSTEPS

from reference import alphas, betas


COUP = FieldCoupling(1e-3, 1)


def period(kin):
    return 2 * math.pi / omega_vector(kin).magnitude


def test_omega_rest_frame():
    kin = make_kinematics(0.0, 0.0)
    assert np.allclose(omega_vector(kin).omega_vec, [0, 0, 1])


def test_omega_transverse_motion():
    kin = make_kinematics(0.8, math.pi / 2)
    om = omega_vector(kin)
    assert np.allclose(om.omega_vec, [0, 0, 1], atol=1e-15)


def test_omega_parallel_motion():
    kin = make_kinematics(0.6, 0.0)
    assert omega_vector(kin).magnitude == pytest.approx(0.8, abs=1e-15)


@settings(deadline=None, max_examples=300)
@given(betas, alphas)
def test_omega_magnitude_matches_quantum_frequency(beta, alpha):
    kin = make_kinematics(beta, alpha)
    quantum = precession_frequency(kin)
    assert abs(omega_vector(kin).magnitude - quantum) < 1e-12


#: speeds up to 1 - 1e-14 (gamma ~ 7e6), log-uniform in 1 - beta, with the low speeds of betas
luminal_betas = st.one_of(
    betas, st.floats(min_value=-14.0, max_value=0.0).map(lambda e: 1.0 - 10.0**e)
)


@settings(deadline=None, max_examples=500)
@given(luminal_betas, alphas)
def test_omega_magnitude_is_the_quantum_frequency_to_a_few_ulps(beta, alpha):
    kin = make_kinematics(beta, alpha)
    quantum = precession_frequency(kin)
    assert abs(omega_vector(kin).magnitude - quantum) <= 4.0 * np.finfo(float).eps * quantum


def test_rotate_identity_and_period():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    s0 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(trajectory_exact(s0, om, 0.0, kin).s, s0)
    full = trajectory_exact(s0, om, 2 * math.pi / om.magnitude, kin).s
    assert np.abs(full - s0).max() < 1e-12


def test_rotate_axis_fixed_point():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    axis = om.omega_vec / om.magnitude
    out = trajectory_exact(axis, om, 17.3, kin).s
    assert np.abs(out - axis).max() < 1e-14


def test_rotate_norm_preserving():
    kin = make_kinematics(0.9, 1.0)
    om = omega_vector(kin)
    s0 = spin_axis(1.0, 2.0)
    for t in np.linspace(0.0, 30.0, 11):
        assert np.linalg.norm(trajectory_exact(s0, om, t, kin).s) == pytest.approx(1.0, abs=1e-14)


def test_rotate_rejects_non_unit():
    kin = make_kinematics(0.5, 0.5)
    with pytest.raises(ValueError):
        trajectory_exact(np.array([0.0, 2.0, 0.0]), omega_vector(kin), 1.0, kin)


def test_integrate_quarter_turn():
    # rest frame: Omega = z, x spins into y after a quarter period
    kin = make_kinematics(0.0, 0.0)
    om = omega_vector(kin)
    traj = integrate(np.array([1.0, 0.0, 0.0]), om, [0.0, math.pi / 2], kin)
    assert np.abs(traj.s[-1] - np.array([0.0, 1.0, 0.0])).max() < 1e-8


def test_integrate_returns_after_period():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    axis = om.omega_vec / om.magnitude
    s0 = np.array([0.0, 1.0, 0.0])
    s0 = s0 - (s0 @ axis) * axis
    s0 /= np.linalg.norm(s0)
    t = np.linspace(0.0, period(kin), 101)
    traj = integrate(s0, om, t, kin)
    assert np.abs(traj.s[-1] - s0).max() < 1e-8


def test_integrate_matches_exact_per_period():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    s0 = spin_axis(0.9, 0.3)
    t = np.linspace(0.0, period(kin), 257)
    num = integrate(s0, om, t, kin)
    ref = trajectory_exact(s0, om, t, kin)
    assert np.abs(num.s - ref.s).max() < 1e-8


def test_integrate_norm_drift_long_run():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    t = np.linspace(0.0, 1000 * period(kin), 2001)
    traj = integrate(spin_axis(1.2, 0.4), om, t, kin)
    drift = np.abs(np.linalg.norm(traj.s, axis=1) - 1.0).max()
    assert drift < 1e-6


def test_integrate_guards():
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    s0 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        integrate(s0, om, [0.0, 1.0], kin, steps_per_period=100)
    with pytest.raises(ValueError):
        integrate(s0, om, [0.0, 2e6 * period(kin)], kin)
    with pytest.raises(ValueError, match="substep guard"):
        integrate(s0, om, [0.0, period(kin)], kin, steps_per_period=MAX_RK4_SUBSTEPS + 1)


def test_integrate_just_under_the_substep_guard():
    # one period in about MAX_RK4_SUBSTEPS substeps: RK4's own error is some 1e-28 here,
    # so what parts it from the exact rotation is roundoff, growing like K eps
    kin = make_kinematics(0.6, math.pi / 4)
    om = omega_vector(kin)
    s0 = spin_axis(0.9, 0.3)
    t = [0.0, period(kin)]
    start = time.perf_counter()
    traj = integrate(s0, om, t, kin, steps_per_period=MAX_RK4_SUBSTEPS - 1)
    assert time.perf_counter() - start < 1.0
    ref = trajectory_exact(s0, om, t, kin)
    assert np.abs(traj.s - ref.s).max() <= MAX_RK4_SUBSTEPS * np.finfo(float).eps


def test_map_rest_frame_is_identity():
    kin = make_kinematics(0.0, 0.0)
    s = spin_axis(0.8, 1.9)
    pi, beta_pi = map_rest_to_pi(s, kin)
    assert np.allclose(pi, s)
    assert beta_pi == 0.0


def test_map_transverse_spin():
    kin = make_kinematics(0.6, math.pi / 4)
    pi, beta_pi = map_rest_to_pi(np.array([0.0, 1.0, 0.0]), kin)
    assert np.allclose(pi, [0.0, kin.gamma, 0.0])
    assert beta_pi == pytest.approx(0.0, abs=1e-15)


def test_map_longitudinal_spin():
    kin = make_kinematics(0.6, math.pi / 4)
    bhat = motion_axis(kin)
    pi, beta_pi = map_rest_to_pi(bhat, kin)
    assert np.linalg.norm(pi) == pytest.approx(1.0, abs=1e-14)
    assert beta_pi == pytest.approx(kin.beta, abs=1e-14)


@settings(deadline=None, max_examples=200)
@given(
    betas,
    alphas,
    # theta over [0, pi] and phi over [0, 2 pi] reach every unit vector
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_map_preserves_invariant_and_round_trips(beta, alpha, theta, phi):
    kin = make_kinematics(beta, alpha)
    s = spin_axis(theta, phi)
    pi, beta_pi = map_rest_to_pi(s, kin)
    assert abs(pi @ pi / kin.gamma**2 + beta_pi**2 - 1.0) < 1e-12
    back = map_pi_to_rest(pi, kin)
    assert np.abs(back - s).max() < 1e-12


def test_map_accepts_stacked_vectors():
    kin = make_kinematics(0.7, 0.8)
    s = np.stack([spin_axis(0.3, 0.1), spin_axis(1.2, 2.2), spin_axis(2.9, 4.0)])
    pi, beta_pi = map_rest_to_pi(s, kin)
    assert pi.shape == (3, 3)
    assert beta_pi.shape == (3,)
    assert np.abs(map_pi_to_rest(pi, kin) - s).max() < 1e-12


def test_trajectory_layout():
    # the exact rotation fills one contiguous row per component of s, pi and beta_pi
    kin = make_kinematics(0.7, 0.8)
    t = np.linspace(0.0, 3 * period(kin), 101)
    traj = trajectory_exact(spin_axis(0.3, 0.1), omega_vector(kin), t, kin)
    assert traj.s.shape == traj.pi.shape == (t.size, 3)
    assert all(row.flags.c_contiguous for row in (*traj.s.T, *traj.pi.T, traj.beta_pi))


def test_integrate_layout():
    # RK4 chains whole states, so s is row-major
    kin = make_kinematics(0.7, 0.8)
    t = np.linspace(0.0, 3 * period(kin), 101)
    traj = integrate(spin_axis(0.3, 0.1), omega_vector(kin), t, kin)
    assert traj.s.shape == traj.pi.shape == (t.size, 3)
    assert traj.s.flags.c_contiguous


def test_z_orientation_maps_onto_precession_axis():
    # stationary quantum state: its classical image must sit on the axis
    kin = make_kinematics(0.6, math.pi / 4)
    hist = evolve_expectations(
        initial_amplitudes_closed("z", 1, kin), kin, COUP, [0.0]
    )
    pi0 = np.array([hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]])
    s = map_pi_to_rest(pi0, kin)
    s /= np.linalg.norm(s)
    om = omega_vector(kin)
    axis = om.omega_vec / om.magnitude
    assert np.linalg.norm(np.cross(s, axis)) < 1e-10


def test_quantum_classical_agreement_y():
    kin = make_kinematics(0.6, math.pi / 4)
    t = np.linspace(0.0, 10 * period(kin), 2001)
    hist = evolve_expectations(initial_amplitudes_closed("y", 1, kin), kin, COUP, t)
    pi0 = np.array([hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]])
    s0 = map_pi_to_rest(pi0, kin)
    s0 /= np.linalg.norm(s0)
    traj = trajectory_exact(s0, omega_vector(kin), t, kin)
    assert np.abs(traj.pi[:, 0] - hist.pi_x).max() < 1e-8
    assert np.abs(traj.pi[:, 1] - hist.pi_y).max() < 1e-8
    assert np.abs(traj.pi[:, 2] - hist.pi_z).max() < 1e-8
    assert np.abs(traj.beta_pi - hist.beta_pi).max() < 1e-8
