import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinprec import (
    FieldCoupling,
    doublet_matrix,
    evolve_expectations,
    evolve_expectations_spinor,
    initial_amplitudes_closed,
    initial_amplitudes_general,
    make_kinematics,
    motion_axis,
    precession_frequency,
    spin_axis,
)

betas = st.floats(min_value=0.0, max_value=0.99)
alphas = st.floats(min_value=0.0, max_value=math.pi)
signs = st.sampled_from([-1, 1])

COUP = FieldCoupling(1e-3, 1)


def overlap(a, b):
    """Phase-invariant overlap of two amplitude pairs."""
    return abs(
        a.amp_plus.conjugate() * b.amp_plus + a.amp_minus.conjugate() * b.amp_minus
    )


def test_closed_y():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("y", 1, kin)
    assert sup.amp_plus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sup.amp_minus == pytest.approx(-1j / math.sqrt(2), abs=1e-15)
    assert sup.eigenvalue == pytest.approx(1.25, abs=1e-15)


def test_closed_x_frozen():
    kin = make_kinematics(0.6, math.pi / 4)
    plus = initial_amplitudes_closed("x", 1, kin)
    assert plus.amp_plus == pytest.approx(-0.6246950475544242621, abs=1e-15)
    assert plus.amp_minus == pytest.approx(0.78086880944303032762, abs=1e-15)
    assert plus.eigenvalue == pytest.approx(1.1319231422671770783, abs=1e-15)
    minus = initial_amplitudes_closed("x", -1, kin)
    assert minus.amp_plus == pytest.approx(0.78086880944303032762, abs=1e-15)
    assert minus.amp_minus == pytest.approx(0.6246950475544242621, abs=1e-15)
    assert minus.eigenvalue == pytest.approx(-1.1319231422671770783, abs=1e-15)


def test_closed_x_rest_frame():
    kin = make_kinematics(0.0, 0.7)
    sup = initial_amplitudes_closed("x", 1, kin)
    assert sup.amp_plus == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    assert sup.amp_minus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sup.eigenvalue == pytest.approx(1.0, abs=1e-15)


def test_closed_z():
    kin = make_kinematics(0.6, math.pi / 4)
    up = initial_amplitudes_closed("z", 1, kin)
    assert (up.amp_plus, up.amp_minus) == (1, 0)
    assert up.eigenvalue == pytest.approx(kin.q, abs=1e-15)
    down = initial_amplitudes_closed("z", -1, kin)
    assert (down.amp_plus, down.amp_minus) == (0, 1)
    assert down.eigenvalue == pytest.approx(-kin.q, abs=1e-15)


def test_closed_validation():
    kin = make_kinematics(0.1, 0.1)
    with pytest.raises(ValueError):
        initial_amplitudes_closed("w", 1, kin)
    with pytest.raises(ValueError):
        initial_amplitudes_closed("x", 0, kin)


@settings(deadline=None, max_examples=200)
@given(betas, alphas, signs, st.sampled_from(["x", "y", "z"]))
def test_closed_normalized_and_eigen(beta, alpha, epsilon, axis):
    kin = make_kinematics(beta, alpha)
    sup = initial_amplitudes_closed(axis, epsilon, kin)
    norm = abs(sup.amp_plus) ** 2 + abs(sup.amp_minus) ** 2
    assert abs(norm - 1.0) < 8 * np.finfo(float).eps
    # eigenvector property in the doublet reduction
    m2 = doublet_matrix(sup.axis, kin)
    v = np.array([sup.amp_plus, sup.amp_minus])
    assert np.linalg.norm(m2 @ v - sup.eigenvalue * v) < 1e-10


@settings(deadline=None, max_examples=100)
@given(betas, alphas, signs, st.sampled_from(["x", "y", "z"]))
def test_general_reproduces_closed(beta, alpha, epsilon, axis):
    kin = make_kinematics(beta, alpha)
    closed = initial_amplitudes_closed(axis, epsilon, kin)
    general = initial_amplitudes_general(closed.axis, epsilon, kin)
    assert general.eigenvalue == pytest.approx(closed.eigenvalue, abs=1e-12)
    assert overlap(closed, general) == pytest.approx(1.0, abs=1e-12)


def test_general_y_phase_difference():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_general(np.array([0.0, 1.0, 0.0]), 1, kin)
    assert abs(sup.amp_plus) == pytest.approx(1 / math.sqrt(2), abs=1e-13)
    assert abs(sup.amp_minus) == pytest.approx(1 / math.sqrt(2), abs=1e-13)
    phase = np.angle(sup.amp_minus / sup.amp_plus)
    assert phase == pytest.approx(-math.pi / 2, abs=1e-12)
    assert sup.eigenvalue == pytest.approx(kin.gamma, abs=1e-12)


def test_general_z_is_single_branch():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_general(np.array([0.0, 0.0, 1.0]), 1, kin)
    assert sorted([abs(sup.amp_plus), abs(sup.amp_minus)]) == pytest.approx(
        [0.0, 1.0], abs=1e-13
    )
    assert abs(sup.eigenvalue) == pytest.approx(kin.q, abs=1e-12)


def test_general_x_eigenvalue_closed_form():
    kin = make_kinematics(0.6, math.pi / 4)
    lam = math.sqrt(1 + (kin.gamma * kin.beta_z) ** 2)
    for eps in (1, -1):
        sup = initial_amplitudes_general(np.array([1.0, 0.0, 0.0]), eps, kin)
        assert sup.eigenvalue == pytest.approx(eps * lam, abs=1e-12)


def test_general_rejects_bad_input():
    kin = make_kinematics(0.3, 0.3)
    with pytest.raises(ValueError):
        initial_amplitudes_general(np.array([1.0, 1.0, 0.0]), 1, kin)
    with pytest.raises(ValueError):
        initial_amplitudes_general(np.array([0.0, 1.0, 0.0]), 3, kin)


SIGNED_AXES = tuple(sign * e for e in np.eye(3) for sign in (1.0, -1.0))
#: a drawn unit axis, a signed coordinate axis, or "momentum" for motion_axis(kin)
doublet_axes = st.one_of(
    st.builds(spin_axis, alphas, st.floats(min_value=0.0, max_value=2 * math.pi)),
    st.sampled_from(SIGNED_AXES + ("momentum",)),
)


@settings(deadline=None, max_examples=300)
@given(
    beta=st.floats(min_value=0.0, max_value=1.0 - 1e-14),
    alpha=alphas,
    epsilon=signs,
    axis=doublet_axes,
)
@example(beta=0.0, alpha=0.0, epsilon=1, axis=spin_axis(0.3, 1.0))
@example(beta=1.0 - 1e-14, alpha=math.pi / 2, epsilon=-1, axis=SIGNED_AXES[2])
@example(beta=1.0 - 1e-14, alpha=math.pi, epsilon=1, axis="momentum")
def test_doublet_eigenvalues_lie_in_one_to_gamma(beta, alpha, epsilon, axis):
    # every unit axis splits the doublet into -lam and +lam with 1 <= lam <= gamma,
    # so initial_amplitudes_general never meets a degenerate pair
    kin = make_kinematics(beta, alpha)
    n = motion_axis(kin) if isinstance(axis, str) else axis
    lo, hi = np.linalg.eigvalsh(doublet_matrix(n, kin))
    assert abs(lo + hi) <= 1e-12 * kin.gamma
    assert 1.0 - 1e-12 <= hi <= kin.gamma * (1.0 + 1e-12)
    lam = epsilon * initial_amplitudes_general(n, epsilon, kin).eigenvalue
    assert 1.0 - 1e-12 <= lam <= kin.gamma * (1.0 + 1e-12)


def test_grid_validation():
    kin = make_kinematics(0.6, 0.5)
    sup = initial_amplitudes_closed("y", 1, kin)
    with pytest.raises(ValueError):
        evolve_expectations(sup, kin, COUP, [])
    with pytest.raises(ValueError):
        evolve_expectations(sup, kin, COUP, [0.0, 2.0, 1.0])


def test_y_case_printed_formulas():
    kin = make_kinematics(0.6, math.pi / 4)
    omega = precession_frequency(kin)
    root = math.sqrt(1 - (kin.beta * math.cos(kin.alpha)) ** 2)
    t = np.linspace(0.0, 3 * 2 * math.pi / omega, 2000)
    for eps in (1, -1):
        hist = evolve_expectations(initial_amplitudes_closed("y", eps, kin), kin, COUP, t)
        assert np.abs(hist.pi_x - (-eps * np.sin(omega * t) / root)).max() < 1e-10
        assert np.abs(hist.pi_y - eps * kin.gamma * np.cos(omega * t)).max() < 1e-10
        assert np.abs(hist.pi_z).max() < 1e-10


def test_y_case_quarter_period():
    kin = make_kinematics(0.6, math.pi / 4)
    omega = precession_frequency(kin)
    root = math.sqrt(1 - (kin.beta * math.cos(kin.alpha)) ** 2)
    hist = evolve_expectations(
        initial_amplitudes_closed("y", 1, kin), kin, COUP,
        [0.0, 0.5 * math.pi / omega],
    )
    assert hist.pi_x[0] == pytest.approx(0.0, abs=1e-14)
    assert hist.pi_y[0] == pytest.approx(kin.gamma, abs=1e-14)
    assert hist.pi_x[1] == pytest.approx(-1.0 / root, abs=1e-13)
    assert hist.pi_y[1] == pytest.approx(0.0, abs=1e-13)


def test_z_case_stationary():
    kin = make_kinematics(0.6, math.pi / 4)
    t = np.linspace(0.0, 50.0, 1000)
    for zeta in (1, -1):
        hist = evolve_expectations(initial_amplitudes_closed("z", zeta, kin), kin, COUP, t)
        root = math.sqrt(1 - (kin.beta * math.cos(kin.alpha)) ** 2)
        expected_x = -zeta * kin.gamma * kin.beta**2 * math.sin(kin.alpha) * math.cos(
            kin.alpha
        ) / root
        assert np.abs(hist.pi_x - expected_x).max() < 1e-12
        assert np.abs(hist.pi_y).max() < 1e-12
        assert np.abs(hist.pi_z - zeta * kin.gamma * root).max() < 1e-12
        for series in (hist.pi_x, hist.pi_y, hist.pi_z):
            assert np.abs(series - series[0]).max() < 1e-12


@settings(deadline=None, max_examples=60)
@given(betas, alphas, signs, st.sampled_from(["x", "y", "z"]))
def test_periodicity(beta, alpha, epsilon, axis):
    kin = make_kinematics(beta, alpha)
    sup = initial_amplitudes_closed(axis, epsilon, kin)
    omega = precession_frequency(kin)
    t = np.linspace(0.0, 2.0, 7)
    h0 = evolve_expectations(sup, kin, COUP, t)
    h1 = evolve_expectations(sup, kin, COUP, t + 2 * math.pi / omega)
    for a, b in ((h0.pi_x, h1.pi_x), (h0.pi_y, h1.pi_y), (h0.pi_z, h1.pi_z)):
        assert np.abs(a - b).max() < 1e-10


@settings(deadline=None, max_examples=60)
@given(
    betas,
    alphas,
    signs,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_invariant_is_one(beta, alpha, epsilon, theta_n, phi_n):
    kin = make_kinematics(beta, alpha)
    sup = initial_amplitudes_general(spin_axis(theta_n, phi_n), epsilon, kin)
    t = np.linspace(0.0, 40.0, 400)
    hist = evolve_expectations(sup, kin, COUP, t)
    assert np.abs(hist.invariant - 1.0).max() < 1e-10


@settings(deadline=None, max_examples=40)
@given(betas, alphas, signs, st.sampled_from(["x", "y", "z", "m"]))
def test_engine_matches_spinor_oracle(beta, alpha, epsilon, axis):
    kin = make_kinematics(beta, alpha)
    if axis == "m":
        sup = initial_amplitudes_general(motion_axis(kin), epsilon, kin)
    else:
        sup = initial_amplitudes_closed(axis, epsilon, kin)
    t = np.linspace(0.0, 30.0, 121)
    a = evolve_expectations(sup, kin, COUP, t)
    b = evolve_expectations_spinor(sup, kin, COUP, t)
    for pa, pb in ((a.pi_x, b.pi_x), (a.pi_y, b.pi_y), (a.pi_z, b.pi_z)):
        assert np.abs(pa - pb).max() < 1e-12
    assert np.abs(a.beta_pi - b.beta_pi).max() < 1e-12


def test_oracle_small_coupling_phase_stability():
    # the common phase gamma*t/(2s) is huge at small s; factoring it out
    # keeps the branch interference accurate
    kin = make_kinematics(0.9, 1.1)
    sup = initial_amplitudes_closed("y", 1, kin)
    coup = FieldCoupling(1e-3, 1)
    t = np.linspace(0.0, 100.0, 50)
    a = evolve_expectations(sup, kin, coup, t)
    b = evolve_expectations_spinor(sup, kin, coup, t)
    assert np.abs(a.pi_x - b.pi_x).max() < 1e-12


def test_oracle_requires_positive_coupling():
    kin = make_kinematics(0.5, 0.5)
    sup = initial_amplitudes_closed("y", 1, kin)
    with pytest.raises(ValueError):
        evolve_expectations_spinor(sup, kin, FieldCoupling(0.0, 1), [0.0, 1.0])


def test_longitudinal_motion_closed_form():
    kin = make_kinematics(0.6, math.pi / 4)
    omega = precession_frequency(kin)
    t = np.linspace(0.0, 4 * 2 * math.pi / omega, 1500)
    g, b, ca, sa = kin.gamma, kin.beta, math.cos(kin.alpha), math.sin(kin.alpha)
    for eps in (1, -1):
        sup = initial_amplitudes_general(motion_axis(kin), eps, kin)
        series = evolve_expectations(sup, kin, COUP, t).beta_pi
        closed = (
            eps * b * (ca**2 + g**2 * sa**2 * np.cos(omega * t))
            / (g**2 * (1 - b**2 * ca**2))
        )
        assert np.abs(series - closed).max() < 1e-10
        assert series[0] == pytest.approx(eps * b, abs=1e-12)


def test_longitudinal_frozen_value():
    kin = make_kinematics(0.6, math.pi / 4)
    omega = precession_frequency(kin)
    sup = initial_amplitudes_general(motion_axis(kin), 1, kin)
    series = evolve_expectations(sup, kin, COUP, [1.0 / omega]).beta_pi
    assert series[0] == pytest.approx(0.43181791678102672588, abs=1e-13)


def test_longitudinal_y_orientation_starts_at_zero():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("y", 1, kin)
    series = evolve_expectations(sup, kin, COUP, [0.0]).beta_pi
    assert series[0] == pytest.approx(0.0, abs=1e-14)
