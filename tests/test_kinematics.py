import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprec import (
    FieldCoupling,
    StrongCouplingWarning,
    energy_level,
    make_coupling,
    make_kinematics,
    motion_axis,
    precession_frequency,
    sr_scales,
)

betas = st.floats(min_value=0.0, max_value=0.99)
alphas = st.floats(min_value=0.0, max_value=math.pi)


def test_reference_point():
    kin = make_kinematics(0.6, math.pi / 4)
    assert kin.gamma == pytest.approx(1.25, abs=1e-15)
    # 40-digit arithmetic gives q = 1.1319231422671770783...
    assert kin.q == pytest.approx(1.1319231422671770783, abs=1e-15)
    assert kin.beta_perp == pytest.approx(0.6 * math.sin(math.pi / 4), abs=1e-16)
    assert kin.beta_z == pytest.approx(0.6 * math.cos(math.pi / 4), abs=1e-16)


def test_rest_frame():
    kin = make_kinematics(0.0, 0.3)
    assert kin.gamma == 1.0
    assert kin.q == 1.0
    assert kin.beta_perp == 0.0


@pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, -1.0])
def test_beta_out_of_range(beta):
    with pytest.raises(ValueError):
        make_kinematics(beta, 0.0)


@settings(deadline=None, max_examples=200)
@given(betas, alphas)
def test_q_identities(beta, alpha):
    kin = make_kinematics(beta, alpha)
    # q^2 = 1 + (gamma*beta_perp)^2 and q = gamma*sqrt(1 - beta^2 cos^2 alpha)
    assert kin.q**2 == pytest.approx(1.0 + (kin.gamma * kin.beta_perp) ** 2, rel=1e-14)
    root = math.sqrt(1.0 - (beta * math.cos(alpha)) ** 2)
    assert kin.q == pytest.approx(kin.gamma * root, rel=1e-12)
    assert 1.0 <= kin.q <= kin.gamma * (1.0 + 1e-15)


def test_coupling_validation():
    with pytest.raises(ValueError):
        make_coupling(-1e-3, 1)
    with pytest.raises(ValueError):
        make_coupling(1e-3, 0)
    with pytest.raises(ValueError):
        make_coupling(1e-3, 2)


def test_coupling_warns_when_large():
    with pytest.warns(StrongCouplingWarning):
        make_coupling(0.05, 1)


def test_coupling_quiet_when_small():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_coupling(1e-3, -1)


def test_energy_levels_split_symmetrically():
    kin = make_kinematics(0.6, math.pi / 4)
    up = energy_level(kin, FieldCoupling(1e-3, 1))
    down = energy_level(kin, FieldCoupling(1e-3, -1))
    assert up > kin.gamma > down
    assert (up + down) / 2 == pytest.approx(kin.gamma, rel=1e-15)
    # splitting over 2s is the precession frequency
    omega = precession_frequency(kin)
    assert (up - down) / (2 * 1e-3) == pytest.approx(omega, rel=1e-12)


def test_energy_level_zero_coupling():
    kin = make_kinematics(0.3, 1.0)
    assert energy_level(kin, FieldCoupling(0.0, 1)) == kin.gamma


def test_frequency_reference_values():
    assert precession_frequency(make_kinematics(0.6, 0.0)) == pytest.approx(0.8, abs=1e-15)
    assert precession_frequency(make_kinematics(0.6, math.pi / 4)) == pytest.approx(
        0.90553851381374166266, abs=1e-15
    )
    assert precession_frequency(make_kinematics(0.6, math.pi / 2)) == pytest.approx(
        1.0, abs=1e-15
    )


@settings(deadline=None, max_examples=200)
@given(betas, alphas)
def test_frequency_sign_and_magnitude(beta, alpha):
    kin = make_kinematics(beta, alpha)
    root = math.sqrt(1.0 - (beta * math.cos(alpha)) ** 2)
    assert precession_frequency(kin) == pytest.approx(root, rel=1e-12)


def test_motion_axis():
    kin = make_kinematics(0.6, math.pi / 3)
    n = motion_axis(kin)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
    assert n[1] == 0.0
    assert n[0] == pytest.approx(math.sin(math.pi / 3), abs=1e-15)
    # defined at rest too
    n0 = motion_axis(make_kinematics(0.0, 0.0))
    assert np.allclose(n0, [0.0, 0.0, 1.0])


def test_sr_scales_validation():
    with pytest.raises(ValueError):
        sr_scales(0.5, 1.0)
    with pytest.raises(ValueError):
        sr_scales(2.0, 0.0)


def test_sr_scales_power_of_two_exact():
    for gamma in (2.0, 8.0, 1024.0):
        s = sr_scales(gamma, 1.0)
        assert s.omega_max == gamma**3
        assert s.time_ratio * gamma**4 == 2.0 * math.pi
        assert s.rho == 1.0


def test_sr_scales_past_gamma_to_the_fourth():
    # gamma**4 overflows from about 1.2e77, gamma**3 only from about 5.6e102
    s = sr_scales(1e78, 1.0)
    assert s.omega_max == 1e78**3
    assert s.time_ratio == pytest.approx(2.0 * math.pi * 1e-312, rel=1e-9)
    with pytest.raises(ValueError, match="overflow"):
        sr_scales(1e103, 1.0)


def test_sr_scales_general():
    s = sr_scales(10.0, 2.5)
    assert s.omega_max == pytest.approx(2500.0, rel=1e-15)
    assert s.time_ratio == pytest.approx(2.0 * math.pi * 1e-4, rel=1e-15)
    assert s.rho == pytest.approx(0.4, rel=1e-15)
