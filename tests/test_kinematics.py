import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprec import (
    FieldCoupling,
    evolve_expectations,
    initial_amplitudes_closed,
    make_coupling,
    make_kinematics,
    motion_axis,
    omega_vector,
    period_grid,
    precession_frequency,
    run_comparison,
    sr_scales,
    trajectory_exact,
)
from spinprec.compare import extract_frequency, seed_classical
from spinprec.kinematics import SINCOS_MIN_SAMPLES, _sin_cos, _Workspace, check_time_grid

from reference import alphas, betas


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


def test_coupling_quiet_when_small():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_coupling(1e-3, -1)


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


#: values that make a difference or a comparison go wrong: NaN, infinities,
#: signed zeros and subnormals
odd_floats = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310])


@st.composite
def near_ascending_grids(draw):
    """A start, then steps that may be zero, negative, subnormal, NaN or infinite."""
    start = draw(st.floats(-1e-300, 1e-300) | st.floats(-1e3, 1e3) | odd_floats)
    steps = draw(st.lists(st.sampled_from([1.0, 5e-324, 1e-310, 1e-17]) | odd_floats, max_size=8))
    grid = [start]
    for step in steps:
        grid.append(grid[-1] + step if math.isfinite(step) else step)
    return grid


@settings(max_examples=300)
@given(st.lists(st.floats() | odd_floats, min_size=1, max_size=8) | near_ascending_grids())
def test_ascent_check_agrees_with_positive_differences(grid):
    t = np.array(grid)
    with np.errstate(all="ignore"):
        ascending = bool(np.all(np.diff(t) > 0))
    if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
        with pytest.raises(ValueError, match="^time grid must be finite$"):
            check_time_grid(t)
    elif ascending:
        assert check_time_grid(t) is t
    else:
        with pytest.raises(ValueError, match="^time grid must be strictly ascending$"):
            check_time_grid(t)


# -- the grid sinusoids of the closed path and the exact rotation --------------

#: c in |_sin_cos - libm| <= c eps max(1, |w t|), |w t| the largest on the grid: a
#: sample's phase w t[k m] + (w h) j misses libm's w t[k m + j] by a few ulps of that
#: scale, at which linspace rounds each sample, and each angle sum rounds to eps/2 more.
#: 3,000 random grids gave at most 2.3.
SINCOS_ROUNDOFF = 4.0


@st.composite
def added_grids(draw):
    """A rate over six decades, and a linspace grid long enough to add angles from t0 of either sign."""
    log_n = draw(st.floats(math.log(SINCOS_MIN_SAMPLES), math.log(2**20)))
    n = max(SINCOS_MIN_SAMPLES, int(math.exp(log_n)))
    t0 = draw(st.floats(-1e4, 1e4))
    span = draw(st.floats(1e-2, 1e5))
    w = 10.0 ** draw(st.floats(-3.0, 3.0))
    return w, np.linspace(t0, t0 + span, n)


@settings(max_examples=100, deadline=None)
@given(added_grids())
def test_sin_cos_adds_angles_within_roundoff(grid):
    w, t = grid
    sin, cos = _sin_cos(w, t)
    libm_sin, libm_cos = np.sin(w * t), np.cos(w * t)
    bound = SINCOS_ROUNDOFF * np.finfo(float).eps * max(1.0, abs(w * t[0]), abs(w * t[-1]))
    assert np.abs(sin - libm_sin).max() <= bound
    assert np.abs(cos - libm_cos).max() <= bound
    # each block starts on a grid sample, where the sum is libm's own value
    m = math.ceil(math.sqrt(t.size))
    assert sin[::m].tobytes() == libm_sin[::m].tobytes()
    assert cos[::m].tobytes() == libm_cos[::m].tobytes()


def count_sinusoid_elements(monkeypatch):
    """The element count of each later np.sin and np.cos call, in call order."""
    counts = []
    for name in ("sin", "cos"):
        def counted(x, *args, _ufunc=getattr(np, name), **kwargs):
            counts.append(np.size(x))
            return _ufunc(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return counts


def test_default_comparison_calls_libm_on_order_sqrt_n_elements(monkeypatch):
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("y", 1, kin)
    counts = count_sinusoid_elements(monkeypatch)
    _, quantum, _ = run_comparison(sup, kin, FieldCoupling(1e-3, 1))
    n = quantum.t.size
    assert n == 10241
    # two sinusoid pairs, each at ~sqrt(n) block starts and ~sqrt(n) offsets; 4 n by libm per sample
    assert 0 < sum(counts) <= 4 * (2 * math.ceil(math.sqrt(n)) + 2)


def nudged_grid(kin):
    t = period_grid(kin, 10.0, 1024)
    t[5] = np.nextafter(t[5], math.inf)  # no longer its own linspace, by one ulp
    return t


@pytest.mark.parametrize(
    "grid",
    [lambda kin: period_grid(kin, 1.0, SINCOS_MIN_SAMPLES - 2), nudged_grid],
    ids=["below_the_crossover", "nonuniform"],
)
def test_other_grids_call_libm_on_every_sample(grid, monkeypatch):
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("x", 1, kin)
    t = grid(kin)
    counts = count_sinusoid_elements(monkeypatch)
    evolve_expectations(sup, kin, FieldCoupling(1e-3, 1), t)
    trajectory_exact(np.array([0.0, 0.0, 1.0]), omega_vector(kin), t, kin)
    assert counts == [t.size] * 4


def test_a_grid_its_workspace_did_not_build_is_checked_in_full(monkeypatch):
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("x", 1, kin)
    coupling = FieldCoupling(1e-3, 1)
    s0 = seed_classical(sup.axis, 1, kin)
    workspace = _Workspace()
    run_comparison(sup, kin, coupling, workspace=workspace)
    nudged = workspace.t.copy()  # writable, and no longer its own linspace, by one ulp
    nudged[5] = np.nextafter(nudged[5], math.inf)
    counts = count_sinusoid_elements(monkeypatch)
    hist = evolve_expectations(sup, kin, coupling, nudged, workspace=workspace)
    traj = trajectory_exact(s0, omega_vector(kin), nudged, kin, workspace=workspace)
    assert counts == [nudged.size] * 4
    # evaluated as without a workspace: fresh rows, all seven of the rotation
    assert not np.shares_memory(hist.pi_x, workspace.quantum) and traj.s is not None
    assert extract_frequency(nudged, traj.beta_pi, workspace=workspace) > 0.0
    nudged[-2] = nudged[-1]
    for call in (
        lambda: evolve_expectations(sup, kin, coupling, nudged, workspace=workspace),
        lambda: trajectory_exact(s0, omega_vector(kin), nudged, kin, workspace=workspace),
        lambda: extract_frequency(nudged, traj.beta_pi, workspace=workspace),
    ):
        with pytest.raises(ValueError, match="^time grid must be strictly ascending$"):
            call()
    nudged[-2] = np.nextafter(nudged[-1], 0.0)  # ascending, but not uniform
    with pytest.raises(ValueError, match="^t must be a uniform grid$"):
        extract_frequency(nudged, traj.beta_pi, workspace=workspace)
