import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinprec import (
    FieldCoupling,
    PolarizationHistory,
    PrecessionTrajectory,
    PrecessionVector,
    Tolerances,
    compare,
    extract_frequency,
    initial_amplitudes_closed,
    make_kinematics,
    map_pi_to_rest,
    omega_vector,
    period_grid,
    precession_frequency,
    run_comparison,
    trajectory_exact,
)
from spinprec.cli import format_report
from spinprec.compare import OSCILLATION_FLOOR
from spinprec.kinematics import TWO_PI
from spinprec.superposition import evolve_expectations

COUP = FieldCoupling(1e-3, 1)


def test_default_tolerances():
    tol = Tolerances()
    assert tol.deviation == 1e-8
    assert tol.invariant == 1e-10
    assert tol.frequency_rel == 1e-6


def test_extract_frequency_synthetic():
    t = np.linspace(0.0, 4 * 2 * math.pi / 0.8, 10000)
    f = extract_frequency(t, np.sin(0.8 * t))
    assert abs(f - 0.8) / 0.8 < 1e-6


def test_extract_frequency_with_offset():
    t = np.linspace(0.0, 6 * 2 * math.pi, 6000)
    f = extract_frequency(t, 2.5 + np.cos(t))
    assert abs(f - 1.0) < 1e-6


def test_extract_frequency_constant_series():
    t = np.linspace(0.0, 10.0, 100)
    assert extract_frequency(t, np.full_like(t, 3.3)) is None
    assert extract_frequency(t, np.zeros_like(t)) is None


def test_extract_frequency_too_short():
    t = np.linspace(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        extract_frequency(t, np.sin(0.1 * t))


def test_extract_frequency_needs_one_full_period():
    # one period holds two crossings, and a leftover offset biases their gap
    t = np.linspace(0.0, 2 * math.pi, 1025)
    with pytest.raises(ValueError, match="three zero crossings"):
        extract_frequency(t, 0.3 + np.cos(t))
    # three crossings span a full period, which the offset shifts at both ends alike
    t = np.linspace(0.0, 3 * math.pi, 1537)
    assert abs(extract_frequency(t, 0.3 + np.cos(t)) - 1.0) < 1e-6


def test_extract_frequency_shape_checks():
    with pytest.raises(ValueError):
        extract_frequency(np.zeros(5), np.zeros(6))
    t = np.linspace(0.0, 100.0, 4000)
    y = np.sin(t)
    y[2000] = math.nan
    # refused as such, not as the too-few crossings the mean subtraction would leave
    with pytest.raises(ValueError, match="series must be finite"):
        extract_frequency(t, y)


@pytest.mark.parametrize(
    "t", [[3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 2.0], [0.0, math.nan, 2.0, 3.0]],
    ids=["descending", "repeated", "nan"],
)
def test_extract_frequency_refuses_bad_grid(t):
    with pytest.raises(ValueError):
        extract_frequency(t, [1.0, -1.0, 1.0, -1.0])


def reference_extract_frequency(t, series):
    """The crossing loop: one interpolated crossing per sign change, in Python."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(series, dtype=float)
    y = y - y.mean()
    scale = max(1.0, float(np.abs(series).max()))
    if float(np.abs(y).max()) < OSCILLATION_FLOOR * scale:
        return None
    crossings = []
    for i in np.nonzero(np.diff(np.signbit(y)))[0]:
        dy = y[i + 1] - y[i]
        if dy == 0.0:
            continue
        crossings.append(t[i] - y[i] * (t[i + 1] - t[i]) / dy)
    if len(crossings) < 3:
        raise ValueError("series must span at least three zero crossings")
    last = len(crossings) - 1
    if last % 2 == 1:
        last -= 1
    period = (crossings[last] - crossings[0]) / (last // 2)
    return float(TWO_PI / period)


def _outcome(fn, t, y):
    try:
        f = fn(t, y)
    except (ValueError, RuntimeWarning) as exc:
        return type(exc)
    return None if f is None else f.hex()


@settings(max_examples=200, deadline=None)
@given(
    t0=st.floats(min_value=-100.0, max_value=100.0),
    gaps=hnp.arrays(float, st.integers(1, 400), elements=st.floats(min_value=1e-3, max_value=2.0)),
    w=st.floats(min_value=0.05, max_value=3.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    offset=st.floats(min_value=-0.9, max_value=0.9),
)
def test_extract_frequency_matches_crossing_loop_on_sinusoids(t0, gaps, w, phase, offset):
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    y = offset + np.cos(w * t + phase)
    assert _outcome(extract_frequency, t, y) == _outcome(reference_extract_frequency, t, y)


small_integers = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    y=st.one_of(
        hnp.arrays(float, st.integers(1, 60), elements=small_integers | st.floats(-10.0, 10.0)),
        # h then -h sums to exactly 0, so the signed zeros survive the mean subtraction
        # and a step from -0.0 to 0.0 is a sign change with dy == 0, which both skip
        hnp.arrays(float, st.integers(1, 30), elements=small_integers).map(
            lambda h: np.concatenate([h, -h])
        ),
    ),
)
def test_extract_frequency_matches_crossing_loop_on_rough_series(y):
    t = np.arange(y.size) * 0.25
    assert _outcome(extract_frequency, t, y) == _outcome(reference_extract_frequency, t, y)


def test_extract_frequency_engine_series():
    kin = make_kinematics(0.6, 0.0)
    t = period_grid(kin, 10, 1024)
    hist = evolve_expectations(initial_amplitudes_closed("y", 1, kin), kin, COUP, t)
    f = extract_frequency(t, hist.pi_y)
    assert abs(f - 0.8) / 0.8 < 1e-6


def _pair(kin, orientation="y", periods=4.0, spp=512):
    t = period_grid(kin, periods, spp)
    hist = evolve_expectations(
        initial_amplitudes_closed(orientation, 1, kin), kin, COUP, t
    )
    pi0 = np.array([hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]])
    s0 = map_pi_to_rest(pi0, kin)
    s0 /= np.linalg.norm(s0)
    traj = trajectory_exact(s0, omega_vector(kin), t, kin)
    return hist, traj


def test_compare_identical_inputs():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, _ = _pair(kin)
    mirror = PrecessionTrajectory(
        t=hist.t,
        s=np.zeros((hist.t.size, 3)),
        pi=np.stack([hist.pi_x, hist.pi_y, hist.pi_z], axis=1),
        beta_pi=hist.beta_pi,
    )
    report = compare(hist, mirror, frequency_formula=precession_frequency(kin))
    assert report.passed
    assert all(v == 0.0 for v in report.max_abs_deviation.values())


def test_compare_grid_mismatch():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, traj = _pair(kin)
    shifted = PrecessionTrajectory(traj.t + 0.5, traj.s, traj.pi, traj.beta_pi)
    shorter = PrecessionTrajectory(traj.t[:-1], traj.s[:-1], traj.pi[:-1], traj.beta_pi[:-1])
    for other in (shifted, shorter):
        with pytest.raises(ValueError):
            compare(hist, other, frequency_formula=precession_frequency(kin))


def test_compare_deviation_is_symmetric():
    kin = make_kinematics(0.7, 1.0)
    hist, traj = _pair(kin)
    report = compare(hist, traj, frequency_formula=precession_frequency(kin))
    swapped_hist = PolarizationHistory(
        t=hist.t,
        pi_x=traj.pi[:, 0],
        pi_y=traj.pi[:, 1],
        pi_z=traj.pi[:, 2],
        beta_pi=traj.beta_pi,
        invariant=hist.invariant,
    )
    swapped_traj = PrecessionTrajectory(
        t=hist.t,
        s=traj.s,
        pi=np.stack([hist.pi_x, hist.pi_y, hist.pi_z], axis=1),
        beta_pi=hist.beta_pi,
    )
    swapped = compare(swapped_hist, swapped_traj, frequency_formula=precession_frequency(kin))
    assert swapped.max_abs_deviation == report.max_abs_deviation


def test_fault_injection_detected():
    kin = make_kinematics(0.6, math.pi / 4)
    t = period_grid(kin, 10, 1024)
    hist = evolve_expectations(initial_amplitudes_closed("y", 1, kin), kin, COUP, t)
    pi0 = np.array([hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]])
    s0 = map_pi_to_rest(pi0, kin)
    s0 /= np.linalg.norm(s0)
    bad_omega = PrecessionVector(omega_vector(kin).omega_vec * 1.01)
    traj = trajectory_exact(s0, bad_omega, t, kin)
    report = compare(hist, traj, frequency_formula=precession_frequency(kin))
    assert not report.passed
    ratio = report.extracted_frequency / report.frequency_formula
    assert 0.009 < ratio - 1.0 < 0.011


def test_run_comparison_flagship():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("y", 1, kin)
    report, hist, traj = run_comparison(sup, kin, COUP)
    assert report.passed
    assert hist.t.shape == traj.t.shape
    rel = abs(report.extracted_frequency - report.frequency_formula)
    assert rel < 1e-6 * report.frequency_formula


def test_run_comparison_stationary():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("z", 1, kin)
    report, _, _ = run_comparison(sup, kin, COUP)
    assert report.passed
    assert report.extracted_frequency is None


def test_period_grid_validation():
    kin = make_kinematics(0.6, math.pi / 4)
    with pytest.raises(ValueError):
        period_grid(kin, 0.0, 64)
    with pytest.raises(ValueError):
        period_grid(kin, 1.0, 8)
    # each factor is within MAX_SAMPLES, their product of 1.6e7 is not
    with pytest.raises(ValueError, match="grid limit"):
        period_grid(kin, 1e6, 16)
    # one interval is the smallest grid that holds more than t = 0
    assert period_grid(kin, 1 / 16, 16).shape == (2,)


def test_format_report_mentions_verdict():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, traj = _pair(kin)
    report = compare(hist, traj, frequency_formula=precession_frequency(kin))
    text = format_report(report, {"orientation": "y"})
    assert "orientation: y" in text
    assert "verdict" in text
    assert "pass" in text
