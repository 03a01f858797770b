import json
import math

import numpy as np
import pytest

from spinprec import (
    FieldCoupling,
    PolarizationHistory,
    PrecessionTrajectory,
    PrecessionVector,
    Tolerances,
    compare,
    extract_frequency,
    format_report,
    initial_amplitudes_closed,
    make_kinematics,
    map_pi_to_rest,
    omega_vector,
    period_grid,
    precession_frequency,
    run_comparison,
    trajectory_exact,
)
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


def test_extract_frequency_shape_checks():
    with pytest.raises(ValueError):
        extract_frequency(np.zeros(5), np.zeros(6))


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
    with pytest.raises(ValueError):
        compare(hist, shifted)


def test_compare_deviation_is_symmetric():
    kin = make_kinematics(0.7, 1.0)
    hist, traj = _pair(kin)
    report = compare(hist, traj)
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
    swapped = compare(swapped_hist, swapped_traj)
    assert swapped.max_abs_deviation == report.max_abs_deviation


def test_report_round_trip():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, traj = _pair(kin)
    report = compare(
        hist, traj, frequency_formula=precession_frequency(kin),
        params={"beta": 0.6, "orientation": "y"},
    )
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


def test_report_round_trip_no_oscillation():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, traj = _pair(kin, orientation="z")
    report = compare(hist, traj, frequency_formula=precession_frequency(kin))
    assert report.extracted_frequency is None
    assert report.passed
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


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
    report, hist, traj = run_comparison(sup, kin, COUP, orientation="y")
    assert report.passed
    assert hist.t.shape == traj.t.shape
    rel = abs(report.extracted_frequency - report.frequency_formula)
    assert rel < 1e-6 * report.frequency_formula
    assert report.params["orientation"] == "y"


def test_run_comparison_stationary():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("z", 1, kin)
    report, _, _ = run_comparison(sup, kin, COUP, orientation="z")
    assert report.passed
    assert report.extracted_frequency is None


def test_period_grid_validation():
    kin = make_kinematics(0.6, math.pi / 4)
    with pytest.raises(ValueError):
        period_grid(kin, 0.0, 64)
    with pytest.raises(ValueError):
        period_grid(kin, 1.0, 8)


def test_format_report_mentions_verdict():
    kin = make_kinematics(0.6, math.pi / 4)
    hist, traj = _pair(kin)
    report = compare(hist, traj, frequency_formula=precession_frequency(kin))
    text = format_report(report)
    assert "verdict" in text
    assert "pass" in text
