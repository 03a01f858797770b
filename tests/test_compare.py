import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    initial_amplitudes_general,
    integrate,
    make_kinematics,
    map_pi_to_rest,
    map_rest_to_pi,
    motion_axis,
    omega_vector,
    period_grid,
    precession_frequency,
    run_comparison,
    spin_axis,
    trajectory_exact,
)
from spinprec.cli import format_report
from spinprec.compare import OSCILLATION_FLOOR, seed_classical
from spinprec.kinematics import TWO_PI, _Workspace
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
    # four samples hold the one stride-1 recurrence the fit needs; three hold none
    t = np.linspace(0.0, 1.0, 4)
    assert abs(extract_frequency(t, 0.3 + np.cos(2.0 * t)) - 2.0) < 1e-14
    with pytest.raises(ValueError, match=r"length >= 4, got \(3,\)"):
        extract_frequency(t[:3], np.cos(2.0 * t[:3]))


def test_extract_frequency_reads_less_than_one_period():
    # the differences cancel any offset, so a fraction of a period is read exactly
    for periods, samples in [(0.5, 9), (0.9, 58), (1.0, 65), (1.3, 84)]:
        t = np.linspace(0.0, periods * TWO_PI, samples)
        assert abs(extract_frequency(t, 0.3 + np.cos(t)) - 1.0) < 1e-14


@pytest.mark.parametrize("offset", [0.0, 10.0])
def test_extract_frequency_oscillation_floor_scales_with_the_series(offset):
    # the floor is OSCILLATION_FLOOR times the largest |sample|, or times 1 below 1
    t = np.linspace(0.0, 4 * math.pi, 2049)
    floor = OSCILLATION_FLOOR * max(1.0, offset)
    assert extract_frequency(t, offset + 0.9 * floor * np.cos(t)) is None
    assert abs(extract_frequency(t, offset + 1.1 * floor * np.cos(t)) - 1.0) < 1e-3


def test_extract_frequency_refuses_what_no_sinusoid_fits():
    t = np.arange(4.0)
    # the one difference the fit weighs is 0, so any frequency fits
    with pytest.raises(ValueError, match="fits no sinusoid"):
        extract_frequency(t, [0.0, 1.0, 1.0, 0.0])
    # a growing exponential fits a cosine above 1
    with pytest.raises(ValueError, match="fits no sinusoid"):
        extract_frequency(np.arange(20.0), 2.0 ** np.arange(20.0))


def test_extract_frequency_shape_checks():
    with pytest.raises(ValueError):
        extract_frequency(np.zeros(5), np.zeros(6))
    t = np.linspace(0.0, 100.0, 4000)
    y = np.sin(t)
    y[2000] = math.nan
    # refused as such, not as the undefined fit the NaN would leave
    with pytest.raises(ValueError, match="series must be finite"):
        extract_frequency(t, y)


def reference_screen(y):
    """extract_frequency's finiteness check and oscillation floor as first written, in full passes."""
    if not np.isfinite(y).all():
        return "not finite"
    centred = y - y.mean()
    scale = max(1.0, float(np.abs(y).max()))
    return "constant" if float(np.abs(centred).max()) < OSCILLATION_FLOOR * scale else "fit"


def screen(y):
    """Which way extract_frequency took a series: refused as not finite, constant, or fitted."""
    try:
        f = extract_frequency(np.arange(float(y.size)), y)
    except ValueError as e:
        return "not finite" if str(e) == "series must be finite" else "fit"
    return "constant" if f is None else "fit"


@st.composite
def offset_sinusoids(draw):
    """An offset of either sign with an oscillation near the floor that the offset sets."""
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 12.0))
    amplitude = max(1.0, abs(offset)) * 10.0 ** draw(st.floats(-12.0, -6.0))
    return offset + amplitude * np.cos(np.arange(draw(st.integers(4, 40))))


@settings(max_examples=300, deadline=None)
@given(y=st.one_of(hnp.arrays(float, st.integers(4, 40), elements=st.floats()), offset_sinusoids()))
@example(y=np.array([0.0, math.nan, 1.0, 0.0]))
@example(y=np.array([0.0, 1.0, math.inf, 0.0]))
@example(y=np.array([-math.inf, 1.0, 0.0, 1.0]))
@example(y=np.array([1e308, 1e308, 1e308, 1e308]))
def test_extract_frequency_screens_series_as_full_passes_did(y):
    # with numpy's floating-point errors ignored, a series whose mean overflows is screened too
    with np.errstate(all="ignore"):
        assert screen(y) == reference_screen(y)


@pytest.mark.parametrize(
    "t", [[3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 2.0], [0.0, math.nan, 2.0, 3.0]],
    ids=["descending", "repeated", "nan"],
)
def test_extract_frequency_refuses_bad_grid(t):
    with pytest.raises(ValueError):
        extract_frequency(t, [1.0, -1.0, 1.0, -1.0])


EPS = np.finfo(float).eps


@st.composite
def sampled_sinusoids(draw):
    """(t, y, w, offset/amplitude) for 0.5-100 periods at 16-10^5 samples per period.

    Capped at 2*10^5 samples, so long spans come at coarse densities.
    """
    spp = draw(st.integers(16, 10**5))
    periods = draw(st.floats(0.5, min(100.0, 2e5 / spp)))
    w = draw(st.floats(1e-3, 1e3))
    amplitude = draw(st.floats(1e-3, 1e3))
    ratio = draw(st.floats(-300.0, 300.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    t = np.linspace(0.0, periods * TWO_PI / w, int(round(periods * spp)) + 1)
    return t, ratio * amplitude + amplitude * np.cos(w * t + phase), w, ratio


@settings(max_examples=200, deadline=None)
@given(case=sampled_sinusoids())
def test_extract_frequency_reads_offset_sinusoids_to_roundoff(case):
    # the offset enters only through the rounding of y, which it scales
    t, y, w, ratio = case
    assert abs(extract_frequency(t, y) - w) <= 32 * EPS * (1.0 + abs(ratio)) * w


@settings(max_examples=100, deadline=None)
@given(case=sampled_sinusoids())
def test_extract_frequency_sees_a_frequency_off_by_1e7(case):
    t, _, w, _ = case
    off = w * (1.0 + 1e-7)
    read = extract_frequency(t, np.sin(off * t))
    assert abs(read - off) <= 32 * EPS * off
    assert read - w > 0.99e-7 * w


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 200),
    where=st.floats(0.0, 1.0),
    shift=st.floats(1e-9, 0.5) | st.floats(-0.5, -1e-9),
)
def test_extract_frequency_refuses_nonuniform_grid(n, where, shift):
    t = np.arange(float(n))
    t[1 + int(where * (n - 2))] += shift
    with pytest.raises(ValueError, match="uniform grid"):
        extract_frequency(t, np.cos(t))


@given(n=st.integers(0, 3))
def test_extract_frequency_refuses_fewer_than_four_samples(n):
    t = np.arange(float(n))
    with pytest.raises(ValueError, match="length >= 4"):
        extract_frequency(t, np.cos(t))


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


def test_compare_checks_a_grid_it_does_not_share():
    # run_comparison hands both sides one grid object; a distinct grid is compared by value
    kin = make_kinematics(0.6, math.pi / 4)
    _, quantum, classical = run_comparison(initial_amplitudes_closed("y", 1, kin), kin, COUP, 2.0, 64)
    assert quantum.t is classical.t
    hist, traj = _pair(kin)
    copy = PrecessionTrajectory(traj.t.copy(), traj.s, traj.pi, traj.beta_pi)
    formula = precession_frequency(kin)
    assert compare(hist, copy, frequency_formula=formula) == compare(hist, traj, frequency_formula=formula)
    nudged = traj.t.copy()
    nudged[-1] = np.nextafter(nudged[-1], math.inf)
    with pytest.raises(ValueError, match="share one time grid"):
        compare(hist, PrecessionTrajectory(nudged, traj.s, traj.pi, traj.beta_pi), frequency_formula=formula)


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


@pytest.mark.parametrize("alpha_deg", [0.0, 0.001, 180.0])
@pytest.mark.parametrize("orientation", ["x", "y", "momentum"])
def test_compare_passes_near_the_field_axis_at_high_gamma(orientation, alpha_deg):
    # gamma ~ 7e3: Omega_z = 1 - g beta_z^2 lost ~eps gamma to cancellation, 3e-7 in pi
    kin = make_kinematics(1.0 - 1e-8, math.radians(alpha_deg))
    axes = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "momentum": motion_axis(kin)}
    sup = initial_amplitudes_general(axes[orientation], 1, kin)
    report, quantum, _ = run_comparison(sup, kin, COUP)
    assert report.passed, report
    # the RK4 audit reads the same Omega: its rest-frame spin is the quantum side's
    s0 = seed_classical(sup.axis, 1, kin)
    rk4 = integrate(s0, omega_vector(kin), quantum.t, kin)
    quantum_s = map_pi_to_rest(np.stack([quantum.pi_x, quantum.pi_y, quantum.pi_z], axis=1), kin)
    assert np.abs(rk4.s - quantum_s).max() <= Tolerances().deviation


def test_run_comparison_stationary():
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_amplitudes_closed("z", 1, kin)
    report, _, _ = run_comparison(sup, kin, COUP)
    assert report.passed
    assert report.extracted_frequency is None


#: (beta, alpha, axis, periods, samples per period) of a sweep-like loop: the grid
#: length changes once, and the last grid is short enough to take libm per sample
LOOP = [
    (0.3, 0.4, "x", 10.0, 1024),
    (0.95, 2.0, "y", 10.0, 1024),
    (0.6, -1.0, "z", 10.0, 1024),
    (0.999, math.pi, "x", 10.0, 1024),
    (0.8, 1.1, "y", 3.0, 1024),
    (0.5, 0.7, "x", 2.0, 64),
]


def _rows(quantum, classical):
    return (*(getattr(quantum, k) for k in ("pi_x", "pi_y", "pi_z", "beta_pi", "invariant")),
            classical.pi, classical.beta_pi)


def test_a_shared_workspace_gives_the_bytes_of_fresh_and_lone_calls():
    workspace = _Workspace()
    for beta, alpha, axis, periods, spp in LOOP:
        kin = make_kinematics(beta, alpha)
        sup = initial_amplitudes_closed(axis, 1, kin)
        report, quantum, classical = run_comparison(sup, kin, COUP, periods, spp, workspace=workspace)
        assert quantum.t is classical.t is workspace.t and not workspace.t.flags.writeable
        assert np.shares_memory(quantum.pi_x, workspace.quantum)
        assert np.shares_memory(classical.pi, workspace.classical)
        assert classical.s is None  # a comparison evaluates only the rows it compares
        fresh = run_comparison(sup, kin, COUP, periods, spp)
        t = period_grid(kin, periods, spp)
        alone_q = evolve_expectations(sup, kin, COUP, t)
        alone_c = trajectory_exact(seed_classical(sup.axis, 1, kin), omega_vector(kin), t, kin)
        assert fresh[0] == report
        assert compare(alone_q, alone_c, frequency_formula=precession_frequency(kin)) == report
        got = [row.tobytes() for row in _rows(quantum, classical)]
        assert got == [row.tobytes() for row in _rows(*fresh[1:])]
        assert got == [row.tobytes() for row in _rows(alone_q, alone_c)]
        assert t.tobytes() == quantum.t.tobytes()


def test_comparisons_without_a_workspace_share_no_memory():
    kin = make_kinematics(0.6, 0.7)
    first = run_comparison(initial_amplitudes_closed("x", 1, kin), kin, COUP)
    second = run_comparison(initial_amplitudes_closed("y", 1, kin), kin, COUP)
    arrays = [[hist.t, *_rows(hist, traj)] for _, hist, traj in (first, second)]
    for a in arrays[0]:
        for b in arrays[1]:
            assert not np.shares_memory(a, b)
    # with one workspace the second comparison writes over the first's rows
    workspace = _Workspace()
    _, hist, _ = run_comparison(initial_amplitudes_closed("x", 1, kin), kin, COUP, workspace=workspace)
    _, again, _ = run_comparison(initial_amplitudes_closed("y", 1, kin), kin, COUP, workspace=workspace)
    assert hist.pi_x is not again.pi_x and np.shares_memory(hist.pi_x, again.pi_x)


def test_a_comparison_checks_its_grid_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("kinematics", "superposition", "bmt", "compare"):
        module = importlib.import_module(f"spinprec.{name}")
        monkeypatch.setattr(module, "check_time_grid", counted("check", module.check_time_grid))
    for name in ("linspace", "diff", "ptp"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    kin = make_kinematics(0.6, 0.7)
    report, _, _ = run_comparison(initial_amplitudes_closed("x", 1, kin), kin, COUP)
    assert report.passed
    # period_grid's linspace, and one check when the workspace takes that grid
    assert calls == ["linspace", "check"]


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


ORIENTATIONS = ("x", "y", "z", "momentum", "custom")
#: the golden cases' custom axis, theta 40 and phi 110 degrees
CUSTOM_AXIS = spin_axis(math.radians(40.0), math.radians(110.0))


def initial_state(orientation, epsilon, kin, custom=CUSTOM_AXIS):
    """The initial state the CLI builds for ``orientation``."""
    if orientation in ("x", "y", "z"):
        return initial_amplitudes_closed(orientation, epsilon, kin)
    n = motion_axis(kin) if orientation == "momentum" else custom
    return initial_amplitudes_general(n, epsilon, kin)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_compare_fails_a_wrong_initial_state(orientation):
    # the classical side starts from the axis, not from the amplitudes, so a
    # state with its amplitudes swapped starts elsewhere and is caught
    kin = make_kinematics(0.6, math.pi / 4)
    sup = initial_state(orientation, 1, kin)
    assert run_comparison(sup, kin, COUP, 2.0, 64)[0].passed
    swapped = replace(sup, amp_plus=sup.amp_minus, amp_minus=sup.amp_plus)
    report, _, _ = run_comparison(swapped, kin, COUP, 2.0, 64)
    assert not report.passed
    assert max(report.max_abs_deviation.values()) > 0.4


@pytest.mark.parametrize("beta", [1.0 - 1e-10, 1.0 - 1e-12], ids=["1-1e-10", "1-1e-12"])
@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_compare_passes_at_high_gamma(orientation, epsilon, beta):
    # gamma 7.1e4 and 7.1e5: neither the amplitudes nor the seed cancel, and
    # the worst deviation, about 5e-9 for Y and momentum at 1 - 1e-12, is roundoff
    kin = make_kinematics(beta, math.radians(30.0))
    report, _, _ = run_comparison(initial_state(orientation, epsilon, kin), kin, COUP, 4.0, 64)
    assert report.passed, report.max_abs_deviation


#: c in |boost of the seed - quantum pi(0)| <= c eps gamma; 20,000 draws of beta up
#: to 1 - 1e-14, alpha on the whole circle and every kind of axis gave at most 3.8
SEED_ROUNDOFF = 8.0


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=1.0 - 1e-14),
    alpha=st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi),
    epsilon=st.sampled_from([1, -1]),
    orientation=st.sampled_from(ORIENTATIONS),
    # theta over [0, pi] and phi over [0, 2 pi] reach every unit axis
    custom=st.builds(spin_axis, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
)
def test_seed_boosts_to_the_quantum_start(beta, alpha, epsilon, orientation, custom):
    # the epsilon eigenstate of Pi . n starts at pi = G n/(epsilon*lam), the boost of the seed
    kin = make_kinematics(beta, alpha)
    sup = initial_state(orientation, epsilon, kin, custom)
    hist = evolve_expectations(sup, kin, COUP, [0.0])
    pi, beta_pi = map_rest_to_pi(seed_classical(sup.axis, epsilon, kin), kin)
    bound = SEED_ROUNDOFF * np.finfo(float).eps * kin.gamma
    assert np.abs(pi - [hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]]).max() <= bound
    assert abs(beta_pi - hist.beta_pi[0]) <= bound


@pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.5, math.pi / 2, 3.0])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_seed_on_the_motion_axis_is_that_axis(alpha, epsilon):
    kin = make_kinematics(1.0 - 1e-14, alpha)
    bhat = motion_axis(kin)
    s0 = seed_classical(bhat, epsilon, kin)
    assert np.abs(s0 - epsilon * bhat).max() <= np.finfo(float).eps

