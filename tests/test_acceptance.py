"""Acceptance gate: the eleven repository-level criteria.

Each test prints exactly one PASS/FAIL line (visible with pytest -s) and
asserts the same condition, at the tolerances fixed below.  The whole
module runs on one core in well under a minute.
"""

import math

import numpy as np
import pytest

from spinprec import (
    FieldCoupling,
    PrecessionVector,
    closed_form_matrix_elements,
    doublet_matrix,
    evolve_expectations,
    initial_amplitudes_closed,
    initial_amplitudes_general,
    integrate,
    make_kinematics,
    map_pi_to_rest,
    matrix_element,
    motion_axis,
    omega_vector,
    period_grid,
    pi_component_matrix,
    precession_frequency,
    run_comparison,
    spin_axis,
    spin_coefficients,
    sr_scales,
    trajectory_exact,
    extract_frequency,
)

COUP = FieldCoupling(1e-3, 1)
AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}
KIN_POINTS = [(0.6, math.pi / 4), (0.9, 0.3), (0.3, 1.2), (0.99, 2.0)]


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def eigen_audit():
    """Shared 10^4-draw audit of eigenstates and matrix elements."""
    rng = np.random.default_rng(20240817)
    n = 10_000
    beta = rng.uniform(0.0, 0.99, n)
    alpha = rng.uniform(0.0, math.pi, n)
    zeta = rng.choice([-1, 1], n)
    worst = {"residual": 0.0, "norm": 0.0, "overlap": 0.0, "element": 0.0}
    for b, a, z in zip(beta, alpha, zeta):
        kin = make_kinematics(float(b), float(a))
        psi = spin_coefficients(int(z), kin)
        other = spin_coefficients(-int(z), kin)
        closed = closed_form_matrix_elements(kin, int(z))
        for name in "xyz":
            m = pi_component_matrix(AXES[name], kin)
            if name == "z":
                worst["residual"] = max(
                    worst["residual"],
                    float(np.linalg.norm(m @ psi - z * kin.q * psi)),
                )
            worst["element"] = max(
                worst["element"],
                abs(matrix_element(psi, m, psi) - getattr(closed, f"diag_{name}")),
                abs(matrix_element(other, m, psi) - getattr(closed, f"cross_{name}")),
            )
        worst["norm"] = max(worst["norm"], abs(float(np.linalg.norm(psi)) - 1.0))
        worst["overlap"] = max(worst["overlap"], abs(np.vdot(other, psi)))
    return worst


def test_criterion_01_eigenstate_audit(eigen_audit):
    w = eigen_audit
    ok = w["residual"] < 1e-12 and w["norm"] < 1e-12 and w["overlap"] < 1e-12
    _check(
        1,
        "eigenstate audit (10^4 draws)",
        ok,
        f"residual {w['residual']:.2e}, norm {w['norm']:.2e}, overlap {w['overlap']:.2e}",
    )


def test_criterion_02_matrix_element_table(eigen_audit):
    w = eigen_audit
    _check(
        2,
        "matrix-element closed forms vs oracle",
        w["element"] < 1e-12,
        f"max |closed - brute force| {w['element']:.2e}",
    )


def test_criterion_03_doublet_eigenvalues():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        kin = make_kinematics(rng.uniform(0.0, 0.99), rng.uniform(0.0, math.pi))
        g, b, q = kin.gamma, kin.beta, kin.q
        expected = {
            "x": math.sqrt(1.0 + (g * b * math.cos(kin.alpha)) ** 2),
            "y": g,
            "z": q,
        }
        for name, lam in expected.items():
            vals = np.linalg.eigvalsh(doublet_matrix(AXES[name], kin))
            worst = max(worst, abs(vals[0] + lam), abs(vals[1] - lam))
    _check(
        3,
        "doublet eigenvalue closed forms",
        worst < 1e-12,
        f"max |Lambda - closed form| {worst:.2e} over 1000 draws x three axes",
    )


def test_criterion_04_y_case_dynamics():
    worst = 0.0
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        omega = precession_frequency(kin)
        root = math.sqrt(1.0 - (beta * math.cos(alpha)) ** 2)
        t = period_grid(kin, 10, 1000)
        for eps in (1, -1):
            hist = evolve_expectations(
                initial_amplitudes_closed("y", eps, kin), kin, COUP, t
            )
            worst = max(
                worst,
                float(np.abs(hist.pi_x - (-eps / root) * np.sin(omega * t)).max()),
                float(np.abs(hist.pi_y - eps * kin.gamma * np.cos(omega * t)).max()),
                float(np.abs(hist.pi_z).max()),
            )
    _check(
        4,
        "Y-case printed dynamics (10 periods, 10^3 samples/period)",
        worst < 1e-10,
        f"max pointwise error {worst:.2e}",
    )


def test_criterion_05_z_case_stationarity():
    worst = 0.0
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        t = period_grid(kin, 10, 1000)
        for zeta in (1, -1):
            hist = evolve_expectations(
                initial_amplitudes_closed("z", zeta, kin), kin, COUP, t
            )
            for series in (hist.pi_x, hist.pi_y, hist.pi_z, hist.beta_pi):
                worst = max(worst, float(np.abs(series - series[0]).max()))
    _check(
        5,
        "Z-case stationarity",
        worst < 1e-12,
        f"max temporal variation {worst:.2e}",
    )


def test_criterion_06_invariant():
    rng = np.random.default_rng(11)
    worst = 0.0
    runs = []
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        for axis in ("x", "y", "z"):
            runs.append((kin, initial_amplitudes_closed(axis, 1, kin)))
        runs.append((kin, initial_amplitudes_general(motion_axis(kin), 1, kin)))
    for _ in range(100):
        kin = make_kinematics(rng.uniform(0.0, 0.99), rng.uniform(0.0, math.pi))
        n = spin_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        eps = int(rng.choice([-1, 1]))
        runs.append((kin, initial_amplitudes_general(n, eps, kin)))
    for kin, sup in runs:
        t = period_grid(kin, 2, 200)
        hist = evolve_expectations(sup, kin, COUP, t)
        worst = max(worst, float(np.abs(hist.invariant - 1.0).max()))
    _check(
        6,
        "spin invariant I = 1 (X, Y, Z, momentum, 100 random axes)",
        worst < 1e-10,
        f"max |I - 1| {worst:.2e} over {len(runs)} runs",
    )


def test_criterion_07_frequency():
    worst_rel = 0.0
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        formula = precession_frequency(kin)
        t = period_grid(kin, 10, 1000)
        hist = evolve_expectations(
            initial_amplitudes_closed("y", 1, kin), kin, COUP, t
        )
        extracted = extract_frequency(t, hist.pi_y)
        worst_rel = max(worst_rel, abs(extracted - formula) / formula)
    rng = np.random.default_rng(13)
    worst_mag = 0.0
    for _ in range(10_000):
        kin = make_kinematics(rng.uniform(0.0, 0.99), rng.uniform(0.0, math.pi))
        formula = precession_frequency(kin)
        worst_mag = max(worst_mag, abs(omega_vector(kin).magnitude - formula))
    ok = worst_rel < 1e-6 and worst_mag < 1e-12
    _check(
        7,
        "precession frequency",
        ok,
        f"extraction rel err {worst_rel:.2e}, |Omega| vs formula {worst_mag:.2e}",
    )


def test_criterion_08_quantum_classical_agreement():
    rng = np.random.default_rng(17)
    worst_dev = 0.0
    all_pass = True
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        sups = [
            ("x", initial_amplitudes_closed("x", 1, kin)),
            ("y", initial_amplitudes_closed("y", 1, kin)),
            ("z", initial_amplitudes_closed("z", -1, kin)),
            ("momentum", initial_amplitudes_general(motion_axis(kin), 1, kin)),
        ]
        for _ in range(3):
            n = spin_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
            sups.append(("custom", initial_amplitudes_general(n, 1, kin)))
        for orientation, sup in sups:
            report, _, _ = run_comparison(
                sup, kin, COUP, periods=10, samples_per_period=512,
                orientation=orientation,
            )
            all_pass = all_pass and report.passed
            worst_dev = max(worst_dev, max(report.max_abs_deviation.values()))
    worst_rk = 0.0
    for beta, alpha in KIN_POINTS:
        kin = make_kinematics(beta, alpha)
        om = omega_vector(kin)
        t = np.linspace(0.0, 2 * math.pi / om.magnitude, 257)
        s0 = spin_axis(1.0, 0.5)
        ref = trajectory_exact(s0, om, t, kin)
        num = integrate(s0, om, t, kin)
        worst_rk = max(worst_rk, float(np.abs(num.s - ref.s).max()))
    ok = all_pass and worst_dev < 1e-8 and worst_rk < 1e-8
    _check(
        8,
        "quantum vs classical (10 periods, all orientations)",
        ok,
        f"max deviation {worst_dev:.2e}, exact-vs-RK4 per period {worst_rk:.2e}",
    )


def test_criterion_09_longitudinal_polarization():
    rng = np.random.default_rng(19)
    worst = 0.0
    worst_t0 = 0.0
    for _ in range(50):
        kin = make_kinematics(rng.uniform(0.0, 0.99), rng.uniform(0.0, math.pi))
        omega = precession_frequency(kin)
        t = period_grid(kin, 3, 300)
        g, b = kin.gamma, kin.beta
        ca, sa = math.cos(kin.alpha), math.sin(kin.alpha)
        for eps in (1, -1):
            sup = initial_amplitudes_general(motion_axis(kin), eps, kin)
            hist = evolve_expectations(sup, kin, COUP, t)
            closed = (
                eps * b * (ca**2 + g**2 * sa**2 * np.cos(omega * t))
                / (g**2 * (1.0 - b**2 * ca**2))
            )
            worst = max(worst, float(np.abs(hist.beta_pi - closed).max()))
            worst_t0 = max(worst_t0, abs(hist.beta_pi[0] - eps * b))
    ok = worst < 1e-10 and worst_t0 < 1e-10
    _check(
        9,
        "longitudinal polarization closed form (n along motion)",
        ok,
        f"max deviation {worst:.2e}, t=0 collapse {worst_t0:.2e}",
    )


def test_criterion_10_sr_scales():
    exact = True
    for gamma in (2.0, 4.0, 8.0, 64.0, 1024.0):
        s = sr_scales(gamma, 1.0)
        exact = exact and s.time_ratio * gamma**4 == 2.0 * math.pi
        exact = exact and s.omega_max / s.omega0 == gamma**3
    rng = np.random.default_rng(23)
    worst_ulp = 0.0
    for _ in range(1000):
        gamma = rng.uniform(1.0, 1e6)
        s = sr_scales(gamma, 1.0)
        worst_ulp = max(
            worst_ulp,
            abs(s.time_ratio * gamma**4 - 2.0 * math.pi) / math.ulp(2.0 * math.pi),
            abs(s.omega_max / s.omega0 - gamma**3) / math.ulp(gamma**3),
        )
    ok = exact and worst_ulp <= 2.0
    _check(
        10,
        "SR scale identities",
        ok,
        f"bit-exact at power-of-two gamma: {exact}; max rounding {worst_ulp:.2f} ulp",
    )


def test_criterion_11_fault_injection():
    kin = make_kinematics(0.6, math.pi / 4)
    t = period_grid(kin, 10, 1024)
    hist = evolve_expectations(initial_amplitudes_closed("y", 1, kin), kin, COUP, t)
    pi0 = np.array([hist.pi_x[0], hist.pi_y[0], hist.pi_z[0]])
    s0 = map_pi_to_rest(pi0, kin)
    s0 /= np.linalg.norm(s0)
    bad = trajectory_exact(s0, PrecessionVector(omega_vector(kin).omega_vec * 1.01), t, kin)
    from spinprec import compare

    report = compare(
        hist, bad, frequency_formula=precession_frequency(kin)
    )
    mismatch = report.extracted_frequency / report.frequency_formula - 1.0
    ok = (not report.passed) and abs(mismatch - 0.01) < 1e-3
    _check(
        11,
        "1% precession-vector fault detected",
        ok,
        f"report pass={report.passed}, frequency mismatch {mismatch:.4%}",
    )
