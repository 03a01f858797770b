import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinprec import (
    FieldCoupling,
    SpinSuperposition,
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

#: not up to 1 as --beta: the absolute bounds here suit gamma <= 7; high gamma has its own tests
betas = st.floats(min_value=0.0, max_value=0.99)
#: the whole circle and beyond, as --alpha-deg accepts any finite angle
alphas = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi)
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
    # the paper's amplitudes times the global phase -1 that makes amp_plus real positive
    kin = make_kinematics(0.6, math.pi / 4)
    plus = initial_amplitudes_closed("x", 1, kin)
    assert plus.amp_plus == pytest.approx(0.6246950475544242621, abs=1e-15)
    assert plus.amp_minus == pytest.approx(-0.78086880944303032762, abs=1e-15)
    assert plus.eigenvalue == pytest.approx(1.1319231422671770783, abs=1e-15)
    minus = initial_amplitudes_closed("x", -1, kin)
    assert minus.amp_plus == pytest.approx(0.78086880944303032762, abs=1e-15)
    assert minus.amp_minus == pytest.approx(0.6246950475544242621, abs=1e-15)
    assert minus.eigenvalue == pytest.approx(-1.1319231422671770783, abs=1e-15)


def test_closed_x_rest_frame():
    kin = make_kinematics(0.0, 0.7)
    sup = initial_amplitudes_closed("x", 1, kin)
    assert sup.amp_plus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sup.amp_minus == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
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


def paper_closed_form(axis, epsilon, kin):
    """The paper's X, Y and Z states as (amp_plus, amp_minus, eigenvalue)."""
    r2 = math.sqrt(2.0)
    if axis == "y":
        return epsilon / r2, -1j / r2, epsilon * kin.gamma
    if axis == "x":
        w = kin.gamma * kin.beta**2 * math.sin(kin.alpha) * math.cos(kin.alpha)
        x = epsilon * w / math.sqrt(1.0 + w * w)
        lam = math.sqrt(1.0 + (kin.gamma * kin.beta * math.cos(kin.alpha)) ** 2)
        return -(epsilon / r2) * math.sqrt(1.0 - x), math.sqrt(1.0 + x) / r2, epsilon * lam
    return (1.0, 0.0, kin.q) if epsilon > 0 else (0.0, 1.0, -kin.q)


@settings(deadline=None, max_examples=100)
@given(betas, alphas, signs, st.sampled_from(["x", "y", "z"]))
def test_general_reproduces_closed(beta, alpha, epsilon, axis):
    kin = make_kinematics(beta, alpha)
    amp_plus, amp_minus, eigenvalue = paper_closed_form(axis, epsilon, kin)
    paper = SpinSuperposition(complex(amp_plus), complex(amp_minus), eigenvalue, epsilon, None)
    closed = initial_amplitudes_closed(axis, epsilon, kin)
    general = initial_amplitudes_general(closed.axis, epsilon, kin)
    for sup in (closed, general):
        assert sup.eigenvalue == pytest.approx(eigenvalue, abs=1e-12)
        assert overlap(paper, sup) == pytest.approx(1.0, abs=1e-12)


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


#: c in |doublet @ v - eigenvalue v| <= c eps gamma; 20,000 draws of beta up to
#: 1 - 1e-14, alpha on the whole circle and every kind of axis gave at most 4.8
EIGEN_ROUNDOFF = 16.0


@settings(deadline=None, max_examples=300)
@given(
    beta=st.floats(min_value=0.0, max_value=1.0 - 1e-14),
    alpha=alphas,
    epsilon=signs,
    axis=doublet_axes,
)
@example(beta=1.0 - 1e-14, alpha=-math.pi / 6, epsilon=-1, axis="momentum")
@example(beta=1.0 - 1e-14, alpha=3.5, epsilon=1, axis=SIGNED_AXES[0])
def test_amplitudes_solve_the_doublet_to_eps_gamma(beta, alpha, epsilon, axis):
    # the closed eigenvector against the brute-force doublet it shares no code with
    kin = make_kinematics(beta, alpha)
    n = motion_axis(kin) if isinstance(axis, str) else axis
    sup = initial_amplitudes_general(n, epsilon, kin)
    eps = np.finfo(float).eps
    v = np.array([sup.amp_plus, sup.amp_minus])
    assert abs(np.linalg.norm(v) - 1.0) <= 4.0 * eps
    residual = np.linalg.norm(doublet_matrix(n, kin) @ v - sup.eigenvalue * v)
    assert residual <= EIGEN_ROUNDOFF * eps * kin.gamma
    if isinstance(axis, str):
        # the momentum state: eigenvalue epsilon, and helicity epsilon*beta at t = 0
        assert abs(sup.eigenvalue - epsilon) <= 4.0 * eps
        beta_pi0 = evolve_expectations(sup, kin, COUP, [0.0]).beta_pi[0]
        assert abs(beta_pi0 - epsilon * beta) <= 4.0 * eps * kin.gamma


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
    # theta over [0, pi] and phi over [0, 2 pi] reach every unit axis
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
# sin(alpha) < 0, where the small spin coefficient must keep the sign of gamma*beta_perp
@example(0.6, math.radians(200.0), 1, "x")
@example(0.6, math.radians(200.0), -1, "m")
@example(0.6, math.radians(-45.0), -1, "y")
@example(0.6, math.radians(-45.0), 1, "m")
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
    # the common phase gamma*t/(2s) would be huge at small s; the spinor path
    # leaves it out, as it cancels in every sandwich, so the interference stays accurate
    kin = make_kinematics(0.9, 1.1)
    sup = initial_amplitudes_closed("y", 1, kin)
    coup = FieldCoupling(1e-3, 1)
    t = np.linspace(0.0, 100.0, 50)
    a = evolve_expectations(sup, kin, coup, t)
    b = evolve_expectations_spinor(sup, kin, coup, t)
    assert np.abs(a.pi_x - b.pi_x).max() < 1e-12


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


#: up to gamma ~ 7e6, where beta.Pi summed from <Pi_x> and <Pi_z>, which grow like gamma,
#: was off by about eps gamma, a relative 5e-3 for Z at alpha = 1
high_betas = st.floats(min_value=0.0, max_value=1.0 - 1e-14)


@settings(deadline=None, max_examples=100)
@given(high_betas, alphas, signs, st.floats(min_value=0.1, max_value=20.0), st.integers(1, 3000))
@example(1.0 - 1e-12, 1.0, 1, 3.0, 64)  # gamma = 7.1e5
@example(1.0 - 1e-14, -2.0, -1, 3.0, 2500)  # gamma = 7.1e6, on a grid that adds angles
def test_z_helicity_is_its_closed_value(beta, alpha, epsilon, periods, samples):
    # a single branch, so beta.Pi is its diagonal element epsilon*beta_z/q at every time
    kin = make_kinematics(beta, alpha)
    t = np.linspace(0.0, periods * 2.0 * math.pi / precession_frequency(kin), samples)
    hist = evolve_expectations(initial_amplitudes_closed("z", epsilon, kin), kin, COUP, t)
    # value equality is bit equality but for the sign of a zero, which beta_z = 0 leaves open
    assert np.all(hist.beta_pi == epsilon * kin.beta_z / kin.q)


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


def helicity_50_digits(mp, sup, beta, alpha, t):
    """beta_perp <Pi_x> + beta_z <Pi_z> at 50 digits, on the closed matrix elements of
    the float ``beta`` and ``alpha`` and on the float amplitudes of ``sup``."""
    with mp.workdps(50):
        b, a = mp.mpf(beta), mp.mpf(alpha)
        gamma = 1 / mp.sqrt(1 - b * b)
        bp, bz = b * mp.sin(a), b * mp.cos(a)
        q = mp.sqrt(1 + (gamma * bp) ** 2)
        amp_p, amp_m = mp.mpc(sup.amp_plus), mp.mpc(sup.amp_minus)
        wp, wm = abs(amp_p) ** 2, abs(amp_m) ** 2
        # <zeta|Pi_x|zeta> = -zeta gamma^2 beta_perp beta_z/q, <-zeta|Pi_x|zeta> = -gamma/q,
        # <zeta|Pi_z|zeta> = zeta q, <-zeta|Pi_z|zeta> = 0
        g_x = 2 * mp.conj(amp_p) * amp_m * (-gamma / q)
        diag_x = (wm - wp) * gamma**2 * bp * bz / q
        pi_z = (wp - wm) * q
        return np.array(
            [float(bp * (diag_x + mp.re(g_x * mp.expj(q / gamma * ti))) + bz * pi_z)
             for ti in t.tolist()]
        )


#: c in |beta_pi - its 50-digit value| <= c eps max(1, |w t|).  The closed row is
#: c0 + c1 cos + c2 sin with |c0| <= 1 and |c1| + |c2| <= sqrt(2), each coefficient a few
#: roundings off; the sinusoids are 4 eps max(1, |w t|) off, and w t a few eps |w t|.
#: 600 random draws up to gamma = 7e6, about half on grids that add angles, gave at most 1.3.
HELICITY_ROUNDOFF = 16.0
#: the 50-digit reference is taken on at most this many samples of each grid
HELICITY_SAMPLES = 48


@settings(deadline=None, max_examples=60)
@given(
    orientation=st.sampled_from(["x", "y", "z", "momentum", "custom"]),
    epsilon=signs,
    beta=high_betas,
    alpha=alphas,
    periods=st.floats(min_value=0.1, max_value=20.0),
    samples=st.integers(1, 3000),
    theta=alphas,
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
@example("momentum", 1, 1.0 - 1e-12, 1.0, 3.0, 64, 0.0, 0.0)  # gamma = 7.1e5
@example("custom", -1, 1.0 - 1e-14, 2.5, 3.0, 2500, 0.7, 1.9)  # gamma = 7.1e6, adds angles
def test_helicity_matches_50_digit_sum(
    mp, orientation, epsilon, beta, alpha, periods, samples, theta, phi
):
    kin = make_kinematics(beta, alpha)
    if orientation in ("x", "y", "z"):
        sup = initial_amplitudes_closed(orientation, epsilon, kin)
    else:
        n = motion_axis(kin) if orientation == "momentum" else spin_axis(theta, phi)
        sup = initial_amplitudes_general(n, epsilon, kin)
    w = precession_frequency(kin)
    t = np.linspace(0.0, periods * 2.0 * math.pi / w, samples)
    picks = np.unique(np.linspace(0, samples - 1, HELICITY_SAMPLES).astype(int))
    got = evolve_expectations(sup, kin, COUP, t).beta_pi[picks]
    bound = HELICITY_ROUNDOFF * np.finfo(float).eps * max(1.0, w * t[-1])
    assert np.abs(got - helicity_50_digits(mp, sup, beta, alpha, t[picks])).max() <= bound
