"""The two audit paths against the per-sample loops they replace.

``evolve_expectations_spinor`` builds every 4-spinor of the grid at once
and takes the three sandwiches in one ``einsum``; it must agree with the
per-sample ``cmath`` loop, kept here with the full energy phases, to
roundoff scaled by gamma (the components of Pi grow like gamma), and give
the same bits for any coupling.  ``integrate`` applies RK4's one-substep
3x3 map, raised to each interval's substep count and chained by recursive
pairing; it must agree with the per-substep loop, kept here, to roundoff
that grows with the number of substeps, and equal it bit for bit for a
spin along Omega, which does not precess.  The pairing chain must agree
with the plain loop of one matvec per map to roundoff that grows with the
number of maps.
``integrate`` builds each distinct interval length's map once; it must
equal the build of one map per interval, kept here and chained by the
same pairing, bit for bit.  Both paths must also stay independent of the
closed path they audit, and the CLI's paths must not call the spinor
machinery that only the audits use.
The closed path ``evolve_expectations`` computes its three components and
the helicity, on its own closed elements, row by row in real arithmetic; it
must equal the one-expression-per-output formula, kept here, bit for bit.
Both it and the exact rotation take
sin(w t) and cos(w t) by angle addition over blocks of a long uniform grid;
that evaluation is restated here block by block, and the formulas on libm's
sin(w t) and cos(w t) stay as roundoff references.  The boost
``map_rest_to_pi`` must equal the ``(N, 1) x (3,)`` broadcast, kept here,
bit for bit.  The exact rotation
``trajectory_exact`` boosts the three vectors of Rodrigues' formula once and
sums each output row from them; it must equal the same sum as broadcasts,
kept here, bit for bit, and the rotation of every sample followed by its
boost, also kept here, to roundoff scaled by gamma.
"""

import cmath
import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spinprec.bmt
import spinprec.kinematics
import spinprec.superposition
from spinprec import (
    FieldCoupling,
    PrecessionVector,
    closed_form_matrix_elements,
    evolve_expectations,
    evolve_expectations_spinor,
    initial_amplitudes_closed,
    initial_amplitudes_general,
    integrate,
    make_kinematics,
    map_rest_to_pi,
    matrix_element,
    motion_axis,
    omega_vector,
    period_grid,
    pi_component_matrix,
    precession_frequency,
    spin_axis,
    spin_coefficients,
    trajectory_exact,
)
from spinprec.cli import main
from spinprec.compare import Tolerances, seed_classical
from spinprec.kinematics import SINCOS_MIN_SAMPLES, TWO_PI

from reference import alphas

ORIENTATIONS = ("x", "y", "z", "momentum", "custom")
#: set from float64 roundoff before the vectorized path was written
SPINOR_TOL = 1e-14
#: c in |integrate - loop| <= c K eps after K substeps.  Each path rounds a substep's
#: result to about eps/2 per component, the loop in its last add and the map in its
#: entries near 1, which squaring carries k-fold; neither path amplifies an error.
#: So they part by about K eps at worst; 3000 random grids gave at most 0.5 K eps.
RK4_ROUNDOFF = 2.0

gammas = st.floats(min_value=1.0001, max_value=1e4)
signs = st.sampled_from([-1, 1])


def kinematics(gamma, alpha):
    return make_kinematics(math.sqrt((gamma - 1.0) * (gamma + 1.0)) / gamma, alpha)


def superposition(orientation, epsilon, kin, theta=0.7, phi=1.9):
    if orientation in ("x", "y", "z"):
        return initial_amplitudes_closed(orientation, epsilon, kin)
    n = motion_axis(kin) if orientation == "momentum" else spin_axis(theta, phi)
    return initial_amplitudes_general(n, epsilon, kin)


def reference_spinor(sup, kin, coupling, t):
    """The per-sample loop: one state and three matrix elements per time."""
    ket_p = spin_coefficients(+1, kin)
    ket_m = spin_coefficients(-1, kin)
    mats = [pi_component_matrix(axis, kin) for axis in np.eye(3)]
    common_rate = kin.gamma / (2.0 * coupling.s)
    rel_rate = kin.q / (2.0 * kin.gamma)
    pi = np.empty((t.size, 3))
    for i, ti in enumerate(t):
        z_rel = cmath.exp(-1j * rel_rate * ti)
        state = cmath.exp(-1j * common_rate * ti) * (
            sup.amp_plus * z_rel * ket_p
            + sup.amp_minus * z_rel.conjugate() * ket_m
        )
        for k, m in enumerate(mats):
            pi[i, k] = matrix_element(state, m, state).real
    beta_pi = kin.beta_perp * pi[:, 0] + kin.beta_z * pi[:, 2]
    invariant = (pi**2).sum(axis=1) / kin.gamma**2 + beta_pi**2
    return pi[:, 0], pi[:, 1], pi[:, 2], beta_pi, invariant


def assert_spinor_matches_loop(sup, kin, coupling, t):
    hist = evolve_expectations_spinor(sup, kin, coupling, t)
    got = (hist.pi_x, hist.pi_y, hist.pi_z, hist.beta_pi, hist.invariant)
    np.testing.assert_array_equal(hist.t, t)
    for name, a, b in zip(("pi_x", "pi_y", "pi_z", "beta_pi", "invariant"), got,
                          reference_spinor(sup, kin, coupling, t)):
        assert a.shape == b.shape == t.shape, name
        assert np.abs(a - b).max() <= SPINOR_TOL * kin.gamma, name


@settings(max_examples=150, deadline=None)
@given(
    orientation=st.sampled_from(ORIENTATIONS),
    epsilon=signs,
    gamma=gammas,
    alpha=alphas,
    s=st.floats(min_value=1e-6, max_value=1e-1),
    periods=st.floats(min_value=0.5, max_value=3.0),
    spp=st.integers(16, 64),
    theta=alphas,
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_spinor_path_matches_per_sample_loop(
    orientation, epsilon, gamma, alpha, s, periods, spp, theta, phi
):
    kin = kinematics(gamma, alpha)
    sup = superposition(orientation, epsilon, kin, theta, phi)
    assert_spinor_matches_loop(sup, kin, FieldCoupling(s, 1), period_grid(kin, periods, spp))


@pytest.mark.parametrize("t", [[0.0], [2.5], [0.0, 0.3], [1.25, 40.0]], ids=str)
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_spinor_path_on_one_and_two_samples(orientation, t):
    kin = kinematics(3.0, 0.4)
    sup = superposition(orientation, -1, kin)
    assert_spinor_matches_loop(sup, kin, FieldCoupling(1e-4, 1), np.array(t))


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_spinor_path_reads_no_coupling(orientation):
    # the common phase e^{-i gamma t/(2s)} cancels in every sandwich, so it is not evolved
    kin = kinematics(40.0, 0.9)
    sup = superposition(orientation, 1, kin)
    t = period_grid(kin, 3.0, 32)
    runs = [evolve_expectations_spinor(sup, kin, FieldCoupling(s, 1), t) for s in (1e-9, 1e-3, 1.0)]
    for name in ("pi_x", "pi_y", "pi_z", "beta_pi", "invariant"):
        first, *rest = (getattr(hist, name).tobytes() for hist in runs)
        assert all(other == first for other in rest), name


#: c in |angle addition - libm| <= c eps max(1, |w t|), |w t| the largest on the grid;
#: tests/test_kinematics.py holds the helper to the same c and says where it comes from
SINCOS_ROUNDOFF = 4.0


def libm_sin_cos(w, t):
    return np.sin(w * t), np.cos(w * t)


def adds_angles(t):
    """Whether the grid is long enough and its own linspace."""
    return t.size >= SINCOS_MIN_SAMPLES and np.array_equal(t, np.linspace(t[0], t[-1], t.size))


def reference_sin_cos(w, t):
    """sin(w t) and cos(w t) as the closed path and the exact rotation take them.

    Where ``adds_angles(t)``, the grid is cut into blocks of ceil(sqrt(n))
    samples; each block holds the angle sums of its start w t[k m] and of the
    offsets (w h) j.  Any other grid is libm's.
    """
    if not adds_angles(t):
        return libm_sin_cos(w, t)
    n = t.size
    m = math.ceil(math.sqrt(n))
    offsets = (w * ((t[-1] - t[0]) / (n - 1))) * np.arange(m)
    sin_a, cos_a = np.sin(offsets), np.cos(offsets)
    starts = w * t[::m]
    sin_b, cos_b = np.sin(starts), np.cos(starts)
    sin, cos = np.empty(n), np.empty(n)
    for k in range(starts.size):
        block = slice(k * m, min(k * m + m, n))
        j = block.stop - block.start
        sin[block] = sin_b[k] * cos_a[:j] + cos_b[k] * sin_a[:j]
        cos[block] = cos_b[k] * cos_a[:j] - sin_b[k] * sin_a[:j]
    return sin, cos


def phase_scale(w, t):
    """max(1, |w t|) over the grid, the scale of SINCOS_ROUNDOFF."""
    return max(1.0, abs(w * t[0]), abs(w * t[-1]))


def reference_closed(sup, kin, t, sin_cos=reference_sin_cos):
    """One expression per output, on the scalar matrix elements.

    2 Re[conj(A) B e^{i w t} cross_k] is cos(w t) Re g_k - sin(w t) Im g_k
    with g_k = 2 conj(A) B cross_k, a Python complex scalar; each output is
    (diag_k + cos Re g_k) + sin (-Im g_k).  beta.Pi is the fourth such
    output, on its closed elements: diag zeta beta_z/q, cross -beta_perp gamma/q.
    """
    p = closed_form_matrix_elements(kin, +1)
    m = closed_form_matrix_elements(kin, -1)
    diag_x, diag_y, diag_z = (complex(c) for c in p.diag)
    mdiag_x, mdiag_y, mdiag_z = (complex(c) for c in m.diag)
    wp = abs(sup.amp_plus) ** 2
    wm = abs(sup.amp_minus) ** 2
    cw = sup.amp_plus.conjugate() * sup.amp_minus
    g_x, g_y, g_z = (2.0 * cw * complex(c) for c in m.cross)
    g_b = 2.0 * cw * (-kin.beta_perp * kin.gamma / kin.q)
    sin, cos = sin_cos(precession_frequency(kin), t)
    pi_x = ((wp * diag_x.real + wm * mdiag_x.real) + cos * g_x.real) + sin * -g_x.imag
    pi_y = ((wp * diag_y.real + wm * mdiag_y.real) + cos * g_y.real) + sin * -g_y.imag
    pi_z = ((wp * diag_z.real + wm * mdiag_z.real) + cos * g_z.real) + sin * -g_z.imag
    beta_pi = ((wp - wm) * kin.beta_z / kin.q + cos * g_b.real) + sin * -g_b.imag
    invariant = (pi_x**2 + pi_y**2 + pi_z**2) / kin.gamma**2 + beta_pi**2
    return pi_x, pi_y, pi_z, beta_pi, invariant


#: c in |closed path - the formula on libm's sinusoids| <= c eps gamma max(1, |w t|).
#: Each component is c0 + c1 cos - c2 sin with |c1| + |c2| <= sqrt(2) gamma, so the
#: sinusoids' SINCOS_ROUNDOFF moves it by at most 5.7 eps gamma max(1, |w t|), and
#: beta_pi by sqrt(2) times that; the invariant does not depend on the phase.  1,500
#: draws of grids that add angles gave at most 1.8 on all five outputs.
CLOSED_SINCOS_ROUNDOFF = 16.0


@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
@settings(max_examples=30, deadline=None)
@given(
    gamma=gammas,
    alpha=alphas,
    periods=st.floats(min_value=0.1, max_value=20.0),
    samples=st.integers(1, 4000),
    theta=alphas,
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_closed_path_bit_exact(orientation, epsilon, gamma, alpha, periods, samples, theta, phi):
    kin = kinematics(gamma, alpha)
    sup = superposition(orientation, epsilon, kin, theta, phi)
    t = np.linspace(0.0, periods * TWO_PI / precession_frequency(kin), samples)
    hist = evolve_expectations(sup, kin, FieldCoupling(1e-3, 1), t)
    got = (hist.pi_x, hist.pi_y, hist.pi_z, hist.beta_pi, hist.invariant)
    for name, a, b in zip(("pi_x", "pi_y", "pi_z", "beta_pi", "invariant"), got,
                          reference_closed(sup, kin, t)):
        assert a.dtype == b.dtype and a.shape == b.shape == t.shape, name
        assert a.tobytes() == b.tobytes(), name
    eps = np.finfo(float).eps
    bound = CLOSED_SINCOS_ROUNDOFF * eps * kin.gamma * phase_scale(precession_frequency(kin), t)
    for name, a, b in zip(("pi_x", "pi_y", "pi_z", "beta_pi", "invariant"), got,
                          reference_closed(sup, kin, t, libm_sin_cos)):
        assert np.abs(a - b).max() <= bound, name


def reference_rk4_segment(s, omega_vec, dt, steps):
    wx, wy, wz = omega_vec
    sx, sy, sz = s
    h = dt / steps
    for _ in range(steps):
        k1x = wy * sz - wz * sy
        k1y = wz * sx - wx * sz
        k1z = wx * sy - wy * sx
        ax, ay, az = sx + 0.5 * h * k1x, sy + 0.5 * h * k1y, sz + 0.5 * h * k1z
        k2x = wy * az - wz * ay
        k2y = wz * ax - wx * az
        k2z = wx * ay - wy * ax
        bx, by, bz = sx + 0.5 * h * k2x, sy + 0.5 * h * k2y, sz + 0.5 * h * k2z
        k3x = wy * bz - wz * by
        k3y = wz * bx - wx * bz
        k3z = wx * by - wy * bx
        cx, cy, cz = sx + h * k3x, sy + h * k3y, sz + h * k3z
        k4x = wy * cz - wz * cy
        k4y = wz * cx - wx * cz
        k4z = wx * cy - wy * cx
        sx += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        sy += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        sz += h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
    return sx, sy, sz


def reference_integrate(s0, omega, t, kin, steps_per_period):
    """The driver loop that assigned one NumPy row per interval."""
    s0 = np.asarray(s0, dtype=float)
    s = np.empty((t.size, 3))
    s[0] = s0
    dts = np.diff(t)
    substeps = np.maximum(1.0, np.ceil(dts / (TWO_PI / omega.magnitude / steps_per_period)))
    wv = tuple(float(c) for c in omega.omega_vec)
    cur = (float(s0[0]), float(s0[1]), float(s0[2]))
    for i, (dt, steps) in enumerate(zip(dts.tolist(), substeps.tolist()), start=1):
        cur = reference_rk4_segment(cur, wv, dt, int(steps))
        s[i] = cur
    pi, beta_pi = map_rest_to_pi(s, kin)
    return s, pi, beta_pi


def reference_interval_maps(cross, dts, steps):
    """One block's interval maps, built one per interval."""
    eye = np.eye(3)
    k1 = (dts / steps)[:, None, None] * cross
    k2 = k1 @ (eye + 0.5 * k1)
    k3 = k1 @ (eye + 0.5 * k2)
    k4 = k1 @ (eye + k3)
    power = eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    maps = eye
    for bit in range(int(steps.max()).bit_length()):
        maps = np.where((steps // 2**bit % 2 == 1)[:, None, None], power @ maps, maps)
        power = power @ power
    return maps


def reference_integrate_per_interval(s0, omega, t, kin, steps_per_period):
    """The matrix form that built every interval's map, equal dt or not."""
    s = np.tile(np.asarray(s0, dtype=float), (t.size, 1))
    dts = np.diff(t)
    substeps = np.maximum(1.0, np.ceil(dts / (TWO_PI / omega.magnitude / steps_per_period)))
    cross = np.cross(np.eye(3), omega.omega_vec)
    for lo in range(0, dts.size, spinprec.bmt._BLOCK):
        hi = lo + spinprec.bmt._BLOCK
        maps = reference_interval_maps(cross, dts[lo:hi], substeps[lo:hi])
        s[lo + 1 : hi + 1] = spinprec.bmt._chain(maps, s[lo])
    return (s, *map_rest_to_pi(s, kin))


def assert_same_bits(got, ref, names=("s", "pi", "beta_pi")):
    for name, a, b in zip(names, got, ref, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_integrate_bit_exact(s0, omega, t, kin, steps_per_period):
    traj = integrate(s0, omega, t, kin, steps_per_period)
    ref = reference_integrate(s0, omega, t, kin, steps_per_period)
    assert_same_bits((traj.s, traj.pi, traj.beta_pi), ref)
    return traj


def assert_integrate_matches_loop(s0, omega, t, kin, steps_per_period):
    """Within RK4_ROUNDOFF K eps of the loop, K counting the substeps up to each sample,
    and bit for bit the build of one map per interval."""
    traj = integrate(s0, omega, t, kin, steps_per_period)
    ref = reference_integrate_per_interval(s0, omega, t, kin, steps_per_period)
    assert_same_bits((traj.s, traj.pi, traj.beta_pi), ref)
    s, _, _ = reference_integrate(s0, omega, t, kin, steps_per_period)
    substeps = np.maximum(1.0, np.ceil(np.diff(t) / (TWO_PI / omega.magnitude / steps_per_period)))
    bound = RK4_ROUNDOFF * np.finfo(float).eps * np.concatenate([[0.0], np.cumsum(substeps)])
    assert traj.s.shape == s.shape
    assert np.all(np.abs(traj.s - s).max(axis=1) <= bound)
    assert_same_bits((traj.pi, traj.beta_pi), map_rest_to_pi(traj.s, kin), ("pi", "beta_pi"))


unit_vectors = st.tuples(alphas, st.floats(min_value=0.0, max_value=2.0 * math.pi)).map(
    lambda angles: spin_axis(*angles)
)


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(min_value=1.0001, max_value=100.0),
    alpha=alphas,
    s0=unit_vectors,
    periods=st.floats(min_value=0.25, max_value=2.0),
    spp=st.integers(16, 64),
    steps_per_period=st.integers(200, 600),
)
def test_integrate_matches_loop_on_uniform_grids(gamma, alpha, s0, periods, spp, steps_per_period):
    kin = kinematics(gamma, alpha)
    t = period_grid(kin, periods, spp)
    assert_integrate_matches_loop(s0, omega_vector(kin), t, kin, steps_per_period)


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(min_value=1.0001, max_value=100.0),
    alpha=alphas,
    s0=unit_vectors,
    t0=st.floats(min_value=-10.0, max_value=10.0),
    gaps=st.lists(st.floats(min_value=1e-4, max_value=3.0), min_size=1, max_size=12),
    steps_per_period=st.integers(200, 600),
)
# every interval length differs, so no two intervals share a map
@example(2.0, 0.7, spin_axis(0.4, 2.2), 0.0, [0.3, 1.7, 0.05, 2.9, 1e-3, 0.61, 2.2], 400)
def test_integrate_matches_loop_on_nonuniform_grids(gamma, alpha, s0, t0, gaps, steps_per_period):
    kin = kinematics(gamma, alpha)
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    assume(np.all(np.diff(t) > 0))
    omega = omega_vector(kin)
    substeps = np.ceil(np.diff(t) / (TWO_PI / omega.magnitude / steps_per_period))
    # the gaps span 1e-4 to 3, so most grids mix one-substep and many-substep intervals
    assume(len(gaps) == 1 or substeps.min() != substeps.max())
    assert_integrate_matches_loop(s0, omega, t, kin, steps_per_period)


@pytest.mark.parametrize("intervals", [0, 1, 2 * spinprec.bmt._BLOCK + 5])
def test_integrate_matches_loop_across_blocks(intervals):
    # the state at the end of each block of intervals starts the next, the last one ragged
    kin = kinematics(3.0, 0.7)
    t = np.concatenate([[0.0], np.cumsum(np.random.default_rng(0).uniform(1e-3, 0.1, intervals))])
    assert_integrate_matches_loop(spin_axis(0.4, 2.2), omega_vector(kin), t, kin, 400)


def test_integrate_matches_loop_on_one_dt_across_blocks():
    # one dt, exact in binary, over three blocks: every interval shares one map
    t = np.arange(2 * spinprec.bmt._BLOCK + 6) * 2.0**-6
    assert np.unique(np.diff(t)).size == 1
    kin = kinematics(3.0, 0.7)
    assert_integrate_matches_loop(spin_axis(0.4, 2.2), omega_vector(kin), t, kin, 400)


def reference_chain(maps, s0):
    """The plain loop: one matvec per map, s = m @ s."""
    s = np.empty((len(maps), 3))
    for i, m in enumerate(maps):
        s0 = s[i] = m @ s0
    return s


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, spinprec.bmt._BLOCK])
def test_chain_matches_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        omega = rng.normal(size=3)
        dts = rng.uniform(1e-3, 0.5, n + 1)
        steps = np.maximum(1.0, np.ceil(dts / (TWO_PI / np.linalg.norm(omega) / 400)))
        # n + 1 intervals built and the first n kept: _interval_maps needs at least one
        maps = spinprec.bmt._interval_maps(np.cross(np.eye(3), omega), dts, steps)[:n]
        s0 = spin_axis(*rng.uniform(0.0, math.pi, 2))
        got = spinprec.bmt._chain(maps, s0)
        s = reference_chain(maps, s0)
        assert got.shape == s.shape == (n, 3)
        if n:
            assert got[0].tobytes() == (maps[0] @ s0).tobytes()
        # i eps at state i: both sides round once per product of maps near rotations,
        # so the loop's own error grows with i too; 300 draws gave at most 0.75 i eps
        assert np.all(np.abs(got - s).max(axis=1) <= np.arange(1, n + 1) * np.finfo(float).eps)


def without_precession():
    """Motion along the field and the spin on Z: Omega is on Z, so Omega x s0 is exactly 0."""
    kin = kinematics(2.0, 0.0)
    omega = omega_vector(kin)
    assert omega.omega_vec[0] == omega.omega_vec[1] == 0.0
    return kin, omega, np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("t", [[0.0], [0.0, 1.0], [0.0, 0.5, 3.0, 3.1]], ids=str)
def test_integrate_bit_exact_without_precession(t):
    kin, omega, s0 = without_precession()
    traj = assert_integrate_bit_exact(s0, omega, np.array(t), kin, 400)
    assert np.all(traj.s == s0)


def reference_map_rest_to_pi(s, kin):
    """The boost as one broadcast of the (..., 1) projections against the (3,) axis."""
    s = np.asarray(s, dtype=float)
    bhat = motion_axis(kin)
    proj = s @ bhat
    pi = kin.gamma * s - (kin.gamma - 1.0) * proj[..., None] * bhat
    return pi, kin.beta * proj


def reference_trajectory_exact(s0, omega, t, kin, sin_cos=reference_sin_cos):
    """The reference boost of Rodrigues' three vectors, each summed as (N, 1) x (3,) broadcasts."""
    w = omega.magnitude
    axis = omega.omega_vec / w
    along = axis * (axis @ s0)
    vecs = np.array([along, s0 - along, np.cross(axis, s0)])
    pi_vecs, beta_pi_vecs = reference_map_rest_to_pi(vecs, kin)
    si, c = sin_cos(w, t)
    s = vecs[0] + vecs[1] * c[:, None] + vecs[2] * si[:, None]
    pi = pi_vecs[0] + pi_vecs[1] * c[:, None] + pi_vecs[2] * si[:, None]
    return s, pi, beta_pi_vecs[0] + beta_pi_vecs[1] * c + beta_pi_vecs[2] * si


def reference_rotation_then_boost(s0, omega, t, kin):
    """Rodrigues' formula at every sample as (N, 1) x (3,) broadcasts, then the reference boost."""
    axis = omega.omega_vec / omega.magnitude
    theta = omega.magnitude * t
    c, si = np.cos(theta)[:, None], np.sin(theta)[:, None]
    s = s0 * c + np.cross(axis, s0) * si + axis * (axis @ s0) * (1.0 - c)
    return (s, *reference_map_rest_to_pi(s, kin))


#: c in |trajectory_exact - rotation then boost| <= c eps gamma on libm's sinusoids.
#: Both sum terms of size at most 2 with a few roundings each, and the boost scales
#: them by gamma; its cancellation along the motion leaves either side about eps gamma
#: off.  2,000 draws of the two grid tests below gave at most 2.9 eps gamma.  Angle
#: addition adds 2 SINCOS_ROUNDOFF eps gamma max(1, |w t|): each output row is
#: c0 + c1 cos + c2 sin with |c1| + |c2| <= 2 gamma.
ROTATION_ROUNDOFF = 8.0


def assert_exact_rotation_matches_references(s0, omega, t, kin):
    """Bit for bit the coefficient sum, and within the stated roundoff of that sum on
    libm's sinusoids and of the rotation of every sample followed by its boost."""
    traj = trajectory_exact(s0, omega, t, kin)
    got = (traj.s, traj.pi, traj.beta_pi)
    assert traj.t.tobytes() == t.tobytes()
    assert_same_bits(got, reference_trajectory_exact(s0, omega, t, kin))
    c = ROTATION_ROUNDOFF
    if adds_angles(t):
        c += 2.0 * SINCOS_ROUNDOFF * phase_scale(omega.magnitude, t)
    bound = c * np.finfo(float).eps * kin.gamma
    for reference in (
        reference_trajectory_exact(s0, omega, t, kin, libm_sin_cos),
        reference_rotation_then_boost(s0, omega, t, kin),
    ):
        for name, a, b in zip(("s", "pi", "beta_pi"), got, reference):
            assert np.abs(a - b).max() <= bound, name


exact_gammas = st.floats(min_value=1.0001, max_value=1e3)
#: the five orientations seed s0 from their spin axis, as the CLI does; "random" draws it
seeds = st.sampled_from(ORIENTATIONS + ("random",))


def rotation_start(seed, kin, s0, theta, phi):
    if seed == "random":
        return s0
    return seed_classical(superposition(seed, 1, kin, theta, phi).axis, 1, kin)


@settings(max_examples=150, deadline=None)
@given(
    seed=seeds,
    gamma=exact_gammas,
    alpha=alphas,
    s0=unit_vectors,
    periods=st.floats(min_value=0.1, max_value=20.0),
    samples=st.integers(1, 3000),
    theta=alphas,
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_exact_rotation_bit_exact_on_uniform_grids(seed, gamma, alpha, s0, periods, samples, theta, phi):
    kin = kinematics(gamma, alpha)
    s0 = rotation_start(seed, kin, s0, theta, phi)
    omega = omega_vector(kin)
    t = np.linspace(0.0, periods * TWO_PI / omega.magnitude, samples)
    assert_exact_rotation_matches_references(s0, omega, t, kin)


@settings(max_examples=150, deadline=None)
@given(
    seed=seeds,
    gamma=exact_gammas,
    alpha=alphas,
    s0=unit_vectors,
    t0=st.floats(min_value=-1e3, max_value=1e3),
    gaps=st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=0, max_size=300),
    theta=alphas,
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_exact_rotation_bit_exact_on_nonuniform_grids(seed, gamma, alpha, s0, t0, gaps, theta, phi):
    kin = kinematics(gamma, alpha)
    s0 = rotation_start(seed, kin, s0, theta, phi)
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    assume(np.all(np.diff(t) > 0))
    assert_exact_rotation_matches_references(s0, omega_vector(kin), t, kin)


@pytest.mark.parametrize("t", [[0.0], [0.0, 1.0], [-2.0, 0.5, 3.0, 3.1]], ids=str)
def test_exact_rotation_bit_exact_without_precession(t):
    kin, omega, s0 = without_precession()
    assert_exact_rotation_matches_references(s0, omega, np.array(t), kin)
    assert np.all(trajectory_exact(s0, omega, np.array(t), kin).s == s0)


@pytest.mark.parametrize(
    "omega_vec", [[0.0, 0.0, 0.0], [0.0, math.nan, 1.0], [math.inf, 0.0, 0.0]], ids=["zero", "nan", "inf"]
)
def test_precession_vector_refuses_zero_and_nonfinite(omega_vec):
    # no Kinematics gives one (|Omega| >= 1/gamma), so neither rotation has a zero-vector path
    with pytest.raises(ValueError, match="omega_vec must be finite and nonzero"):
        PrecessionVector(np.array(omega_vec))


spin_components = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=150, deadline=None)
@given(
    gamma=exact_gammas,
    alpha=alphas,
    s=st.one_of(
        hnp.arrays(float, 3, elements=spin_components),
        hnp.arrays(float, st.tuples(st.integers(1, 500), st.just(3)), elements=spin_components),
        unit_vectors,
    ),
)
def test_boost_bit_exact_on_vectors_and_stacks(gamma, alpha, s):
    kin = kinematics(gamma, alpha)
    assert_same_bits(map_rest_to_pi(s, kin), reference_map_rest_to_pi(s, kin), ("pi", "beta_pi"))


def _forbidden(*args, **kwargs):
    raise AssertionError("an audit path called into the code it audits")


def test_spinor_path_needs_no_closed_path(monkeypatch):
    kin = kinematics(5.0, 1.1)
    sup = superposition("momentum", 1, kin)
    t = period_grid(kin, 1.0, 16)
    expected = evolve_expectations_spinor(sup, kin, FieldCoupling(1e-3, 1), t)
    monkeypatch.setattr(spinprec.superposition, "closed_form_matrix_elements", _forbidden)
    monkeypatch.setattr(spinprec.superposition, "evolve_expectations", _forbidden)
    hist = evolve_expectations_spinor(sup, kin, FieldCoupling(1e-3, 1), t)
    assert hist.pi_x.tobytes() == expected.pi_x.tobytes()


#: what only eigenstate, the spinor audit and the tests may call
AUDIT_ONLY = ("spin_coefficients", "pi_component_matrix")


def _audit_only(*args, **kwargs):
    raise AssertionError("a production path called audit-only code")


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_cli_paths_need_no_spinor_machinery(orientation, monkeypatch, capsys):
    # the initial state and the classical seed are closed forms of the axis
    for name, module in list(sys.modules.items()):
        if name == "spinprec" or name.startswith("spinprec."):
            for attr in AUDIT_ONLY:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, _audit_only)
    monkeypatch.setattr(np.linalg, "eigh", _audit_only)
    flags = ["--orientation", orientation, "--theta-n-deg", "40", "--phi-n-deg", "110",
             "--periods", "1", "--samples-per-period", "16"]
    for argv in (
        ["precess", "--alpha-deg", "200"],
        ["bmt", "--alpha-deg", "-45"],
        ["bmt", "--alpha-deg", "30", "--method", "rk4"],
        ["compare", "--beta", "0.9", "--alpha-deg", "315"],
        ["sweep", "--sweep", "beta=0.1:0.95:2,alpha=-90:200:3"],
    ):
        assert main(argv + flags) == 0, argv
    capsys.readouterr()


def test_audit_paths_catch_a_phase_fault_in_the_grid_sinusoids(monkeypatch):
    kin = kinematics(5.0, 1.1)
    sup = superposition("custom", 1, kin)
    t = period_grid(kin, 10.0, 1024)  # long enough to add angles
    s0 = seed_classical(sup.axis, 1, kin)
    omega = omega_vector(kin)
    spinor = evolve_expectations_spinor(sup, kin, FieldCoupling(1e-3, 1), t)
    rk4 = integrate(s0, omega, t, kin)
    tol = Tolerances().deviation
    closed = evolve_expectations(sup, kin, FieldCoupling(1e-3, 1), t)
    assert max(np.abs(closed.pi_x - spinor.pi_x).max(), np.abs(closed.pi_y - spinor.pi_y).max()) <= tol
    assert np.abs(trajectory_exact(s0, omega, t, kin).s - rk4.s).max() <= tol

    def shifted(w, t, workspace=None):
        phase = w * t + 1e-6
        return np.sin(phase), np.cos(phase)

    monkeypatch.setattr(spinprec.kinematics, "_sin_cos", shifted)
    assert_same_bits(
        astuple(evolve_expectations_spinor(sup, kin, FieldCoupling(1e-3, 1), t)), astuple(spinor),
        ("t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"),
    )
    assert_same_bits(astuple(integrate(s0, omega, t, kin)), astuple(rk4), ("t", "s", "pi", "beta_pi"))
    # each now fails the repository's deviation tolerance against its audit
    closed = evolve_expectations(sup, kin, FieldCoupling(1e-3, 1), t)
    assert max(np.abs(closed.pi_x - spinor.pi_x).max(), np.abs(closed.pi_y - spinor.pi_y).max()) > tol
    assert np.abs(trajectory_exact(s0, omega, t, kin).s - rk4.s).max() > tol


def test_rk4_path_needs_no_exact_rotation(monkeypatch):
    kin = kinematics(5.0, 1.1)
    s0 = spin_axis(0.4, 2.2)
    t = period_grid(kin, 1.0, 16)
    expected = integrate(s0, omega_vector(kin), t, kin)
    monkeypatch.setattr(spinprec.bmt, "trajectory_exact", _forbidden)
    traj = integrate(s0, omega_vector(kin), t, kin)
    assert traj.s.tobytes() == expected.s.tobytes()
