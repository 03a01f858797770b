"""Quantum vs classical agreement metrics and audit reports.

The quantum engine and the classical comparator produce series on a
shared grid; this module measures their componentwise deviation, checks
invariant conservation, fits the oscillation frequency to the data, and
records the results in one report.

The frequency is always extracted from the classical series so that a
fault injected into the comparator (a wrong precession vector, say)
shows up as a frequency mismatch instead of silently cancelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bmt import PrecessionTrajectory, omega_vector, trajectory_exact
from .kinematics import (
    TWO_PI, FieldCoupling, Kinematics, _held, _Workspace, check_sign, check_time_grid, check_unit,
    precession_frequency,
)
from .superposition import PolarizationHistory, SpinSuperposition, evolve_expectations

#: relative amplitude below which a series counts as constant (no oscillation)
OSCILLATION_FLOOR = 1e-9
#: default span and density of a comparison grid
DEFAULT_PERIODS = 10.0
DEFAULT_SAMPLES_PER_PERIOD = 1024
#: coarsest grid density :func:`period_grid` accepts
MIN_SAMPLES_PER_PERIOD = 16
#: largest grid :func:`period_grid` builds, so a typo cannot exhaust memory
MAX_SAMPLES = 10**7
#: fewest samples :func:`extract_frequency` fits, so the fewest a comparison runs on
MIN_FIT_SAMPLES = 4

_COMPONENTS = ("pi_x", "pi_y", "pi_z", "beta_pi")


@dataclass(frozen=True)
class Tolerances:
    """Pass thresholds; defaults are the repository-wide acceptance values."""

    deviation: float = 1e-8
    invariant: float = 1e-10
    frequency_rel: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 0.0:
                raise ValueError(f"tolerance {f.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ComparisonReport:
    """Results of one quantum/classical run pair.

    ``max_abs_deviation`` maps each compared component, in the order
    pi_x, pi_y, pi_z, beta_pi, to its largest deviation.
    ``extracted_frequency`` is None for constant series (the stationary
    orientation has no oscillation to measure).
    """

    max_abs_deviation: dict
    extracted_frequency: float | None
    frequency_formula: float
    invariant_max_error: float
    passed: bool


def extract_frequency(t, series, *, workspace: _Workspace | None = None) -> float | None:
    """Angular frequency of a sampled sinusoid on a uniform grid, or None.

    Fits ``d[n+k] + d[n-k] = 2 cos(w k dt) d[n]`` (Prony's linear prediction)
    by least squares to the offset-free differences ``d[n] = y[n+k] - y[n]``.
    None means no oscillation.  Raises ValueError for a nonuniform grid or a bad series.
    With the workspace of a comparison and its grid, the grid is not checked
    again (its workspace checked it, and ``period_grid`` built it uniform) and
    the work rows are the workspace's.
    """
    workspace = _held(workspace, t)
    t = np.asarray(t, dtype=float)
    y = np.asarray(series, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"t and series must be 1-d arrays of one length >= {MIN_FIT_SAMPLES}, "
            f"got {t.shape} and {y.shape}"
        )
    n = t.size
    if workspace is None:
        check_time_grid(t)
        # linspace puts each sample within half an ulp of the largest |t|, an
        # end, so its intervals spread by about two such ulps at any length
        if not np.ptp(np.diff(t)) <= 4.0 * np.finfo(float).eps * max(-t[0], t[-1]):
            raise ValueError("t must be a uniform grid")
        work, signs = np.empty((2, n)), np.empty((2, n), dtype=bool)
    else:
        work, signs = workspace.scratch[:2, :n], workspace.signs
    dt = (t[-1] - t[0]) / (n - 1)
    lo, hi = float(y.min()), float(y.max())  # NaN in y makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("series must be finite")
    centred = np.subtract(y, y.mean(), out=work[0])
    scale = max(1.0, -lo, hi)
    if max(float(centred.max()), -float(centred.min())) < OSCILLATION_FLOOR * scale:
        return None
    # two sign changes per period: k is about a quarter period, so w k dt < pi
    np.signbit(centred, out=signs[0])
    changes = int(np.count_nonzero(np.not_equal(signs[0, 1:], signs[0, :-1], out=signs[1, 1:])))
    k = max(1, min(n // max(2 * changes, 1), (n - 1) // 3))
    d = np.subtract(y[k:], y[:-k], out=work[1, k:])
    # elementwise sums, not a BLAS dot, whose bits vary with the CPU kernel
    prod = np.add(d[2 * k :], d[: -2 * k], out=work[0, : n - 3 * k])
    num = float(np.sum(np.multiply(prod, d[k:-k], out=prod)))
    den = 2.0 * float(np.sum(np.multiply(d[k:-k], d[k:-k], out=prod)))
    if not (den > 0.0 and abs(num) <= den):
        raise ValueError("series fits no sinusoid")
    return math.acos(num / den) / (k * dt)


def compare(
    quantum: PolarizationHistory,
    classical: PrecessionTrajectory,
    tolerances: Tolerances | None = None,
    *,
    frequency_formula: float,
    workspace: _Workspace | None = None,
) -> ComparisonReport:
    """Componentwise deviation, invariant drift and frequency check.

    Both inputs must share one time grid; anything else is a structural
    error, not a physics failure.  The classical series that oscillates
    most must run at ``frequency_formula``.  With the workspace of a
    comparison and its grid the work rows are the workspace's.
    """
    tol = tolerances or Tolerances()
    if quantum.t is not classical.t and not np.array_equal(quantum.t, classical.t):
        raise ValueError("quantum and classical series must share one time grid")
    series = (*classical.pi.T, classical.beta_pi)
    held = _held(workspace, classical.t)
    # one scratch row for every difference below
    buf = np.empty(quantum.t.shape) if held is None else held.scratch[0, : quantum.t.size]
    dev = {}
    for k, c in zip(_COMPONENTS, series):
        np.subtract(getattr(quantum, k), c, out=buf)
        dev[k] = float(np.abs(buf, out=buf).max())
    inv_err = quantum.invariant_error
    spans = [float(c.max() - c.min()) for c in series]  # np.ptp, without its wrapper
    extracted = extract_frequency(classical.t, series[int(np.argmax(spans))], workspace=workspace)
    freq_ok = extracted is None or (
        abs(extracted - frequency_formula) <= tol.frequency_rel * abs(frequency_formula)
    )
    passed = bool(
        all(dev[k] <= tol.deviation for k in _COMPONENTS)
        and inv_err <= tol.invariant
        and freq_ok
    )
    return ComparisonReport(
        max_abs_deviation=dev,
        extracted_frequency=extracted,
        frequency_formula=frequency_formula,
        invariant_max_error=inv_err,
        passed=passed,
    )


def period_grid(
    kin: Kinematics, periods: float, samples_per_period: int
) -> np.ndarray:
    """Uniform grid covering ``periods`` precession periods from t = 0.

    Raises ValueError unless ``periods`` is finite and positive and the grid
    has :data:`MIN_SAMPLES_PER_PERIOD` per period, and two samples to
    :data:`MAX_SAMPLES` in all.
    """
    if not 0.0 < periods < math.inf:
        raise ValueError(f"periods must be finite and > 0, got {periods}")
    if samples_per_period < MIN_SAMPLES_PER_PERIOD:
        raise ValueError(
            f"samples-per-period must be >= {MIN_SAMPLES_PER_PERIOD}, got {samples_per_period}"
        )
    if samples_per_period > MAX_SAMPLES or periods * samples_per_period > MAX_SAMPLES:
        raise ValueError(
            f"{periods:g} periods x {samples_per_period} samples-per-period exceeds "
            f"the {MAX_SAMPLES}-sample grid limit"
        )
    n = int(round(periods * samples_per_period))
    if n < 1:
        # one sample at t = 0 holds no oscillation, so every check would pass vacuously
        raise ValueError(
            f"{periods:g} periods x {samples_per_period} samples-per-period gives a one-sample grid"
        )
    return np.linspace(0.0, periods * TWO_PI / precession_frequency(kin), n + 1)


def seed_classical(n, epsilon: int, kin: Kinematics) -> np.ndarray:
    """Rest-frame spin of the epsilon eigenstate of Pi . n, from the axis alone.

    s0 = epsilon * unit(n + (gamma - 1) * bhat x (n x bhat)), with bhat the
    motion axis: n with its part across bhat stretched by gamma.  With
    d = n_z sin(alpha) - n_x cos(alpha), exactly 0 on bhat, the double cross
    is (-d cos(alpha), n_y, d sin(alpha)).
    """
    check_sign("epsilon", epsilon)
    nx, ny, nz = check_unit(n, "n").tolist()
    sin, cos = math.sin(kin.alpha), math.cos(kin.alpha)
    d = (kin.gamma - 1.0) * (nz * sin - nx * cos)
    s = (nx - d * cos, kin.gamma * ny, nz + d * sin)
    return np.array(s) * (epsilon / math.hypot(*s))


def run_comparison(
    sup: SpinSuperposition,
    kin: Kinematics,
    coupling: FieldCoupling,
    periods: float = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    tolerances: Tolerances | None = None,
    workspace: _Workspace | None = None,
) -> tuple[ComparisonReport, PolarizationHistory, PrecessionTrajectory]:
    """Full pipeline: evolve both sides on one grid and compare them.

    The classical side starts from :func:`seed_classical` on the axis and
    sign of ``sup``, not from its amplitudes, and follows the exact rotation;
    its trajectory carries ``pi`` and ``beta_pi``, the rows compared, and no
    ``s``.  The grid is built by :func:`period_grid` and checked once, when a
    workspace takes it; it is returned read-only.  Without ``workspace`` each
    call fills a fresh one, so the arrays returned are the caller's; with one,
    they are its rows and the next comparison on it overwrites them.
    Raises ValueError unless the grid holds :data:`MIN_FIT_SAMPLES` samples.
    """
    t = period_grid(kin, periods, samples_per_period)
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"{periods:g} periods x {samples_per_period} samples-per-period gives a "
            f"{t.size}-sample grid; a comparison needs at least {MIN_FIT_SAMPLES}"
        )
    workspace = _Workspace() if workspace is None else workspace
    workspace.hold(t)
    quantum = evolve_expectations(sup, kin, coupling, t, workspace=workspace)
    s0 = seed_classical(sup.axis, sup.epsilon, kin)
    classical = trajectory_exact(s0, omega_vector(kin), t, kin, workspace=workspace)
    report = compare(
        quantum, classical, tolerances, frequency_formula=precession_frequency(kin), workspace=workspace
    )
    return report, quantum, classical

