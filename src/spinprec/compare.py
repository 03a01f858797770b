"""Quantum vs classical agreement metrics and audit reports.

The quantum engine and the classical comparator produce series on a
shared grid; this module measures their componentwise deviation, checks
invariant conservation, extracts the oscillation frequency from the data
by zero crossings, and bundles everything into a serializable report.

The frequency is always extracted from the classical series so that a
fault injected into the comparator (a wrong precession vector, say)
shows up as a frequency mismatch instead of silently cancelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bmt import PrecessionTrajectory, omega_vector, trajectory_exact, map_pi_to_rest
from .kinematics import TWO_PI, FieldCoupling, Kinematics, precession_frequency
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
    """Audit record of one quantum/classical run pair.

    ``extracted_frequency`` is None for constant series (the stationary
    orientation has no oscillation to measure).
    """

    max_abs_deviation: dict
    extracted_frequency: float | None
    frequency_formula: float | None
    invariant_max_error: float
    passed: bool
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "max_abs_deviation": dict(self.max_abs_deviation),
            "extracted_frequency": self.extracted_frequency,
            "frequency_formula": self.frequency_formula,
            "invariant_max_error": self.invariant_max_error,
            "pass": self.passed,
            "params": dict(self.params),
        }


def extract_frequency(t, series) -> float | None:
    """Angular frequency from linear-interpolated zero crossings.

    The series is mean-subtracted first; the period is twice the mean gap
    between successive crossings.  Returns None when the series has no
    oscillation to measure.  Raises ValueError when it oscillates but the
    span covers fewer than two crossings.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(series, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and series must be 1-d arrays of equal length")
    y = y - y.mean()
    scale = max(1.0, float(np.abs(series).max()))
    if float(np.abs(y).max()) < OSCILLATION_FLOOR * scale:
        return None
    idx = np.nonzero(np.diff(np.signbit(y)))[0]
    crossings = []
    for i in idx:
        dy = y[i + 1] - y[i]
        if dy == 0.0:
            continue
        crossings.append(t[i] - y[i] * (t[i + 1] - t[i]) / dy)
    if len(crossings) < 2:
        raise ValueError("series must span at least two zero crossings")
    if len(crossings) >= 3:
        # a leftover baseline offset shifts alternate crossings in opposite
        # directions; spanning an even number of half-periods cancels it
        last = len(crossings) - 1
        if last % 2 == 1:
            last -= 1
        period = (crossings[last] - crossings[0]) / (last // 2)
    else:
        period = 2.0 * (crossings[1] - crossings[0])
    return float(TWO_PI / period)


def _classical_frequency(classical: PrecessionTrajectory) -> float | None:
    """Frequency of the most strongly oscillating classical component."""
    candidates = [
        classical.pi[:, 0],
        classical.pi[:, 1],
        classical.pi[:, 2],
        classical.beta_pi,
    ]
    spans = [float(np.ptp(c)) for c in candidates]
    return extract_frequency(classical.t, candidates[int(np.argmax(spans))])


def compare(
    quantum: PolarizationHistory,
    classical: PrecessionTrajectory,
    tolerances: Tolerances | None = None,
    frequency_formula: float | None = None,
    params: dict | None = None,
) -> ComparisonReport:
    """Componentwise deviation, invariant drift and frequency check.

    Both inputs must share one time grid; anything else is a structural
    error, not a physics failure.
    """
    tol = tolerances or Tolerances()
    if quantum.t.shape != classical.t.shape or not np.array_equal(
        quantum.t, classical.t
    ):
        raise ValueError("quantum and classical series must share one time grid")
    dev = {
        "pi_x": float(np.abs(quantum.pi_x - classical.pi[:, 0]).max()),
        "pi_y": float(np.abs(quantum.pi_y - classical.pi[:, 1]).max()),
        "pi_z": float(np.abs(quantum.pi_z - classical.pi[:, 2]).max()),
        "beta_pi": float(np.abs(quantum.beta_pi - classical.beta_pi).max()),
    }
    inv_err = float(np.abs(quantum.invariant - 1.0).max())
    extracted = _classical_frequency(classical)
    freq_ok = True
    if extracted is not None and frequency_formula is not None:
        freq_ok = (
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
        params=dict(params or {}),
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


def seed_classical(history: PolarizationHistory, kin: Kinematics) -> np.ndarray:
    """Unit rest-frame spin matching the polarization of a history's first sample."""
    pi0 = np.array([history.pi_x[0], history.pi_y[0], history.pi_z[0]])
    s0 = map_pi_to_rest(pi0, kin)
    return s0 / np.linalg.norm(s0)


def run_comparison(
    sup: SpinSuperposition,
    kin: Kinematics,
    coupling: FieldCoupling,
    periods: float = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    tolerances: Tolerances | None = None,
    orientation: str = "custom",
) -> tuple[ComparisonReport, PolarizationHistory, PrecessionTrajectory]:
    """Full pipeline: evolve both sides on one grid and compare them.

    The classical side starts from the rest-frame image of the quantum
    t = 0 polarization and follows the exact rotation.
    """
    t = period_grid(kin, periods, samples_per_period)
    quantum = evolve_expectations(sup, kin, coupling, t)
    classical = trajectory_exact(seed_classical(quantum, kin), omega_vector(kin), t, kin)
    params = {
        "beta": kin.beta,
        "alpha": kin.alpha,
        "s": coupling.s,
        "epsilon": sup.epsilon,
        "orientation": orientation,
        "periods": periods,
        "samples_per_period": samples_per_period,
    }
    report = compare(
        quantum,
        classical,
        tolerances,
        frequency_formula=precession_frequency(kin),
        params=params,
    )
    return report, quantum, classical


def format_report(report: ComparisonReport) -> str:
    """Human-readable table for terminal output."""
    lines = ["comparison report", "-----------------"]
    for key, val in report.params.items():
        lines.append(f"  {key:>20}: {val}")
    for comp in _COMPONENTS:
        lines.append(f"  {'max |d ' + comp + '|':>20}: {report.max_abs_deviation[comp]:.3e}")
    lines.append(f"  {'max |I - 1|':>20}: {report.invariant_max_error:.3e}")
    if report.extracted_frequency is None:
        lines.append(f"  {'frequency':>20}: no oscillation")
    else:
        lines.append(f"  {'frequency (data)':>20}: {report.extracted_frequency:.12g}")
    if report.frequency_formula is not None:
        lines.append(f"  {'frequency (formula)':>20}: {report.frequency_formula:.12g}")
    lines.append(f"  {'verdict':>20}: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)
