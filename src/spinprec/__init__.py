"""Spin precession of a neutral Dirac particle in a uniform magnetic field.

Quantum engine (stationary spin states, superposition dynamics, spin
invariant) plus an independent classical BMT comparator and reporting
tools that measure their agreement.
"""

from .kinematics import (
    FieldCoupling,
    Kinematics,
    SRScales,
    make_coupling,
    make_kinematics,
    motion_axis,
    precession_frequency,
    sr_scales,
)
from .spinors import (
    MatrixElements,
    closed_form_matrix_elements,
    matrix_element,
    pi_component_matrix,
    spin_axis,
    spin_coefficients,
)
from .superposition import (
    PolarizationHistory,
    SpinSuperposition,
    evolve_expectations,
    evolve_expectations_spinor,
    initial_amplitudes_closed,
    initial_amplitudes_general,
)
from .bmt import (
    PrecessionTrajectory,
    PrecessionVector,
    integrate,
    map_pi_to_rest,
    map_rest_to_pi,
    omega_vector,
    trajectory_exact,
)
from .compare import (
    ComparisonReport,
    Tolerances,
    compare,
    extract_frequency,
    period_grid,
    run_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "FieldCoupling",
    "Kinematics",
    "MatrixElements",
    "PolarizationHistory",
    "PrecessionTrajectory",
    "PrecessionVector",
    "SRScales",
    "SpinSuperposition",
    "Tolerances",
    "closed_form_matrix_elements",
    "compare",
    "evolve_expectations",
    "evolve_expectations_spinor",
    "extract_frequency",
    "initial_amplitudes_closed",
    "initial_amplitudes_general",
    "integrate",
    "make_coupling",
    "make_kinematics",
    "map_pi_to_rest",
    "map_rest_to_pi",
    "matrix_element",
    "motion_axis",
    "omega_vector",
    "period_grid",
    "pi_component_matrix",
    "precession_frequency",
    "run_comparison",
    "spin_axis",
    "spin_coefficients",
    "sr_scales",
    "trajectory_exact",
]
