"""The public names of ``spinprec``; a name added or removed shows up here."""

import spinprec

API = (
    "ComparisonReport FieldCoupling Kinematics MatrixElements PolarizationHistory"
    " PrecessionTrajectory PrecessionVector SRScales SpinSuperposition"
    " Tolerances closed_form_matrix_elements compare doublet_matrix"
    " evolve_expectations evolve_expectations_spinor extract_frequency"
    " initial_amplitudes_closed initial_amplitudes_general integrate"
    " make_coupling make_kinematics map_pi_to_rest map_rest_to_pi matrix_element"
    " motion_axis omega_vector period_grid pi_component_matrix precession_frequency"
    " run_comparison spin_axis spin_coefficients sr_scales trajectory_exact"
)


def test_public_api_inventory():
    assert len(set(spinprec.__all__)) == len(spinprec.__all__)
    assert " ".join(sorted(spinprec.__all__)) == API
    for name in spinprec.__all__:
        assert getattr(spinprec, name).__module__.startswith("spinprec."), name
