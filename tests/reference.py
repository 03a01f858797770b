"""Reference forms the tests check the library against; not part of ``spinprec``."""

import numpy as np

from spinprec import Kinematics, matrix_element, pi_component_matrix, spin_coefficients


def doublet_matrix(n, kin: Kinematics) -> np.ndarray:
    """Spin projection on ``n`` reduced to the {|+>, |->} doublet (2x2 Hermitian)."""
    m = pi_component_matrix(n, kin)
    states = (spin_coefficients(+1, kin), spin_coefficients(-1, kin))
    return np.array(
        [[matrix_element(bi, m, bj) for bj in states] for bi in states]
    )
