"""Reference forms and shared hypothesis strategies for the tests; not part of ``spinprec``."""

import math

import numpy as np
from hypothesis import strategies as st

from spinprec import Kinematics, matrix_element, pi_component_matrix, spin_coefficients

#: not up to 1 as --beta: the absolute bounds here suit gamma <= 7; high gamma has its own tests
betas = st.floats(min_value=0.0, max_value=0.99)
#: the whole circle and beyond, as --alpha-deg accepts any finite angle, and a tiny
#: step off the field axis, k pi, where omega_vector's Omega_z once cancelled
alphas = st.one_of(
    st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi),
    st.builds(lambda k, tiny: k * math.pi + tiny, st.integers(-4, 4), st.floats(-1e-3, 1e-3)),
)


def doublet_matrix(n, kin: Kinematics) -> np.ndarray:
    """Spin projection on ``n`` reduced to the {|+>, |->} doublet (2x2 Hermitian)."""
    m = pi_component_matrix(n, kin)
    states = (spin_coefficients(+1, kin), spin_coefficients(-1, kin))
    return np.array(
        [[matrix_element(bi, m, bj) for bj in states] for bi in states]
    )
