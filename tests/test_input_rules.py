"""Each input rule is refused alike by every entry that applies it.

The rules live in ``spinprec.kinematics``: a branch sign is +1 or -1, an
axis or start spin is a unit 3-vector, and a time grid is 1-d, nonempty,
finite and strictly ascending.
"""

import math
import re
import warnings

import numpy as np
import pytest

from spinprec import (
    FieldCoupling,
    closed_form_matrix_elements,
    doublet_matrix,
    evolve_expectations,
    evolve_expectations_spinor,
    initial_amplitudes_closed,
    initial_amplitudes_general,
    integrate,
    make_coupling,
    make_kinematics,
    omega_vector,
    pi_component_matrix,
    spin_coefficients,
    trajectory_exact,
)
from spinprec import cli
from spinprec.cli import main
from spinprec.compare import seed_classical

KIN = make_kinematics(0.6, 0.7)
OMEGA = omega_vector(KIN)
COUPLING = FieldCoupling(1e-3, 1)
SUP = initial_amplitudes_closed("y", 1, KIN)
E_Y = np.array([0.0, 1.0, 0.0])

VECTOR_ENTRIES = {
    "pi_component_matrix": lambda v: pi_component_matrix(v, KIN),
    "doublet_matrix": lambda v: doublet_matrix(v, KIN),
    "initial_amplitudes_general": lambda v: initial_amplitudes_general(v, 1, KIN),
    "seed_classical": lambda v: seed_classical(v, 1, KIN),
    "trajectory_exact": lambda v: trajectory_exact(v, OMEGA, [0.0, 1.0], KIN),
    "integrate": lambda v: integrate(v, OMEGA, [0.0, 1.0], KIN),
}
NOT_UNIT = {
    "2-vector": ([0.0, 1.0], r"^\w+ must be a 3-vector, got shape \(2,\)$"),
    "length 2": ([0.0, 2.0, 0.0], r"^(\w+) must be a unit vector, \|\1\| = 2\.0$"),
    "length 1 + 1e-10": ([0.0, 1.0 + 1e-10, 0.0], r"^(\w+) must be a unit vector, \|\1\| = "),
}

SIGN_ENTRIES = {
    "spin_coefficients": lambda z: spin_coefficients(z, KIN),
    "closed_form_matrix_elements": lambda z: closed_form_matrix_elements(KIN, z),
    "initial_amplitudes_closed": lambda e: initial_amplitudes_closed("x", e, KIN),
    "initial_amplitudes_general": lambda e: initial_amplitudes_general(E_Y, e, KIN),
    "seed_classical": lambda e: seed_classical(E_Y, e, KIN),
    "make_coupling": lambda z: make_coupling(1e-3, z),
}

GRID_ENTRIES = {
    "trajectory_exact": lambda t: trajectory_exact(E_Y, OMEGA, t, KIN),
    "integrate": lambda t: integrate(E_Y, OMEGA, t, KIN),
    "evolve_expectations": lambda t: evolve_expectations(SUP, KIN, COUPLING, t),
    "evolve_expectations_spinor": lambda t: evolve_expectations_spinor(SUP, KIN, COUPLING, t),
}


@pytest.mark.parametrize("entry", list(VECTOR_ENTRIES))
@pytest.mark.parametrize("case", list(NOT_UNIT))
def test_every_vector_entry_refuses_a_non_unit_vector(entry, case):
    v, message = NOT_UNIT[case]
    with pytest.raises(ValueError, match=message):
        VECTOR_ENTRIES[entry](np.array(v))


@pytest.mark.parametrize("entry", list(SIGN_ENTRIES))
@pytest.mark.parametrize("sign", [0, 2])
def test_every_sign_entry_refuses_other_than_plus_minus_one(entry, sign):
    with pytest.raises(ValueError, match=rf"^(zeta|epsilon) must be \+1 or -1, got {sign}$"):
        SIGN_ENTRIES[entry](sign)


@pytest.mark.parametrize("entry", list(GRID_ENTRIES))
@pytest.mark.parametrize("grid", [[0.0, math.inf], [-math.inf, 0.0, 1.0], [math.nan]])
def test_every_grid_entry_refuses_a_non_finite_grid(entry, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^time grid must be finite$"):
            GRID_ENTRIES[entry](grid)


@pytest.mark.parametrize("entry", list(GRID_ENTRIES))
@pytest.mark.parametrize("grid", [[[0.0, 1.0]], [[0.0], [1.0]]], ids=["row", "column"])
def test_every_grid_entry_refuses_a_grid_that_is_not_1d(entry, grid):
    shape = re.escape(str(np.shape(grid)))
    with pytest.raises(ValueError, match=rf"^time grid must be 1-d, got shape {shape}$"):
        GRID_ENTRIES[entry](grid)


def test_cli_prints_a_warning_as_one_line(capsys, monkeypatch):
    def warns(cfg):
        warnings.warn("the command's own warning", UserWarning)
        return 0

    monkeypatch.setitem(cli._COMMANDS, "scales", (warns, "a command that warns"))
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = main(["scales"])
    assert code == 0
    assert capsys.readouterr().err == "warning: the command's own warning\n"
    assert warnings.showwarning is shown
