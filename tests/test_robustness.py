"""Bad input exits 2 with one line of text, never a traceback.

Exit code 1 stays reserved for a failed physics check.  The fixed list
below pins the non-finite, oversized and negative values that the library
constructors reject; the hypothesis test throws hostile flag values at
every subcommand.
"""

import contextlib
import io
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprec import cli
from spinprec.cli import main

REJECTED = [
    ["precess", "--alpha-deg", "nan"],
    ["precess", "--alpha-deg", "inf"],
    ["eigenstate", "--alpha-deg", "-inf"],
    ["precess", "--periods", "nan"],
    ["bmt", "--periods", "inf"],
    ["compare", "--periods", "nan"],
    ["precess", "--samples-per-period", "1e12"],
    ["precess", "--samples-per-period", "1000000000000"],
    ["compare", "--periods", "1e300"],
    ["scales", "--gamma", "nan"],
    ["scales", "--gamma", "2", "--omega0", "nan"],
    ["scales", "--gamma", "1e300"],
    ["scales", "--gamma", "1e103"],
    ["compare", "--tol-deviation", "nan"],
    ["compare", "--tol-frequency", "-1"],
    ["sweep", "--sweep", "beta=0:0.5:2", "--tol-invariant", "-1e-9"],
    ["precess", "--tol-invariant", "nan"],
    ["precess", "--mu", "nan", "--field", "1"],
    ["bmt", "--mu", "1e-23", "--field", "nan"],
    ["precess", "--mu", "nan", "--field", "-1", "--periods", "1", "--samples-per-period", "16"],
    ["bmt", "--mu", "nan", "--field", "-1", "--periods", "1", "--samples-per-period", "16"],
    ["bmt", "--method", "rk4", "--mu=-1e-23", "--field", "1.5"],
    ["sweep", "--sweep", "beta=0:0.5:100000000000"],
    ["precess", "--orientation", "custom", "--theta-n-deg", "nan"],
    ["precess", "--orientation", "custom", "--phi-n-deg", "inf"],
    ["compare", "--periods", "1e-9"],
    ["compare", "--periods", "0.125", "--samples-per-period", "16"],
    ["sweep", "--sweep", "beta=0.1:0.9:3", "--periods", "1e-5", "--samples-per-period", "16"],
    ["sweep", "--sweep", "beta=0:0.5:2,beta=0.7:0.9:3"],
    ["sweep", "--sweep", "alpha=0:inf:2"],
]


#: values compare's --coupling-s once refused; no output reads the coupling, so
#: the flag is gone and each is refused as an unrecognized argument
REMOVED = [["compare", "--coupling-s", value] for value in ("inf", "-1e-3", "nan")]


#: products that leave the float range, refused before the work they would size
OUT_OF_RANGE = [
    ["precess", "--mu", "1e-300", "--field", "1e-300"],
    ["precess", "--mu", "1e300", "--field", "1e300"],
    ["precess", "--mu", "inf", "--field", "1.5"],
    ["bmt", "--method", "rk4", "--steps-per-period", "1000000000000"],
    ["bmt", "--method", "rk4", "--periods", "30000", "--samples-per-period", "16"],
    ["compare", "--periods", "1000000", "--samples-per-period", "16"],
]


#: values no output reads, still checked: one of --mu and --field without
#: the other, custom-axis angles on the default orientation, an RK4 step
#: density with the exact method
UNREAD = [
    ["precess", "--mu", "9.284e-24"],
    ["precess", "--mu", "inf"],
    ["bmt", "--field", "0"],
    ["precess", "--format", "json", "--field", "nan"],
    ["precess", "--theta-n-deg", "nan"],
    ["bmt", "--phi-n-deg", "inf"],
    ["bmt", "--steps-per-period", "-1", "--periods", "1", "--samples-per-period", "16"],
    ["bmt", "--steps-per-period", "5"],
]


@pytest.mark.parametrize("argv", REJECTED + REMOVED + OUT_OF_RANGE + UNREAD, ids=" ".join)
def test_bad_value_exits_2_with_one_line(argv, capsys):
    # main prints each warning as one stderr line, so a warning ahead of the
    # refusal shows as a second line; "always" keeps one already seen from hiding
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert code == 2
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert elapsed < 1.0, "refused only after the work it should have prevented"


@pytest.mark.parametrize("spec", ["alpha=0:inf:2", "alpha=-1e308:1e308:3"])
def test_sweep_range_refused_before_numpy_warns(spec, capsys):
    # a numpy RuntimeWarning would print two more stderr lines ahead of the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--sweep", spec]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("command", ["precess", "bmt"])
def test_unread_config_mu_exits_2(command, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("mu = -1\nfield = 1.5\n")
    assert main([command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --mu must be finite and > 0"), err
    assert len(err.splitlines()) == 1, err


HOSTILE = ["nan", "-nan", "inf", "-inf", "1e300", "-1", "0", "1.2.3", "", "x", "--"]
#: one small valid value per flag; the grid ones keep every run short
VALID = {
    "beta": "0.5",
    "alpha_deg": "30",
    "zeta": "-1",
    "epsilon": "-1",
    "theta_n_deg": "40",
    "phi_n_deg": "110",
    "periods": "2",
    "samples_per_period": "16",
    "tol_deviation": "1e-8",
    "tol_invariant": "1e-10",
    "tol_frequency": "1e-6",
    "mu": "9.284e-24",
    "field": "1.5",
    "sweep": "beta=0.1:0.5:2",
    "gamma": "10",
    "omega0": "1",
}
#: file-system flags stay out, and --steps-per-period keeps its default:
#: a large RK4 step density under the substep guard is slow, not an error
UNFUZZED = {"output", "steps_per_period"}


def _fuzzed(command):
    return [
        p for p in cli.PARAMS if command in p.commands and p.name not in UNFUZZED
    ]


def _flag_strategy(param, command):
    flag = "--" + param.name.replace("_", "-")
    valid = cli._FORMATS[command] if param.name == "format" else param.choices
    values = st.sampled_from(HOSTILE + (list(map(str, valid)) if valid else [VALID[param.name]]))
    # argparse reads "--flag --" and "--flag=--" differently, so draw both spellings
    return values.map(lambda v: [flag, v]) | values.map(lambda v: [f"{flag}={v}"])


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_never_tracebacks(command, data):
    params = data.draw(st.lists(st.sampled_from(_fuzzed(command)), unique=True, max_size=5))
    argv = [command]
    if command in cli._SERIES:
        argv += ["--periods", "2", "--samples-per-period", "16"]
    if command == "sweep":
        argv += ["--sweep", "beta=0.1:0.5:2"]
    for param in params:
        argv += data.draw(_flag_strategy(param, command))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
