import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinprec import cli
from spinprec.cli import HBAR, main

TESTS = Path(__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_eigenstate_rest_frame(capsys):
    code, out, _ = run(
        capsys, "eigenstate", "--beta", "0", "--alpha-deg", "0", "--zeta", "+1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["residual"] < 1e-12
    assert payload["spinor"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)
    assert payload["eigenvalue"] == pytest.approx(1.0)


def test_eigenstate_moving(capsys):
    code, out, _ = run(
        capsys, "eigenstate", "--beta", "0.6", "--alpha-deg", "45", "--zeta", "-1",
    )
    assert code == 0
    assert "verdict: pass" in out


@pytest.mark.parametrize("zeta", ["1", "-1"])
@pytest.mark.parametrize("alpha_deg", ["-45", "200", "315"])
def test_eigenstate_passes_where_sin_alpha_is_negative(capsys, alpha_deg, zeta):
    # the small spin coefficient keeps the sign of gamma*beta_perp
    code, out, _ = run(capsys, "eigenstate", "--alpha-deg", alpha_deg, "--zeta", zeta)
    assert code == 0
    assert "verdict: pass" in out


HIGH_GAMMA = ("eigenstate", "--beta", "0.999999999", "--alpha-deg", "45")


def test_eigenstate_passes_at_high_gamma(capsys):
    # the residual and the element errors are O(gamma): 7.3e-12 here is 3.3e-16 gamma
    code, out, _ = run(capsys, *HIGH_GAMMA)
    assert code == 0
    assert "verdict: pass" in out


def test_eigenstate_fails_on_a_skewed_closed_form(capsys, monkeypatch):
    exact = cli.closed_form_matrix_elements

    def skewed(kin, zeta):
        me = exact(kin, zeta)
        return type(me)(me.diag * (1.0 + 1e-9), me.cross * (1.0 + 1e-9))

    monkeypatch.setattr(cli, "closed_form_matrix_elements", skewed)
    code, out, _ = run(capsys, *HIGH_GAMMA)
    assert code == 1
    assert "verdict: FAIL" in out


def test_eigenstate_rejects_luminal_speed(capsys):
    code, _, err = run(capsys, "eigenstate", "--beta", "1.0", "--alpha-deg", "0")
    assert code == 2
    assert "beta must be < 1" in err


def test_precess_rest_frame_larmor(capsys):
    code, out, _ = run(
        capsys, "precess", "--beta", "0", "--alpha-deg", "0", "--orientation", "y",
        "--periods", "1", "--samples-per-period", "360",
    )
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"]
    t = data[:, 0]
    assert np.abs(data[:, 2] - np.cos(t)).max() < 1e-10
    assert np.abs(data[:, 5] - 1.0).max() < 1e-10


def test_precess_z_is_constant(capsys):
    code, out, _ = run(
        capsys, "precess", "--beta", "0.6", "--alpha-deg", "45", "--orientation", "z",
        "--periods", "2", "--samples-per-period", "64",
    )
    assert code == 0
    _, data = parse_csv(out)
    for col in range(1, 5):
        assert np.ptp(data[:, col]) < 1e-12


def test_precess_momentum_initial_helicity(capsys):
    code, out, _ = run(
        capsys, "precess", "--beta", "0.6", "--alpha-deg", "45",
        "--orientation", "momentum", "--periods", "1", "--samples-per-period", "16",
    )
    assert code == 0
    _, data = parse_csv(out)
    assert data[0, 4] == pytest.approx(0.6, abs=1e-12)


def test_precess_json_format(capsys):
    code, out, _ = run(
        capsys, "precess", "--beta", "0.3", "--alpha-deg", "30", "--orientation", "y",
        "--periods", "1", "--samples-per-period", "16", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"}
    assert len(payload["t"]) == 17


def test_precess_custom_orientation(capsys):
    code, out, _ = run(
        capsys, "precess", "--beta", "0.5", "--alpha-deg", "60",
        "--orientation", "custom", "--theta-n-deg", "40", "--phi-n-deg", "110",
        "--periods", "1", "--samples-per-period", "32",
    )
    assert code == 0
    _, data = parse_csv(out)
    assert np.abs(data[:, 5] - 1.0).max() < 1e-10


def test_precess_output_deterministic(capsys):
    argv = [
        "precess", "--beta", "0.77", "--alpha-deg", "33", "--orientation", "x",
        "--periods", "2", "--samples-per-period", "64",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_precess_physical_time(capsys):
    mu, field = 9.284e-24, 1.5
    code, out, _ = run(
        capsys, "precess", "--beta", "0", "--alpha-deg", "0", "--orientation", "y",
        "--periods", "1", "--samples-per-period", "16", "--mu", str(mu), "--field", str(field),
    )
    assert code == 0
    _, data = parse_csv(out)
    expected_step = (2 * math.pi / 16) * HBAR / (2 * mu * field)
    assert data[1, 0] == pytest.approx(expected_step, rel=1e-12)


def test_physical_requires_mu_and_field(capsys):
    # each alone exits 2 with one line that names the other
    for command, given, missing in [("precess", "--field", "mu"), ("bmt", "--mu", "field")]:
        code, out, err = run(capsys, command, "--beta", "0", given, "1e-23")
        assert (code, out) == (2, "")
        assert err == f"config error: time in seconds needs --mu and --field; --{missing} is missing\n"


def test_precess_default_grid(capsys):
    code, out, _ = run(capsys, "precess")
    assert code == 0
    # a header, then 10 periods of 1024 samples and the closing t of the last period
    assert len(out.splitlines()) == 1 + 10 * 1024 + 1


def test_invalid_samples(capsys):
    code, _, err = run(
        capsys, "precess", "--beta", "0.5", "--samples-per-period", "4",
    )
    assert code == 2
    assert "samples-per-period" in err


def test_bmt_exact_header_and_norm(capsys):
    code, out, _ = run(
        capsys, "bmt", "--beta", "0.6", "--alpha-deg", "45", "--orientation", "y",
        "--periods", "1", "--samples-per-period", "32",
    )
    assert code == 0
    header, data = parse_csv(out)
    assert header == [
        "t", "bmt_s_x", "bmt_s_y", "bmt_s_z",
        "bmt_pi_x", "bmt_pi_y", "bmt_pi_z", "bmt_beta_pi",
    ]
    norms = np.linalg.norm(data[:, 1:4], axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_bmt_rk4_method(capsys):
    code, out, _ = run(
        capsys, "bmt", "--beta", "0.6", "--alpha-deg", "45", "--orientation", "z",
        "--periods", "1", "--samples-per-period", "16", "--method", "rk4",
    )
    assert code == 0


def test_bmt_matches_precess_columns(capsys):
    # both commands must describe the same initial state, x is the
    # orientation where a naive axis-aligned classical seed diverges
    common = [
        "--beta", "0.75", "--alpha-deg", "50", "--orientation", "x",
        "--periods", "2", "--samples-per-period", "64",
    ]
    code_q, out_q, _ = run(capsys, "precess", *common)
    code_c, out_c, _ = run(capsys, "bmt", *common)
    assert code_q == 0 and code_c == 0
    _, q = parse_csv(out_q)
    _, c = parse_csv(out_c)
    assert np.abs(q[:, 1:5] - c[:, 4:8]).max() < 1e-10


def _amplitudes_built(*args, **kwargs):
    raise AssertionError("bmt built quantum amplitudes")


def test_bmt_seeds_from_the_axis_without_quantum_amplitudes(monkeypatch, capsys):
    common = ["--beta", "0.75", "--alpha-deg", "200", "--theta-n-deg", "40", "--phi-n-deg", "110",
              "--periods", "1", "--samples-per-period", "16", "--epsilon", "-1"]
    orientations = ("x", "y", "z", "momentum", "custom")
    expected = [run(capsys, "bmt", *common, "--orientation", o) for o in orientations]
    for name in ("initial_amplitudes_closed", "initial_amplitudes_general"):
        monkeypatch.setattr(cli, name, _amplitudes_built)
    for o, before in zip(orientations, expected):
        assert run(capsys, "bmt", *common, "--orientation", o) == before, o
    assert {code for code, _, _ in expected} == {0}


@pytest.mark.parametrize("command", ["compare", "sweep"])
@pytest.mark.parametrize(("periods", "samples"), [("0.05", 2), ("0.1", 3)])
def test_comparison_grid_under_four_samples_names_the_flags(command, periods, samples, capsys):
    argv = [command, "--periods", periods, "--samples-per-period", "16"]
    code, out, err = run(capsys, *argv, *(["--sweep", "beta=0.1:0.5:2"] if command == "sweep" else []))
    assert (code, out) == (2, "")
    assert err == (
        f"config error: {periods} periods x 16 samples-per-period gives a {samples}-sample grid; "
        "a comparison needs at least 4\n"
    )


def test_comparison_runs_on_four_samples(capsys):
    code, out, _ = run(capsys, "compare", "--periods", "0.17", "--samples-per-period", "16")
    assert code == 0 and json.loads(out)["pass"] is True


def test_bmt_rejects_coarse_rk4(capsys):
    code, _, err = run(
        capsys, "bmt", "--beta", "0.6", "--alpha-deg", "45", "--method", "rk4",
        "--steps-per-period", "50",
    )
    assert code == 2
    assert "steps_per_period" in err


def test_compare_pass(capsys):
    code, out, _ = run(
        capsys, "compare", "--beta", "0.6", "--alpha-deg", "45", "--orientation", "y",
        "--periods", "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["extracted_frequency"] == pytest.approx(
        payload["frequency_formula"], rel=1e-6
    )


def test_compare_stationary_no_oscillation(capsys):
    code, out, _ = run(
        capsys, "compare", "--beta", "0.6", "--alpha-deg", "45", "--orientation", "z",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extracted_frequency"] is None


def test_compare_table_format(capsys):
    code, out, _ = run(
        capsys, "compare", "--beta", "0.6", "--alpha-deg", "45", "--format", "table",
    )
    assert code == 0
    assert "verdict" in out


def test_compare_fails_with_impossible_tolerance(capsys):
    code, out, _ = run(
        capsys, "compare", "--beta", "0.6", "--alpha-deg", "45",
        "--tol-deviation", "1e-30",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False


def test_sweep_summary(capsys):
    code, out, _ = run(
        capsys, "sweep", "--sweep", "beta=0:0.6:2,alpha=0:90:2",
        "--periods", "4", "--orientation", "y",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("beta,alpha_deg,orientation")
    assert len(lines) == 5
    assert all(ln.endswith(",true") for ln in lines[1:])


def test_sweep_fixed_axis_matches_compare(capsys):
    grid = ["--periods", "4", "--orientation", "x"]
    code, out, _ = run(capsys, "sweep", "--sweep", "beta=0.9:0.9:1,alpha=30:30:1", *grid)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    code, out, _ = run(capsys, "compare", "--beta", "0.9", "--alpha-deg", "30", *grid)
    assert code == 0
    report = json.loads(out)
    assert row[:2] == ["0.90000000000000002", "30"]
    assert float(row[3]) == max(report["max_abs_deviation"].values())


def test_sweep_requires_spec(capsys):
    code, _, err = run(capsys, "sweep")
    assert code == 2
    assert "--sweep" in err


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--sweep", "beta=0:0.5")
    assert code == 2


def test_scales(capsys):
    code, out, _ = run(capsys, "scales", "--gamma", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["omega_max"] == 1000.0
    assert payload["time_ratio"] == pytest.approx(2 * math.pi * 1e-4, rel=1e-15)


def test_scales_requires_gamma(capsys):
    code, _, err = run(capsys, "scales")
    assert code == 2
    assert "gamma" in err


def test_config_file_and_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "beta = 0.3\nalpha_deg = 30  # comment\norientation = z\n"
        "samples_per_period = 64\n"
    )
    code, out, _ = run(
        capsys, "precess", "--config", str(conf), "--periods", "1",
    )
    assert code == 0
    _, data = parse_csv(out)
    assert np.ptp(data[:, 3]) < 1e-12  # z orientation from file: constant pi_z

    code, out, _ = run(
        capsys, "precess", "--config", str(conf), "--periods", "1",
        "--beta", "0.6", "--orientation", "y", "--samples-per-period", "16",
    )
    assert code == 0
    _, data = parse_csv(out)
    # flag beat the file: gamma of beta=0.6 shows up in pi_y
    assert data[0, 2] == pytest.approx(1.25, abs=1e-12)


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("nope = 1\n")
    code, _, err = run(capsys, "precess", "--config", str(conf))
    assert code == 2
    assert "unknown key" in err


def test_config_file_missing(capsys):
    code, _, err = run(capsys, "precess", "--config", "/nonexistent/run.conf")
    assert code == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run(
        capsys, "precess", "--beta", "0.4", "--alpha-deg", "10", "--periods", "1",
        "--samples-per-period", "16", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    header, data = parse_csv(target.read_text())
    assert header[0] == "t"
    assert data.shape == (17, 6)


def test_output_unwritable(capsys):
    code, _, err = run(
        capsys, "scales", "--gamma", "2", "--output", "/nonexistent/dir/x.json",
    )
    assert code == 3
    assert "i/o error" in err


#: the command word missing, unknown, or not the first argument, and the error naming it
TOP_LEVEL_ERRORS = {
    "none": ([], "no command"),
    "unknown": (["frobnicate"], "the first argument must be a command, not 'frobnicate'"),
    "flag-first": (["--beta", "1", "precess"], "the first argument must be a command, not '--beta'"),
    "after-dashes": (["--", "scales"], "the first argument must be a command, not '--'"),
}


@pytest.mark.parametrize(("argv", "message"), TOP_LEVEL_ERRORS.values(), ids=TOP_LEVEL_ERRORS)
def test_top_level_usage_error(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"spinprec: error: {message}\n"


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0
    for name, (_, summary) in cli._COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(summary)}$", out, re.M), name


def test_one_parser_per_call(monkeypatch, capsys):
    """argparse builds a command's parser once; each call, help and refusals too, parses a copy."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._template.cache_clear()
    for argv, code in [
        (["scales", "--gamma", "2"], 0),
        (["scales", "--gamma=2", "--omega0", "3"], 0),
        (["scales", "--gamma", "2", "-h"], 0),
        (["scales", "--gamma", "2", "--gam", "2"], 2),
        (["scales", "--gamma", "two"], 2),
    ]:
        assert main(argv) == code, argv
    assert built == ["spinprec scales"]


def test_parser_copies_keep_their_own_attributes():
    first = cli.build_parser("precess")
    first.parse_args = None  # as a caller that wraps the method of the parser it got
    second = cli.build_parser("precess")
    assert second is not first
    assert second.parse_args(["--beta", "0.5"]).beta == 0.5
    assert second.parse_args([]).beta is None


#: argparse's refusals, printed the same on every Python the package supports
REFUSALS = [
    (["precess", "--beta", "x"], "argument --beta: invalid float value: 'x'"),
    (["precess", "--beta"], "argument --beta: expected one argument"),
    (["precess", "--output", "--beta", "1"], "argument --output: expected one argument"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_argparse_refusal_bytes(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"spinprec {argv[0]}: error: {message}\n")


def test_invalid_choice_refusal(capsys):
    """Newer argparse releases print the choices without quotes; the rest is fixed."""
    assert main(["precess", "--orientation", "w"]) == 2
    out, err = capsys.readouterr()
    head = "spinprec precess: error: argument --orientation: invalid choice: 'w' (choose from "
    assert out == "" and err.startswith(head) and err.endswith(")\n") and err.count("\n") == 1
    listed = err[len(head) : -2].split(", ")
    assert [c.strip("'") for c in listed] == ["x", "y", "z", "momentum", "custom"]


def test_help_after_valid_flags(capsys):
    assert main(["precess", "--beta", "0.5", "--alpha-deg=30", "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: spinprec precess [-h]") and err == ""


def test_module_entry_point():
    """``python -m spinprec.cli`` runs main and exits with its code."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))

    def spinprec(*argv):
        return subprocess.run(
            [sys.executable, "-m", "spinprec.cli", *argv], capture_output=True, env=env, timeout=120
        )

    ok = spinprec("scales", "--gamma", "10")
    assert (ok.returncode, ok.stderr) == (0, b"")
    assert ok.stdout == (TESTS / "golden" / "scales.out").read_bytes()
    bad = spinprec("--", "scales")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr == b"spinprec: error: the first argument must be a command, not '--'\n"


def test_bad_flag_value(capsys):
    assert main(["precess", "--beta", "not-a-number"]) == 2
