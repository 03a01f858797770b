"""The CLI parameter table: flags and config files resolve alike.

Every row of ``spinprec.cli.PARAMS`` is checked on every subcommand that
offers it: a flag and the same value in a ``--config`` file give the same
resolved configuration, and the flag wins when both are given.
"""

import argparse

import pytest

from spinprec import cli
from spinprec.cli import PARAMS, main


def _values(param, command):
    """Two distinct valid spellings, the first differing from the default."""
    if param.name == "format":
        return cli._FORMATS[command][-1], cli._FORMATS[command][0]
    if param.choices:
        return str(param.choices[-1]), str(param.choices[0])
    return {
        float: ("0.25", "0.5"),
        int: ("32", "64"),
        str: ("beta=0:0.5:2", "alpha=0:90:2"),
    }[param.cast]


def _flag(param, value):
    return ["--" + param.name.replace("_", "-"), value]


def _resolve(argv):
    return cli._merge_config(cli.build_parser(argv[0]).parse_args(argv))


ROWS = [(param, command) for param in PARAMS for command in param.commands]


@pytest.mark.parametrize(
    "param,command", ROWS, ids=[f"{command}-{param.name}" for param, command in ROWS]
)
def test_flag_and_config_resolve_alike(param, command, tmp_path):
    wanted, other = _values(param, command)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{param.name} = {wanted}\n")
    from_flag = _resolve([command, *_flag(param, wanted)])
    assert from_flag[param.name] == param.cast(wanted) != param.default
    assert _resolve([command, "--config", str(conf)]) == from_flag

    conf.write_text(f"{param.name} = {other}\n")
    assert _resolve([command, "--config", str(conf), *_flag(param, wanted)]) == from_flag


#: every key a subcommand does not offer, with a value valid where it is offered;
#: the last row is a sweep that once ran at the default beta, ignoring the file's
UNOFFERED = [
    (param, command, _values(param, param.commands[0])[0])
    for param in PARAMS
    for command in cli._COMMANDS
    if command not in param.commands
] + [(cli._BY_NAME["beta"], "sweep", "0.9")]
#: what each subcommand needs to run when its file is accepted
RUNNABLE = {
    "sweep": ["--sweep", "alpha=30:30:1", "--periods", "2", "--samples-per-period", "16"],
    "scales": ["--gamma", "2"],
}


@pytest.mark.parametrize(
    "param,command,value",
    UNOFFERED,
    ids=[f"{command}-{param.name}={value}" for param, command, value in UNOFFERED],
)
def test_config_file_refuses_unoffered_key(param, command, value, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{param.name} = {value}\n")
    assert main([command, "--config", str(conf), *RUNNABLE.get(command, [])]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {conf}:1: {command} does not take {param.name}\n", err


@pytest.mark.parametrize(
    "key,value", [("orientation", "w"), ("method", "euler"), ("format", "xml")]
)
def test_config_file_choices_enforced(key, value, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    assert main(["precess", "--config", str(conf)]) == 2
    assert f"bad value for {key}: must be one of" in capsys.readouterr().err


def test_config_file_format_checked_per_command(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("format = csv\nperiods = 2\nsamples_per_period = 16\n")
    assert main(["compare", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(
        "bad value for format: must be one of json, table\n"
    ), err
    # sweep has no format, so its config file may not set the key
    assert main(["sweep", "--config", str(conf), "--sweep", "beta=0.5:0.5:1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["precess", "--zeta", "-1"],
        ["compare", "--zeta", "1"],
        ["sweep", "--sweep", "beta=0:0.5:2", "--zeta", "1"],
        ["eigenstate", "--coupling-s", "-5"],
        ["precess", "--coupling-s", "0.002"],
        ["bmt", "--coupling-s", "0.002"],
        ["sweep", "--sweep", "beta=0:0.5:2", "--coupling-s", "0.002"],
        ["sweep", "--sweep", "beta=0:0.5:2", "--beta", "0.9"],
        ["sweep", "--sweep", "beta=0:0.5:2", "--alpha-deg", "30"],
        ["precess", "--physical"],
        ["bmt", "--physical"],
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["precess", "bmt"])
def test_removed_physical_key_exits_2(command, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("physical = yes\nmu = 9.284e-24\nfield = 1.5\n")
    assert main([command, "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"config error: {conf}:1: unknown key 'physical'\n"


#: every flag each subcommand offers; a flag added or removed shows up here
INVENTORY = {
    "eigenstate": "--alpha-deg --beta --config --format --help --output --zeta",
    "precess": "--alpha-deg --beta --config --epsilon --field --format --help --mu"
    " --orientation --output --periods --phi-n-deg --samples-per-period"
    " --theta-n-deg --tol-invariant",
    "bmt": "--alpha-deg --beta --config --epsilon --field --format --help --method --mu"
    " --orientation --output --periods --phi-n-deg --samples-per-period"
    " --steps-per-period --theta-n-deg",
    "compare": "--alpha-deg --beta --config --coupling-s --epsilon --format --help"
    " --orientation --output --periods --phi-n-deg --samples-per-period --theta-n-deg"
    " --tol-deviation --tol-frequency --tol-invariant",
    "sweep": "--config --epsilon --help --orientation --output --periods --phi-n-deg"
    " --samples-per-period --sweep --theta-n-deg --tol-deviation --tol-frequency"
    " --tol-invariant",
    "scales": "--config --gamma --help --omega0 --output",
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_flag_inventory(command):
    parser = cli.build_parser(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for a in sub.choices[command]._actions for opt in a.option_strings}
    assert " ".join(sorted(flags - {"-h"})) == INVENTORY[command]


@pytest.mark.parametrize("spelling", [["--theta-n-deg", "-1e1"], ["--theta-n-deg=-1e1"]])
def test_negative_value_in_e_notation(spelling, capsys):
    argv = ["precess", "--orientation", "custom", "--periods", "1", "--samples-per-period", "16"]
    assert main(argv + ["--theta-n-deg", "-10"]) == 0
    plain = capsys.readouterr().out
    assert main(argv + spelling) == 0
    assert capsys.readouterr().out == plain
