"""The CLI parameter table: flags and config files resolve alike.

Every row of ``spinprec.cli.PARAMS`` is checked on every subcommand that
offers it: a flag and the same value in a ``--config`` file give the same
resolved configuration, and the flag wins when both are given.
"""

import pytest

from spinprec import cli
from spinprec.cli import PARAMS, main


def _values(param, command):
    """Two distinct valid spellings, the first differing from the default."""
    if param.name == "format":
        return cli._FORMATS[command][-1], cli._FORMATS[command][0]
    if param.choices:
        return param.choices[-1], param.choices[0]
    return {
        float: ("0.25", "0.5"),
        int: ("32", "64"),
        cli._cast_sign: ("-1", "1"),
        cli._cast_bool: ("yes", "no"),
        str: ("beta=0:0.5:2", "alpha=0:90:2"),
    }[param.cast]


def _flag(param, value):
    flag = "--" + param.name.replace("_", "-")
    return [flag] if param.cast is cli._cast_bool else [flag, value]


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


@pytest.mark.parametrize("key,value", [("orientation", "w"), ("method", "euler")])
def test_config_file_choices_enforced(key, value, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    assert main(["precess", "--config", str(conf)]) == 2
    assert f"bad value for {key}: must be one of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["precess", "--zeta", "-1"],
        ["compare", "--zeta", "1"],
        ["sweep", "--sweep", "beta=0:0.5:2", "--zeta", "1"],
        ["eigenstate", "--coupling-s", "-5"],
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
