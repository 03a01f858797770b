"""Golden-output regression: fixed CLI invocations against recorded bytes.

Each case runs ``spinprec.cli.main`` in-process and compares its exit
code and stdout bytes (and, for ``--output`` cases, the written file)
with ``tests/golden/``.  In an argv, ``{golden}`` stands for that
directory, which also holds the config files, and ``{tmp}`` for a
per-test scratch directory.

An intended change to the recorded output is made by regenerating the
files and explaining the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from spinprec.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

SMALL = ["--periods", "2", "--samples-per-period", "64"]
TINY = ["--periods", "1", "--samples-per-period", "16"]
PHYSICAL = ["--mu", "9.284e-24", "--field", "1.5"]
ORIENTATIONS = ("x", "y", "z", "momentum", "custom")
CUSTOM_AXIS = ["--theta-n-deg", "40", "--phi-n-deg", "110"]


def _orient(name):
    return ["--orientation", name] + (CUSTOM_AXIS if name == "custom" else [])


CASES = {
    # eigenstate: both formats, rest frame, default parameters, bad speed
    "eigenstate_text": ["eigenstate", "--beta", "0.6", "--alpha-deg", "45", "--zeta", "1"],
    "eigenstate_text_explicit": [
        "eigenstate", "--beta", "0", "--alpha-deg", "0", "--format", "text",
    ],
    "eigenstate_json": [
        "eigenstate", "--beta", "0.3", "--alpha-deg", "70", "--zeta", "-1", "--format", "json",
    ],
    "eigenstate_defaults": ["eigenstate"],
    "eigenstate_luminal": ["eigenstate", "--beta", "1.0"],
    # precess: every orientation, both formats, both signs, physical time
    **{
        f"precess_{o}_csv": ["precess", "--beta", "0.77", "--alpha-deg", "33", *_orient(o), *SMALL]
        for o in ORIENTATIONS
    },
    **{
        f"precess_{o}_json": [
            "precess", "--beta", "0.5", "--alpha-deg", "60", *_orient(o), *TINY,
            "--format", "json", "--epsilon", "-1",
        ]
        for o in ORIENTATIONS
    },
    "precess_physical": ["precess", "--beta", "0.2", "--alpha-deg", "80", *TINY, *PHYSICAL],
    "precess_physical_json": [
        "precess", "--beta", "0.2", "--alpha-deg", "80", *TINY, *PHYSICAL, "--format", "json",
    ],
    "precess_config": ["precess", "--config", "{golden}/precess.conf"],
    "precess_config_flags_win": [
        "precess", "--config", "{golden}/precess.conf", "--beta", "0.6", "--orientation", "y",
        "--samples-per-period", "16",
    ],
    "precess_output": ["precess", "--beta", "0.4", *TINY, "--output", "{tmp}/series.csv"],
    "precess_output_json": [
        "precess", "--beta", "0.4", *TINY, "--format", "json", "--output", "{tmp}/series.json",
    ],
    "precess_strict_invariant": ["precess", *TINY, "--tol-invariant", "1e-30"],
    "precess_coarse_grid": ["precess", "--samples-per-period", "4"],
    "precess_physical_no_mu": ["precess", "--field", "1"],
    # bmt: every orientation, both formats, both methods, physical time
    **{
        f"bmt_{o}_csv": ["bmt", "--beta", "0.75", "--alpha-deg", "50", *_orient(o), *SMALL]
        for o in ORIENTATIONS
    },
    **{
        f"bmt_{o}_json": [
            "bmt", "--beta", "0.9", "--alpha-deg", "20", *_orient(o), *TINY,
            "--format", "json", "--epsilon", "-1",
        ]
        for o in ORIENTATIONS
    },
    "bmt_rk4": ["bmt", "--beta", "0.6", "--alpha-deg", "45", *SMALL, "--method", "rk4"],
    "bmt_rk4_json": [
        "bmt", "--orientation", "x", *TINY, "--method", "rk4", "--steps-per-period", "300",
        "--format", "json",
    ],
    "bmt_physical": ["bmt", "--beta", "0.2", "--alpha-deg", "80", *TINY, *PHYSICAL],
    "bmt_physical_json": [
        "bmt", "--beta", "0.2", "--alpha-deg", "80", *TINY, *PHYSICAL, "--format", "json",
    ],
    "bmt_config": ["bmt", "--config", "{golden}/bmt.conf"],
    "bmt_rk4_coarse_steps": ["bmt", "--method", "rk4", "--steps-per-period", "50"],
    # compare: every orientation, both formats, report file in either format,
    # failing tolerance, a grid too short to measure the frequency
    **{
        f"compare_{o}_json": [
            "compare", "--beta", "0.6", "--alpha-deg", "45", *_orient(o), *SMALL,
        ]
        for o in ORIENTATIONS
    },
    **{
        f"compare_{o}_table": [
            "compare", "--beta", "0.95", "--alpha-deg", "100", *_orient(o), *SMALL,
            "--format", "table", "--epsilon", "-1", "--coupling-s", "0.002",
        ]
        for o in ORIENTATIONS
    },
    "compare_output": [
        "compare", "--beta", "0.3", *SMALL, "--output", "{tmp}/report.json",
    ],
    "compare_output_table": [
        "compare", "--beta", "0.3", *SMALL, "--format", "table", "--output", "{tmp}/report.json",
    ],
    "compare_impossible_tolerance": ["compare", *SMALL, "--tol-deviation", "1e-30"],
    "compare_config": ["compare", "--config", "{golden}/compare.conf"],
    "compare_config_flags_win": [
        "compare", "--config", "{golden}/compare.conf", "--format", "json", "--periods", "3",
    ],
    # one period holds two zero crossings, too few to measure a frequency
    "compare_one_period": [
        "compare", "--config", "{golden}/compare.conf", "--format", "json", "--periods", "1",
    ],
    "compare_negative_periods": ["compare", "--periods", "-1"],
    # sweep: every orientation
    **{
        f"sweep_{o}": [
            "sweep", "--sweep", "beta=0.1:0.8:2,alpha=10:170:3", *_orient(o),
            "--periods", "2", "--samples-per-period", "32",
        ]
        for o in ORIENTATIONS
    },
    "sweep_beta_only": ["sweep", "--sweep", "beta=0:0.6:3", *TINY, "--periods", "2"],
    "sweep_failing": [
        "sweep", "--sweep", "alpha=30:60:2", *SMALL, "--tol-frequency", "1e-30",
    ],
    "sweep_output": [
        "sweep", "--sweep", "alpha=0:90:2", *SMALL, "--output", "{tmp}/sweep.csv",
    ],
    "sweep_missing_spec": ["sweep"],
    "sweep_bad_range": ["sweep", "--sweep", "beta=0:0.5"],
    # scales
    "scales": ["scales", "--gamma", "10"],
    "scales_omega0": ["scales", "--gamma", "3.5", "--omega0", "2.25"],
    "scales_config": ["scales", "--config", "{golden}/scales.conf"],
    "scales_output": ["scales", "--gamma", "2", "--output", "{tmp}/scales.json"],
    "scales_missing_gamma": ["scales"],
    "scales_subluminal_gamma": ["scales", "--gamma", "0.5"],
    # config and i/o errors
    "config_missing": ["precess", "--config", "{golden}/absent.conf"],
    "output_unwritable": ["scales", "--gamma", "2", "--output", "{golden}/absent/x.json"],
}


def _expand(argv, tmp):
    return [a.replace("{golden}", str(GOLDEN)).replace("{tmp}", str(tmp)) for a in argv]


def _output_path(argv, tmp):
    """The file an ``--output {tmp}/...`` case writes, if any."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--output" and value.startswith("{tmp}"):
            return Path(_expand([value], tmp)[0])
    return None


def run_case(argv, tmp):
    """(exit code, stdout bytes, written file bytes or None) of one case."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(_expand(argv, tmp))
    target = _output_path(argv, tmp)
    return code, out.getvalue().encode(), None if target is None else target.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    recorded = json.loads(MANIFEST.read_text())[name]
    assert recorded["argv"] == CASES[name], "case changed: regenerate the goldens"
    code, out, written = run_case(CASES[name], tmp_path)
    assert code == recorded["exit"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.file").read_bytes()


def test_manifest_matches_cases():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


def test_golden_directory_holds_only_case_files():
    expected = {f"{name}.out" for name in CASES}
    expected |= {f"{name}.file" for name, argv in CASES.items() if _output_path(argv, GOLDEN)}
    expected |= {f"{name}.conf" for name in ("precess", "bmt", "compare", "scales")}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(expected | {"manifest.json"})


def write_goldens(tmp):
    """Record every case's exit code, stdout and written file."""
    for stale in [*GOLDEN.glob("*.out"), *GOLDEN.glob("*.file")]:
        stale.unlink()
    manifest = {}
    for name, argv in sorted(CASES.items()):
        code, out, written = run_case(argv, tmp)
        manifest[name] = {"argv": argv, "exit": code}
        (GOLDEN / f"{name}.out").write_bytes(out)
        if written is not None:
            (GOLDEN / f"{name}.file").write_bytes(written)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_goldens(Path(scratch))
