"""Golden-output regression: fixed CLI invocations against recorded bytes.

Each case runs ``spinprec.cli.main`` in-process and compares its exit
code, stdout and stderr bytes (and, for ``--output`` cases, the written
file) with ``tests/golden/``.  In an argv, ``{golden}`` stands for that
directory, which also holds the config files, and ``{tmp}`` for a
per-test scratch directory; stderr is recorded with both paths written
back as those placeholders.

An intended change to the recorded output is made by regenerating the
files and explaining the change in CHANGES.md.  Regeneration runs every
case twice, in opposite orders and scratch directories, and refuses to
write output that differs between the two runs.  It prints one line for
each case whose recorded output changes: the lines changed, the largest
difference between the numbers on them, and any change of exit code:

    PYTHONPATH=src python tests/test_golden.py

The recorded bytes must not depend on numpy's SIMD dispatch: one test
reruns every case in a subprocess with each dispatch target above numpy's
baseline that this CPU runs switched off (``NPY_DISABLE_CPU_FEATURES``).
They still depend on the OpenBLAS kernel, which that test does not vary;
CI logs how many cases differ under two other kernels, from ``drift_lines``.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spinprec
from spinprec.cli import main

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

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
    # sin(alpha) < 0: the small spin coefficient keeps the sign of gamma*beta_perp
    "eigenstate_alpha_200": ["eigenstate", "--alpha-deg", "200"],
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
    # failing tolerance, grids of whole and fractional periods
    **{
        f"compare_{o}_json": [
            "compare", "--beta", "0.6", "--alpha-deg", "45", *_orient(o), *SMALL,
        ]
        for o in ORIENTATIONS
    },
    **{
        f"compare_{o}_table": [
            "compare", "--beta", "0.95", "--alpha-deg", "100", *_orient(o), *SMALL,
            "--format", "table", "--epsilon", "-1",
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
    # the frequency fit cancels the offset a mean over a non-integer span
    # leaves, so one period and 1.3 periods read the frequency to roundoff
    "compare_one_period": [
        "compare", "--config", "{golden}/compare.conf", "--format", "json", "--periods", "1",
    ],
    "compare_fractional_periods": ["compare", "--periods", "1.3", "--samples-per-period", "64"],
    "compare_negative_periods": ["compare", "--periods", "-1"],
    # the frequency fit needs four samples; a smaller grid is refused by its flags
    "compare_three_sample_grid": ["compare", "--periods", "0.1", "--samples-per-period", "16"],
    "compare_momentum_alpha_200": ["compare", "--alpha-deg", "200", "--orientation", "momentum", *SMALL],
    # on the field axis at gamma ~ 7e3, where Omega_z = 1 - g beta_z^2 cancelled to a false FAIL
    "compare_high_gamma_on_axis": [
        "compare", "--beta", "0.99999999", "--alpha-deg", "0", "--format", "table",
    ],
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
    """(exit code, stdout bytes, stderr bytes, written file bytes or None) of one case."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_expand(argv, tmp))
    err = err.getvalue().replace(str(tmp), "{tmp}").replace(str(GOLDEN), "{golden}")
    target = _output_path(argv, tmp)
    written = None if target is None else target.read_bytes()
    return code, out.getvalue().encode(), err.encode(), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    recorded = json.loads(MANIFEST.read_text())[name]
    assert recorded["argv"] == CASES[name], "case changed: regenerate the goldens"
    code, out, err, written = run_case(CASES[name], tmp_path)
    assert code == recorded["exit"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_bytes()
    if code == 2:
        # bad input is refused with one line of text, never a traceback
        assert len(err.splitlines()) == 1, err
    if written is not None:
        assert written == (GOLDEN / f"{name}.file").read_bytes()


def test_manifest_matches_cases():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


def test_golden_directory_holds_only_case_files():
    expected = {f"{name}.{ext}" for name in CASES for ext in ("out", "err")}
    expected |= {f"{name}.file" for name, argv in CASES.items() if _output_path(argv, GOLDEN)}
    expected |= {f"{name}.conf" for name in ("precess", "bmt", "compare", "scales")}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(expected | {"manifest.json"})


#: a decimal number as the CLI prints it, in CSV, JSON or a table
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def recorded(name, manifest):
    """(exit code, stdout, stderr, written file) of a case as recorded, None where absent."""
    files = (GOLDEN / f"{name}.{ext}" for ext in ("out", "err", "file"))
    exit_code = manifest.get(name, {}).get("exit")
    return (exit_code, *(path.read_bytes() if path.exists() else None for path in files))


def drift(name, old, new):
    """One line on how a case's output changes from ``old`` to ``new``, or None if it does not.

    Both are (exit code, stdout, stderr, written file).  Lines are paired by
    position; numbers are compared on paired lines that hold as many of them.
    """
    if old == new:
        return None
    changed, largest = 0, 0.0
    for before, after in zip(old[1:], new[1:]):
        before = (before or b"").decode().splitlines()
        after = (after or b"").decode().splitlines()
        changed += abs(len(before) - len(after))
        for a, b in zip(before, after):
            if a != b:
                changed += 1
                x, y = NUMBER.findall(a), NUMBER.findall(b)
                if len(x) == len(y):
                    largest = max([largest, *(abs(float(p) - float(q)) for p, q in zip(x, y))])
    line = f"{name}: {changed} lines changed, largest float difference {largest:.2g}"
    return line if old[0] == new[0] else f"{line}, exit {old[0]} -> {new[0]}"


def test_drift_counts_changed_lines_float_difference_and_exit():
    old = (0, b"t,x\n0,1.5\n1,2.0\n", b"", None)
    new = (1, b"t,x\n0,1.5000000000000002\n1,2.0\n2,2.5\n", b"warning\n", None)
    assert drift("c", old, old) is None
    assert drift("c", old, new) == "c: 3 lines changed, largest float difference 2.2e-16, exit 0 -> 1"
    assert drift("c", new, (1, *new[1:3], b"{}")) == "c: 1 lines changed, largest float difference 0"


def active_dispatch():
    """numpy's SIMD dispatch targets, above its baseline, that this process runs."""
    return [name for name in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(name)]


def drift_lines():
    """Run every case once more; the drift line of each whose output differs from its record."""
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        lines = (drift(name, recorded(name, manifest), run_case(CASES[name], Path(tmp))) for name in sorted(CASES))
        return [line for line in lines if line is not None]


#: every case once more, printing the drift line of each that differs
RERUN = """
from test_golden import active_dispatch, drift_lines
assert not active_dispatch(), f"still active: {active_dispatch()}"
for line in drift_lines():
    print(line)
"""


def test_goldens_hold_without_simd_dispatch():
    active = active_dispatch()
    if not active:
        pytest.skip("numpy runs no SIMD dispatch target above its baseline here")
    paths = [Path(__file__).parent, Path(spinprec.__file__).parents[1], os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(active))
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths if p)
    run = subprocess.run([sys.executable, "-c", RERUN], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == "", f"{active} off:\n{run.stdout}{run.stderr}"


def write_goldens(first, second):
    """Record every case's exit code, stdout, stderr and written file.

    Each case runs in the scratch directory ``first`` in name order and in
    ``second`` in reverse order; any byte that differs between the two runs
    is an output that varies, which no golden can pin, so nothing is written.
    Otherwise each case whose recorded output changes is named on stdout.
    """
    runs = {name: run_case(CASES[name], first) for name in sorted(CASES)}
    for name in sorted(CASES, reverse=True):
        if run_case(CASES[name], second) != runs[name]:
            raise SystemExit(f"{name}: output varies between runs; no golden written")
    old = json.loads(MANIFEST.read_text())
    for name, run in runs.items():
        line = drift(name, recorded(name, old), run)
        if line is not None:
            print(line)
    for stale in [*GOLDEN.glob("*.out"), *GOLDEN.glob("*.err"), *GOLDEN.glob("*.file")]:
        stale.unlink()
    manifest = {}
    for name, (code, out, err, written) in runs.items():
        manifest[name] = {"argv": CASES[name], "exit": code}
        (GOLDEN / f"{name}.out").write_bytes(out)
        (GOLDEN / f"{name}.err").write_bytes(err)
        if written is not None:
            (GOLDEN / f"{name}.file").write_bytes(written)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        write_goldens(Path(first), Path(second))
