"""Command-line surface for the spin precession engine.

Run as ``spinprec <command> [flags]``; ``spinprec -h`` lists the six
commands of ``_COMMANDS`` and ``spinprec <command> -h`` the flags of one.

Exit codes: 0 pass, 1 physics-check failure, 2 configuration error,
3 I/O error.  Time columns are in units of hbar/(2|mu|H), or in seconds
when --mu and --field are both given.  CSV floats carry 17 significant
digits so parsing them back is lossless.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bmt import (
    DEFAULT_STEPS_PER_PERIOD,
    MIN_STEPS_PER_PERIOD,
    NORM_DRIFT_TOL,
    check_steps_per_period,
    integrate,
    omega_vector,
    trajectory_exact,
)
from .compare import (
    DEFAULT_PERIODS,
    DEFAULT_SAMPLES_PER_PERIOD,
    MIN_SAMPLES_PER_PERIOD,
    ComparisonReport,
    Tolerances,
    period_grid,
    run_comparison,
    seed_classical,
)
from .kinematics import (
    _Workspace,
    make_coupling,
    make_kinematics,
    motion_axis,
    sr_scales,
)
# matrix_element and pi_component_matrix have no caller here, but perfbench's tracer wraps them here
from .spinors import AXES, matrix_element, pi_component_matrix, spin_axis, stationary_audit
# initial_amplitudes_closed has no caller here, but perfbench's tracer wraps it in this module
from .superposition import (
    evolve_expectations,
    initial_amplitudes_closed,
    initial_amplitudes_general,
)

HBAR = 1.054571817e-34  # J s

#: most (beta, alpha) points one sweep may take
MAX_SWEEP_POINTS = 10**6
#: CSV rows formatted per % call
_CSV_BLOCK_ROWS = 1024
#: the coupling the library entry points take; no output reads it, since the
#: precession rate sqrt(1 - beta^2 cos^2 alpha) does not contain s
_COUPLING = make_coupling(1e-3, 1)

@dataclass(frozen=True)
class Param:
    """Flag ``--name-with-hyphens VALUE`` and config key ``name``.

    ``commands`` offer the flag, and only their config files may set the key.
    """

    name: str
    cast: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...]
    choices: tuple | None = None


_SERIES = ("precess", "bmt", "compare", "sweep")
#: sweep takes its (beta, alpha) points from --sweep alone
_POINT = ("eigenstate", "precess", "bmt", "compare")
_CHECKED = ("compare", "sweep")
_TIMED = ("precess", "bmt")
#: output formats each subcommand offers
_FORMATS = {
    "eigenstate": ("text", "json"),
    "precess": ("csv", "json"),
    "bmt": ("csv", "json"),
    "compare": ("json", "table"),
}

PARAMS = (
    Param("beta", float, 0.6, "speed in units of c, 0 <= beta < 1", _POINT),
    Param("alpha_deg", float, 45.0, "angle between velocity and field, degrees", _POINT),
    Param("zeta", int, 1, "spin branch", ("eigenstate",), (1, -1)),
    Param("epsilon", int, 1, "initial orientation sign", _SERIES, (1, -1)),
    Param("orientation", str, "y", "initial spin axis", _SERIES,
          ("x", "y", "z", "momentum", "custom")),
    Param("theta_n_deg", float, 0.0, "custom axis polar angle, degrees", _SERIES),
    Param("phi_n_deg", float, 0.0, "custom axis azimuth, degrees", _SERIES),
    Param("periods", float, DEFAULT_PERIODS, "number of precession periods", _SERIES),
    Param("samples_per_period", int, DEFAULT_SAMPLES_PER_PERIOD,
          f"grid density, >= {MIN_SAMPLES_PER_PERIOD}", _SERIES),
    Param("format", str, None, "output format", tuple(_FORMATS)),
    Param("method", str, "exact", "trajectory method", ("bmt",), ("exact", "rk4")),
    Param("steps_per_period", int, DEFAULT_STEPS_PER_PERIOD,
          f"rk4 step density, >= {MIN_STEPS_PER_PERIOD}", ("bmt",)),
    Param("tol_deviation", float, Tolerances.deviation,
          "max quantum-classical deviation", _CHECKED),
    Param("tol_invariant", float, Tolerances.invariant, "max |I - 1|", ("precess", *_CHECKED)),
    Param("tol_frequency", float, Tolerances.frequency_rel,
          "max relative frequency error", _CHECKED),
    Param("mu", float, None, "|mu| in J/T; with --field, time in seconds", _TIMED),
    Param("field", float, None, "H in T; with --mu, time in seconds", _TIMED),
    Param("output", str, None, "write to this file instead of stdout", ("eigenstate", *_SERIES, "scales")),
    Param("sweep", str, None, "grid spec, e.g. beta=0:0.95:20,alpha=0:90:10", ("sweep",)),
    Param("gamma", float, None, "Lorentz factor, >= 1", ("scales",)),
    Param("omega0", float, 1.0, "rest-frame angular frequency", ("scales",)),
)

_BY_NAME = {param.name: param for param in PARAMS}


def _choices(param: Param, command: str) -> tuple | None:
    """The values ``param`` may take on ``command``, or None for any."""
    return _FORMATS.get(command) if param.name == "format" else param.choices


def _no_value(value) -> bool:
    """True for ``''`` or ``--flag=--``: ``[]`` (past type and choices) to Python 3.12, ``'--'`` on 3.13."""
    return isinstance(value, list) or value in ("", "--")


def _load_config_file(path: str, command: str) -> dict:
    """Parse a key=value config file for ``command``; # starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            param = _BY_NAME.get(key)
            if param is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = param.cast(text.strip())
                if _no_value(values[key]):
                    raise ValueError("needs a value")
                choices = _choices(param, command)
                if choices and values[key] not in choices:
                    raise ValueError(f"must be one of {', '.join(map(str, choices))}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
            if command not in param.commands:
                raise ValueError(f"{path}:{lineno}: {command} does not take {key}")
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """Apply precedence flags > config file > defaults."""
    for name, value in vars(args).items():
        if _no_value(value):
            raise ValueError(f"--{name.replace('_', '-')} needs a value")
    cfg = {param.name: param.default for param in PARAMS}
    if args.config:
        cfg.update(_load_config_file(args.config, args.command))
    for name in cfg:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    return cfg


def _axis(cfg: dict, kin) -> np.ndarray:
    """The spin axis that ``--orientation`` selects: an AXES row, the motion axis or the custom one."""
    # built for every orientation, so a bad angle is refused even when unread
    custom = spin_axis(math.radians(cfg["theta_n_deg"]), math.radians(cfg["phi_n_deg"]))
    orientation = cfg["orientation"]
    if orientation in ("x", "y", "z"):
        return AXES["xyz".index(orientation)]
    return motion_axis(kin) if orientation == "momentum" else custom


def _point(cfg: dict):
    """Kinematics and initial superposition that ``cfg`` describes."""
    kin = make_kinematics(cfg["beta"], math.radians(cfg["alpha_deg"]))
    return kin, initial_amplitudes_general(_axis(cfg, kin), cfg["epsilon"], kin)


def _time_scale(cfg: dict) -> float:
    """Seconds per dimensionless time unit given --mu and --field, else 1."""
    mu, field = cfg["mu"], cfg["field"]
    for name, value in (("mu", mu), ("field", field)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"--{name} must be finite and > 0, got {value:g}")
    if mu is None and field is None:
        return 1.0
    if mu is None or field is None:
        missing = "mu" if mu is None else "field"
        raise ValueError(f"time in seconds needs --mu and --field; --{missing} is missing")
    energy = 2.0 * mu * field
    scale = HBAR / energy if energy > 0.0 else 0.0
    # 2 mu H or the quotient can leave the float range and zero every time
    if not 0.0 < scale < math.inf:
        raise ValueError(f"--mu {mu:g} and --field {field:g} give no finite time scale")
    return scale


def _tolerances(cfg: dict) -> Tolerances:
    return Tolerances(
        deviation=cfg["tol_deviation"],
        invariant=cfg["tol_invariant"],
        frequency_rel=cfg["tol_frequency"],
    )


def _comparison(cfg: dict, kin, sup, workspace=None):
    """:func:`run_comparison` at the point that ``_point(cfg)`` resolved."""
    return run_comparison(
        sup,
        kin,
        _COUPLING,
        periods=cfg["periods"],
        samples_per_period=cfg["samples_per_period"],
        tolerances=_tolerances(cfg),
        workspace=workspace,
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """Header line, then one row per sample with every cell as ``%.17g``.

    A column of one bit pattern is formatted once, into the row template,
    and only the other columns pass through ``%`` on every row.
    """
    parts = [",".join(header) + "\n"]
    table = np.array(columns)
    if not table.shape[1]:
        return parts[0]
    bits = table.view(np.int64)
    fixed = (bits == bits[:, :1]).all(axis=1)
    # a %.17g text never holds a %, so a fixed column's text is literal in the template
    cells = ["%.17g" % v if f else "%.17g" for v, f in zip(table[:, 0].tolist(), fixed.tolist())]
    row = ",".join(cells) + "\n"
    rows = table[~fixed].T
    # one % call per block of rows; blocks bound the list of boxed cells
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _distinct_cells(table: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The distinct bit patterns in each row of a 2-D float array, so -0.0 and 0.0 differ.

    Returns the rows' distinct values end to end, each row in bit order, the
    end of each row's run among them, and each cell's index in its row's run.
    """
    k, n = table.shape
    bits = table.view(np.int64)
    # every cell's flat index, each row's cells in the order of their bits
    order = (bits.argsort(axis=1) + np.arange(0, k * n, n)[:, None]).ravel()
    ordered = bits.ravel()[order]
    first = np.empty(k * n, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    first[::n] = True
    seen = np.cumsum(first).reshape(k, n)
    rank = np.empty(k * n, np.intp)
    rank[order] = (seen - seen[:, :1]).ravel()
    return ordered[first].view(np.float64), seen[:, -1].tolist(), rank.reshape(k, n)


def _json_arrays(columns: list[np.ndarray]):
    """Each column, of one length, as ``json.dumps(..., indent=2)`` writes a dict value.

    ``repr`` runs once per distinct bit pattern of a column, and the column
    gathers its cells from those texts.  Yields each text in pieces, so
    that the caller copies every column only once.
    """
    if not len(columns[0]):
        yield from [["[]"]] * len(columns)
        return
    distinct, ends, rank = _distinct_cells(np.array(columns))
    finite = np.isfinite(distinct).all()
    start = 0
    for end, ranks in zip(ends, rank):
        reprs = np.fromiter(map(float.__repr__, distinct[start:end].tolist()), object, end - start)
        text = ",\n    ".join(reprs[ranks].tolist())
        if not finite:
            # repr spells them nan, inf and -inf, and no finite repr holds those letters
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        start = end
        yield ["[\n    ", text, "\n  ]"]


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a newline.

    A series, a dict of 1-D float arrays of one length, gives the bytes its
    lists would, without the pure-Python encoder that ``indent`` selects in
    ``json``.
    """
    series = isinstance(obj, dict) and obj and all(isinstance(v, np.ndarray) for v in obj.values())
    if not series:
        return json.dumps(obj, indent=2) + "\n"
    parts = []
    for name, pieces in zip(obj, _json_arrays(list(obj.values()))):
        parts += [",\n  " if parts else "{\n  ", json.dumps(name), ": ", *pieces]
    parts.append("\n}\n")
    return "".join(parts)


def _emit_series(cfg: dict, header: list[str], columns: list[np.ndarray]) -> None:
    if cfg["format"] == "json":
        _emit(_json_text(dict(zip(header, columns))), cfg["output"])
    else:
        _emit(_csv(header, columns), cfg["output"])


def cmd_eigenstate(cfg: dict) -> int:
    """Render the :func:`stationary_audit` of one stationary state as text or JSON."""
    kin = make_kinematics(cfg["beta"], math.radians(cfg["alpha_deg"]))
    audit = stationary_audit(kin, cfg["zeta"])
    if cfg["format"] == "json":
        payload = {
            "beta": kin.beta,
            "alpha_deg": cfg["alpha_deg"],
            "zeta": cfg["zeta"],
            "spinor": audit.spinor.tolist(),
            "eigenvalue": audit.eigenvalue,
            "norm_error": audit.norm_error,
            "residual": audit.residual,
            "max_element_error": audit.max_element_error,
            "pass": audit.passed,
        }
        _emit(_json_text(payload), cfg["output"])
    else:
        lines = [
            f"beta={kin.beta:.17g} alpha={cfg['alpha_deg']:.17g} deg zeta={cfg['zeta']:+d}",
            "spinor: " + " ".join(f"{c:.17g}" for c in audit.spinor),
            f"eigenvalue: {audit.eigenvalue:.17g}",
            f"norm error: {audit.norm_error:.3e}",
            f"residual: {audit.residual:.3e}",
            "matrix elements, closed form vs spinor sandwich:",
        ]
        for name, (cd, diag, cc, cross) in zip("xyz", audit.elements):
            lines.append(f"  diag_{name}:  {cd:.12g}  vs  {diag:.12g}")
            lines.append(f"  cross_{name}: {cc:.12g}  vs  {cross:.12g}")
        lines.append(f"max element error: {audit.max_element_error:.3e}")
        lines.append(f"verdict: {'pass' if audit.passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", cfg["output"])
    return 0 if audit.passed else 1


def cmd_precess(cfg: dict) -> int:
    """Quantum polarization series on a period grid."""
    tolerances = _tolerances(cfg)
    kin, sup = _point(cfg)
    t = period_grid(kin, cfg["periods"], cfg["samples_per_period"])
    scale = _time_scale(cfg)
    hist = evolve_expectations(sup, kin, _COUPLING, t)
    header = ["t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"]
    columns = [hist.t * scale] + [getattr(hist, name) for name in header[1:]]
    _emit_series(cfg, header, columns)
    return 0 if hist.invariant_error <= tolerances.invariant else 1


def cmd_bmt(cfg: dict) -> int:
    """Classical comparator series seeded from the spin axis of the matching quantum state."""
    kin = make_kinematics(cfg["beta"], math.radians(cfg["alpha_deg"]))
    n = _axis(cfg, kin)
    t = period_grid(kin, cfg["periods"], cfg["samples_per_period"])
    scale = _time_scale(cfg)
    # checked for either method: a value given and never read is still bad input
    check_steps_per_period(cfg["steps_per_period"])
    # the rest-frame spin of the state cmd_precess evolves, so the pi columns line up
    s0 = seed_classical(n, cfg["epsilon"], kin)
    omega = omega_vector(kin)
    if cfg["method"] == "rk4":
        traj = integrate(s0, omega, t, kin, cfg["steps_per_period"])
    else:
        traj = trajectory_exact(s0, omega, t, kin)
    header = ["t", "bmt_s_x", "bmt_s_y", "bmt_s_z", "bmt_pi_x", "bmt_pi_y", "bmt_pi_z", "bmt_beta_pi"]
    columns = [traj.t * scale, *traj.s.T, *traj.pi.T, traj.beta_pi]
    _emit_series(cfg, header, columns)
    return 0 if traj.norm_drift <= NORM_DRIFT_TOL else 1


def format_report(report: ComparisonReport, params: dict) -> str:
    """Human-readable table of a comparison report and the inputs it ran on."""
    lines = ["comparison report", "-----------------"]
    for key, val in params.items():
        lines.append(f"  {key:>20}: {val}")
    for comp, dev in report.max_abs_deviation.items():
        lines.append(f"  {'max |d ' + comp + '|':>20}: {dev:.3e}")
    lines.append(f"  {'max |I - 1|':>20}: {report.invariant_max_error:.3e}")
    if report.extracted_frequency is None:
        lines.append(f"  {'frequency':>20}: no oscillation")
    else:
        lines.append(f"  {'frequency (data)':>20}: {report.extracted_frequency:.12g}")
    lines.append(f"  {'frequency (formula)':>20}: {report.frequency_formula:.12g}")
    lines.append(f"  {'verdict':>20}: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def cmd_compare(cfg: dict) -> int:
    """Quantum vs classical report and the inputs it ran on; JSON to the output target."""
    kin, sup = _point(cfg)
    report, _, _ = _comparison(cfg, kin, sup)
    params = {
        "beta": kin.beta,
        "alpha": kin.alpha,
        "epsilon": sup.epsilon,
        "orientation": cfg["orientation"],
        "periods": cfg["periods"],
        "samples_per_period": cfg["samples_per_period"],
    }
    # with --output the JSON goes to the file and the table to stdout
    if cfg["output"] is not None or cfg["format"] != "table":
        payload = {
            "max_abs_deviation": report.max_abs_deviation,
            "extracted_frequency": report.extracted_frequency,
            "frequency_formula": report.frequency_formula,
            "invariant_max_error": report.invariant_max_error,
            "pass": report.passed,
            "params": params,
        }
        _emit(_json_text(payload), cfg["output"])
    if cfg["output"] is not None or cfg["format"] == "table":
        sys.stdout.write(format_report(report, params) + "\n")
    return 0 if report.passed else 1


def _parse_sweep_spec(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse 'beta=lo:hi:count,alpha=lo:hi:count' into value grids.

    An axis left out of the spec holds its parameter's default; a fixed
    value is written ``lo:lo:1``.
    """
    defaults = {"beta": _BY_NAME["beta"].default, "alpha": _BY_NAME["alpha_deg"].default}
    grids = {}
    points = 1
    for part in spec.split(","):
        name, _, rng = part.partition("=")
        name = name.strip()
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise ValueError(f"sweep range must be lo:hi:count, got {rng!r}")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ValueError(f"bad sweep range {rng!r}: {exc}") from None
        # finite only when both bounds are, and their span fits a float for linspace
        if not math.isfinite(hi - lo):
            raise ValueError(f"sweep range {rng!r} must have finite bounds and span")
        points *= count
        if count < 1 or points > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep grid of {points} points must have 1 to {MAX_SWEEP_POINTS}")
        if name not in defaults:
            raise ValueError(f"sweep parameter must be beta or alpha, got {name!r}")
        if name in grids:
            raise ValueError(f"sweep parameter {name} is given twice")
        grids[name] = np.linspace(lo, hi, count)
    return tuple(grids.get(name, np.array([value])) for name, value in defaults.items())


def cmd_sweep(cfg: dict) -> int:
    """Run compare over a (beta, alpha) grid; one summary CSV row per point."""
    if not cfg["sweep"]:
        raise ValueError("sweep needs --sweep beta=lo:hi:count,alpha=lo:hi:count")
    betas, alphas = _parse_sweep_spec(cfg["sweep"])
    lines = [
        "beta,alpha_deg,orientation,max_abs_deviation,invariant_max_error,"
        "extracted_frequency,frequency_formula,pass"
    ]
    all_pass = True
    workspace = _Workspace()  # every point's grid has one length, so one set of rows serves all
    for beta in betas:
        for alpha_deg in alphas:
            point = dict(cfg, beta=float(beta), alpha_deg=float(alpha_deg))
            report, _, _ = _comparison(point, *_point(point), workspace)
            all_pass = all_pass and report.passed
            worst = max(report.max_abs_deviation.values())
            freq = (
                ""
                if report.extracted_frequency is None
                else f"{report.extracted_frequency:.17g}"
            )
            lines.append(
                f"{beta:.17g},{alpha_deg:.17g},{cfg['orientation']},{worst:.17g},"
                f"{report.invariant_max_error:.17g},{freq},"
                f"{report.frequency_formula:.17g},{str(report.passed).lower()}"
            )
    _emit("\n".join(lines) + "\n", cfg["output"])
    return 0 if all_pass else 1


def cmd_scales(cfg: dict) -> int:
    """Relativistic timescale estimates for a given Lorentz factor."""
    if cfg["gamma"] is None:
        raise ValueError("scales needs --gamma")
    scales = sr_scales(cfg["gamma"], cfg["omega0"])
    payload = {
        "gamma": cfg["gamma"],
        "omega0": scales.omega0,
        "omega_max": scales.omega_max,
        "time_ratio": scales.time_ratio,
        "rho": scales.rho,
    }
    _emit(_json_text(payload), cfg["output"])
    return 0


_COMMANDS = {
    "eigenstate": (cmd_eigenstate, "audit a stationary spin state"),
    "precess": (cmd_precess, "quantum polarization time series"),
    "bmt": (cmd_bmt, "classical comparator time series"),
    "compare": (cmd_compare, "quantum vs classical agreement report"),
    "sweep": (cmd_sweep, "compare over a parameter grid"),
    "scales": (cmd_scales, "relativistic timescale estimates"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, exit code 2; takes no prefix of a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # -1e1 and -.5 are values too, not only the -1 and -1.5 argparse knows
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _template(command: str | None) -> _Parser:
    """The parser of ``command``'s flags, or of the top level; built once per process."""
    if command is None:
        return _Parser(
            prog="spinprec",
            usage="%(prog)s command [flags]",
            description="Spin precession of a neutral Dirac particle in a uniform field",
            epilog="commands:" + "".join(f"\n  {n:<11}{s}" for n, (_, s) in _COMMANDS.items()),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
    parser = _Parser(prog=f"spinprec {command}", description=_COMMANDS[command][1])
    parser.set_defaults(command=command)
    parser.add_argument("--config", help="key=value config file; flags win over it")
    for param in PARAMS:
        if command in param.commands:
            flag = "--" + param.name.replace("_", "-")
            text = param.help if param.default is None else f"{param.help} (default {param.default})"
            parser.add_argument(flag, type=param.cast, choices=_choices(param, command), help=text)
    return parser


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """Parser of the flags of ``command``, else of the top level, which runs no command.

    Each call returns its own shallow copy of one parser built per command,
    because building it costs far more than parsing a tiny call.  A copy's
    attributes are its own, but its flags and defaults are shared: parse with
    it or print its help, and add no arguments to it.
    """
    return copy.copy(_template(command if command in _COMMANDS else None))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        if command is None:
            parser.parse_known_args(argv)  # returns unless -h, which prints the help
            parser.error(f"the first argument must be a command, not {argv[0]!r}" if argv else "no command")
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    # one stderr line per warning, without the source line that issued it
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = _merge_config(args)
            return _COMMANDS[args.command][0](cfg)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
