"""Command-line surface for the spin precession engine.

Subcommands: eigenstate (spinor and matrix-element audit), precess
(quantum polarization series), bmt (classical comparator series),
compare (quantum vs classical report), sweep (compare over a parameter
grid), scales (relativistic timescale estimates).

Exit codes: 0 pass, 1 physics-check failure, 2 configuration error,
3 I/O error.  Time columns are in units of hbar/(2|mu|H) unless
--physical converts them to seconds at the output boundary.  CSV floats
carry 17 significant digits so parsing them back is lossless.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bmt import (
    DEFAULT_STEPS_PER_PERIOD,
    MIN_STEPS_PER_PERIOD,
    integrate,
    omega_vector,
    trajectory_exact,
)
from .compare import (
    DEFAULT_PERIODS,
    DEFAULT_SAMPLES_PER_PERIOD,
    MIN_SAMPLES_PER_PERIOD,
    Tolerances,
    format_report,
    period_grid,
    run_comparison,
    seed_classical,
)
from .kinematics import (
    Kinematics,
    make_coupling,
    make_kinematics,
    motion_axis,
    sr_scales,
)
from .spinors import (
    closed_form_matrix_elements,
    matrix_element,
    pi_component_matrix,
    spin_axis,
    spin_coefficients,
)
from .superposition import (
    evolve_expectations,
    initial_amplitudes_closed,
    initial_amplitudes_general,
)

HBAR = 1.054571817e-34  # J s

#: audit threshold for eigenstate residuals and matrix-element mismatch
RESIDUAL_TOL = 1e-12
#: spin-norm conservation demanded of classical trajectories
NORM_DRIFT_TOL = 1e-9
#: most (beta, alpha) points one sweep may take
MAX_SWEEP_POINTS = 10**6

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _cast_bool(text: str) -> bool:
    try:
        return _BOOL_STRINGS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _cast_sign(text: str) -> int:
    value = int(text)
    if value not in (-1, 1):
        raise ValueError("must be +1 or -1")
    return value


@dataclass(frozen=True)
class Param:
    """Flag ``--name-with-hyphens`` (bare when boolean) and config key ``name``.

    ``commands`` offer the flag; a config file may set any parameter.
    """

    name: str
    cast: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None


_SERIES = ("precess", "bmt", "compare", "sweep")
_KINEMATIC = ("eigenstate", *_SERIES)
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
    Param("beta", float, 0.6, "speed in units of c, 0 <= beta < 1", _KINEMATIC),
    Param("alpha_deg", float, 45.0, "angle between velocity and field, degrees", _KINEMATIC),
    Param("coupling_s", float, 1e-3, "moment-field coupling |mu|H/(m0 c^2)", _SERIES),
    Param("zeta", _cast_sign, 1, "spin branch, +1 or -1", ("eigenstate",)),
    Param("epsilon", _cast_sign, 1, "initial orientation sign, +1 or -1", _SERIES),
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
    Param("physical", _cast_bool, False, "emit the time column in seconds", _TIMED),
    Param("mu", float, None, "|mu| in J/T (with --physical)", _TIMED),
    Param("field", float, None, "H in T (with --physical)", _TIMED),
    Param("output", str, None, "write to this file instead of stdout", (*_KINEMATIC, "scales")),
    Param("sweep", str, None, "grid spec, e.g. beta=0:0.95:20,alpha=0:90:10", ("sweep",)),
    Param("gamma", float, None, "Lorentz factor, >= 1", ("scales",)),
    Param("omega0", float, 1.0, "rest-frame angular frequency", ("scales",)),
)

_BY_NAME = {param.name: param for param in PARAMS}


def _load_config_file(path: str) -> dict:
    """Parse a key=value config file; # starts a comment."""
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
                if param.choices and values[key] not in param.choices:
                    raise ValueError(f"must be one of {', '.join(param.choices)}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """Apply precedence flags > config file > defaults."""
    cfg = {param.name: param.default for param in PARAMS}
    if args.config:
        cfg.update(_load_config_file(args.config))
    for name in cfg:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    return cfg


def _resolve_kinematics(cfg: dict) -> Kinematics:
    return make_kinematics(cfg["beta"], math.radians(cfg["alpha_deg"]))


def _resolve_superposition(cfg: dict, kin: Kinematics):
    orientation = cfg["orientation"]
    if orientation in ("x", "y", "z"):
        return initial_amplitudes_closed(orientation, cfg["epsilon"], kin)
    if orientation == "momentum":
        n = motion_axis(kin)
    else:
        n = spin_axis(math.radians(cfg["theta_n_deg"]), math.radians(cfg["phi_n_deg"]))
    return initial_amplitudes_general(n, cfg["epsilon"], kin)


def _time_scale(cfg: dict) -> float:
    """Seconds per dimensionless time unit, or 1 when staying dimensionless."""
    if not cfg["physical"]:
        return 1.0
    mu, field = cfg["mu"], cfg["field"]
    if mu is None or field is None:
        raise ValueError("--physical requires both --mu and --field")
    if not mu > 0 or not field > 0:
        raise ValueError("--mu and --field must be positive")
    return HBAR / (2.0 * mu * field)


def _tolerances(cfg: dict) -> Tolerances:
    return Tolerances(
        deviation=cfg["tol_deviation"],
        invariant=cfg["tol_invariant"],
        frequency_rel=cfg["tol_frequency"],
    )


def _comparison(cfg: dict):
    """:func:`run_comparison` at the point ``cfg`` describes."""
    kin = _resolve_kinematics(cfg)
    coupling = make_coupling(cfg["coupling_s"], cfg["zeta"])
    sup = _resolve_superposition(cfg, kin)
    return run_comparison(
        sup,
        kin,
        coupling,
        periods=cfg["periods"],
        samples_per_period=cfg["samples_per_period"],
        tolerances=_tolerances(cfg),
        orientation=cfg["orientation"],
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_series(cfg: dict, header: list[str], columns: list[np.ndarray]) -> None:
    if cfg["format"] == "json":
        payload = {name: col.tolist() for name, col in zip(header, columns)}
        _emit(_json_text(payload), cfg["output"])
    else:
        _emit(_csv(header, columns), cfg["output"])


def cmd_eigenstate(cfg: dict) -> int:
    """Audit one stationary state: residual, norm, matrix-element table."""
    kin = _resolve_kinematics(cfg)
    zeta = cfg["zeta"]
    psi = spin_coefficients(zeta, kin)
    norm_err = abs(float(np.linalg.norm(psi)) - 1.0)
    mz = pi_component_matrix(np.array([0.0, 0.0, 1.0]), kin)
    residual = float(np.linalg.norm(mz @ psi - zeta * kin.q * psi))
    closed = closed_form_matrix_elements(kin, zeta)
    other = spin_coefficients(-zeta, kin)
    rows = []
    max_err = 0.0
    for name, axis in (("x", (1.0, 0.0, 0.0)), ("y", (0.0, 1.0, 0.0)), ("z", (0.0, 0.0, 1.0))):
        m = pi_component_matrix(np.array(axis), kin)
        diag = matrix_element(psi, m, psi)
        cross = matrix_element(other, m, psi)
        cd = getattr(closed, f"diag_{name}")
        cc = getattr(closed, f"cross_{name}")
        max_err = max(max_err, abs(diag - cd), abs(cross - cc))
        rows.append((name, cd, diag, cc, cross))
    ok = max(norm_err, residual, max_err) <= RESIDUAL_TOL
    if cfg["format"] == "json":
        payload = {
            "beta": kin.beta,
            "alpha_deg": cfg["alpha_deg"],
            "zeta": zeta,
            "spinor": [float(c.real) for c in psi],
            "eigenvalue": zeta * kin.q,
            "norm_error": norm_err,
            "residual": residual,
            "max_element_error": max_err,
            "pass": ok,
        }
        _emit(_json_text(payload), cfg["output"])
    else:
        lines = [
            f"beta={kin.beta:.17g} alpha={cfg['alpha_deg']:.17g} deg zeta={zeta:+d}",
            "spinor: " + " ".join(f"{c.real:.17g}" for c in psi),
            f"eigenvalue: {zeta * kin.q:.17g}",
            f"norm error: {norm_err:.3e}",
            f"residual: {residual:.3e}",
            "matrix elements, closed form vs spinor sandwich:",
        ]
        for name, cd, diag, cc, cross in rows:
            lines.append(
                f"  diag_{name}:  {cd:.12g}  vs  {diag:.12g}"
            )
            lines.append(
                f"  cross_{name}: {cc:.12g}  vs  {cross:.12g}"
            )
        lines.append(f"max element error: {max_err:.3e}")
        lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
        _emit("\n".join(lines) + "\n", cfg["output"])
    return 0 if ok else 1


def cmd_precess(cfg: dict) -> int:
    """Quantum polarization series on a period grid."""
    tolerances = _tolerances(cfg)
    kin = _resolve_kinematics(cfg)
    coupling = make_coupling(cfg["coupling_s"], cfg["zeta"])
    sup = _resolve_superposition(cfg, kin)
    t = period_grid(kin, cfg["periods"], cfg["samples_per_period"])
    hist = evolve_expectations(sup, kin, coupling, t)
    scale = _time_scale(cfg)
    header = ["t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"]
    columns = [hist.t * scale] + [getattr(hist, name) for name in header[1:]]
    _emit_series(cfg, header, columns)
    inv_err = float(np.abs(hist.invariant - 1.0).max())
    return 0 if inv_err <= tolerances.invariant else 1


def cmd_bmt(cfg: dict) -> int:
    """Classical comparator series seeded from the matching quantum state."""
    kin = _resolve_kinematics(cfg)
    coupling = make_coupling(cfg["coupling_s"], cfg["zeta"])
    sup = _resolve_superposition(cfg, kin)
    t = period_grid(kin, cfg["periods"], cfg["samples_per_period"])
    # same initial polarization as cmd_precess, so the pi columns line up
    s0 = seed_classical(evolve_expectations(sup, kin, coupling, t[:1]), kin)
    omega = omega_vector(kin)
    if cfg["method"] == "rk4":
        traj = integrate(s0, omega, t, kin, cfg["steps_per_period"])
    else:
        traj = trajectory_exact(s0, omega, t, kin)
    scale = _time_scale(cfg)
    header = ["t", "bmt_s_x", "bmt_s_y", "bmt_s_z", "bmt_pi_x", "bmt_pi_y", "bmt_pi_z", "bmt_beta_pi"]
    columns = [
        traj.t * scale,
        traj.s[:, 0],
        traj.s[:, 1],
        traj.s[:, 2],
        traj.pi[:, 0],
        traj.pi[:, 1],
        traj.pi[:, 2],
        traj.beta_pi,
    ]
    _emit_series(cfg, header, columns)
    drift = float(np.abs(np.linalg.norm(traj.s, axis=1) - 1.0).max())
    return 0 if drift <= NORM_DRIFT_TOL else 1


def cmd_compare(cfg: dict) -> int:
    """Quantum vs classical report; JSON to the output target."""
    report, _, _ = _comparison(cfg)
    # with --output the JSON goes to the file and the table to stdout
    if cfg["output"] is not None or cfg["format"] != "table":
        _emit(_json_text(report.to_dict()), cfg["output"])
    if cfg["output"] is not None or cfg["format"] == "table":
        sys.stdout.write(format_report(report) + "\n")
    return 0 if report.passed else 1


def _parse_sweep_spec(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse 'beta=lo:hi:count,alpha=lo:hi:count' into value grids.

    An axis left out of the spec holds its parameter's default.
    """
    grids = {
        "beta": np.array([_BY_NAME["beta"].default]),
        "alpha": np.array([_BY_NAME["alpha_deg"].default]),
    }
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
        points *= count
        if count < 1 or points > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep grid of {points} points must have 1 to {MAX_SWEEP_POINTS}")
        if name not in grids:
            raise ValueError(f"sweep parameter must be beta or alpha, got {name!r}")
        grids[name] = np.linspace(lo, hi, count)
    return grids["beta"], grids["alpha"]


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
    for beta in betas:
        for alpha_deg in alphas:
            # holding the last point's arrays in _ until this point's exist keeps
            # malloc from trimming and refaulting the heap on every point
            report, _, _ = _comparison(dict(cfg, beta=float(beta), alpha_deg=float(alpha_deg)))
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
    """Reports a usage error as one stderr line, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """Parser listing every subcommand, with the flags of ``command`` alone."""
    parser = _Parser(
        prog="spinprec",
        description="Spin precession of a neutral Dirac particle in a uniform field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name != command:
            continue
        p.add_argument("--config", help="key=value config file; flags win over it")
        for param in PARAMS:
            if name not in param.commands:
                continue
            flag = "--" + param.name.replace("_", "-")
            text = param.help if param.default is None else f"{param.help} (default {param.default})"
            if param.cast is _cast_bool:
                p.add_argument(flag, dest=param.name, action="store_const", const=True, help=text)
            else:
                choices = _FORMATS[name] if param.name == "format" else param.choices
                p.add_argument(flag, dest=param.name, type=param.cast, choices=choices, help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # adding the flags of subcommands that will not run would be most of a short call
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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
