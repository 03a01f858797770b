"""The four seeded workloads: their inputs, the timed operation and its oracle.

Every input comes from ``(workload, seed, op index)``, so the same seed
gives the same operations in the same order.  The program sees only the
generated argv (CLI workloads) or library arguments (``audit``).  Each op
returns its raw outputs; ``check`` runs after the clock stops and returns
a problem string, or None when the outputs pass the oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
import spinprec.bmt
import spinprec.cli
import spinprec.kinematics
import spinprec.superposition

from spinprec.bmt import map_pi_to_rest, omega_vector, trajectory_exact
from spinprec.compare import period_grid
from spinprec.kinematics import make_coupling, motion_axis
from spinprec.spinors import spin_axis
from spinprec.superposition import evolve_expectations

#: repository-wide pass thresholds (spinprec.compare.Tolerances defaults)
TOL_DEVIATION = 1e-8
TOL_INVARIANT = 1e-10
#: exact-vs-RK4 rest-frame spin error per precession period (acceptance criterion 8)
TOL_RK4_PER_PERIOD = 1e-8

ORIENTATIONS = ("x", "y", "z", "momentum", "custom")
GAMMA_RANGE = (1.01, 1.0e3)
ALPHA_RANGE = (5.0, 175.0)
DEFAULT_COUPLING = 1e-3

PRECESS_HEADER = ["t", "pi_x", "pi_y", "pi_z", "beta_pi", "invariant"]
BMT_HEADER = ["t", "bmt_s_x", "bmt_s_y", "bmt_s_z", "bmt_pi_x", "bmt_pi_y", "bmt_pi_z", "bmt_beta_pi"]
SWEEP_HEADER = (
    "beta,alpha_deg,orientation,max_abs_deviation,invariant_max_error,"
    "extracted_frequency,frequency_formula,pass"
)
SCALES_KEYS = {"gamma", "omega0", "omega_max", "time_ratio", "rho"}
REPORT_KEYS = {
    "max_abs_deviation",
    "extracted_frequency",
    "frequency_formula",
    "invariant_max_error",
    "pass",
    "params",
}


def _num(x: float) -> str:
    return f"{x:.17g}"


def _rng(workload: str, seed: int, index, tag: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}:{tag}")


def _dealt(workload: str, seed: int, index: int, items):
    """Item ``index`` of a stream dealt from shuffled decks of ``items``.

    Every run of len(items) consecutive ops holds each item once, so the mix
    of costs is the same whatever the seed.
    """
    deck = list(items)
    _rng(workload, seed, index // len(deck), "deck").shuffle(deck)
    return deck[index % len(deck)]


def _draw_beta(rng: random.Random) -> float:
    lo, hi = (math.log10(g) for g in GAMMA_RANGE)
    gamma = 10.0 ** rng.uniform(lo, hi)
    return float(_num(math.sqrt(1.0 - 1.0 / (gamma * gamma))))


def _draw_alpha(rng: random.Random) -> float:
    return float(_num(rng.uniform(*ALPHA_RANGE)))


@dataclass(frozen=True)
class Params:
    """One physical setup as the CLI receives it and the oracle rebuilds it."""

    beta: float
    alpha_deg: float
    orientation: str
    epsilon: int
    theta_n_deg: float
    phi_n_deg: float

    @classmethod
    def draw(cls, rng: random.Random, orientation: str) -> "Params":
        return cls(
            beta=_draw_beta(rng),
            alpha_deg=_draw_alpha(rng),
            orientation=orientation,
            epsilon=rng.choice((1, -1)),
            theta_n_deg=float(_num(rng.uniform(10.0, 170.0))),
            phi_n_deg=float(_num(rng.uniform(0.0, 360.0))),
        )

    def values(self) -> dict:
        out = {
            "beta": _num(self.beta),
            "alpha_deg": _num(self.alpha_deg),
            "orientation": self.orientation,
            "epsilon": str(self.epsilon),
        }
        if self.orientation == "custom":
            out["theta_n_deg"] = _num(self.theta_n_deg)
            out["phi_n_deg"] = _num(self.phi_n_deg)
        return out

    # Looked up through the module, so a traced audit op counts these calls;
    # the oracle calls them with no op open, which records nothing.
    def kinematics(self):
        return spinprec.kinematics.make_kinematics(self.beta, math.radians(self.alpha_deg))

    def superposition(self, kin):
        """Initial state by the CLI's orientation rules."""
        sp = spinprec.superposition
        if self.orientation in ("x", "y", "z"):
            return sp.initial_amplitudes_closed(self.orientation, self.epsilon, kin)
        if self.orientation == "momentum":
            return sp.initial_amplitudes_general(motion_axis(kin), self.epsilon, kin)
        n = spin_axis(math.radians(self.theta_n_deg), math.radians(self.phi_n_deg))
        return sp.initial_amplitudes_general(n, self.epsilon, kin)


def _flags(values: dict) -> list[str]:
    argv = []
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


# -- oracles for CLI output ----------------------------------------------------


def _table(out: str, fmt: str, header: list[str]) -> np.ndarray:
    """Columns of a precess/bmt series as a (rows, columns) array."""
    if fmt == "json":
        obj = json.loads(out)
        if list(obj) != header:
            raise ValueError(f"json keys {list(obj)} != {header}")
        return np.column_stack([np.asarray(obj[k], dtype=float) for k in header])
    head, _, body = out.partition("\n")
    if head != ",".join(header):
        raise ValueError(f"csv header {head!r}")
    if not body.endswith("\n"):
        raise ValueError("csv output does not end with a newline")
    cells = body[:-1].replace("\n", ",").split(",")
    return np.asarray(cells, dtype=float).reshape(-1, len(header))


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_series(command: str, out: str, fmt: str, p: Params, periods: float, spp: int):
    """precess against the classical comparator; bmt against the closed form."""
    header = PRECESS_HEADER if command == "precess" else BMT_HEADER
    try:
        data = _table(out, fmt, header)
    except ValueError as exc:
        return f"{command}: unreadable output: {exc}"
    kin = p.kinematics()
    t = period_grid(kin, periods, spp)
    if data.shape[0] != t.size:
        return f"{command}: {data.shape[0]} rows, expected {t.size}"
    if not np.array_equal(data[:, 0], t):
        return f"{command}: time column differs from the period grid"
    if command == "precess":
        pi, beta_pi, inv = data[:, 1:4], data[:, 4], data[:, 5]
        s0 = map_pi_to_rest(pi[0], kin)
        ref = trajectory_exact(s0 / np.linalg.norm(s0), omega_vector(kin), t, kin)
        ref_pi, ref_beta_pi = ref.pi, ref.beta_pi
    else:
        pi, beta_pi = data[:, 4:7], data[:, 7]
        inv = (pi**2).sum(axis=1) / kin.gamma**2 + beta_pi**2
        hist = evolve_expectations(
            p.superposition(kin), kin, make_coupling(DEFAULT_COUPLING, 1), t
        )
        ref_pi = np.column_stack([hist.pi_x, hist.pi_y, hist.pi_z])
        ref_beta_pi = hist.beta_pi
        s_dev = _max_dev(data[:, 1:4], map_pi_to_rest(ref_pi, kin))
        if not s_dev <= TOL_DEVIATION:
            return f"{command}: rest-frame spin deviation {s_dev:.3e} > {TOL_DEVIATION:g}"
    dev = max(_max_dev(pi, ref_pi), _max_dev(beta_pi, ref_beta_pi))
    if not dev <= TOL_DEVIATION:
        return f"{command}: deviation {dev:.3e} > {TOL_DEVIATION:g}"
    inv_err = _max_dev(inv, 1.0)
    if not inv_err <= TOL_INVARIANT:
        return f"{command}: invariant error {inv_err:.3e} > {TOL_INVARIANT:g}"
    return None


def sweep_grid(spec: str) -> list[tuple[float, float]]:
    """(beta, alpha_deg) points, in row order, of a 'beta=..,alpha=..' spec."""
    axes = {}
    for part in spec.split(","):
        name, _, rng = part.partition("=")
        lo, hi, count = rng.split(":")
        axes[name] = np.linspace(float(lo), float(hi), int(count))
    return [(float(b), float(a)) for b in axes["beta"] for a in axes["alpha"]]


def check_sweep(out: str, spec: str, orientation: str):
    lines = out.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "sweep: bad header"
    points = sweep_grid(spec)
    if len(lines) - 1 != len(points):
        return f"sweep: {len(lines) - 1} rows, expected {len(points)}"
    for line, (beta, alpha) in zip(lines[1:], points):
        f = line.split(",")
        if len(f) != 8 or float(f[0]) != beta or float(f[1]) != alpha or f[2] != orientation:
            return f"sweep: row {line!r} does not match its grid point"
        if f[7] != "true":
            return f"sweep: row {line!r} does not pass"
    return None


def check_eigenstate(out: str, fmt: str):
    if fmt == "json":
        ok = json.loads(out).get("pass") is True
    else:
        ok = out.splitlines()[-1] == "verdict: pass"
    return None if ok else "eigenstate: audit did not pass"


def check_compare(out: str, fmt: str):
    if fmt == "json":
        obj = json.loads(out)
        ok = set(obj) == REPORT_KEYS and obj["pass"] is True
    else:
        lines = out.splitlines()
        ok = lines[0] == "comparison report" and lines[-1].split() == ["verdict:", "pass"]
    return None if ok else "compare: report did not pass"


def check_scales(out: str, gamma: str):
    obj = json.loads(out)
    ok = set(obj) == SCALES_KEYS and obj["gamma"] == float(gamma)
    return None if ok else "scales: unexpected payload"


# -- operations ----------------------------------------------------------------


@dataclass
class Call:
    """One in-process CLI call, which must exit 0, and the oracle for its stdout."""

    argv: list
    check: object  # callable(stdout) -> problem or None


class CliOp:
    """A bundle of CLI calls run through ``spinprec.cli.main``."""

    def __init__(self, calls: list, items: int) -> None:
        self.calls = calls
        self.items = items

    def run(self) -> list:
        results = []
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = spinprec.cli.main(call.argv)
            results.append((rc, out.getvalue(), err.getvalue()))
        return results

    def check(self, results) -> str | None:
        for call, (rc, out, err) in zip(self.calls, results):
            if rc != 0:
                return f"{call.argv[0]}: exit {rc}, expected 0: {err.strip()[:200]}"
            problem = call.check(out)
            if problem:
                return problem
        return None

    def output_bytes(self, results) -> int:
        return sum(len(out.encode()) for _, out, _ in results)

    def digest(self, results) -> str:
        h = hashlib.sha256()
        for rc, out, _ in results:
            h.update(f"{rc}\n".encode())
            h.update(out.encode())
        return h.hexdigest()


class AuditOp:
    """Both audit paths on one grid, next to the closed path they must match."""

    def __init__(self, p: Params, periods: float, spp: int, steps: int) -> None:
        self.p, self.periods, self.spp, self.steps = p, periods, spp, steps
        self.items = int(round(periods * spp)) + 1

    def run(self):
        kin = self.p.kinematics()
        coupling = make_coupling(DEFAULT_COUPLING, 1)
        sup = self.p.superposition(kin)
        t = period_grid(kin, self.periods, self.spp)
        closed = spinprec.superposition.evolve_expectations(sup, kin, coupling, t)
        spinor = spinprec.superposition.evolve_expectations_spinor(sup, kin, coupling, t)
        s0 = map_pi_to_rest(np.array([closed.pi_x[0], closed.pi_y[0], closed.pi_z[0]]), kin)
        rk4 = spinprec.bmt.integrate(
            s0 / np.linalg.norm(s0), omega_vector(kin), t, kin, self.steps
        )
        return kin, closed, spinor, rk4

    def check(self, result) -> str | None:
        kin, closed, spinor, rk4 = result
        comps = ("pi_x", "pi_y", "pi_z", "beta_pi")
        dev = max(_max_dev(getattr(spinor, c), getattr(closed, c)) for c in comps)
        if not dev <= TOL_DEVIATION:
            return f"audit: spinor path deviates by {dev:.3e}"
        inv = _max_dev(spinor.invariant, 1.0)
        if not inv <= TOL_INVARIANT:
            return f"audit: spinor invariant error {inv:.3e}"
        s_closed = map_pi_to_rest(np.column_stack([closed.pi_x, closed.pi_y, closed.pi_z]), kin)
        rk_dev = _max_dev(rk4.s, s_closed)
        if not rk_dev <= TOL_RK4_PER_PERIOD * self.periods:
            return f"audit: rk4 deviates by {rk_dev:.3e} over {self.periods:g} periods"
        return None

    def output_bytes(self, result) -> int:
        return 0

    def digest(self, result) -> str:
        _, closed, spinor, rk4 = result
        h = hashlib.sha256()
        for arr in (closed.pi_x, spinor.pi_x, spinor.pi_y, spinor.pi_z, rk4.s):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


# -- the workloads -------------------------------------------------------------

SERIES_PERIODS, SERIES_SPP = 12, 1024
SERIES_FORMATS = ("csv", "json")
SWEEP_SIDE = 3
AUDIT_PERIODS, AUDIT_SPP, AUDIT_STEPS = 8, 128, 400
SHORT_PERIODS, SHORT_SPP = 2, 16
SHORT_CONFIG_CALLS = 2


def _series_op(seed: int, i: int, workdir: Path) -> CliOp:
    # every op writes both formats, so ops cost alike and their median is
    # not a coin toss between a CSV mode and a JSON mode
    p = Params.draw(_rng("series", seed, i), _dealt("series", seed, i, ORIENTATIONS))
    grid = ["--periods", str(SERIES_PERIODS), "--samples-per-period", str(SERIES_SPP)]
    calls = [
        Call(
            [cmd] + _flags(p.values()) + grid + ["--format", fmt]
            + (["--method", "exact"] if cmd == "bmt" else []),
            lambda out, cmd=cmd, fmt=fmt: check_series(
                cmd, out, fmt, p, SERIES_PERIODS, SERIES_SPP
            ),
        )
        for fmt in SERIES_FORMATS
        for cmd in ("precess", "bmt")
    ]
    return CliOp(calls, items=len(calls) * (SERIES_PERIODS * SERIES_SPP + 1))


def _sweep_spec(rng: random.Random, count: int) -> str:
    b = sorted(_draw_beta(rng) for _ in range(2))
    a = sorted(_draw_alpha(rng) for _ in range(2))
    return f"beta={_num(b[0])}:{_num(b[1])}:{count},alpha={_num(a[0])}:{_num(a[1])}:{count}"


def _sweep_op(seed: int, i: int, workdir: Path) -> CliOp:
    # one call per op: the speed kernel then runs every ~20 ms, which tracks
    # the machine's speed far better than once per five calls
    rng = _rng("sweep", seed, i)
    orientation = _dealt("sweep", seed, i, ORIENTATIONS)
    p = Params.draw(rng, orientation)
    spec = _sweep_spec(rng, SWEEP_SIDE)
    values = {k: v for k, v in p.values().items() if k not in ("beta", "alpha_deg")}
    call = Call(
        ["sweep", "--sweep", spec] + _flags(values),
        lambda out: check_sweep(out, spec, orientation),
    )
    return CliOp([call], items=SWEEP_SIDE**2)


def _audit_op(seed: int, i: int, workdir: Path) -> AuditOp:
    rng = _rng("audit", seed, i)
    p = Params.draw(rng, _dealt("audit", seed, i, ORIENTATIONS))
    return AuditOp(p, AUDIT_PERIODS, AUDIT_SPP, AUDIT_STEPS)


def _short_call(rng: random.Random, command: str) -> tuple[dict, object]:
    """Parameters of one tiny call and the oracle for its output."""
    if command == "scales":
        gamma = _num(10.0 ** rng.uniform(0.0, 3.0))
        return {"gamma": gamma}, lambda out: check_scales(out, gamma)
    p = Params.draw(rng, rng.choice(ORIENTATIONS))
    if command == "eigenstate":
        fmt = rng.choice(("text", "json"))
        values = {"beta": _num(p.beta), "alpha_deg": _num(p.alpha_deg)}
        values.update(zeta=str(p.epsilon), format=fmt)
        return values, lambda out: check_eigenstate(out, fmt)
    grid = {"periods": str(SHORT_PERIODS), "samples_per_period": str(SHORT_SPP)}
    if command == "sweep":
        spec = _sweep_spec(rng, 2)
        values = {k: v for k, v in p.values().items() if k not in ("beta", "alpha_deg")}
        values.update(grid, sweep=spec)
        return values, lambda out: check_sweep(out, spec, p.orientation)
    values = dict(p.values(), **grid)
    if command == "compare":
        fmt = rng.choice(("json", "table"))
        values["format"] = fmt
        return values, lambda out: check_compare(out, fmt)
    fmt = rng.choice(("csv", "json"))
    values["format"] = fmt
    return values, lambda out: check_series(command, out, fmt, p, SHORT_PERIODS, SHORT_SPP)


SHORT_COMMANDS = ("eigenstate", "precess", "bmt", "compare", "sweep", "scales")


def _cli_short_op(seed: int, i: int, workdir: Path) -> CliOp:
    rng = _rng("cli_short", seed, i)
    commands = list(SHORT_COMMANDS)
    rng.shuffle(commands)
    via_config = set(rng.sample(commands, SHORT_CONFIG_CALLS))
    calls = []
    for slot, command in enumerate(commands):
        values, check = _short_call(rng, command)
        if command in via_config:
            path = workdir / f"call{slot}.conf"
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            argv = [command, "--config", str(path)]
        else:
            argv = [command] + _flags(values)
        calls.append(Call(argv, check))
    return CliOp(calls, items=len(calls))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_size: str
    item: str
    make_op: object  # callable(seed, index, workdir) -> op
    #: the speed kernel that resembles the workload's work (see speed.py)
    kernel: speed.Kernel
    #: ops replayed for the exact counters
    count_ops: int
    #: layer groups this workload exists to stress
    stressed: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "series",
            "cli serialization does nearly all the work and physics almost none, "
            "so formatting gains show here and batching gains must not.",
            f"one op = precess + bmt --method exact on one drawn setup, each in CSV "
            f"and in JSON, {SERIES_PERIODS * SERIES_SPP + 1} rows per call",
            "output row",
            _series_op,
            speed.INTERP,
            2,
            ("cli.serialize",),
        ),
        Workload(
            "sweep",
            "the per-point loop over superposition, bmt.trajectory_exact and compare "
            "does the work and serialization is negligible, so batching over points shows here.",
            f"one op = one sweep call over a {SWEEP_SIDE}x{SWEEP_SIDE} (beta, alpha) grid "
            f"at 10 periods x 1024 samples; orientations dealt in turn",
            "grid point",
            _sweep_op,
            speed.ARRAYS,
            20,
            (
                "bmt.trajectory_exact",
                "superposition.initial_amplitudes",
                "superposition.evolve_expectations",
                "compare.compare",
                "compare.extract_frequency",
            ),
        ),
        Workload(
            "audit",
            "the per-sample Python loops of the spinor audit and RK4 do the work, "
            "and no other workload enters them.",
            f"one op = evolve_expectations_spinor + integrate ({AUDIT_STEPS} steps/period) "
            f"checked against evolve_expectations on {AUDIT_PERIODS * AUDIT_SPP + 1} samples",
            "time sample",
            _audit_op,
            speed.INTERP,
            16,
            ("superposition.evolve_expectations_spinor", "bmt.integrate"),
        ),
        Workload(
            "cli_short",
            "the parser and config merge run on every call and dominate tiny calls, "
            "so one parameter table shows here and nowhere else.",
            f"one op = six tiny CLI calls, one per subcommand, grids of "
            f"{SHORT_PERIODS * SHORT_SPP + 1} samples, {SHORT_CONFIG_CALLS} of them via --config",
            "CLI call",
            _cli_short_op,
            speed.INTERP,
            24,
            ("cli.parse",),
        ),
    )
}
