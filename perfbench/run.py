"""spinprec benchmark: seeded workloads, end-to-end metrics, a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  ``--workload all`` runs every workload both ways, each in its
own process, and prints every metric by name and unit.  A result file with
provenance and per-op output digests goes to ``.perfbench/`` in the checkout.
Times are reported at a reference machine speed, measured by a fixed kernel
beside every timed interval (see speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("series", "sweep", "audit", "cli_short")

#: cold starts whose median is the set-up time
SETUP_STARTS = 9
#: ops run before the clock; checked and counted, not timed
WARMUP_OPS = 2
#: a run stops after this many times --seconds of wall time, whatever it measured
WALL_FACTOR = 3.0
#: and never later than this many seconds after the process started
DEADLINE_S = 140.0
STARTED = time.perf_counter()
#: the tail percentile, when the run leaves enough samples beyond it
TAIL_PERCENTILE = 90.0
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: per-layer metric -> (tracer counter, unit); reported per op of the counting passes
COUNTER_METRICS = {
    "cli.serialize.bytes": ("cli.serialize.bytes", "bytes"),
    "superposition.initial_amplitudes.closed_calls": (
        "superposition.initial_amplitudes_closed.calls", "count"),
    "superposition.initial_amplitudes.general_calls": (
        "superposition.initial_amplitudes_general.calls", "count"),
    "superposition.evolve_expectations.samples": (
        "superposition.evolve_expectations.samples", "count"),
    "superposition.evolve_expectations_spinor.samples": (
        "superposition.evolve_expectations_spinor.samples", "count"),
    "spinors.matrix_element.calls": ("spinors.matrix_element.calls", "count"),
    "spinors.pi_component_matrix.calls": ("spinors.pi_component_matrix.calls", "count"),
    "kinematics.make_kinematics.calls": ("kinematics.make_kinematics.calls", "count"),
    # computed from the grid and steps_per_period, not counted inside the RK4 loop
    "bmt.integrate.rk4_substeps": ("bmt.integrate.rk4_substeps", "computed_count"),
}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _start(cmd: list) -> tuple[float, str]:
    """Wall time and stderr of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return wall, proc.stderr


def cold_starts(extra_flags=()) -> list:
    """Fresh interpreters importing spinprec.cli, after one priming start.

    Each start follows a reference start with the same flags.  Returns, per
    start, the factor that takes its wall time to reference speed, the wall
    time and stderr.
    """
    cmd = [sys.executable, *extra_flags, "-c", "import spinprec.cli"]
    ref = [sys.executable, *extra_flags, *speed.REF_START_ARGS]
    runs = []
    for i in range(SETUP_STARTS + 1):
        ref_wall, _ = _start(ref)
        wall, stderr = _start(cmd)
        if i:  # the first start may compile bytecode
            runs.append((speed.REF_START_S / ref_wall, wall, stderr))
    return runs


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy, spinprec-without-numpy) cumulative import seconds from -X importtime."""
    numpy_us = None
    spinprec_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        name = name.strip()
        if name == "numpy" and numpy_us is None:
            numpy_us = int(cumulative)
        if depth == 0 and name.split(".")[0] == "spinprec":
            spinprec_us += int(cumulative)
    if numpy_us is None or spinprec_us == 0:
        raise ValueError("importtime output names no numpy or spinprec import")
    return numpy_us / 1e6, (spinprec_us - numpy_us) / 1e6


def tail(durations: list) -> tuple[float, float]:
    """(percentile, value) of the tail: TAIL_PERCENTILE, or lower if needed
    to leave TAIL_BEYOND samples beyond it.

    The value is a sample, the one with the percentile's share of samples
    at or below it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    at_or_below = min(int(n * TAIL_PERCENTILE / 100.0), n - TAIL_BEYOND)
    return 100.0 * at_or_below / n, ordered[at_or_below - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, seed: int) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload.name,
        "input_size": workload.input_size,
        "item": workload.item,
        "why": workload.why,
    }


def _wall_end(seconds: float) -> float:
    return min(time.perf_counter() + WALL_FACTOR * seconds, STARTED + DEADLINE_S)


class Session:
    """Runs one workload's op stream and keeps every op's outcome."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.next_index = 0
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.tracer = None

    def run_op(self, index: int):
        """Run op ``index``; returns (seconds, items, output bytes)."""
        op = self.workload.make_op(self.seed, index, self.workdir)
        tracer = self.tracer
        if tracer is not None:
            tracer.open_op(index)
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an exception is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close_op(t0, t1)
        self.attempted += 1
        nbytes = 0
        if error is None:
            try:
                error = op.check(result)
                nbytes = op.output_bytes(result)
                self.digests[index] = op.digest(result)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append({"op": index, "problem": error})
        return t1 - t0, op.items, nbytes

    def run_next(self):
        """Run the next op of the stream; returns what run_op returns."""
        self.next_index += 1
        return self.run_op(self.next_index - 1)

    def timed(self, seconds: float) -> tuple[list, list, int]:
        """Run the next ops until ``seconds`` of op time are measured.

        A speed kernel runs before the first op and after each op.  Returns
        the ops' wall times, the same at reference speed, and the items done.
        """
        kernel = self.workload.kernel
        durations, kernels, items = [], [kernel.seconds()], 0
        wall_end = _wall_end(seconds)
        while sum(durations) < seconds and time.perf_counter() < wall_end:
            elapsed, n, _ = self.run_next()
            kernels.append(kernel.seconds())
            durations.append(elapsed)
            items += n
        return durations, kernel.normalize(durations, kernels), items

    def warm_up(self) -> None:
        for _ in range(WARMUP_OPS):
            self.run_next()
            self.workload.kernel.seconds()


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    starts = cold_starts()
    setup = statistics.median(f * wall for f, wall, _ in starts)
    session.warm_up()
    walls, durations, items = session.timed(seconds)
    pct, tail_value = tail(durations)
    failed = len(session.failures)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_value, "s"),
        "items_per_s": (items / sum(durations), "1/s"),
        "ok_ratio": ((session.attempted - failed) / session.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "setup_starts": len(starts),
        "timed_ops": len(durations),
        "op_tail_percentile": pct,
        "fail_ratio": failed / session.attempted,
        "items_per_op": items / len(durations),
        "speed_kernel_ref_s": session.workload.kernel.ref_s,
        "setup_wall_s_p50": statistics.median(wall for _, wall, _ in starts),
        "op_wall_s_p50": statistics.median(walls),
        "op_speed_factor_p50": statistics.median(d / w for d, w in zip(durations, walls)),
        "op_seconds": durations,
        "op_wall_seconds": walls,
    }
    return metrics, info


@contextlib.contextmanager
def tracing(session: Session, tracer):
    """Install the tracer's wrappers for the ops run inside the block."""
    tracer.install()
    session.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        session.tracer = None


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    from spans import LAYER_GROUPS, ROOT_GROUP, Tracer, group_times, self_times

    starts = cold_starts(("-X", "importtime"))
    imports = [tuple(f * s for s in parse_importtime(err)) for f, _, err in starts]
    session.warm_up()
    tracer = Tracer()
    kernel = session.workload.kernel
    walls, kernels, traced_ops = [], [kernel.seconds()], []
    wall_end = _wall_end(seconds)
    # untraced and traced ops alternate, so both see the same machine speed,
    # with a speed kernel after each
    while sum(walls) < seconds and time.perf_counter() < wall_end:
        walls.append(session.run_next()[0])
        kernels.append(kernel.seconds())
        with tracing(session, tracer):
            walls.append(session.run_next()[0])
        traced_ops.append(session.next_index - 1)
        kernels.append(kernel.seconds())
    durations = kernel.normalize(walls, kernels)
    plain, traced = durations[0::2], durations[1::2]
    factors = [kernel.scale(kernels[i], kernels[i + 1]) for i in range(1, len(walls), 2)]
    spans = tracer.spans
    passes = []
    with tracing(session, tracer):
        for _ in range(2):
            tracer.reset()
            nbytes = sum(session.run_op(i)[2] for i in range(session.workload.count_ops))
            passes.append(dict(tracer.counts, **{"cli.serialize.bytes": nbytes}))

    n_ops = len(traced)
    by_name = self_times(spans, dict(zip(traced_ops, factors)))
    selfs = group_times(by_name)
    total = sum(traced)
    stressed = session.workload.stressed
    others = [g for g in LAYER_GROUPS if g not in stressed]
    counts = passes[0]
    per_count_op = 1.0 / session.workload.count_ops
    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)

    metrics = {
        "setup.numpy_import_s": (statistics.median(n for n, _ in imports), "s"),
        "setup.spinprec_import_s": (statistics.median(s for _, s in imports), "s"),
    }
    for group in LAYER_GROUPS:
        key = "harness.self_s" if group == ROOT_GROUP else f"{group}.self_s"
        metrics[key] = (selfs[group] / n_ops, "s")
    for key, (counter, unit) in COUNTER_METRICS.items():
        metrics[key] = (counts.get(counter, 0) * per_count_op, unit)
    metrics.update(
        {
            "stress.self_share": (sum(selfs[g] for g in stressed) / total, "ratio"),
            "stress.max_other_share": (max(selfs[g] for g in others) / total, "ratio"),
            "trace.op_p50_untraced_s": (p50_plain, "s"),
            "trace.op_p50_traced_s": (p50_traced, "s"),
            "trace.overhead_ratio": (p50_traced / p50_plain, "ratio"),
            "trace.spans_per_op": (len(spans) / n_ops, "count"),
            "trace.absent_targets": (len(tracer.absent), "count"),
        }
    )
    largest_other = max(others, key=lambda g: selfs[g])
    info = {
        "untraced_ops": len(plain),
        "traced_ops": n_ops,
        "count_ops": session.workload.count_ops,
        "counters_repeat": passes[0] == passes[1],
        "counters": passes[0],
        "absent_targets": tracer.absent,
        "self_share": {g: selfs[g] / total for g in LAYER_GROUPS},
        "self_s_per_op_by_span": {k: v / n_ops for k, v in sorted(by_name.items())},
        "stressed_groups": list(stressed),
        "largest_other_group": largest_other,
    }
    info["spans_file"] = _write_spans(session, spans)
    return metrics, info


def _write_spans(session: Session, spans) -> str:
    path = OUT / f"spans-{session.workload.name}-seed{session.seed}.jsonl"
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": name, "start": start - t0, "end": end - t0,
                     "parent": parent, "op": op}
                )
                + "\n"
            )
    return str(path.relative_to(ROOT))


def _print_report(name: str, seed: int, trace: int, metrics: dict, info: dict, session) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"attempted {session.attempted}  failed {len(session.failures)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<50} {value:>16.6g} {unit}")
    if trace == 0:
        print(f"  {'fail_ratio':<50} {info['fail_ratio']:>16.6g} ratio")
        print(f"  op_tail_s is p{info['op_tail_percentile']:.2f} of {info['timed_ops']} timed ops; "
              f"setup_s is the median of {info['setup_starts']} cold starts")
        print(f"  times are at reference speed; median wall times were "
              f"{info['op_wall_s_p50']:.6g} s per op and {info['setup_wall_s_p50']:.6g} s per start")
    else:
        print(f"  stressed {'+'.join(info['stressed_groups'])}: "
              f"{metrics['stress.self_share'][0]:.3f} of traced op time; "
              f"largest other {info['largest_other_group']}: "
              f"{metrics['stress.max_other_share'][0]:.3f}")
        if info["absent_targets"]:
            print(f"  absent wrap targets: {', '.join(info['absent_targets'])}")
        if not info["counters_repeat"]:
            print("  COUNTERS DID NOT REPEAT across two passes over the same ops")
    for failure in session.failures[:5]:
        print(f"  FAILED op {failure['op']}: {failure['problem']}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    session = Session(workload, seed, workdir)
    try:
        if trace:
            metrics, info = measure_layers(session, seconds)
        else:
            metrics, info = measure_end_to_end(session, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(session.failures)
    correct = failed == 0 and info.get("counters_repeat", True)
    record = {
        "provenance": provenance(workload, seed),
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "failures": session.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "output_sha256": {str(k): v for k, v in sorted(session.digests.items())},
    }
    result_path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    _print_report(name, seed, trace, metrics, info, session)
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if trace == 0:
                rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
            for key, m in result["metrics"].items():
                rows.append((name, key, m["value"], m["unit"]))
    print()
    print(f"{'workload':<10} {'metric':<50} {'value':>14} unit")
    for name, key, value, unit in rows:
        print(f"{name:<10} {key:<50} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    if not (SRC / "spinprec" / "cli.py").is_file():
        print(f"perfbench: no spinprec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinprec

    if Path(spinprec.__file__).resolve().parent != SRC / "spinprec":
        print(f"perfbench: imported spinprec from {spinprec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
