"""Tests of the benchmark itself: oracle, failure accounting, spans, counters.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spinprec.bmt  # noqa: E402
import spinprec.cli  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def session(tmp_path):
    def make(name, seed=3):
        return run.Session(WORKLOADS[name], seed, tmp_path)

    return make


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_op_passes_its_oracle(session, name):
    s = session(name)
    s.run_op(0)
    assert s.attempted == 1 and s.failures == []


def test_perturbed_csv_value_counts_as_failure(session, monkeypatch):
    original = spinprec.cli._csv

    def perturbed(header, columns):
        columns = [np.array(c, dtype=float) for c in columns]
        columns[1][len(columns[1]) // 2] += 1e-6
        return original(header, columns)

    monkeypatch.setattr(spinprec.cli, "_csv", perturbed)
    s = session("series")
    for i in range(4):
        s.run_op(i)
    csv_ops = {f["op"] for f in s.failures}
    assert csv_ops, "no op used CSV, pick another seed"
    assert all("deviation" in f["problem"] for f in s.failures)
    assert len(s.failures) / s.attempted > 0


def test_perturbed_rk4_result_counts_as_failure(session, monkeypatch):
    original = spinprec.bmt.integrate

    def perturbed(*args, **kwargs):
        traj = original(*args, **kwargs)
        traj.s[-1] += 1e-6
        return traj

    monkeypatch.setattr(spinprec.bmt, "integrate", perturbed)
    s = session("audit")
    durations, _, _ = s.timed(0.05)
    assert s.attempted == len(durations) >= 1
    assert len(s.failures) == s.attempted
    assert "rk4 deviates" in s.failures[0]["problem"]


def test_wrong_exit_code_and_exception_count_as_failures(session, monkeypatch):
    s = session("cli_short")
    monkeypatch.setattr(spinprec.cli, "main", lambda argv: 1)
    s.run_op(0)

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(spinprec.cli, "main", boom)
    s.run_op(1)
    assert s.attempted == 2
    assert "exit 1, expected 0" in s.failures[0]["problem"]
    assert s.failures[1]["problem"] == "RuntimeError: boom"


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    make = WORKLOADS["series"].make_op
    argv = lambda seed: [c.argv for c in make(seed, 5, tmp_path).calls]  # noqa: E731
    assert argv(1) == argv(1)
    assert argv(1) != argv(2)


def test_counters_repeat_exactly(session):
    s = session("cli_short")
    tracer = spans.Tracer()
    tracer.install()
    s.tracer = tracer
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            for i in range(3):
                s.run_op(i)
            passes.append(dict(tracer.counts))
    finally:
        tracer.uninstall()
    assert passes[0] == passes[1]
    assert passes[0]["cli.build_parser.calls"] == 18
    assert passes[0]["cli.parse_args.calls"] == 18
    assert s.failures == []


def test_spans_nest_under_the_op_and_uninstall_restores(session):
    original = spinprec.cli.main
    s = session("series")
    tracer = spans.Tracer()
    tracer.install()
    s.tracer = tracer
    try:
        s.run_op(0)
    finally:
        tracer.uninstall()
    assert spinprec.cli.main is original
    names = [sp[0] for sp in tracer.spans]
    assert names[0] == spans.ROOT_SPAN and tracer.spans[0][3] == -1
    # precess and bmt, each in CSV and in JSON
    assert names.count("cli.main") == 4
    assert {"cli.parse_args", "cli.build_parser", "bmt.trajectory_exact"} <= set(names)
    by_id = dict(enumerate(tracer.spans))
    for name, start, end, parent, op in tracer.spans[1:]:
        assert op == 0 and parent >= 0
        assert by_id[parent][1] <= start <= end <= by_id[parent][2]


def test_self_time_subtracts_children():
    recorded = [
        (spans.ROOT_SPAN, 0.0, 10.0, -1, 0),
        ("cli.main", 1.0, 9.0, 0, 0),
        ("cli.build_parser", 1.0, 3.0, 1, 0),
        ("cli._csv", 4.0, 8.0, 1, 0),
    ]
    assert spans.self_times(recorded)["cli._csv"] == 4.0
    selfs = spans.group_times(spans.self_times(recorded))
    assert selfs["harness"] == 2.0
    assert selfs["cli.main"] == 2.0
    assert selfs["cli.parse"] == 2.0
    assert selfs["cli.serialize"] == 4.0
    halved = spans.self_times(recorded + [("cli._csv", 20.0, 21.0, -1, 1)], {1: 0.5})
    assert halved["cli._csv"] == 4.5


def test_normalize_scales_by_the_kernels_around_each_interval():
    kernel = speed.INTERP
    ref = kernel.ref_s
    # the machine runs at half speed around the first interval, then recovers
    runs = [2 * ref, 2 * ref, ref]
    assert kernel.normalize([0.4, 0.3], runs) == pytest.approx([0.2, 0.2])
    with pytest.raises(ValueError):
        kernel.normalize([0.4, 0.3], runs[:2])


@pytest.mark.parametrize("kernel", [speed.INTERP, speed.ARRAYS])
def test_kernel_time_is_positive(kernel):
    assert kernel.seconds() > 0


def test_missing_target_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install([("cli.no_such_function", "cli.main", spans.SPAN, None, ("spinprec.cli",))])
    tracer.uninstall()
    assert tracer.absent == ["spinprec.cli.no_such_function"]


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = run.tail(values)
    assert pct == 90.0 and value == 90
    assert sum(v > value for v in values) == 10
    # few samples: the percentile drops so that ten stay beyond it
    pct, value = run.tail(values[:40])
    assert pct == 75.0 and value == 30
    # many samples: p90, with more than ten beyond
    pct, value = run.tail(list(range(1, 1001)))
    assert pct == 90.0 and value == 900


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:      2000 |      90000 |       numpy",
            "import time:      1000 |     120000 |   spinprec",
            "import time:      9000 |     150000 | spinprec.cli",
        ]
    )
    numpy_s, spinprec_s = run.parse_importtime(text)
    assert numpy_s == pytest.approx(0.09)
    assert spinprec_s == pytest.approx(0.06)
