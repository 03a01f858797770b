"""Spans and exact counters recorded around calls into spinprec's layers.

The tracer replaces each public function at the name its callers look up
(``spinprec.compare.trajectory_exact``, ``spinprec.superposition.matrix_element``
and so on), so calls made inside the package are seen without editing it.
Spans and counts are recorded only while an operation is open; oracle code
that runs between operations is never traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from time import perf_counter

import numpy as np

SPAN = "span"
COUNT = "count"

ROOT_SPAN = "harness.op"
ROOT_GROUP = "harness"


def _samples(bound) -> dict:
    return {"samples": int(np.size(bound.arguments["t_grid"]))}


def _rk4_substeps(bound) -> dict:
    """Substeps ``integrate`` takes, computed from its grid and step density."""
    args = bound.arguments
    t = np.atleast_1d(np.asarray(args["t_grid"], dtype=float))
    w = args["omega"].magnitude
    if w == 0.0 or t.size < 2:
        return {"rk4_substeps": 0}
    h_max = 2.0 * math.pi / w / args["steps_per_period"]
    return {"rk4_substeps": int(np.maximum(1.0, np.ceil(np.diff(t) / h_max)).sum())}


# (name, layer group, kind, extra counters, places callers look the name up)
TARGETS = (
    ("cli.main", "cli.main", SPAN, None, ("spinprec.cli",)),
    ("cli.build_parser", "cli.parse", SPAN, None, ("spinprec.cli",)),
    ("cli._merge_config", "cli.parse", SPAN, None, ("spinprec.cli",)),
    ("cli._csv", "cli.serialize", SPAN, None, ("spinprec.cli",)),
    ("cli._json_text", "cli.serialize", SPAN, None, ("spinprec.cli",)),
    ("cli.format_report", "cli.serialize", SPAN, None, ("spinprec.cli",)),
    ("cli._emit", "cli.serialize", SPAN, None, ("spinprec.cli",)),
    (
        "superposition.initial_amplitudes_closed",
        "superposition.initial_amplitudes",
        SPAN,
        None,
        ("spinprec.cli", "spinprec.superposition"),
    ),
    (
        "superposition.initial_amplitudes_general",
        "superposition.initial_amplitudes",
        SPAN,
        None,
        ("spinprec.cli", "spinprec.superposition"),
    ),
    (
        "superposition.evolve_expectations",
        "superposition.evolve_expectations",
        SPAN,
        _samples,
        ("spinprec.cli", "spinprec.compare", "spinprec.superposition"),
    ),
    (
        "superposition.evolve_expectations_spinor",
        "superposition.evolve_expectations_spinor",
        SPAN,
        _samples,
        ("spinprec.superposition",),
    ),
    (
        "bmt.trajectory_exact",
        "bmt.trajectory_exact",
        SPAN,
        None,
        ("spinprec.cli", "spinprec.compare"),
    ),
    ("bmt.integrate", "bmt.integrate", SPAN, _rk4_substeps, ("spinprec.cli", "spinprec.bmt")),
    ("compare.compare", "compare.compare", SPAN, None, ("spinprec.compare",)),
    ("compare.extract_frequency", "compare.extract_frequency", SPAN, None, ("spinprec.compare",)),
    (
        "kinematics.make_kinematics",
        None,
        COUNT,
        None,
        ("spinprec.cli", "spinprec.kinematics"),
    ),
    (
        "spinors.pi_component_matrix",
        None,
        COUNT,
        None,
        ("spinprec.cli", "spinprec.superposition"),
    ),
    (
        "spinors.matrix_element",
        None,
        COUNT,
        None,
        ("spinprec.cli", "spinprec.superposition"),
    ),
)

#: the parser's parse_args method is wrapped on each parser build_parser returns
PARSE_ARGS_SPAN = "cli.parse_args"

GROUPS = {name: group for name, group, kind, _, _ in TARGETS if kind == SPAN}
GROUPS[PARSE_ARGS_SPAN] = "cli.parse"
GROUPS[ROOT_SPAN] = ROOT_GROUP
#: every layer group that self time is reported for, in report order
LAYER_GROUPS = tuple(dict.fromkeys(GROUPS.values()))


class Tracer:
    """Records spans (name, start, end, parent, op id) and counters in memory.

    ``install`` swaps the wrappers in; ``uninstall`` puts the originals back.
    A target missing from the package is listed in ``absent`` instead of
    raising, so a refactor that renames a function shows up in the report.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []

    # -- operation boundaries -------------------------------------------------
    def open_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append(None)

    def close_op(self, start: float, end: float) -> None:
        root = self._stack[0]
        self.spans[root] = (ROOT_SPAN, start, end, -1, self._op)
        self._stack = []
        self._op = None

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- wrapping ---------------------------------------------------------------
    def span(self, name: str, fn, extra=None):
        tracer = self
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in extra(bound).items():
                    tracer.counts[f"{name}.{key}"] += value
            index = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer._op)

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _parser_builder(self, fn):
        wrapped = self.span("cli.build_parser", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parser = wrapped(*args, **kwargs)
            if tracer._op is not None:
                parser.parse_args = tracer.span(PARSE_ARGS_SPAN, parser.parse_args)
            return parser

        return wrapper

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        for name, _group, kind, extra, modules in targets:
            attr = name.split(".", 1)[1]
            for module_name in modules:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if name == "cli.build_parser":
                    replacement = self._parser_builder(original)
                elif kind == SPAN:
                    replacement = self.span(name, original, extra)
                else:
                    replacement = self.counter(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def self_times(spans, op_factors=None) -> dict:
    """Seconds per span name: each span's duration minus its children's.

    ``op_factors`` maps an op id to a factor its spans' self times are
    multiplied by, such as the one taking them to reference speed.
    """
    op_factors = op_factors or {}
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = {}
    for (name, start, end, _parent, op), child in zip(spans, covered):
        own = ((end - start) - child) * op_factors.get(op, 1.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def group_times(by_name: dict) -> dict:
    """Self seconds of each layer group, zero for groups no span entered."""
    totals = dict.fromkeys(LAYER_GROUPS, 0.0)
    for name, seconds in by_name.items():
        totals[GROUPS[name]] += seconds
    return totals
