"""Machine-speed reference: a fixed kernel timed beside every measurement.

A shared 2-vCPU VM can change speed by up to 2x, in periods of seconds and
in drifts over minutes, from outside the VM: the same op takes 17 ms in one
minute and 34 ms in the next.  A wall time alone then measures the machine
more than the program.  So the benchmark times a fixed kernel, which uses
no spinprec code, just before and just after each timed interval, and
scales the interval by the kernel's reference time over the mean of those
two kernel times.  The result is the interval's length at the reference
speed, the speed at which the kernel takes its reference time.  Over a
90 s trace whose raw `audit` op time went from 17 ms to 34 ms, the scaled
op time stayed within 2 % (see perfbench/README.md, "Reference speed").

A slow period does not slow all code alike, so each workload uses the
kernel that resembles its own work.  ``INTERP`` is interpreted Python
arithmetic and calls, ``.17g`` float formatting and string joins, and numpy
ufuncs on arrays of 2,000 floats, whose cost is mostly dispatch.  ``ARRAYS``
is numpy ufuncs, column stacks and an FFT on 10,241-sample arrays, the
shape of a ``sweep`` point.  Between fast and slow periods, ``sweep`` ops
measured against ``INTERP`` moved by 8-16 %, against ``ARRAYS`` by 1-5 %.

A cold start of the interpreter spends its time differently: exec, page
faults and module loading.  Its wall time follows the kernel poorly, so each
timed cold start is paired instead with a reference start just before it,
a fresh interpreter that imports numpy and nothing of spinprec, and scaled
by ``REF_START_S`` over that start's wall time.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

#: arguments of the reference cold start, after the interpreter and its flags
REF_START_ARGS = ("-c", "import numpy")
#: the reference start's wall time at the reference speed
REF_START_S = 0.12


def _interp_work() -> float:
    rng = random.Random(7)
    acc = 0.0
    cells = []
    for _ in range(3000):
        x = rng.random()
        acc += math.sin(x) * math.sqrt(x + 1.0)
        cells.append(f"{x:.17g}")
    text = ",".join(cells)
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(100):
        a = np.cos(a) * 0.5 + np.abs(a)
    return len(text) + acc + float(a.sum())


def _arrays_work() -> float:
    t = np.linspace(0.0, 20.0 * math.pi, 10241)
    acc = 0.0
    for i in range(4):
        w = 1.0 + 0.1 * i
        c, s = np.cos(w * t), np.sin(w * t)
        m = np.column_stack([c, 0.5 * s, c * s])
        n = np.sqrt((m * m).sum(axis=1))
        acc += float(np.abs(n - 1.0).max()) + int(np.abs(np.fft.rfft(c)).argmax())
    return acc


class Kernel:
    """A fixed amount of work and its wall time at the reference speed."""

    def __init__(self, work, ref_s: float) -> None:
        self.work = work
        self.ref_s = ref_s

    def seconds(self) -> float:
        """Wall time of one run; the work's result only keeps it from being skipped."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor taking a wall time measured between two runs to reference speed."""
        return 2.0 * self.ref_s / (before + after)

    def normalize(self, durations: list, runs: list) -> list:
        """Each duration at reference speed.

        ``runs`` has one entry more than ``durations``: ``runs[i]`` is the
        kernel's wall time just before interval ``i`` and ``runs[i + 1]``
        just after it.
        """
        if len(runs) != len(durations) + 1:
            raise ValueError(f"{len(durations)} intervals need {len(durations) + 1} kernel runs")
        return [d * self.scale(runs[i], runs[i + 1]) for i, d in enumerate(durations)]


#: reference times are about each kernel's time on an idle 2-vCPU Intel VM
#: in a fast period
INTERP = Kernel(_interp_work, 4.0e-3)
ARRAYS = Kernel(_arrays_work, 3.0e-3)
