"""A gauge of the machine's speed, read while the timed steps run.

The benchmark runs on a few cores of a shared host whose speed swings by a
fifth or more, within seconds and over minutes, as other tenants come and
go. A run of the program cannot average that out. So while a timed step
runs, a wall-clock timer interrupts it every ``INTERVAL_S`` and times a small
fixed kernel that lives here, outside the program: interpreter work (dict
lookups, tuple keys, float arithmetic) and numpy work on a small array, the
two kinds of work the program does. The kernel never changes with the
program, so its time tells only how fast the machine ran during the step.

Python runs the handler in the main thread between two bytecodes, so the
kernel interleaves with the step and sees the same machine; the time the
handler takes is taken out of the step's time. A step's *reference time* is
its time scaled by ``NOMINAL_S`` over the mean kernel time read during it:
the time it would take on the machine at the speed at which the kernel takes
``NOMINAL_S``.
"""
from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.0004  # about one kernel call on the machine that recorded the baseline
INTERVAL_S = 0.02   # between two readings while a step runs

_SMALL = np.random.default_rng(20250618).random((16, 8))


def kernel() -> float:
    """A fixed piece of work; returns a value so nothing is optimised away."""
    table: dict = {}
    acc = 0.0
    for i in range(600):
        key = (i % 31, i % 7)
        acc += table.get(key, 0.0) * 0.5 + i * 1e-3
        table[key] = acc
    a = _SMALL
    for _ in range(6):
        a = np.clip(a * 0.99 + 0.01, 0.0, 1.0)
        acc += float(a.sum(axis=1)[np.argsort(a[:, 0])[0]])
    return acc


class Gauge:
    """Reads the kernel on a timer during each step; see the module docstring.

    `run(fn)` runs one step and returns (its output, its time without the
    readings, its reference time). `seconds` is the run's mean kernel time.
    """

    def __init__(self):
        kernel()  # the first call pays for numpy's lazy set-up
        self.count = 0
        self.spent = 0.0
        self.total_count = 0
        self.total_spent = 0.0
        self.last = NOMINAL_S

    def _read(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.spent += time.perf_counter() - start
        self.count += 1

    def run(self, fn):
        self.count, self.spent = 0, 0.0
        previous = signal.signal(signal.SIGALRM, self._read)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        took = wall - self.spent
        if self.count:  # a step shorter than the interval keeps the last reading
            self.last = self.spent / self.count
            self.total_count += self.count
            self.total_spent += self.spent
        return out, took, took * NOMINAL_S / self.last

    def seconds(self) -> float:
        return self.total_spent / self.total_count if self.total_count else NOMINAL_S
