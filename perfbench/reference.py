"""A fixed reference workload, timed among the program's work to factor
out machine speed.

On a shared 2-core host the speed of the core a run is on changes by up to
a half within seconds and by up to 2.4x over minutes, with CPU time equal to
wall time, so raw wall times of the same work do not repeat. A kernel
timed on another core does not follow these changes, and one timed only
before and after a long operation misses those inside it. `KernelSampler`
therefore interrupts the timed work every half second and runs the kernel on
the same thread; dividing the work's own time by the kernel's mean time
keeps what the program changed. The kernel mixes the kinds of work partqr
does: interpreter loops, small numpy operations and small HiGHS LPs. It uses
numpy and scipy only, so no change to partqr moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

PY_ITERATIONS = 100_000
NUMPY_ITERATIONS = 1_500
LP_SOLVES = 4
LP_ROWS = 60
LP_COLS = 20


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(LP_ROWS, LP_COLS))
        eye = np.eye(LP_ROWS)
        self._a_eq = np.hstack([a, -a, eye, -eye])
        self._b_eq = rng.normal(size=LP_ROWS)
        self._c = np.concatenate([np.full(2 * LP_COLS, 0.1), np.full(2 * LP_ROWS, 0.5)])
        self._x = np.arange(64.0)

    def run(self) -> None:
        total = 0
        for i in range(PY_ITERATIONS):
            total += i * i
        x = self._x
        for _ in range(NUMPY_ITERATIONS):
            x = np.sort(np.sin(x) * 64.0)
            np.cumsum(x)
        for _ in range(LP_SOLVES):
            res = linprog(self._c, A_eq=self._a_eq, b_eq=self._b_eq, bounds=(0, None), method="highs")
            if res.status != 0:
                raise RuntimeError(f"reference LP failed: {res.message}")

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


class KernelSampler:
    """Times a part of the work with the reference kernel run inside it.

    Within `measure`, SIGALRM fires every `interval` seconds and its handler
    runs the kernel; the part's time excludes those runs. The kernel also
    runs once after the part, and the last such run counts as the next
    part's first sample, so even a part shorter than `interval` has two.
    """

    def __init__(self, interval: float = 0.5):
        self.kernel = ReferenceKernel()
        self.interval = interval
        self._samples: list[float] = []
        self.last = self.kernel.seconds()

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self.kernel.seconds())

    def measure(self, run) -> tuple[float, float]:
        """Run `run()`; return its wall time without the kernel's, and the
        mean kernel time around and inside it."""
        self._samples = [self.last]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        inside = self._samples[1:]
        self.last = self.kernel.seconds()
        return elapsed - sum(inside), statistics.mean(self._samples + [self.last])
