"""A fixed calibration kernel that measures how fast the host is right now.

On a shared machine the same request can take 30-100% longer for stretches
of seconds to minutes, because a neighbour is using the same physical core
(no steal time shows, and process CPU time grows with wall time).  A
median over a run then measures those stretches more than the program.
So, while an untraced run sends its requests, a timer interrupts it every
``PERIOD_S`` seconds and times this kernel; the kernel's time is taken out
of the request it interrupted.  run.py divides the run's mean request time
by the kernel's mean time: the quotient is the request's cost in units of
work that does not change from one commit to the next.

The kernel imitates the work of the workload it calibrates: interpreter
work (integer arithmetic, dict and list traffic) for every workload, plus,
for the lab workloads, numpy elementwise passes over a long array and a
small matrix product (as in the batch distance matrices) and numpy calls
on scalars and short arrays (as in the single-pair alignment).  The
algebra workload never imports numpy, so neither does its kernel.

``REFERENCE_S`` is the kernel's time on an unloaded host (a 2-vCPU Intel
Xeon VM, one BLAS thread, the fastest of several thousand repeats).
Multiplying the quotient by it reports the cost in seconds on that host.

Import time follows the host's swings less than the kernel does, so the
yardstick for setup_s is another import instead: ``REFERENCE_IMPORT``, a
fixed set of standard-library modules, timed in a fresh interpreter right
before and after each import probe.  ``REFERENCE_IMPORT_S`` is its fastest
time on the same host (of about 400).
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.25

# fastest kernel time on the reference host, per kind
REFERENCE_S = {"python": 0.0024, "lab": 0.0072}

REFERENCE_IMPORT = ("import argparse, json, fractions, decimal, email.message, http.client, "
                    "xml.dom.minidom, unittest, logging, typing, dataclasses, inspect, ast, "
                    "difflib, tarfile")
REFERENCE_IMPORT_S = 0.102


def _python_work() -> int:
    acc = 0
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    for i in range(12000):
        acc = (acc * 31 + i * i) % 1000003
        table[i % 211] = acc
        if i % 7 == 0:
            items.append((acc, i))
    items.sort()
    return acc + len(table) + items[0][0]


class Calibrator:
    """Times the kernel of one kind; the lab kind imports numpy."""

    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown calibration kind {kind!r}")
        self.kind = kind
        self.samples: list[float] = []
        if kind == "lab":
            import numpy as np

            rng = np.random.default_rng(0)
            self._x = rng.random(60000)
            self._m = rng.random((96, 96))
            self._trig = rng.random((4, 96))
            self._gammas = rng.random((12, 4, 4))
            self._y = rng.random(4)
        self._work()  # warm up: first calls pay for allocation and caches

    def _work(self) -> None:
        _python_work()
        if self.kind == "lab":
            import numpy as np

            x = self._x
            for _ in range(3):
                y = np.arccos(np.clip(np.cos(x) * 0.999, -1.0, 1.0))
                x = np.sqrt(y * y + 0.25) - 0.5
            self._m @ self._m @ self._m
            trig = self._trig
            for gamma in self._gammas:
                w = gamma @ self._y
                av = complex(0.3, -0.4) * (w[0] + 1j * w[1])
                grid = av.real * trig[0] - av.imag * trig[1] + trig[2] - trig[3]
                np.nonzero((grid >= np.roll(grid, 1)) & (grid >= np.roll(grid, -1)))
                theta = 0.1
                for _ in range(100):
                    theta += 0.01 * (av.real * np.cos(2 * theta) - av.imag * np.sin(3 * theta))

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S seconds.

    The handler runs in the main thread between two bytecodes of whatever
    is running, so the samples are spread evenly over the run, inside
    requests too.  ``spent_wall`` and ``spent_cpu`` add up the handler's own
    time, for the caller to take out of the request it interrupted.
    """

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        c0 = time.process_time()
        self.spent_wall += self.calibrator.measure()
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
