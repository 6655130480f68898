"""Host-speed probe: pass times scaled to a fixed reference speed of the host.

On a small shared host the CPU's speed changes by up to 2x within a second
(a busy neighbour on the same physical core), and its fast state itself
drifts by 10-20% over minutes.  CPU time moves with wall time, and no
hardware counter is exposed, so medians of raw wall times over 40 s runs
still moved by 30-45% between runs.

The probe interrupts the main thread every ``TICK`` seconds (SIGALRM) and
times a fixed kernel owned by the benchmark, not by the program: an
interpreter loop, small symmetric eigensolves and a JSON round trip, the
three kinds of work the workloads do.  Ticks are uniform in time, so the
mean of ``REFERENCE_S / kernel_time`` over the ticks inside a pass is the
host's mean speed during the pass relative to the reference.  A pass's
scaled time is its wall time, less the time spent in the kernel, times
that mean: the seconds the pass would have taken on a host that runs the
kernel in ``REFERENCE_S``.  The wall times are recorded beside it.

Python runs signal handlers between bytecodes, so a tick that falls inside
a long call into C code waits for it to return.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

TICK = 0.025  # seconds between samples; the kernel costs about 3% of a pass
# Kernel time in the fast state of a 2-vCPU x86_64 (Xeon, Sapphire Rapids) host
# with Python 3.11 and numpy 2.4: the unit scaled times are given in.
REFERENCE_S = 0.0008

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((24, 24))
_MATRIX = _MATRIX + _MATRIX.T
_RECORDS = [[float(x), float(-x)] for x in _rng.standard_normal(150)]


def _kernel() -> int:
    x = 0
    for i in range(1500):
        x += i * i
    for _ in range(5):
        np.linalg.eigvalsh(_MATRIX)
    return x + len(json.loads(json.dumps(_RECORDS)))


_kernel()  # the first call loads LAPACK and warms caches; no sample should pay for it

class SpeedProbe:
    """Samples (start, kernel seconds) on a timer while it is running."""

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._tick(None, None)  # so that even a run shorter than a tick has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def fast_state_s(self) -> float:
        """5th percentile kernel time of the run, for the record."""
        return sorted(t for _, t in self.samples)[len(self.samples) // 20]

    def scale(self, spans) -> list:
        """Scaled times of passes given as (start, end) perf_counter pairs.

        A pass too short to hold a tick takes the mean speed of the run.
        """
        run_speed = statistics.fmean(REFERENCE_S / t for _, t in self.samples)
        scaled, k = [], 0
        for start, end in spans:
            while k < len(self.samples) and self.samples[k][0] < start:
                k += 1
            inside = []
            while k < len(self.samples) and self.samples[k][0] < end:
                inside.append(self.samples[k][1])
                k += 1
            work = (end - start) - sum(inside)
            speed = statistics.fmean(REFERENCE_S / t for t in inside) if inside else run_speed
            scaled.append(work * speed)
        return scaled
