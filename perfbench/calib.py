"""Host-speed calibration: a fixed loop timed while the workload runs.

The benchmark runs on a few vCPUs of a shared host, whose speed changes by up
to a factor of two from one second or minute to the next as other tenants
load it; the process's own CPU time grows with its wall time, so the
slowdown is in the hardware it shares, not in scheduling.  A timing taken
alone then measures the neighbours as much as spinpulse.

So the benchmark also times a short fixed loop, which does the same kind of
work as the workloads (interpreted Python around small numpy arrays) and
never calls spinpulse.  In a timed run a ``Sampler`` runs it every
``PERIOD_S`` from a SIGALRM handler, which Python runs in the main thread
between bytecodes, so samples land inside long operations too.  The time a
sample takes inside an operation is taken off that operation's time, and the
operation is scaled by ``REFERENCE_S`` over the mean of the samples within
``WINDOW_S`` of it.  A set-up interpreter is scaled by loops timed just
before and after it.  A scaled time reads as the wall time on a host where
the loop takes ``REFERENCE_S``: about the quiet speed of the two-vCPU x86 VM
the bounds were set on.  A change to spinpulse moves the scaled times as it
moves the wall times; the loop is the same for every commit.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

# Seconds one loop takes on the reference host when no neighbour loads it.
REFERENCE_S = 0.0015
# Wall time between samples in a timed run.
PERIOD_S = 0.1
# Samples up to this many seconds before an operation starts or after it
# ends count towards its scale.
WINDOW_S = 0.5
# Loops timed together on each side of a set-up interpreter.
SETUP_LOOPS = 5
_ITERS = 200
_GRID = np.linspace(0.0, 1.0, 257)
_ROT = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def _loop():
    # Small numpy calls in an interpreted loop.  On the reference host a
    # loaded neighbour slows this by a little more than it slows echo_fit and
    # a little less than nutation; a loop with bare interpreter work in it too
    # was slowed less, and left nutation's scaled times rising with the load.
    v = np.array([1.0, 0.0], dtype=complex)
    acc = 0.0
    for i in range(_ITERS):
        v = _ROT @ v
        acc += math.sin(1e-3 * i) * v[0].real + float(np.sum(np.cos(_GRID * (i % 7))))
    return acc


def measure():
    """Seconds one loop takes now, as the mean of SETUP_LOOPS loops."""
    t0 = time.perf_counter()
    for _ in range(SETUP_LOOPS):
        _loop()
    return (time.perf_counter() - t0) / SETUP_LOOPS


def scale(seconds, before, after):
    """``seconds`` of wall time, taken between loops of ``before`` and
    ``after`` seconds, at the reference host speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class Sampler:
    """Times the loop every PERIOD_S of wall time inside its ``with`` block,
    and once on entry and once on exit.  ``samples`` holds (start_ns,
    seconds) pairs on the ``time.perf_counter_ns`` clock."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self._previous = None

    def sample(self, *_signal):
        t0 = time.perf_counter_ns()
        _loop()
        self.samples.append((t0, (time.perf_counter_ns() - t0) / 1e9))

    def __enter__(self):
        _loop()  # first-call costs stay out of the samples
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False


def scale_all(spans, samples):
    """Each operation's time in ms at the reference host speed.

    ``spans`` are the operations' (start_ns, end_ns) and ``samples`` a
    Sampler's, with one before the first operation and one after the last.
    Samples that started inside an operation are taken off its time.  Its
    scale is the mean of the samples within WINDOW_S of it, counting always
    the sample just before and just after it.
    """
    starts = [t for t, _ in samples]
    window = int(WINDOW_S * 1e9)
    out = []
    for t0, t1 in spans:
        inside = sum(s for _, s in samples[bisect.bisect_left(starts, t0):
                                          bisect.bisect_left(starts, t1)])
        lo = min(bisect.bisect_left(starts, t0 - window), bisect.bisect_right(starts, t0) - 1)
        hi = max(bisect.bisect_right(starts, t1 + window), bisect.bisect_left(starts, t1) + 1)
        near = [s for _, s in samples[lo:hi]]
        out.append(((t1 - t0) / 1e6 - inside * 1e3) * REFERENCE_S * len(near) / sum(near))
    return out
