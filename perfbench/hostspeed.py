"""Host-speed calibration, so that times are those of a reference-speed host.

On a shared host the CPU can run 1.6x slower for seconds to minutes while
neighbours are busy, and a raw wall time then measures the neighbours as
much as the program.  While timed work runs, ``HostMeter`` interrupts it
every ``INTERVAL_S`` (SIGALRM) to time a small fixed kernel of numpy and
Python object work.  A measured time, net of those interruptions, is then
multiplied by ``REF_S`` over the median kernel time around it: the kernel
slows with the host, so the product keeps the program's cost and drops most
of the drift.  A factor of 1 means the kernel took exactly ``REF_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_S = 1.0e-3
INTERVAL_S = 0.05
PAD_S = 0.1  # kernel samples this close to a timed call describe its host speed
MIN_SAMPLES = 3


def kernel_s() -> float:
    """Seconds for one run of a fixed kernel: small numpy ops plus object churn.

    Both halves matter.  Under contention, small numpy calls and Python
    object work slow by more than a tight integer loop does; with this mix,
    the ratios of a detect scene, 150 softmax steps and 150 binary steps to
    the kernel stayed within 4-7% over four minutes in which their raw
    times moved by 63-72%.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the host
    start = time.perf_counter()
    a = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
    b = np.linspace(-1.0, 1.0, 16 * 10).reshape(16, 10)
    for _ in range(12):
        z = a @ b
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        q = e / e.sum(axis=1, keepdims=True)
        q.T @ a
    rows = [{"x": i * 0.5, "y": float(i % 7), "k": str(i % 13)} for i in range(600)]
    rows.sort(key=lambda r: (r["k"], -r["x"]))
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


def factor(samples: list[float]) -> float:
    """Multiplier from measured seconds to reference-host seconds."""
    return REF_S / statistics.median(samples)


class HostMeter:
    """Kernel timings taken from a timer signal while the meter is entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (mid time, kernel seconds)
        self.spent = 0.0  # seconds spent in the signal handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        took = kernel_s()
        self.samples.append((start + took / 2, took))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args) -> tuple[object, tuple[float, float, float]]:
        """fn's result and its (start, end, seconds net of the meter's own)."""
        spent = self.spent
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, (start, end, end - start - (self.spent - spent))

    def factor_between(self, start: float, end: float) -> float:
        near = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        if len(near) < MIN_SAMPLES:
            mid = (start + end) / 2
            closest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            near = [d for _, d in closest[:MIN_SAMPLES]]
        if len(near) < MIN_SAMPLES:  # the meter was never entered
            near = [kernel_s() for _ in range(MIN_SAMPLES)]
        return factor(near)

    def reference_s(self, timing: tuple[float, float, float]) -> float:
        """A ``timed`` measurement in reference-host seconds.

        Call it after the samples that follow the call have been taken.
        """
        start, end, net = timing
        return net * self.factor_between(start, end)
