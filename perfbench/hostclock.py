"""Host-speed-normalised time for a shared machine.

On the 2-vCPU host this benchmark was built on, identical work runs 1.5 to
2.5 times slower for seconds at a time, flipping between a fast and a slow
state several times a minute, while the process keeps its CPU (its CPU share
stays near 1, so this is not preemption; the host's other tenants slow the
core itself).  Wall time then measures the neighbours as much as the program:
the median noise_floor draw read 185 us or 340 us depending on the state.

``HostClock`` times a fixed calibration block every PERIOD_S, from a SIGALRM
timer, and advances a reference clock by the wall time since the previous
sample scaled by REF_BLOCK_S / (the block's recent time).  A reference second
is a second of a host that runs the block in REF_BLOCK_S, its time in this
host's fast state.  The block mixes interpreted Python (parsing number text)
with small numpy calls and a clip-sum-noise step on a fresh PCG64 stream,
the mix fedsofim's hot paths have.  Over 31 stretches of 6 to 8 seconds in
11 minutes on this host, it cut the spread (IQR over median) of the
workloads' median call time from 0.15-0.26 in wall seconds to 0.04-0.08.  The
block's own time is excluded from both clocks and reported to ``on_pause``,
so a tracer can keep it out of every layer.

The block and REF_BLOCK_S are part of the benchmark's definition: changing
either changes every normalised number, so only a benchmark change may.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

PERIOD_S = 0.05
REF_BLOCK_S = 0.00035
# The rate follows the median of the last few blocks, so one block that the
# host stalled does not rescale a whole period.
WINDOW = 3
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """A SplitMix64-style finaliser, like fedsofim's stream-seed derivation; a
    copy, so that the block calls nothing in the program it calibrates for."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    return z ^ (z >> 31)


class HostClock:
    """Context manager: a reference clock that runs while the timer is armed."""

    def __init__(self):
        rng = np.random.default_rng(20240611)
        self._lines = [",".join(["3"] + [repr(float(x)) for x in rng.standard_normal(16)]) for _ in range(30)]
        self._matrix = rng.standard_normal((8, 8))
        self._rows = rng.standard_normal((20, 8))
        self._rng = rng
        self._recent = deque(maxlen=WINDOW)
        self.on_pause = None
        # (reference seconds, wall time they are counted to, reference seconds
        # per wall second, wall seconds spent in the block).  Replaced whole,
        # so a reader can tell that a sample ran while it was reading.
        self._state = None

    def _block(self) -> float:
        """Wall time of one calibration block."""
        begin = time.perf_counter()
        for line in self._lines:
            cells = line.split(",")
            int(cells[0])
            [float(c) for c in cells[1:]]
        v = self._rng.standard_normal(8)
        for _ in range(16):
            g = self._matrix @ v
            g = g * min(1.0, 10.0 / max(float(np.linalg.norm(g)), 1e-12))
            v = v + 0.1 * g
        for i in range(6):
            stream = np.random.Generator(np.random.PCG64(_mix64(_mix64(7 + i) ^ 3)))
            norms = np.linalg.norm(self._rows, axis=1)
            scale = np.minimum(1.0, 10.0 / np.maximum(norms, 1e-300))
            (self._rows * scale[:, None]).sum(axis=0) + stream.normal(0.0, 1.0, size=8)
        return time.perf_counter() - begin

    def _sample(self, *_signal_args) -> None:
        begin = time.perf_counter()
        ref, last, rate, spent = self._state
        ref += (begin - last) * rate
        self._recent.append(self._block())
        end = time.perf_counter()
        self._state = (ref, end, REF_BLOCK_S / statistics.median(self._recent), spent + (end - begin))
        if self.on_pause is not None:
            self.on_pause(end - begin)

    def read(self) -> tuple:
        """(reference seconds, wall seconds spent calibrating) so far."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:
                ref, last, rate, spent = state
                return ref + (now - last) * rate, spent

    def rate(self) -> float:
        """Reference seconds per wall second at the last sample."""
        return self._state[2]

    def __enter__(self):
        self._recent.append(self._block())
        self.started = time.perf_counter()
        self._state = (0.0, self.started, REF_BLOCK_S / self._recent[0], 0.0)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
