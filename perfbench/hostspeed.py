"""Scale op CPU times to the baseline host's speed.

On a shared host the speed of a core drifts by 10-50% over seconds to
minutes as neighbours load the memory system and the core's other
hardware thread, and CPU time drifts with it: ten runs of the same
``field-zlib`` code read CPU-time medians 18-22% apart (IQR over
median).  A fixed reference kernel, timed between the benchmark's ops,
drifts the same way.  An op's scaled cost is its CPU seconds times
``REFERENCE_S`` over the mean of the kernel's CPU seconds just before
and just after the op: what the op would have cost on the baseline
host.

The kernel calls no ``repro`` code, so a change to the program cannot
move it.  It mixes three kinds of work the program does: scattered
reads from an array eight times the size of L2, zlib, and interpreted
Python.  Of the mixes tried (README.md), this one tracked the ops of
every workload best; streaming numpy passes were noisier than the ops
they were meant to track.
"""

from __future__ import annotations

import math
import statistics
import time
import zlib

import numpy as np

# Median CPU seconds of one kernel call on the baseline host
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2; see README.md).
REFERENCE_S = 0.025
EVERY_S = 0.2  # time the kernel again once the last timing is this old


class HostSpeed:
    """Reference-kernel timings interleaved with named ops' CPU times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # the same kernel input in every run
        self._big = rng.standard_normal(1 << 22)  # 32 MiB
        self._index = rng.integers(0, self._big.size, size=1 << 18)
        self._out = np.empty(self._index.size)
        self._payload = (self._big[: 1 << 14] * 1000).astype(np.int32).tobytes()
        self.refs: list[float] = []
        self._ops: dict[str, list[tuple[int, float]]] = {}
        self._last = -math.inf
        self.tick()

    def _kernel(self) -> None:
        for _ in range(2):
            np.take(self._big, self._index, out=self._out)
        zlib.compress(self._payload, 6)
        s = 0
        for i in range(100_000):
            s += i * i

    def tick(self) -> None:
        """Time one kernel call now."""
        c0 = time.process_time()
        self._kernel()
        self.refs.append(time.process_time() - c0)
        self._last = time.perf_counter()

    def due(self) -> None:
        """Time the kernel if the last timing is ``EVERY_S`` old."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.tick()

    def add(self, name: str, cpu_s: float) -> None:
        """Record an op's CPU seconds, taken since the latest timing."""
        self._ops.setdefault(name, []).append((len(self.refs) - 1, cpu_s))

    def scaled(self, name: str) -> list[float]:
        """Every ``name`` op's CPU seconds at the baseline host's speed."""
        ops = self._ops[name]
        if ops[-1][0] == len(self.refs) - 1:
            self.tick()  # the last op needs a timing after it
        refs = self.refs
        return [cpu * REFERENCE_S * 2 / (refs[i] + refs[i + 1]) for i, cpu in ops]

    def raw(self, name: str) -> list[float]:
        return [cpu for _, cpu in self._ops[name]]

    def factor(self) -> float:
        """How much slower than the baseline host this run's host was."""
        return statistics.median(self.refs) / REFERENCE_S
