"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark runs on a shared host whose speed for one process drifts by
30-50% in phases of seconds to minutes, which no amount of repetition
inside a 30 s run averages out.  So the timed runner probes this speed
between stages: before an iteration and after each of its stages it times
the kernels below, and it reports the iteration's wall time divided by the
mean probe time of that iteration (``wall_ref``).  A slow phase stretches
both about alike, so the ratio holds still while a change to scdh moves it.

The kernels use numpy only and never call scdh, so no change to the
package can move them.  One probe is the sum of two kernels, each the
fastest of REPS repetitions (about 85 ms in all):

- ``python_kernel``: a Python loop over small numpy matrix products, the
  mix of the per-sample training and loss loops;
- ``stream_kernel``: xor and popcount over two 8 MB word arrays, the mix of
  encoding, ranking and the Monte Carlo suites over large arrays.

Measured over ten seeds on each workload of a shared 2-vCPU VM, the ratio
spread about half as much as the raw wall time did.  The minimum over more
repetitions tracks better: on five seeds the spread was 0.15 / 0.10 / 0.07
with the best of 2 / 3 / 7 on supervised-clusters8, and the mean of the
repetitions did worse than their minimum.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 7
_WORDS = 1 << 20


class Probe:
    """Owns the kernels' inputs (about 25 MB) and times the kernels."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rows = rng.standard_normal((64, 32))
        self.cols = rng.standard_normal((32, 8))
        self.a = rng.integers(0, 2**62, size=_WORDS, dtype=np.uint64)
        self.b = rng.integers(0, 2**62, size=_WORDS, dtype=np.uint64)
        self.xor = np.empty_like(self.a)
        self.count = np.empty(_WORDS, dtype=np.uint8)

    def python_kernel(self) -> float:
        t0 = time.perf_counter()
        s = 0.0
        for _ in range(16):
            for row in self.rows:
                d = row @ self.cols
                s += float(d @ d) + float(np.abs(row).sum())
        return time.perf_counter() - t0

    def stream_kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.bitwise_xor(self.a, self.b, out=self.xor)
            np.bitwise_count(self.xor, out=self.count)
            int(self.count.sum(dtype=np.uint64))
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Seconds of one probe: the best of REPS runs of each kernel, summed."""
        return (min(self.python_kernel() for _ in range(REPS))
                + min(self.stream_kernel() for _ in range(REPS)))
