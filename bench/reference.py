"""The benchmark's reference kernel: fixed work that tracks the host's speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes, with no steal time to show it.  ``bench/run.py`` times
this kernel next to every timed operation and reports each operation's
seconds scaled by REF_S over the kernel's time: the time it would take on a
machine where the kernel takes REF_S.  The kernel is frozen here, so a
change to the program moves only the operation's side of the ratio.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.020           # s: the kernel's time on a quiet 2-vCPU Intel Xeon
REF_STEPS = 900         # RK4 steps of the compute part: ~12 ms quiet
REF_TABLE = 400_000     # ints in the memory part: ~15 MB, past the caches
REF_READS = 20_000      # reads of the memory part: ~8 ms quiet


class ReferenceKernel:
    """A fixed piece of work in two parts, timed together.

    The compute part is RK4 steps of an 8-state linear system in small numpy
    products, a per-step mode table and a formatted text row every tenth
    step.  The memory part reads a table of REF_TABLE Python ints in a fixed
    random order.  Contention from other tenants of a core slows the two
    unequally (on a 2-vCPU Intel Xeon, 1.8-2.0x against 1.4x, the program's
    operations 1.6-1.8x).  Over 288 operations in 4 minutes of that host,
    simulate commands, ensemble seeds and sweep cells alike, a 60:40 split
    of quiet time between the parts left the least spread in scaled
    operation times: 0.11-0.15 of the median, against 0.22-0.29 unscaled.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = list(range(REF_TABLE))
        self.order = rng.integers(0, REF_TABLE, REF_READS).tolist()
        self.A = np.eye(8) * -0.5 + np.diag(np.ones(7), 1) * 0.3

    def __call__(self) -> float:
        """Seconds of one pass of both parts."""
        t0 = time.perf_counter()
        A, x, h = self.A, np.ones(8), 0.01
        rows = []
        for k in range(REF_STEPS):
            k1 = A @ x
            k2 = A @ (x + 0.5 * h * k1)
            k3 = A @ (x + 0.5 * h * k2)
            k4 = A @ (x + h * k3)
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            modes = {i: ("cacc" if x[i] > 0.5 else "acc") for i in range(8)}
            rows.append(k * h)
            if k % 10 == 0:
                rows.append(",".join(f"{v:.6f}" for v in x) + modes[0])
        table, total, last = self.table, 0, {}
        for i in self.order:
            total += table[i]
            last[i & 4095] = total
        return time.perf_counter() - t0
