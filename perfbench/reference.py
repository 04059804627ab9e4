"""Host-speed references: fixed work timed around every op and set-up.

The machine this benchmark runs on is shared.  Its speed drifts by up to
about 1.6x over seconds to minutes as other tenants load the host, CPU time
drifts with it, and a slow spell can outlast a whole run, so raw medians
depend on when a run happened.  The benchmark therefore times a fixed piece
of its own work (never flatkernels code) right before and after each timed
op, and reports

    scaled latency = latency * nominal / mean(reference before, reference after)

the latency the op would have had on a host where the reference takes its
nominal time.  Drift that slows the program and the reference alike cancels;
a change to flatkernels moves only the op.  The reference is the same kind of
work as what it scales, because host load slows kinds of work unequally:

* fresh processes (CLI ops and every set-up) are scaled by a fresh
  interpreter that imports numpy: process start, imports and interpreted
  Python, what a CLI op spends most of its time on;
* the in-process library op, vectorised numpy over large arrays, is scaled by
  vectorised passes over an array too large for the caches.

Raw latencies are printed beside the scaled ones.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# The references' times on a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4)
# when it is not slowed; constants, so they only fix the scale of the seconds.
PROCESS_NOMINAL_S = 0.15
ARRAY_NOMINAL_S = 0.015

PROCESS_ARGV = (sys.executable, "-c", "import numpy")

@functools.cache
def _arrays():
    # allocated on first use: the parent that times CLI children must stay
    # small, because a forked child's peak RSS counts the parent's pages
    x = np.linspace(0.0, 1.0, 1 << 20)  # 8 MiB
    return x, np.zeros_like(x)


def array_probe() -> float:
    """Seconds that a few vectorised passes over 8 MiB arrays take now."""
    x, out = _arrays()
    t0 = time.perf_counter()
    for _ in range(12):
        np.add(x, out, out=out)
        np.multiply(out, 0.5, out=out)
    return time.perf_counter() - t0


class Scaler:
    """Brackets timed work with reference probes: after each op, `scale()`
    gives nominal / mean(probe before, probe after)."""

    def __init__(self, probe, nominal: float):
        self.probe, self.nominal = probe, nominal
        self.last = probe()

    def scale(self) -> float:
        before, self.last = self.last, self.probe()
        return self.nominal / (0.5 * (before + self.last))
