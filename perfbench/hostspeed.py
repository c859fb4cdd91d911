"""Host-speed probe: a fixed snippet of numpy work, timed inside each
benchmark child while that child runs.

On a shared VM the same code runs up to about 1.3x slower for phases of
seconds to minutes, and each vCPU slows on its own, so a probe timed in
another process, or between runs, does not track a run (README, "Noise").
Instead a SIGALRM every INTERVAL_S interrupts the run and runs the snippet
twice: once to bring its data and code back into the caches the run has
just used, once timed, so the timing follows the host and not the run's
cache footprint. The mean of those timings is the speed of the host over
the run. run.py takes the probes' own time (both calls) out of each
child's times and scales them by NOMINAL_S / mean.

    python3 perfbench/hostspeed.py [seconds]   # print the mean probe time
"""

from __future__ import annotations

import math
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.1

# mean snippet time on the 2-vCPU Xeon VM the benchmark was built on; it
# sets the speed that scaled times refer to, nothing else
NOMINAL_S = 5.0e-4

_X = np.linspace(0.0, 1.0, 256)
_V = (np.arange(512).reshape(256, 2) % 5).astype(complex)
_G = np.array([[0.0, 1.0j], [1.0j, 0.0]])
_B = (np.arange(1024 * 6).reshape(1024, 6) % 7).astype(complex)
_M = np.eye(6) * 0.5


def snippet() -> float:
    """About 0.5 ms in three equal parts, one for each kind of work that
    bounds a workload: scalar math around ufuncs on 256 values (the Dirac
    envelopes), stencils and fiber products on 256 x 2 values (RK4 stages
    on the 1D grids), and a per-site 6 x 6 product on 1024 x 6 values (the
    3D Maxwell stages)."""
    acc = 0.0
    for k in range(25):
        sp = 1.0 + 0.5 * np.cos(2.0 * math.pi * _X)
        acc += math.cos(0.1 * k) * float(sp[k])
    for _ in range(5):
        v = np.roll(_V, 1, axis=0) - np.roll(_V, -1, axis=0)
        acc += float(np.vdot(v @ _G.T, v).real)
    return acc + float(np.einsum("ij,sj->si", _M, _B)[0, 0].real)


class Probe:
    """Timings of the snippet, taken on a timer or in a burst."""

    def __init__(self):
        for _ in range(20):     # warm-up; not recorded
            snippet()
        self.times: list = []
        self.spent = 0.0

    def once(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        snippet()
        t1 = time.perf_counter()
        snippet()
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.once)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.once()

    def summary(self) -> dict:
        return {"probes": len(self.times), "probe_sum_s": self.spent,
                "probe_mean_s": sum(self.times) / len(self.times)}


if __name__ == "__main__":
    probe = Probe()
    probe.burst(float(sys.argv[1]) if len(sys.argv) > 1 else 5.0)
    print(probe.summary())
