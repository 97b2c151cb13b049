"""How fast the core runs while a pass runs, sampled by a timer signal.

On a shared cloud VM the vCPUs share physical cores with other tenants: a core
slows by up to 1.8x, for a fraction of a second to minutes, whenever its
sibling is busy.  A pass that takes 6 s on a quiet core takes 7-9 s on a busy
one, and the busy share drifts over minutes, so the wall time of the same
pass spreads by ~20% between runs however many passes a run takes.

While a pass runs, an interval timer interrupts it every ``INTERVAL_S`` and
times ``probe()``: a fixed pure-Python loop and a few small numpy calls, the
mix the workloads run.  The pass's wall time minus the probes' time is its
own wall time; scaled by (``REFERENCE_S`` / mean probe time) **
``SENSITIVITY``, it is the pass's wall time at the reference core speed.
The probes take ~1.5% of the pass, and a change to kreinfield does not
change them.  Over 53 passes of the four workloads this cut the spread
between passes of one workload from 0.09-0.22 of the median to 0.02-0.06.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# mean time of probe() inside a pass on a quiet core of a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4): the core speed wall_ref_s is expressed at
REFERENCE_S = 1.1e-3
# the workloads slow more than the probe on a busy core: across the four,
# log(pass time) rose 1.2-1.45 times as fast as log(mean probe time)
SENSITIVITY = 1.3
_X = np.random.default_rng(0).standard_normal((32, 32))
_SYM = _X + _X.T


def probe() -> float:
    s = 0
    for i in range(8000):
        s += i * i % 7
    y = np.fft.ifft2(np.fft.fft2(_X) * 0.5).real
    return s + float(y[0, 0]) + float(np.linalg.eigvalsh(_SYM)[0]) + float(np.cos(_X).sum())


class HostSpeed:
    """Times ``probe()`` on SIGALRM between ``start()`` and ``stop()``."""

    def __init__(self):
        self.durations = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self, wall_s: float) -> dict:
        """The pass's own wall time and its wall time at the reference speed."""
        probed = sum(self.durations)
        own = wall_s - probed
        mean = probed / len(self.durations) if self.durations else REFERENCE_S
        return {
            "wall_s": own,
            "wall_ref_s": own * (REFERENCE_S / mean) ** SENSITIVITY,
            "probes": len(self.durations),
            "probe_mean_s": mean,
        }
