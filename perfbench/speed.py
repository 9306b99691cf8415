"""Host-speed probe: rescale measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x for stretches of 5-30 s as other tenants come and go; the CPU
time of a fixed piece of work swings with it, so neither wall nor CPU
time of one cold repetition is steady.  :class:`SpeedProbe` samples the
host's speed throughout a measured region: a real-time interval timer
interrupts the process every :data:`INTERVAL_S` and the handler times a
fixed calibration loop in thread CPU time (so waiting for a CPU does not
count).  A region's *reference seconds* are its wall seconds times the
mean of ``REFERENCE_COST_S / cost`` over the samples taken inside it:
the time the region would have taken at the speed where one calibration
costs :data:`REFERENCE_COST_S`.

The calibration is a tight bytecode loop of list subscripts and integer
adds on a table that stays in the L1 cache.  Timing page synthesis and
probe scans against candidate calibrations on the shared host picked
it: the simulator's log-slowdown was 0.7-1.05 times the loop's, against
1.05-1.6 times for C-heavy work (stable hashes, ``random.Random``
seeding) and 0.3 times for a pointer chase through a table far larger
than L2, which contention slows much more than the simulator.  Sampling
costs about 0.3% of the process's time.  Interval timers are not
inherited across ``fork``: a process pool's workers start probes of
their own, and a region's speed pools the samples of all of them.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Tuple

#: Seconds between samples.
INTERVAL_S = 0.02
#: Thread CPU seconds of one calibration at full speed on an unloaded
#: 2-vCPU Xeon host; any constant works, it only sets the unit.
REFERENCE_COST_S = 30e-6

#: A permutation of 0-255 (odd multiplier modulo a power of two).
_TABLE = [(index * 167) % 256 for index in range(256)]
_STARTS = [(index * 77) % 256 for index in range(1200)]


def calibrate() -> int:
    """The fixed calibration work (~30 us): 1,200 two-level lookups."""
    table = _TABLE
    total = 0
    for index in _STARTS:
        total += table[table[index]]
    return total


def mean_speed(samples, start: float, end: float) -> Optional[float]:
    """Mean host speed (1.0 = reference) of the samples in ``[start, end]``.

    ``samples`` are (wall instant, calibration cost) pairs, from one
    process or pooled from several (``perf_counter`` is system-wide).
    """
    ratios = [REFERENCE_COST_S / cost for instant, cost in samples
              if start <= instant <= end and cost > 0]
    return sum(ratios) / len(ratios) if ratios else None


class SpeedProbe:
    """Samples the cost of :func:`calibrate` on a real-time timer."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: (wall instant, thread CPU seconds of one calibration).
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        clock = time.thread_time
        first = clock()
        calibrate()
        second = clock()
        calibrate()
        third = clock()
        # The cheaper of two back-to-back runs drops most interrupts.
        self.samples.append((time.perf_counter(),
                             min(second - first, third - second)))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, start: float, end: float) -> Optional[float]:
        """Mean host speed over ``[start, end]`` (1.0 = reference)."""
        return mean_speed(self.samples, start, end)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` rescaled to reference speed.

        A region too short to hold a sample is taken at face value.
        """
        speed = self.speed(start, end)
        return (end - start) * (speed if speed is not None else 1.0)
