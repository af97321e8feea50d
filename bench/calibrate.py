"""Host-speed calibration of the benchmark's times.

The shared machines this benchmark runs on change speed from one second to
the next: a fixed 2 ms pure-Python computation took either about 1.1 ms or
about 2.0 ms, switching every few tenths of a second (consistent with a busy
or idle neighbour on the same physical core), and the share of slow time
drifts over minutes, so whole runs of one workload differed by up to 30%.
Interleaving the operations spreads that over all operations of a run, but
not over runs.

So after every operation the benchmark runs a fixed reference computation,
pure-Python ``Fraction`` arithmetic that shares no code with knotobs, for
``SHARE`` of the operation's wall time.  The reference thus samples the
host's speed in proportion to time, and every time measured in a round is
multiplied by ``NOMINAL_S`` over the mean reference time of that round.
Reported times are seconds on a host that runs the reference in
``NOMINAL_S``, which is close to raw seconds on the machine the README's
figures come from; a change to knotobs scales them as it scales raw times.
The raw (uncalibrated) metrics stay in the result file.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.002
SHARE = 0.05
MIN_REFS = 20


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


class Calibrator:
    """Runs the reference after each measured interval and turns every
    interval's raw seconds into nominal seconds by the reference times taken
    around it."""

    def __init__(self):
        self.events: list[list[float]] = []  # reference times after each interval
        self.spent = 0.0  # seconds spent in the reference, for callers to exclude
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        self._owed += SHARE * seconds
        refs = []
        while self._owed > 0:
            ref = reference_seconds()
            self._owed -= ref
            refs.append(ref)
        self.spent += sum(refs)
        self.events.append(refs)

    def factors(self) -> list[float]:
        """One factor per interval: NOMINAL_S over the mean of the nearest
        MIN_REFS or more reference times, taken symmetrically around it."""
        out = []
        for j in range(len(self.events)):
            lo = hi = j
            refs = list(self.events[j])
            while len(refs) < MIN_REFS and (lo > 0 or hi < len(self.events) - 1):
                if lo > 0:
                    lo -= 1
                    refs += self.events[lo]
                if hi < len(self.events) - 1:
                    hi += 1
                    refs += self.events[hi]
            out.append(NOMINAL_S * len(refs) / sum(refs))
        return out

    def overall(self) -> float:
        refs = [r for event in self.events for r in event]
        return NOMINAL_S * len(refs) / sum(refs)
