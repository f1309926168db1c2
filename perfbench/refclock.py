"""A reference clock for a host whose CPU speed swings.

On a shared host the speed of one CPU changes by up to a half within
seconds, and the swing shows in CPU time as much as in wall time (the
median time of a fixed loop over two-second windows ranged from 2.6 to
4.4 ms within one minute, with no steal time counted).  Wall-clock times of
two runs therefore cannot be compared to within a few per cent.

`RefClock` runs a fixed reference loop from a SIGALRM handler every
`PERIOD_S` seconds of wall time, also in the middle of an operation, and
records when it ran and how long it took.  An operation's time, less the
time the handler took inside it, divided by the mean reference time around
it, is the operation's cost in reference units (`ref`): how many runs of the
reference loop it takes on the same CPU at the same moment.  A change to the
package moves that cost; a change in the host's speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
# reference samples within this distance of an operation set its scale
WINDOW_S = 0.05
MIN_SAMPLES = 3

_SQUARES = {i: i * i for i in range(500)}
_ITEMS = list(range(200))
_TABLE = np.arange(64).reshape(8, 8) % 8
# a band's table as nested lists: x*y keeps x's high bits and y's low bit
_ROWS = [[(x & ~1) | (y & 1) for y in range(8)] for x in range(8)]


def reference_loop() -> int:
    """Fixed work in the package's mix: dict, tuple and sort work in Python,
    an associativity check over a table held in lists, and indexing,
    comparing and listing small numpy tables."""
    total = 0
    for _ in range(8):
        for row_x in _ROWS:
            for y in range(8):
                row_xy, row_y = _ROWS[row_x[y]], _ROWS[y]
                for z in range(8):
                    total += row_xy[z] == row_x[row_y[z]]
    for _ in range(2):
        for k in range(500):
            total += _SQUARES[k] & 7
    ordered = sorted(_ITEMS, key=lambda x: (x * 7) % 13)
    counts: dict = {}
    for x in ordered:
        counts[(x, x & 3)] = counts.get((x & 3, x), 0) + 1
    total += len(counts)
    for _ in range(12):
        table = _TABLE[_TABLE[:, 3]][:, _TABLE[2]]
        total += int((table == _TABLE).sum()) + len(table.tolist())
    return total


class RefClock:
    """Samples the reference loop on a wall-clock timer while it runs."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list = []
        self.ends: list = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        # a signal that arrives while a sample runs is dropped, so samples
        # never nest and stay in time order
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def __enter__(self):
        for _ in range(20):
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median_s(self) -> float:
        durations = sorted(e - s for s, e in zip(self.starts, self.ends))
        return durations[len(durations) // 2]

    def scale(self, intervals) -> list:
        """For each (start, end) interval: (its time less the handler's time
        inside it, the mean reference time around it)."""
        starts, ends = self.starts, self.ends
        if len(starts) < MIN_SAMPLES:
            raise RuntimeError("too few reference samples: the run is too short")
        mids = [(s + e) / 2 for s, e in zip(starts, ends)]
        prefix = [0.0]
        for s, e in zip(starts, ends):
            prefix.append(prefix[-1] + (e - s))
        out = []
        for a, b in intervals:
            # samples never overlap an interval's ends: the handler runs
            # between the timed calls, not across a clock reading
            inside = prefix[bisect.bisect_right(ends, b)] - prefix[bisect.bisect_left(starts, a)]
            lo = bisect.bisect_left(mids, a - WINDOW_S)
            hi = bisect.bisect_right(mids, b + WINDOW_S)
            while hi - lo < MIN_SAMPLES:
                # widen towards the nearer remaining sample
                if lo > 0 and (hi == len(mids) or a - mids[lo - 1] <= mids[hi] - b):
                    lo -= 1
                else:
                    hi += 1
            out.append(((b - a) - max(inside, 0.0), (prefix[hi] - prefix[lo]) / (hi - lo)))
        return out
