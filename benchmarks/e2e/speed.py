"""Machine-speed probe: puts every measured time on one reference speed.

The benchmark runs on a few vCPUs of a shared host, and neighbours slow
the whole VM by up to half for seconds to minutes at a time.  A fixed
pure-Python loop slows by the same factor as the workload does, so the
worker runs that loop (a *probe sample*, ~2 ms) on a ``SIGPROF`` timer
every 100 ms of CPU time and reports each time as

    (wall time - probe time inside it) * REFERENCE_PROBE_S / local probe

where *local probe* is the median probe sample within ``WINDOW_S`` of
the measured interval.  On the reference VM at full speed the factor is
1, and the result is the wall time a user there would see.

``ITIMER_PROF`` leaves ``ITIMER_REAL`` (the engine's SIGALRM job
deadlines) alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

clock = time.perf_counter

PROBE_ITERATIONS = 10000
#: median probe sample on the reference VM (2-vCPU Intel Xeon at 2.1 GHz,
#: Python 3.11.7) at full speed
REFERENCE_PROBE_S = 0.0018
INTERVAL_S = 0.1
WINDOW_S = 1.0
_TABLE_SIZE = 4096


def _spin(table: List[int], n: int) -> int:
    """Interpreter-bound work: indexing, arithmetic, dict stores."""
    acc = 0
    seen = {}
    for i in range(n):
        acc = (acc * 31 + table[(acc ^ i) & (_TABLE_SIZE - 1)]) & 0xFFFFF
        seen[acc & 1023] = i
    return acc


class SpeedProbe:
    """Probe samples taken on a CPU-time timer, and normalization by them.

    ``recorder`` (a ``tracing.Recorder``) records each sample as a
    ``bench.probe`` span, so traced self times exclude the probe.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ends: List[float] = []
        self.durations: List[float] = []
        self._table = list(range(_TABLE_SIZE))

    def sample(self, *_signal_args) -> None:
        """Take one probe sample (also the ``SIGPROF`` handler)."""
        if self.recorder is not None:
            with self.recorder.span("bench.probe"):
                self._sample()
        else:
            self._sample()

    def _sample(self) -> None:
        started = clock()
        _spin(self._table, PROBE_ITERATIONS)
        ended = clock()
        self.ends.append(ended)
        self.durations.append(ended - started)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def probe_inside(self, start: float, end: float) -> float:
        """Seconds of probe samples that ran within ``[start, end]``."""
        lo, hi = bisect_right(self.ends, start), bisect_right(self.ends, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference speed ÷ the machine's speed around ``[start, end]``."""
        lo = bisect_left(self.ends, start - WINDOW_S)
        hi = bisect_right(self.ends, end + WINDOW_S)
        local = self.durations[lo:hi] or self.durations
        return REFERENCE_PROBE_S / statistics.median(local)

    def normalized(self, start: float, end: float) -> float:
        """``end - start`` without probe time, at the reference speed."""
        return (end - start - self.probe_inside(start, end)) * self.factor(start, end)
