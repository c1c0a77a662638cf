"""Scale host seconds to a nominal host speed.

On a shared virtual machine the speed of the host drifts: on the 2-vCPU
VM this benchmark was built on, the same simulator iteration took from
1.7 s to 2.5 s within minutes, with no change to the program.  The drift
moves every piece of pure-Python code alike, so while the benchmark
measures, a timer signal runs a fixed reference loop every
``INTERVAL_S``.  A time measured over an interval is rescaled by
``NOMINAL_S / reference``, where ``reference`` is the mean duration of the
loops run within ``WINDOW_S`` of the interval: it reads as the host seconds
the work would take on a host that runs the loop in ``NOMINAL_S``.  The
raw host seconds are printed next to every scaled metric.

The loop does what the simulator's hot paths do (build small objects,
pack tuples, format floats into strings), with the garbage collector off
so that the program's heap does not enter the measurement, and it frees
what it builds as it goes, so it does not move the peak memory either.  It takes
about 2% of the host time; that share is taken out of every scaled time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, List, Optional, Tuple

__all__ = ["HostSpeed", "NOMINAL_S"]

#: Host seconds of one reference loop at the nominal host speed, about
#: its usual time on the VM the benchmark was built on.
NOMINAL_S = 0.005
INTERVAL_S = 0.25
WINDOW_S = 1.0


class _Pair:
    __slots__ = ("value", "timestamp")

    def __init__(self, value: int, timestamp: float) -> None:
        self.value = value
        self.timestamp = timestamp


def _loop() -> int:
    total = 0
    for i in range(5000):
        pair = _Pair(i, float(i))
        # Each round frees the previous round's objects, so the loop
        # reuses the same few memory blocks and leaves the heap as it was.
        row = (pair.value, pair.timestamp * 0.5, f"{i};{pair.timestamp}")
        total += len(row[2])
    return total


class HostSpeed:
    """Samples the host's speed while the benchmark measures.

    Use it as a context manager around the measurements; only inside it
    does the timer signal fire.
    """

    def __init__(self) -> None:
        #: (start, duration) of every reference loop, in perf_counter time.
        self.samples: List[Tuple[float, float]] = []
        self._previous: Optional[Any] = None

    def __enter__(self) -> "HostSpeed":
        for _ in range(3):
            _loop()  # the first runs pay for specialising the bytecode
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal: Any) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _loop()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def factor(self, start: float, end: float) -> float:
        """Scale factor for work done between two perf_counter readings."""
        near = [d for t, d in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return NOMINAL_S / statistics.mean(near)

    def scaled(self, start: float, end: float, elapsed: float) -> float:
        """``elapsed`` host seconds timed within [start, end], rescaled.

        The reference loops run inside [start, end] are taken out first,
        in proportion to the share of the interval that was timed.
        """
        inside = sum(d for t, d in self.samples if start <= t <= end)
        if end > start:
            elapsed -= inside * min(elapsed / (end - start), 1.0)
        return elapsed * self.factor(start, end)
