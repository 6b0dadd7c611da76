"""Wall time rescaled to the reference machine speed.

The benchmark's reference machine is a shared 2-core VM.  Its host slows
a process down by up to 1.7x, in stretches of a second to a minute, so
raw wall times of one program differ more between runs than between
versions of the program.  A :class:`Stopwatch` therefore samples the
machine's speed while it runs: every :data:`PROBE_INTERVAL_S` a
``SIGALRM`` handler times :func:`probe`, a fixed pure-Python kernel that
shares no code with the program.  The probe time is taken out of the
interval's wall time, and the rest is rescaled by
``PROBE_REFERENCE_S / mean(probe times)``: the time the interval would
have taken on the quiet reference machine.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

__all__ = ["PROBE_INTERVAL_S", "PROBE_REFERENCE_S", "Stopwatch", "probe"]

#: Seconds between speed samples inside a timed interval.
PROBE_INTERVAL_S = 0.2

#: Seconds :func:`probe` takes on the quiet reference machine (2-core
#: Intel Xeon VM, Python 3.11).
PROBE_REFERENCE_S = 0.0092


def probe() -> float:
    """Seconds of a fixed pure-Python kernel: the machine's speed now."""
    start = perf_counter()
    table: dict = {}
    total = 0
    for i in range(50_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return perf_counter() - start


class Stopwatch:
    """Times one interval, sampling the machine's speed inside it.

    ``wall_s`` is the interval's wall time without the samples;
    ``probe_s`` holds every sample plus one taken after the interval, so
    it is never empty.  Entering again adds a further interval.
    ``sampling=False`` takes no samples inside the interval (traced runs,
    whose spans the probe would inflate).  Sampling needs the main
    thread, which owns signal handlers.
    """

    def __init__(self, *, sampling: bool = True) -> None:
        self.sampling = sampling
        self.wall_s = 0.0
        self.probe_s: list[float] = []
        self._start = 0.0
        self._taken = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.probe_s.append(probe())

    def __enter__(self) -> "Stopwatch":
        self._taken = len(self.probe_s)
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        wall = perf_counter() - self._start
        self.wall_s += wall - sum(self.probe_s[self._taken:])
        self.probe_s.append(probe())

    @property
    def rescaled_s(self) -> float:
        return self.wall_s * PROBE_REFERENCE_S / statistics.mean(self.probe_s)
