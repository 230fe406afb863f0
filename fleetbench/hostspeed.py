"""Host-speed probe: scales measured host time to a fixed reference speed.

On a shared host the same single-threaded work runs up to 1.7x slower for
seconds to minutes at a time (frequency states, a busy sibling core), and
CPU time tracks wall time, so raw timings of one commit spread by 15-20 %
between runs.  The probe below is a fixed piece of work in the simulator's
mix (small numpy draws and norms, dict updates).  It is timed before and
after every measured interval, and the interval is reported at reference
speed: ``seconds * REFERENCE_PROBE_S / mean(probe before, probe after)``,
where each probe time is the median of a few probes.
Speed changes that last longer than one interval cancel out; the probe uses
no code of the program under test, so a slower program still reads slower.
``selftest.py`` checks this: extra work added to every window step moves
the reference-speed step times by that work's own reference-speed cost.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Probe time that defines reference speed: about the probe's time on a
#: 2-core x86-64 cloud host (Python 3.11, numpy 2.4) in its fast state.
REFERENCE_PROBE_S = 0.0055

_PROBE_ITERATIONS = 600


def probe() -> float:
    """Host seconds the fixed probe work takes right now.

    The collector is off while it runs, so the size of the heap the program
    leaves behind cannot change the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        total = 0.0
        table = {}
        for i in range(_PROBE_ITERATIONS):
            offsets = rng.normal(0.0, 0.1, size=(6, 16))
            total += float(np.mean(np.linalg.norm(offsets, axis=1)))
            key = ("stream", i % 101)
            table[key] = table.get(key, 0.0) + total
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


#: Probing after an interval lasts about this share of the interval (one
#: probe at least, ``MAX_PROBES`` at most); more probes average out the
#: probe's own noise where the interval is long enough to afford them.
PROBE_SHARE = 0.1
MAX_PROBES = 9


class SpeedProbe:
    """Re-probes after each interval and scales it to reference speed."""

    def __init__(self) -> None:
        self._last = self._sample(0.0)

    @staticmethod
    def _sample(seconds: float) -> float:
        times = [probe()]
        while len(times) < MAX_PROBES and sum(times) < PROBE_SHARE * seconds:
            times.append(probe())
        return statistics.median(times)

    def scale(self, seconds: float) -> float:
        """Reference-speed equivalent of ``seconds`` measured just now."""
        before, self._last = self._last, self._sample(seconds)
        return seconds * REFERENCE_PROBE_S * 2.0 / (before + self._last)
