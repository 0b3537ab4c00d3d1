"""How fast the machine runs while the benchmark runs.

The speed of the 2-core machine this benchmark was built on drifts by up to
2x within seconds and by 1.5x over minutes, with nothing else running.
To keep that drift out of the end-to-end times, a `Speed` sampler runs a
fixed probe every `INTERVAL_S` seconds of wall time, from a SIGALRM handler,
so the samples fall evenly over the timed work, including long inputs.  The
probe multiplies two sparse polynomials stored as dicts from exponent tuples
to coefficients modulo a prime: the same kind of work as the term kernel,
done by code of its own, so no change to toricpolar can change it.

An input's wall time, with the probes' own time taken out, times the mean
of REFERENCE_PROBE_S / probe time over the samples taken during it, is its
time in reference seconds: the wall time it would have taken at the
reference speed.  The set-up time, spent in child interpreters, is scaled
by the mean over all samples of the run.
"""

from __future__ import annotations

import gc
import random
import signal
import time

P = 2147483647
_rng = random.Random(20220508)
A = {tuple(_rng.randrange(5) for _ in range(4)): _rng.randrange(1, P) for _ in range(50)}
B = {tuple(_rng.randrange(5) for _ in range(4)): _rng.randrange(1, P) for _ in range(50)}

# Probe time at the reference speed, chosen so that on the 2-core Xeon at
# 2.0 GHz (Python 3.11) this benchmark was built on, times in reference
# seconds read close to wall seconds.
REFERENCE_PROBE_S = 0.0047
INTERVAL_S = 0.1
MIN_SAMPLES = 5


def probe() -> float:
    """Wall seconds of one product of A and B.

    The probe runs inside the measured process, so the garbage collector is
    off while it runs: otherwise the tuples it makes could trigger a
    collection of the program's own heap, and a program that keeps more
    objects alive would slow the probe and hide part of its own slowdown.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        r = {}
        for ea, ca in A.items():
            for eb, cb in B.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                r[e] = (r.get(e, 0) + ca * cb) % P
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def relative_speed(samples) -> float:
    """Mean of REFERENCE_PROBE_S / probe time over the samples: a time
    multiplied by it is in reference seconds."""
    return sum(REFERENCE_PROBE_S / s for s in samples) / len(samples)


class Speed:
    """Probe samples taken every INTERVAL_S while the sampler is active.

    `spent` is the wall time the probes took, to be subtracted from any
    interval timed while sampling.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, times, marks) -> list:
        """Scale the wall times of consecutive inputs to reference seconds.

        `marks[i]` is the slice of `samples` taken during input i.  Each
        input is scaled by the mean relative speed REFERENCE_PROBE_S / probe
        over its own samples.  An input with fewer than MIN_SAMPLES samples
        uses the whole pass, and a pass with fewer uses the latest
        MIN_SAMPLES samples of the run (probing now if the run has fewer).
        """
        first, last = marks[0][0], marks[-1][1]
        if last - first >= MIN_SAMPLES:
            whole = self._speed(first, last)
        else:
            while len(self.samples) < MIN_SAMPLES:
                self.samples.append(probe())
            whole = self._speed(len(self.samples) - MIN_SAMPLES,
                                len(self.samples))
        return [t * (self._speed(a, b) if b - a >= MIN_SAMPLES else whole)
                for t, (a, b) in zip(times, marks)]

    def _speed(self, first: int, last: int) -> float:
        return relative_speed(self.samples[first:last])


class Unsampled:
    """Stands in for a Speed sampler when the speed is not sampled: times
    stay in wall seconds."""

    spent = 0.0
    samples = ()

    def reference_seconds(self, times, _marks) -> list:
        return list(times)
