"""A fixed reference kernel, sampled during a pass to track the machine's speed.

On a shared virtual machine the same pass can take up to twice as long from
one second to the next, because other guests load the same cores. While a
timed pass runs, SpeedSampler times a small fixed kernel every PERIOD_S
seconds of wall time, from a SIGALRM handler. Each slice of the pass between
two samples is scaled by REF_S over the mean of the two kernel times, and the
kernel's own time is left out. The scaled time reads as seconds on a machine
where the kernel takes REF_S seconds, so a change in machine speed cancels out
of it even when it happens in the middle of a call.

The kernel mixes the two kinds of work levilab does: exact rational polynomial
products (as in `wirtinger`) and numpy broadcasting over batches of 6x6
arrays (as in the jets and curvature layers). It uses no levilab code, so a
change to the program leaves it alone.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import numpy as np

# Kernel time on the machine the bounds were set on, a 2-vCPU x86 KVM guest
# (Xeon, Python 3.11, numpy single-threaded), when no other guest loads its
# cores: the first decile of 600 runs (the median was 0.0097 s). It only sets
# the unit, so that a scaled time reads about as the wall time of a quiet run.
REF_S = 0.0067
PERIOD_S = 0.2  # the kernel takes about 5% of a sampled pass


def _poly(rng: random.Random, nterms: int) -> dict:
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return {tuple(rng.randint(0, 3) for _ in range(4)): (q(), q()) for _ in range(nterms)}


_RNG = random.Random(0)
_P, _Q = _poly(_RNG, 15), _poly(_RNG, 15)
_GEN = np.random.default_rng(0)
_A, _B = _GEN.standard_normal((2048, 6)), _GEN.standard_normal((2048, 6))
_H = _GEN.standard_normal((2048, 6, 6))


def _kernel() -> None:
    out: dict = {}
    zero = (Fraction(0), Fraction(0))
    for e1, (a, b) in _P.items():
        for e2, (c, d) in _Q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            r, i = out.get(e, zero)
            out[e] = (r + a * c - b * d, i + a * d + b * c)
    h = _H
    for _ in range(4):
        h = (_A[:, 0, None, None] * h + _B[:, :, None] * _A[:, None, :] + _A[:, :, None] * _B[:, None, :]) * 0.5


class SpeedSampler:
    """Context manager: samples the kernel on entry, every PERIOD_S seconds, and on exit.

    With `since` (a time.perf_counter() reading), the time from `since` to the
    first sample counts too, scaled by the first kernel time.
    Uses SIGALRM and the real-time interval timer, so it must be entered in
    the main thread, and the timed code must not use them itself.
    """

    def __init__(self, since: float | None = None):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.since = since
        self._previous = None

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        _kernel()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _slices(self):
        """(wall seconds outside the kernel, mean kernel seconds) between consecutive samples."""
        if self.since is not None:
            yield self.samples[0][0] - self.since, self.samples[0][1]
        for (t0, k0), (t1, k1) in zip(self.samples, self.samples[1:]):
            yield t1 - t0 - k0, (k0 + k1) / 2

    def wall_seconds(self) -> float:
        return sum(dt for dt, _ in self._slices())

    def scaled_seconds(self) -> float:
        return sum(dt * REF_S / k for dt, k in self._slices())
