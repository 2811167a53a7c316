"""The machine-speed reference that end-to-end times are scaled to.

On a shared host the speed of the same interpreter work drifts by tens of
percent, both from one 10 ms slice to the next and over minutes.  run.py
times this fixed loop, which uses no `localfields` code, after every item
and every set-up probe of a run, as often as the time each took warrants,
and scales the run's times by REFERENCE_SECONDS / r, where r is the loop's
mean time over the run: the time the work would take on a machine where
the loop takes REFERENCE_SECONDS.  A change to the package moves the
scaled time; a slow spell of the host slows the loop with the work and
cancels.
"""

from __future__ import annotations

import statistics
import time

# the loop's time on a quiet 2-vCPU virtual machine, Python 3.11; a fixed
# constant, so scaled times compare across runs and commits
REFERENCE_SECONDS = 0.004
# loops after a measurement: one per SPACING seconds it took, at least
# SAMPLES, so that the samples spread over the run like the measured time
SAMPLES = 3
SPACING = 0.15


class _Cell:
    __slots__ = ("value", "tail")

    def __init__(self, value, tail):
        self.value, self.tail = value, tail

    def step(self, other, modulus):
        if not isinstance(other, _Cell):
            raise TypeError("step needs a _Cell")
        return _Cell((self.value * other.value + 1) % modulus,
                     self.tail[1:] + (self.value & 7,))


def _loop() -> int:
    """Interpreter work of the kind the package does: method calls on
    slotted objects, bigint products reduced mod p^64, tuple slicing and
    dict updates."""
    modulus = 3 ** 64
    a, b = _Cell(12345, (0,) * 8), _Cell(678910, (1,) * 8)
    seen = {}
    for _ in range(5000):
        a = a.step(b, modulus)
        seen[a.tail] = seen.get(a.tail, 0) + 1
    return a.value


def sample(runs: int = SAMPLES) -> list:
    """Times of `runs` runs of the loop."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return times


def sample_after(seconds: float) -> list:
    """Loop times to take after a measurement that took `seconds`."""
    return sample(max(SAMPLES, round(seconds / SPACING)))


def factor(samples) -> float:
    """Scale factor for times measured while `samples` were taken."""
    return REFERENCE_SECONDS / statistics.fmean(samples)
