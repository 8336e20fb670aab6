"""A clock that counts work at the CPU's unloaded speed, not wall time.

On a shared host the CPU this process runs on slows down by up to about
2.5x while other tenants load it, in stretches of under a second to
minutes.
The wall time of the same work then varies by more than the changes the
benchmark must resolve, and a whole run can fall in one slow stretch, so
no estimator over a run's wall times removes it.

While the meter runs, a SIGALRM every ``PERIOD`` seconds makes the process
do a fixed piece of reference work (``reference_work``: ``Fraction``
arithmetic and a dict of tuples, like the library's exact arithmetic) and
records how long it took.  The reference work starts cold, where the
workload left the caches, and then runs warm, so load that slows the
caches and memory slows it about as much as it slows the library.  Timed
only cold, it overstated that load; timed only warm, it understated it.
``clock()`` advances by the wall time since the last sample
divided by that sample's reference time, so it counts units of reference
work the CPU could have done at its speed of the moment; the samples' own
time is left out.  A unit is converted to seconds with ``REFERENCE_S``,
the reference work's time when the CPU runs at its fastest, so a figure
reads as the wall time the work takes on this CPU when no other tenant
loads it.  The constant, rather than the fastest sample of each run,
makes the conversion: a run that falls wholly in a slow stretch has no
fast samples.  ``fastest()`` and ``slowdown()`` report, per run, how fast
the CPU was at best and how loaded it was on the median.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.01         # seconds between speed samples
# Seconds the reference work takes when the CPU runs at its fastest, on a
# 2-vCPU Intel Xeon VM (2.0 GHz) under Python 3.11.7.
REFERENCE_S = 3.3e-4

_samples: list[float] = []
# (units at the end of the last sample, its end time, its reference time)
_state: tuple[float, float, float] = (0.0, perf_counter(), 1.0)
_previous_handler = None


def reference_work() -> Fraction:
    """A fixed piece of interpreter work, about 0.33 ms on a 2 GHz Xeon:
    ``Fraction`` arithmetic, which is where the library spends most of its
    time, and a dict of tuples, three times over."""
    for _ in range(3):
        acc, seen = Fraction(0), {}
        for i in range(1, 25):
            acc = acc * Fraction(3, 4) + Fraction(i, i + 7)
            key = (i % 7, i % 5)
            seen[key] = seen.get(key, 0) + 1
    return acc


def _timed_reference() -> tuple[float, float, float]:
    """Start, end and duration of one run of the reference work."""
    t0 = perf_counter()
    reference_work()
    t1 = perf_counter()
    _samples.append(t1 - t0)
    return t0, t1, t1 - t0


def _sample(*_) -> None:
    global _state
    units, end, ref = _state
    start, t1, took = _timed_reference()
    _state = (units + (start - end) / ref, t1, took)


def start() -> None:
    """Start sampling; must be called from the main thread."""
    global _previous_handler, _state
    _samples.clear()
    _, t1, took = _timed_reference()
    _state = (0.0, t1, took)
    _previous_handler = signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, _previous_handler or signal.SIG_DFL)


def clock() -> float:
    """Units of reference work since ``start()``; times ``REFERENCE_S``,
    seconds at the CPU's unloaded speed."""
    units, end, ref = _state
    return units + (perf_counter() - end) / ref


def samples_taken() -> int:
    """Speed samples since ``start()``; a timed stretch in which this
    changes was interrupted by one."""
    return len(_samples)


def fastest() -> float:
    """The reference work's time at the fastest the CPU ran since
    ``start()``: the 0.1% quantile of the samples."""
    ordered = sorted(_samples)
    return ordered[len(ordered) // 1000]


def slowdown() -> float:
    """The reference work's median time since ``start()`` over
    ``REFERENCE_S``: how much slower than unloaded the CPU ran."""
    return statistics.median(_samples) / REFERENCE_S
