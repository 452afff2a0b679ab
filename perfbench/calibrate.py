"""Host speed, read from a fixed calibration loop.

The 2-core KVM guest this benchmark was written on changes speed by
phases that last minutes: in one, the workloads ran 1.7 to 1.9 times
slower than in the phase before.  A run that fell in a slow phase would
read as a slower program.  So the benchmark times a fixed loop, which
does not use ``repro``, between the repetitions it times, and rescales
each timed interval to the host speed at which the loop takes
``NOMINAL_S``.  A change to the program moves the rescaled time as much
as the raw one; a change of host speed moves both the interval and the
loop, and mostly cancels.

The loop is a discrete-event simulation of its own (a heap of timed
events over slotted objects found through a dict), with a working set of
the order of the simulator's, so that a busy host slows it about as much
as it slows the simulator: the slow phases slow code with a large
working set more than code with a small one.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: The loop time of the nominal host speed that rescaled times are
#: given at: a fixed unit, so only ratios between runs mean anything.
NOMINAL_S = 0.13
#: Least host time between two samples, so that sampling takes about a
#: tenth of a run.
INTERVAL_NS = 2_000_000_000
#: How far from a timed interval a sample still counts for it: a few
#: samples, so that one sample's noise does not rescale the interval
#: alone, while the host's phases, which last minutes, still show.
WINDOW_NS = 5_000_000_000


class _Cell:
    __slots__ = ("hits", "next")


def calibration_loop(cells: int = 100_000, events: int = 50_000) -> float:
    """Run the loop once and return the host seconds it took.

    The collector is off while it runs: a collection would walk every
    object the program holds, so the loop's time would depend on the
    program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop(cells, events)
    finally:
        if enabled:
            gc.enable()


def _timed_loop(cells: int, events: int) -> float:
    start = time.perf_counter()
    table = {}
    for i in range(cells):
        cell = _Cell()
        cell.hits = 0
        cell.next = (i * 7919 + 1) % cells
        table[i] = cell
    heap = [(i & 15, i) for i in range(cells)]
    heapq.heapify(heap)
    for _ in range(events):
        when, i = heapq.heappop(heap)
        cell = table[i]
        cell.hits += 1
        heapq.heappush(heap, (when + 1 + (cell.hits & 7), cell.next))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken over a run, and the factors they give.

    Each sample is also recorded as a ``calibrate`` span in ``spans``.
    """

    def __init__(self, spans) -> None:
        self.spans = spans
        #: (start_ns, end_ns, seconds) of every sample, in time order.
        self.samples: List[tuple] = []

    def sample(self, force: bool = False) -> None:
        """Run the loop, unless the last sample ended less than
        ``INTERVAL_NS`` ago and ``force`` is false."""
        now = time.perf_counter_ns()
        if self.samples and not force and now - self.samples[-1][1] < INTERVAL_NS:
            return
        with self.spans.span("calibrate"):
            seconds = calibration_loop()
        self.samples.append((now, time.perf_counter_ns(), seconds))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The factor that rescales host time spent from ``start_ns`` to
        ``end_ns`` to the nominal speed: ``NOMINAL_S`` over the median of
        the samples taken within ``WINDOW_NS`` of the interval, or over
        the nearest sample when there is none."""
        def gap(sample) -> int:
            return max(sample[0] - end_ns, start_ns - sample[1], 0)

        if not self.samples:
            raise ValueError("no calibration sample")
        near = ([s[2] for s in self.samples if gap(s) <= WINDOW_NS]
                or [min(self.samples, key=gap)[2]])
        return NOMINAL_S / statistics.median(near)
