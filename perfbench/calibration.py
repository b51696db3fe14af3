"""Machine-speed calibration for the wall-time metrics.

The benchmark runs on shared machines whose speed drifts by 10-40%
within seconds, with no CPU time stolen from the process: the same work
simply takes longer.  A median over repetitions cannot remove drift that
lasts as long as a run.  So the benchmark times a fixed calibration
slice, :func:`reference_slice` (a small discrete-event loop in plain
Python: generators resumed from a heap, dict and tuple traffic, like the
simulator's kernel but sharing none of its code), beside the work it
measures, and scales each stretch of wall time to a reference machine on
which one slice takes :data:`REFERENCE_S`:

    calibrated = wall * REFERENCE_S / slice_wall

During the measured phase a timer signal runs one slice every
:data:`PERIOD_S` (:class:`CalibratedClock`); each stretch of the run
between two slices is scaled by the mean of those two slices, and the
slices' own time is left out.  A change to the program moves the
stretches and leaves the slices alone, so it shows in full; a change of
machine speed moves both.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "CalibratedClock", "calibrated",
           "time_reference_slice"]

#: Wall seconds one :func:`reference_slice` takes on the reference machine.
REFERENCE_S = 0.01
#: Wall seconds between two slices during a measured phase.
PERIOD_S = 0.1

_PROCESSES = 16
_STEPS = 600
_DELAYS = [((i * 7919) % 1000 + 1) / 10000.0 for i in range(1024)]


def _process(pid: int, store: dict, steps: int):
    for i in range(steps):
        key = (pid % 7, i % 97)
        node = store.get(key)
        if node is None:
            node = store[key] = {"count": 0, "children": [key, i]}
        node["count"] += 1
        yield _DELAYS[(pid * 31 + i) % len(_DELAYS)]


def reference_slice() -> int:
    """A fixed amount of simulator-like work; returns a checksum."""
    store: dict = {}
    heap = []
    for pid in range(_PROCESSES):
        proc = _process(pid, store, _STEPS)
        heap.append((next(proc), pid, proc))
    heapq.heapify(heap)
    seq = _PROCESSES
    while heap:
        now, _seq, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, proc))
        seq += 1
    return sum(node["count"] for node in store.values())


def time_reference_slice() -> float:
    """Wall seconds one :func:`reference_slice` takes now.

    The garbage collector is paused meanwhile, so that a collection of
    the measured program's heap is never charged to the slice.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        checksum = reference_slice()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if checksum != _PROCESSES * _STEPS:
        raise AssertionError(f"reference slice checksum {checksum}")
    return elapsed


def calibrated(wall_s: float, slices: List[float]) -> float:
    """*wall_s* in reference seconds, given slices timed around it."""
    return wall_s * REFERENCE_S / statistics.median(slices)


class CalibratedClock:
    """Times a phase in reference seconds, calibrating as it goes.

    Use as a context manager around the phase.  Afterwards ``wall_s`` is
    the phase's wall time without the slices, and ``calibrated_s`` that
    time in reference seconds.  The slices run from a ``SIGALRM``
    handler between two bytecodes of the phase and touch none of its
    state.
    """

    def __init__(self) -> None:
        #: (wall time the slice started, slice seconds, wall time it
        #: ended), in order.
        self.slices: List[Tuple[float, float, float]] = []
        self.wall_s = 0.0
        self.calibrated_s = 0.0
        self._started = 0.0
        self._running = False
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._running:
            return
        started = time.perf_counter()
        seconds = time_reference_slice()
        self.slices.append((started, seconds, time.perf_counter()))

    def __enter__(self) -> "CalibratedClock":
        self.slices.append((0.0, time_reference_slice(), 0.0))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        ended = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append((ended, time_reference_slice(), 0.0))
        # Stretch i runs from the end of slice i to the start of slice
        # i + 1; the first starts at _started, the last ends at ended.
        wall = calibrated_s = 0.0
        start = self._started
        for (_, before, _), (end, after, resumed) in zip(self.slices,
                                                        self.slices[1:]):
            stretch = end - start
            wall += stretch
            calibrated_s += stretch * REFERENCE_S / ((before + after) / 2)
            start = resumed
        self.wall_s = wall
        self.calibrated_s = calibrated_s
