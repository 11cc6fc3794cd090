"""Timing corrected for the speed of the CPU the benchmark runs on.

On a shared host each virtual CPU switches, independently of the others and
for seconds at a time, between a fast state and one about 2x slower.  The
process's CPU time slows by the same factor as its wall time, and a
calibration loop run between operations or on the other CPU does not track
it, so neither removes the drift.  What does track it is a probe run in the
same thread while the operation runs:

* A ``SIGALRM`` every ``PERIOD_S`` runs ``probe`` (a short pure-Python loop
  and a few small numpy solves, a fixed amount of work) twice in the main
  thread, between two bytecodes of whatever the program is doing.  Only the
  second run is timed: the first refills the caches the program evicted, so
  the timed run does not depend on the program's working set.  (Untimed
  warm-up made the probe's median the same within 5 % on all workloads;
  without it, it was 12 % slower on synth-loose than on demo-sweep.)
* Each timed probe's duration, as a running median over ``SMOOTH`` neighbouring
  probes, gives the CPU's speed at that moment relative to
  ``REFERENCE_PROBE_S``.
* ``timeline`` maps ``perf_counter`` readings onto a clock that runs at the
  reference speed: every stretch between two probes is scaled by
  ``REFERENCE_PROBE_S / smoothed probe time`` of the probe that ends it, and
  the probes' own time, warm-up included, is left out.
  ``reference_seconds`` gives intervals on that clock.

Over ten 30 s runs of demo-sweep on the 2-vCPU Xeon sandbox the baseline was
measured on, single operations took 7.8-12.1 s raw and 5.0-6.1 s corrected.

Use::

    with SpeedClock() as clock:
        start = perf_counter(); work(); end = perf_counter()
    [seconds] = clock.reference_seconds([(start, end)])
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
SMOOTH = 15
# The warm probe's duration on the sandbox above in its fast state: the 5th
# percentile of about 1,400 probes was 140-150 us on each workload.  Only a
# scale: it makes corrected times read as seconds on that machine when fast.
REFERENCE_PROBE_S = 145e-6

_PROBE_MATRIX = np.arange(64.0).reshape(8, 8) + 100.0 * np.eye(8)


def probe() -> None:
    """A fixed amount of interpreter and small-numpy work."""
    counts: dict[int, float] = {}
    for i in range(300):
        counts[i & 31] = counts.get(i & 31, 0.0) + i * 0.5
    for _ in range(20):
        np.linalg.solve(_PROBE_MATRIX, _PROBE_MATRIX[0])


class SpeedClock:
    """Runs ``probe`` every ``PERIOD_S`` while entered; see the module doc."""

    def __init__(self) -> None:
        self._starts: list[float] = []  # warm-up start
        self._ends: list[float] = []
        self._durations: list[float] = []  # of the timed run only
        self._busy = False
        self._previous_handler = None
        self._entered = 0.0

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm while a probe still runs
            return
        self._busy = True
        begin = perf_counter()
        probe()
        start = perf_counter()
        probe()
        end = perf_counter()
        self._starts.append(begin)
        self._ends.append(end)
        self._durations.append(end - start)
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._entered = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @property
    def probes(self) -> int:
        return len(self._starts)

    def summary(self) -> str:
        """The probes' count and durations, for the run's log."""
        p5, p50 = np.percentile(self._durations, [5, 50]) * 1e6
        return (f"{self.probes} speed probes: median {p50:.1f} us, 5th percentile "
                f"{p5:.1f} us, reference {REFERENCE_PROBE_S * 1e6:.1f} us")

    def timeline(self, times) -> np.ndarray:
        """``perf_counter`` readings taken in the main thread while the clock
        was entered, as seconds at the reference speed since it was entered."""
        if not self._starts:
            raise RuntimeError(f"no speed probe ran; measure for longer than {PERIOD_S} s")
        starts = np.asarray(self._starts)
        ends = np.asarray(self._ends)
        padded = np.pad(np.asarray(self._durations), SMOOTH // 2, mode="edge")
        smoothed = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        scale = REFERENCE_PROBE_S / smoothed
        previous_end = np.concatenate(([self._entered], ends[:-1]))
        at_probe = np.cumsum((starts - previous_end) * scale)
        # A reading never falls inside a probe: both run in the main thread.
        times = np.asarray(times, dtype=float)
        done = np.searchsorted(starts, times)  # probes before each reading
        last = done - 1
        since = np.where(done > 0, ends[last], self._entered)
        base = np.where(done > 0, at_probe[last], 0.0)
        return base + (times - since) * scale[np.minimum(done, len(starts) - 1)]

    def reference_seconds(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) from ``perf_counter`` as seconds at the reference speed."""
        if not intervals:
            return []
        ends = self.timeline([end for _, end in intervals])
        return (ends - self.timeline([start for start, _ in intervals])).tolist()
