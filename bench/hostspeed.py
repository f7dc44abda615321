"""Rescale host times to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over tens of seconds, CPU time included, so medians over one run cannot hide
it. ``Probe`` measures that drift while the code under test runs: a
``SIGALRM`` interval timer interrupts the timed section every ``PERIOD_S``
seconds and times a fixed pure-Python loop. Because the probes are spread
evenly over the section, their mean time tells how fast the host was during
it. ``Probe.seconds`` is the section's wall time minus the probes, scaled by
``REFERENCE_PROBE_S`` over that mean: the time the section would have taken
on a host where the loop takes ``REFERENCE_PROBE_S``.

The loop only touches one small dict, so a program change barely affects it,
and the scaled time moves with the program, not with the host. Use one
``Probe`` at a time, in the main thread.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.02
PROBE_LOOPS = 1500
# About the median time of one probe, run alone, on a 2-vCPU Intel Xeon VM
# under Python 3.11.7. Inside a replay the loop starts with a colder cache, so
# scaled times read within about 30 % of that machine's wall times.
REFERENCE_PROBE_S = 0.30e-3


class Probe:
    """Context manager that times its body and the host speed while it ran."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.wall_s = 0.0
        self._scratch: dict[int, int] = {}

    def probe(self) -> float:
        """Run the fixed loop once; returns its wall time."""
        t0 = perf_counter()
        d = self._scratch
        d.clear()  # reused, so the probe allocates no container for the collector to count
        for i in range(PROBE_LOOPS):
            d[i % 1009] = d.get(i % 1009, 0) + i
        return perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(self.probe())

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:  # a body shorter than PERIOD_S still gets one sample
            self.probes.append(self.probe())
            self.wall_s += self.probes[-1]

    @property
    def busy_s(self) -> float:
        """Wall time of the body alone, probes taken out."""
        return self.wall_s - sum(self.probes)

    @property
    def seconds(self) -> float:
        """``busy_s`` at the reference host speed."""
        return self.busy_s * REFERENCE_PROBE_S * len(self.probes) / sum(self.probes)
