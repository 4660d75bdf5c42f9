"""Host speed sampler.

The shared host this benchmark was built on runs the same code up to
twice as slow for stretches of a fraction of a second to tens of
seconds, in CPU time as well as wall time, and its two vCPUs drift
independently. Raw timings of one run then say more about the host than
about the program.

Sampler runs a fixed micro-probe from a SIGPROF handler every
INTERVAL_S of the process's CPU time, so it samples the host's speed
all through the work being timed. Work timed between two marks is
taken to the reference speed, at which the probe takes REF_S:

    at_reference = (cpu time - probe time) * mean(REF_S / probe samples)

so a change to the program moves the figure in proportion, while a
change in the host's speed mostly does not. The probe's own time is
taken out of the work it interrupted.
"""

import math
import signal
import time

REF_S = 36e-6
INTERVAL_S = 0.004


def _probe() -> float:
    """Wall seconds for a fixed bit of interpreter work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 400):
        acc += math.sqrt(i) * 0.5
    return time.perf_counter() - t0


class Sampler:
    """Context manager that samples the host's speed while active."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False

    def _on_tick(self, signum, frame):
        self.samples.append(_probe())

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Speed of the host since mark `since` relative to the reference,
        from the latest sample when none fell inside."""
        window = self.samples[since:] or self.samples[-1:]
        if not window:
            return 1.0
        return math.fsum(REF_S / p for p in window) / len(window)

    def at_reference(self, cpu_s: float, since: int) -> float:
        """cpu_s of work done since mark `since`, at the reference speed."""
        work = max(cpu_s - math.fsum(self.samples[since:]), 0.0)
        return work * self.factor(since)
