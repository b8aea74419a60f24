"""Machine-speed calibration, so that times taken on a shared CPU compare.

On a shared virtual machine the speed at which one core runs Python drifts
with other tenants' load, by up to 2x over seconds to hours, and CPU time
drifts with it (the core runs slower; the process is not descheduled). A
fixed pure-Python loop, timed while the operation runs, measures that speed.
Every end-to-end time is reported scaled by ``REF_SAMPLE_S / mean sample``:
the seconds the operation would take on a core that runs the loop in
exactly ``REF_SAMPLE_S``. The loop does not touch tbctrl, so a change to the
program moves the scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_SAMPLE_S = 1e-3    # the loop's time at the reference speed
LOOP_N = 12000         # iterations; about REF_SAMPLE_S on the baseline machine
INTERVAL_S = 0.1       # sampling period during an operation (about 1% overhead)


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += (i * 7) % 13
    return s


def sample() -> float:
    """CPU seconds the calibration loop takes now.

    CPU time, not wall time, so that a sample taken while the pool's workers
    hold every core measures the core's speed, not how long this thread waited
    for it.
    """
    t0 = time.thread_time()
    _loop()
    return time.thread_time() - t0


def scale_of(samples: list[float]) -> float:
    return REF_SAMPLE_S / statistics.fmean(samples)


class Sampler:
    """Time the loop every ``INTERVAL_S`` of wall time while the block runs.

    Sampling runs in a SIGALRM handler in the main thread, evenly spread over
    the block; one sample is also taken on entry and one on exit, so a short
    block still has a scale. Worker processes forked inside the block do not
    inherit the timer.
    """

    def __enter__(self):
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(sample()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        return False

    @property
    def scale(self) -> float:
        return scale_of(self.samples)
