"""A fixed yardstick for the host's speed.

The shared host this benchmark was built on switches between a fast and a
slow state, about 2x apart, from one second to the next, while CPU time
tracks wall time; no median inside one run removes a slow spell that covers
the run.  So the worker times a fixed piece of pure-Python work, a tick, and
reports every time at the speed at which a tick takes REF_S:

- `pace()` times several ticks right after set-up and after every operation;
- a `Sampler` times a few ticks every SAMPLE_EVERY_S seconds while an
  operation runs, from a SIGALRM handler, so that a state switch in the
  middle of a long operation is seen.  `Sampler.scaled` leaves the samples'
  own time out of the operation's time and scales each stretch between
  samples by the sample that ends it.

The tick never calls the program and runs with the cyclic garbage collector
paused, so the program's heap cannot slow it.  It assumes the program leaves
nothing behind after an operation (threads, processes, memory pressure) that
slows the tick; `run.py` checks that assumption (its "yardstick drag").  The
tick is a sparse polynomial product on dicts keyed by tuple monomials, the
same kind of work as the program's hot loops, so it slows with the host the
way they do.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_S = 0.00045  # one tick at the reference speed
SAMPLE_EVERY_S = 0.05  # wall time between samples while an operation runs


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _product(fa, fb):
    acc = {}
    for m1, c1 in fa.items():
        for m2, c2 in fb.items():
            key = _mono_mul(m1, m2)
            s = acc.get(key, 0) + c1 * c2
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
    return acc


_F = {((("a", 1 + k % 5), 1 + k % 3), (("x", 1 + k % 4), 1 + k // 20)): k - 30
      for k in range(32)}
_G = dict(list(_F.items())[:4])


def _tick() -> float:
    start = time.perf_counter()
    _product(_F, _G)
    return time.perf_counter() - start


def pace(ticks: int = 15) -> float:
    """Seconds one tick takes now: the median of `ticks` ticks, so that an
    interrupted tick does not count."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_tick() for _ in range(ticks))
    finally:
        if paused:
            gc.enable()


class Sampler:
    """Paces the host every SAMPLE_EVERY_S seconds while an operation runs."""

    def __init__(self):
        self.samples: list = []  # (wall start, wall end, cpu seconds, tick seconds)
        self.spent = 0.0  # wall time in all samples so far
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        took = pace(3)
        done = time.perf_counter()
        self.samples.append((wall, done, time.process_time() - cpu, took))
        self.spent += done - wall

    def clock(self) -> float:
        """A wall clock that stands still while a sample runs."""
        return time.perf_counter() - self.spent

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float, after: float) -> tuple:
        """The wall time an operation from `start` to `end` spent outside the
        samples, that time at reference speed, and the CPU time the samples
        took.  `after` is the pace right after the operation; it scales the
        stretch after the last sample."""
        own = ref = cpu = 0.0
        for at, done, sample_cpu, took in self.samples:
            if at >= end:  # the alarm came after the operation
                break
            own += at - start
            ref += (at - start) * REF_S / took
            cpu += sample_cpu
            start = done
        own += end - start
        ref += (end - start) * REF_S / after
        return own, ref, cpu
