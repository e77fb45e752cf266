"""Host-speed calibration: timings are rescaled to a reference host speed.

The machine this benchmark runs on shares its cores with other tenants.
Its speed for interpreted Python drifts by up to 2x, and it switches
between fast and slow spells within a second.  So every benchmark child
samples its own interpreter speed while it works: a ``Ticker`` times a
fixed pure-Python loop from a ``SIGPROF`` handler after every
``TICK_CPU_S`` of CPU time, in the child and in every process it forks
(pool workers).  A duration is then rescaled by ``REFERENCE_S / d`` for
the loop times ``d`` sampled during it: the seconds the work would take
on a host where the loop takes ``REFERENCE_S``.  The loop never touches
lucasdisc, so a change to lucasdisc moves the rescaled numbers as much as
the raw ones.  Time spent in the handler is taken out of every duration.

This module is imported by the set-up child before anything it times,
so it imports nothing that lucasdisc, numpy or mpmath would import.
"""

import os
import signal
import time

TICK_N = 4_000
# Seconds the loop takes at the reference speed (this machine's speed when uncontended).
REFERENCE_S = 0.00016
TICK_CPU_S = 0.02


class Sample:
    """One tick: when it started, how long the loop took, how long the whole handler took."""

    __slots__ = ("at", "loop_s", "cost_s")

    def __init__(self, at: float, loop_s: float, cost_s: float) -> None:
        self.at, self.loop_s, self.cost_s = at, loop_s, cost_s


def loop(n: int = TICK_N) -> float:
    """Seconds for a fixed pure-Python loop of ``n`` steps, measured now."""
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i & 7
    return time.perf_counter() - start


class Ticker:
    """Samples interpreter speed after every TICK_CPU_S of CPU time of this process.

    Processes forked while it runs sample too and write their samples,
    one line per tick, to ``<out_dir>/<pid>.ticks``.
    """

    def __init__(self, out_dir: str | None = None) -> None:
        self.out_dir = out_dir
        self.samples: list[Sample] = []
        self._fd: int | None = None
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        if self.out_dir is not None:
            os.register_at_fork(after_in_child=self._start_in_child)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)

    def stop(self) -> list[Sample]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()
        return self.samples

    def sample(self) -> None:
        """Take one sample, unless one is already being taken.

        A tick can arrive while the handler runs, and CPython runs it
        at the next bytecode or at a signal check inside a C call (a
        buffered file's flush checks after each write).  Such a nested
        tick is dropped: a nested write into a buffered file raises
        into whatever code the first tick interrupted.  The line goes
        out with one unbuffered ``os.write``, which holds no lock.
        """
        if self._busy:
            return
        self._busy = True
        try:
            at = time.perf_counter()
            sample = Sample(at, loop(), 0.0)
            self.samples.append(sample)
            if self._fd is not None:
                os.write(self._fd, b"%r %r %r\n" % (at, sample.loop_s, time.perf_counter() - at))
            sample.cost_s = time.perf_counter() - at
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def _start_in_child(self) -> None:
        self.samples = []
        path = os.path.join(self.out_dir, "%d.ticks" % os.getpid())
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)


def read_child_samples(out_dir: str) -> dict[str, list[Sample]]:
    """Samples the forked processes wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".ticks"):
            with open(os.path.join(out_dir, name)) as handle:
                out[name] = [Sample(*map(float, line.split())) for line in handle if line.endswith("\n")]
    return out


def speed(samples: list[Sample]) -> float:
    """Rescaling factor for work done while these loop times were sampled."""
    return REFERENCE_S * sum(1.0 / s.loop_s for s in samples) / len(samples)


def cost(samples: list[Sample]) -> float:
    """Seconds spent in the handler for these samples."""
    return sum(s.cost_s for s in samples)


def op_factors(samples: list[Sample], windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """(factor, handler seconds inside) for each (start, end) window of a sorted sample list.

    A window with no sample in it uses the nearest sample before and after it.
    """
    from bisect import bisect_left, bisect_right

    ats = [s.at for s in samples]
    out = []
    for start, end in windows:
        lo, hi = bisect_left(ats, start), bisect_right(ats, end)
        inside = samples[lo:hi]
        near = inside or samples[max(lo - 1, 0):lo + 1]
        out.append((speed(near), cost(inside)))
    return out
