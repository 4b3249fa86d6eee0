"""Host-speed probe: rescales measured times to one reference host speed.

The benchmark runs on a few cores of a shared host, whose neighbours slow
every core by up to 1.7x in phases of a fraction of a second to minutes.
On a 2-core VM a fixed pure-Python kernel took 4.1 ms in the fast phases
and 7 ms in the slow ones, and CPU time grew with wall time, so the slow
phases are not waits the process could see.  Ten-seed sets of the same
code spread by 8% to 29% of their median from that alone.

:class:`SpeedProbe` measures the host's speed while the workload runs: a
``SIGALRM`` timer interrupts the process every ``INTERVAL_S`` and the
handler times a fixed kernel with the thread's CPU clock.  Processes
forked while the probe is active (the coordinator's workers) probe
themselves too and append their samples to a file in ``directory``.
Over 24 ``fleet_replay`` repeats on a 2-core VM, a repeat's wall time and
the mean kernel cost during it correlated at 0.98, and dividing one by the
other cut their spread (coefficient of variation) from 12% to 2.5%.

:meth:`SpeedProbe.factor` is the mean kernel cost over an interval, over
every probed process, divided by ``REFERENCE_US``: the kernel's cost on
that VM in a fast phase.  A time divided by it reads in seconds at that
speed.  The kernel and the timer take ~3% of each probed process's time,
on every commit alike.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import struct
import time
from pathlib import Path

INTERVAL_S = 0.01
#: Kernel cost (microseconds of thread CPU time) in a fast phase of the
#: 2-core reference VM: the lowest repeat means of a 50 s probe were 228-234.
REFERENCE_US = 230.0
#: A forked process's sample: ``perf_counter()`` after it, kernel cost (us).
_SAMPLE = struct.Struct("<dd")


def _kernel() -> None:
    counts = {}
    for i in range(2000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * 3


class SpeedProbe:
    """Samples the kernel's cost while active (a context manager)."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.times: list[float] = []  # perf_counter() after each sample
        self.costs: list[float] = []  # the sample's kernel cost, in us
        self._active = False
        self._out = None  # a forked process's sample file
        self._previous = None
        os.register_at_fork(after_in_child=self._forked)

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time_ns()
        _kernel()
        cost = (time.thread_time_ns() - t0) / 1e3
        if self._out is not None:
            os.write(self._out, _SAMPLE.pack(time.perf_counter(), cost))
        else:
            self.costs.append(cost)
            self.times.append(time.perf_counter())

    def _forked(self) -> None:
        """In a process forked while active: keep the timer (and the
        inherited handler) running, writing samples to a file."""
        if not self._active:
            return
        path = self.directory / f"probe-{os.getpid()}.bin"
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        self._out = os.open(path, flags, 0o644)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _files(self) -> list[Path]:
        return sorted(self.directory.glob("probe-*.bin"))

    def __enter__(self) -> "SpeedProbe":
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in self._files():
            path.unlink()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)
        for path in self._files():
            path.unlink()

    def _samples(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        costs = self.costs[lo:hi]
        for path in self._files():
            data = path.read_bytes()
            data = data[: len(data) - len(data) % _SAMPLE.size]
            costs += [
                cost
                for at, cost in _SAMPLE.iter_unpack(data)
                if start <= at <= end
            ]
        return costs

    def factor(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]`` (``perf_counter`` times).

        An interval too short to hold a sample takes the mean of every
        sample of this process; without any sample the factor is 1.
        """
        costs = self._samples(start, end) or self.costs
        return statistics.fmean(costs) / REFERENCE_US if costs else 1.0

    def scale(self, values: dict, start: float, end: float) -> dict:
        """``values`` with every ``*_s`` entry divided by the factor."""
        factor = self.factor(start, end)
        return {
            name: value / factor if name.endswith("_s") else value
            for name, value in values.items()
        }
