"""The fixed reference workload the end-to-end timings are divided by.

The machine the benchmark runs on changes speed by itself, by up to a
third within minutes and sometimes in one step, and a run of the
program cannot tell that from a change in the program.  So each
iteration of a workload is timed together with this reference, run just
before and just after it, and the end-to-end timings are reported as
multiples of the reference's time.  The reference runs in a helper
process of its own (``python3 perfbench/reference.py [PROCESSES]``: one
pass per line read from stdin, its seconds written back), so it adds
nothing to the program's memory, peak RSS or garbage-collector state.

The reference is a small discrete-event loop in plain Python: a binary
heap of timestamped entries and a pool of slotted objects it updates,
allocates into and frees, like the simulator's event queue and packet
handling.  Over 55 interleaved pairs on a 2-vCPU VM a pass of it
correlated 0.82 with a ``figures`` iteration, and dividing by it cut
the interquartile range of those iterations from 0.245 to 0.114 of the
median (a tight arithmetic loop correlated 0.67 and cut it less).

It imports nothing from ``repro`` and must never change: every
``*_ref`` metric is relative to it.  The cyclic garbage collector is
off while it runs, as when those figures were taken.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import sys
import time

OBJECTS = 100_000
STEPS = 300_000


class _Item:
    __slots__ = ("key", "value", "tag", "log")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.tag = None
        self.log = [key]


def _work() -> int:
    rng = random.Random(7)
    items = [_Item(i) for i in range(OBJECTS)]
    heap = [(rng.random(), i) for i in range(0, OBJECTS, 4)]
    heapq.heapify(heap)
    acc = 0
    for _ in range(STEPS):
        now, i = heapq.heappop(heap)
        item = items[(i * 2654435761) % OBJECTS]
        item.value += 1.0
        acc += item.key
        item.log.append(acc & 7)
        if len(item.log) > 4:
            item.log.pop(0)
        heapq.heappush(heap, (now + rng.random(), (i + acc) % OBJECTS))
    return acc


def time_reference() -> float:
    """Host seconds one pass of the reference takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_parallel(processes: int) -> float:
    """Mean host seconds of one pass run in *processes* processes at once.

    A workload whose work runs in a pool of N processes is timed against
    N passes running side by side, which load the machine as it does.
    """
    if processes == 1:
        return time_reference()
    children = []
    for _ in range(processes):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                os.write(write_fd, repr(time_reference()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = []
    for pid, read_fd in children:
        with open(read_fd) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


class RemoteReference:
    """The probe's handle on the helper: ``time()`` runs one pass there."""

    def __init__(self, fds: str) -> None:
        write_fd, read_fd = (int(fd) for fd in fds.split(","))
        self._go = open(write_fd, "w")
        self._done = open(read_fd)

    def time(self) -> float:
        self._go.write("\n")
        self._go.flush()
        line = self._done.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        return float(line)


def main() -> int:
    processes = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    time_parallel(processes)  # the first pass after start-up runs slow
    while sys.stdin.readline():
        sys.stdout.write("%r\n" % time_parallel(processes))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
