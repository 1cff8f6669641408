"""Host-speed reference that end-to-end times are scaled by.

The benchmark runs on shared hosts whose speed drifts. On the 2-vCPU VM
where it was tuned, a fixed computation timed for 80 s had 10-second
medians from 1.56 ms to 2.29 ms. The drift showed in CPU time as well as
in wall time, it moved between the two vCPUs, and it changed within a
second. Code timed next to that computation drifted with it. So the
benchmark times a fixed reference block around and during every op and
scales the op to the speed at which one block takes ``REF_BLOCK_S``. On
1000-sample Monte-Carlo ops the spread of op times (quartile distance over
median) was 0.28 raw, 0.12 when scaled by blocks timed just before and
after the op, and 0.08 when blocks were also timed during the op. The
reference uses no rydgate code, so a change to the program cannot move it.
"""

import resource
import signal
import time

import numpy as np

#: CPU seconds of one reference block at the reference speed: the block's
#: median on a quiet 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4.
REF_BLOCK_S = 0.0005
#: Blocks timed between two ops.
BRACKET_BLOCKS = 8
#: Wall-clock period of the blocks timed while an op runs.
INTERVAL_S = 0.025

_rng = np.random.default_rng(0)
_m = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_H = (_m + _m.conj().T) / 2


def block():
    """Fixed mix of interpreter work and small LAPACK calls, like an op's."""
    acc = 0.0
    for k in range(12):
        w, v = np.linalg.eigh(_H * (1 + 0.01 * k))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += abs(complex(u[0, 0]))
        rows = [(j, j * 0.5, {"k": k}) for j in range(60)]
        acc += sum(x[1] for x in rows if x[0] % 3)
    return acc


def timed_blocks(n):
    """CPU seconds of each of ``n`` blocks."""
    times = []
    for _ in range(n):
        t0 = time.process_time()
        block()
        times.append(time.process_time() - t0)
    return times


def cpu_seconds():
    """CPU time of this process plus its waited-for children.

    An op is single-threaded and does no I/O, so on an idle machine its
    latency equals its CPU time, and CPU time leaves out the time the host
    takes the processor away.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Meter:
    """Times one interval per ``with`` block, scaled to the reference speed.

    Reference blocks are timed before and after the interval and, through a
    wall-clock interval timer (SIGALRM), every ``INTERVAL_S`` inside it, so
    speed changes within a long op are seen. The CPU those inner blocks take
    is left out of the interval. A child process must run on the same CPU
    as this one for the inner blocks to see its speed. With ``ticks=False``
    no blocks run inside the interval, so its wall time holds only the op.
    After the block: ``scaled``, ``cpu`` and ``wall`` seconds.
    """

    def __init__(self, ticks=True):
        self._ticks = ticks
        self._before = timed_blocks(BRACKET_BLOCKS)

    def _tick(self, signum, frame):
        self._inside.extend(timed_blocks(1))

    def __enter__(self):
        self._inside = []
        if self._ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._wall0, self._cpu0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        if self._ticks:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.cpu = cpu_seconds() - self._cpu0 - sum(self._inside)
        self.wall = time.perf_counter() - self._wall0
        after = timed_blocks(BRACKET_BLOCKS)
        samples = self._before + self._inside + after
        self.scaled = self.cpu * REF_BLOCK_S * len(samples) / sum(samples)
        self._before = after
        return False
