"""Timing in host-independent seconds.

The benchmark runs on shared virtual machines whose processors switch
between speeds about 1.7x apart every second or few, each on its own (as when a
hyperthread sibling on the host gets busy and idle again); CPU time tracks
wall time, so the loss is in speed, not in scheduling.  Raw wall times of
the same code then spread further between runs than any useful regression
bound.

``RefClock`` measures how much work a part did rather than how long it
took: it samples the speed of the processor the part runs on with a fixed
reference computation and reports the part's wall time times the mean speed
over the part, in seconds of a host on which one reference unit takes
``REF_UNIT_S``.  A change to the program moves that as it moves the wall
time; a change in the host's speed, seen by the reference too, mostly
cancels out.  The benchmark pins itself and its children to one processor
(``pin_to_one_cpu``), so the samples see the processor the work runs on.

- An in-process part is bracketed: reference units right before and right
  after it.  Parts are kept short (one dataset, one search cell) so that the
  speed seldom changes within one.
- A child process is sampled while it runs: every ``PROBE_EVERY_S`` the
  benchmark wakes, stops the child (SIGSTOP), runs one reference unit to
  warm its caches, times a second one, lets the child go on (SIGCONT) and
  sleeps again.  The child's time excludes the pauses, about 2% of it, so
  the two never share the processor.

``WallClock`` gives plain wall time, for the traced run.
"""

from __future__ import annotations

import os
import signal
import subprocess
from time import perf_counter

import numpy as np

# Nominal time of one reference unit; about what it takes on a 2-vCPU
# virtual machine (Python 3.11) in a slow phase, so rescaled times read
# close to wall times there.
REF_UNIT_S = 1e-3
PROBE_EVERY_S = 0.1
BRACKET_UNITS = 2


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to one allowed processor."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_SMALL = np.diag(np.arange(1.0, 7.0)) + 0.1   # a fixed 6 x 6 symmetric matrix
_RATES = np.linspace(1.0, 100.0, 4000)


def reference_unit() -> float:
    """Fixed work in the program's own mix: interpreter-bound (format 400
    CSV-like rows, parse them back into a dict) and numpy-bound (small
    eigenvalue problems, Poisson sampling, a sort)."""
    rows = ["%d,%d,%d" % (i, i * 7 % 13, i * 31 % 1000) for i in range(400)]
    table = {}
    for row in rows:
        a, b, c = row.split(",")
        table[int(a), int(b)] = int(c)
    total = float(len(table))
    for _ in range(12):
        total += np.linalg.eigvalsh(_SMALL)[0]
    draws = np.random.default_rng(0).poisson(_RATES)
    return total + np.sort(draws)[-1] + np.cumsum(_RATES)[-1]


def _run(argv: list, env: dict, timeout: float, probe=None):
    """``subprocess.run(argv, capture_output=True, text=True)``, calling
    ``probe(pid)`` every PROBE_EVERY_S while the child runs; the child is
    killed and waited for on every way out."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    deadline = perf_counter() + timeout
    step = PROBE_EVERY_S if probe else timeout
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=step)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() > deadline:
                    raise
                probe(proc.pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


class WallClock:
    """Plain wall time."""

    def time(self, fn):
        """``(fn(), seconds)``."""
        t0 = perf_counter()
        value = fn()
        return value, perf_counter() - t0

    def run(self, argv: list, env: dict, timeout: float):
        """``(completed process, seconds)``."""
        return self.time(lambda: _run(argv, env, timeout))


class RefClock:
    """Wall time times the processor's mean speed over it, relative to a
    host on which one reference unit takes REF_UNIT_S."""

    def __init__(self):
        self.speeds = []  # every speed sample taken

    def _speed(self, units: int = 1, warm: bool = False) -> float:
        if warm:
            reference_unit()
        t0 = perf_counter()
        for _ in range(units):
            reference_unit()
        speed = REF_UNIT_S * units / (perf_counter() - t0)
        self.speeds.append(speed)
        return speed

    def time(self, fn):
        """``(fn(), rescaled seconds)`` of a short in-process part."""
        before = self._speed(BRACKET_UNITS)
        t0 = perf_counter()
        value = fn()
        wall = perf_counter() - t0
        return value, wall * (before + self._speed(BRACKET_UNITS)) / 2

    def run(self, argv: list, env: dict, timeout: float):
        """``(completed process, rescaled seconds)`` of a child process."""
        speeds, paused = [self._speed(warm=True)], [0.0]

        def probe(pid):
            t0 = perf_counter()
            # A child that has exited but is not yet reaped takes the
            # signals without effect.
            os.kill(pid, signal.SIGSTOP)
            try:
                speeds.append(self._speed(warm=True))
            finally:
                os.kill(pid, signal.SIGCONT)
            paused[0] += perf_counter() - t0

        t0 = perf_counter()
        proc = _run(argv, env, timeout, probe)
        wall = perf_counter() - t0 - paused[0]
        speeds.append(self._speed(warm=True))
        return proc, wall * sum(speeds) / len(speeds)
