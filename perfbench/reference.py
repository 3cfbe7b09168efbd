"""Fixed reference loops that measure how fast this CPU is running right now.

The measuring machine's cores switch between a slow and a fast state (about
1.6x apart, in phases from under a second to minutes, independently on each
core), and process CPU time slows down with them, so the state cannot be read
from the clock.  The benchmark therefore times a reference loop next to every
timed measurement and reports the measurement in *reference seconds*: its wall
time scaled by the loop's nominal time over the loop's time around it.  The
loops are timed in process CPU time, so that a loop the host happens to
deschedule for a moment still reads the CPU's speed.

Two loops, each chosen to slow down by nearly the same factor as what it
calibrates:

- ``sampler_loop``, for the library's passes: a frozen random-walk Metropolis
  sampler written like the library (a Python loop over small numpy operations);
- ``interpreter_loop``, for the set-up interpreters: plain bytecode, which
  tracks the import-bound set-up better than the numpy loop does.

Both belong to the benchmark, never to the library, so a change to the library
moves the measured time and leaves the loops' times alone.

The host also takes the CPUs away from this machine now and then (steal time,
about a tenth of the CPU time in busy phases).  ``stolen_s`` reads how much,
so that a measurement can leave out what the host took while it ran.
"""

from __future__ import annotations

import math
import os
import time

# Seconds each loop takes at the speed the benchmark reports in: its time in
# the slow state of the machine the baseline was measured on (2-core Intel
# Xeon, Python 3.11, numpy 2.4).  Units only; constant factors.
SAMPLER_S = 0.040
INTERPRETER_S = 0.033
SAMPLER_STEPS = 5000
INTERPRETER_STEPS = 300_000
DIM = 10


def sampler_loop(steps: int = SAMPLER_STEPS) -> float:
    """Run the frozen sampler for ``steps`` steps; return its CPU time in seconds."""
    import numpy as np

    rng = np.random.default_rng(20130626)
    x = np.zeros(DIM)
    lp = -0.5 * float(x @ x)
    accepted = 0
    t0 = time.process_time()
    for _ in range(steps):
        y = x + 0.7 * rng.standard_normal(DIM)
        lq = -0.5 * float(y @ y)
        if math.log(rng.random()) < lq - lp:
            x, lp = y, lq
            accepted += 1
    cpu = time.process_time() - t0
    assert 0 < accepted < steps
    return cpu


def interpreter_loop(steps: int = INTERPRETER_STEPS) -> float:
    """Run a fixed pure-Python loop; return its CPU time in seconds."""
    t0 = time.process_time()
    total = 0
    for i in range(steps):
        total += i * i % 7
    cpu = time.process_time() - t0
    assert total > 0
    return cpu


def stolen_s() -> float:
    """Seconds the host has stolen so far, per CPU of this machine (0.0 where
    the kernel does not report steal time)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0.0
    fields = lines[0].split()
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
    if fields[0] != "cpu" or len(fields) < 9 or cpus == 0:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") / cpus


def clock() -> tuple:
    """Start a measurement: (wall clock, seconds stolen per CPU so far)."""
    return time.perf_counter(), stolen_s()


def since(start: tuple) -> tuple:
    """(wall seconds, seconds stolen per CPU) since ``start = clock()``."""
    wall, stolen = clock()
    return wall - start[0], stolen - start[1]


def in_reference_seconds(wall_s: float, before_s: float, after_s: float, nominal_s: float = SAMPLER_S) -> float:
    """``wall_s`` scaled to the reference speed measured just before and after it."""
    return wall_s * nominal_s / (0.5 * (before_s + after_s))
