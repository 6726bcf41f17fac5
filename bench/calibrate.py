"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a fixed piece of CPU work drifts with other
tenants' load: by about 0.12 of its median between 30 s windows, and at
times by 30 % for minutes.  Raw times of two runs of the same code then
differ by more than any useful regression bound.  The benchmark therefore
times a fixed calibration kernel between the program's commands, in the same
child process, right after the import and after every command, and
expresses each time at a reference host speed:

    reported = raw * REFERENCE_REP_S * reps / calibration_seconds

where ``reps`` kernel repetitions took ``calibration_seconds`` in the slots
next to the timed work: the slot after the import for set-up, and the slots
before and after a command for that command.  The host's speed changes on a
scale of about a second, so the neighbouring slots track it more closely
than one factor for the whole run.
The kernel is the benchmark's own code and never calls the package, so a
change to the package moves the raw times and leaves the calibration alone.
It mixes what the program spends its time on: an ODE integration stepped in
Python over small numpy vectors, numpy sweeps over an array too large for
the first cache levels (fresh allocations, so page faults count too),
interpreted float arithmetic, and formatting floats as text.  It imports
nothing beyond numpy, which the package itself imports at module level, so
the calibration slots never load a module ahead of the program and hide an
import the program defers.
"""
from __future__ import annotations

import gc
import math
import time
from typing import Tuple

import numpy as np

# Median seconds of one repetition on the 2-core x86 host where the benchmark
# was defined.  It only sets the scale: a host that runs the kernel at this
# speed reports raw seconds.
REFERENCE_REP_S = 0.0130

# Calibration time after each command, as a share of the command's latency,
# so slow stretches of the run are sampled in proportion to their length.
SHARE = 0.10
MIN_REPS = 4

_GRID = np.linspace(0.1, 1.0, 65536)


def _rhs(y: np.ndarray) -> np.ndarray:
    return np.array([y[1], -0.1 * y[1] - math.sin(y[0])])


def _kernel() -> float:
    """One repetition: a damped pendulum through classical RK4 on small numpy
    vectors, sweeps over a 512 KiB array, an interpreted float loop and
    float-to-text formatting."""
    y, h = np.array([1.0, 0.0]), 0.05
    for _ in range(800):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    acc = float(y[0])
    w = _GRID
    for _ in range(3):
        w = np.sqrt(w * w + 1.0) - 0.75 * w
    acc += float(np.dot(w, _GRID))
    for i in range(1000):
        x = 1.0 + (i % 97) * 1e-3
        acc += math.sqrt(x) * math.sin(x) / (1.0 + x * x)
    acc += len(",".join(f"{x!r}" for x in w[:300]))
    return acc


def reps_after(latency_s: float) -> int:
    """Repetitions to run after a command that took ``latency_s``."""
    return max(MIN_REPS, round(SHARE * latency_s / REFERENCE_REP_S))


def sample(reps: int) -> Tuple[int, float]:
    """Run the kernel ``reps`` times; returns (reps, seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            _kernel()
        return reps, time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Reference seconds per raw second, from (reps, seconds) calibration
    samples taken next to the timed work."""
    reps = sum(r for r, _ in samples)
    seconds = sum(s for _, s in samples)
    return REFERENCE_REP_S * reps / seconds


if __name__ == "__main__":
    for _ in range(20):
        print(f"{sample(10)[1] / 10:.5f} s per repetition")
