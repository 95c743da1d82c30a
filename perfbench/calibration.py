"""Host-speed probe: a fixed kernel timed next to the benchmark's timed work.

The host switches between speeds up to 1.9x apart, within seconds and over
minutes, and runs of the same code spread with it.  :func:`calibrate` times a
fixed NumPy-and-interpreter kernel that uses no ``repro`` code; a run takes a
probe next to each timed pass or command and :func:`scale` turns the run's
mean pass time into seconds of a host where the probe takes
:data:`REFERENCE_S`.  A change to the program moves the passes, never the
probe, so it shows in full.
"""

from __future__ import annotations

from time import perf_counter

#: Probe seconds on a quiet 2-vCPU host (Python 3.11, NumPy 2.4): the unit of
#: the probe-scaled time metrics.
REFERENCE_S = 0.085
#: Back-to-back runs of the kernel in one probe.
REPEATS = 3

_keys = None


def calibrate() -> float:
    """Mean seconds of one run of the probe kernel over :data:`REPEATS` runs.

    Imports NumPy on first use, so call it only after a timed import.
    """
    global _keys
    import numpy as np

    if _keys is None:
        _keys = np.random.default_rng(12345).integers(0, 13 ** 9, 100_000)
    started = perf_counter()
    for _ in range(REPEATS):
        for _ in range(2):
            np.unique(_keys)
        total, counts = 0, {}
        for i in range(50_000):
            total += i * i % 7
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return (perf_counter() - started) / REPEATS


def scale(probes) -> float:
    """Factor from seconds measured next to *probes* to reference-host seconds."""
    return REFERENCE_S * len(probes) / sum(probes)
