"""Host-speed probes timed next to the program.

On a shared virtual machine the CPU's speed drifts by tens of percent over
seconds to minutes.  A job interleaves a fixed pure-Python loop with its
timed units; the set-up measurement alternates the program's import with a
fixed set of imports (numpy and standard-library modules) in fresh
interpreters.  Each measured time is scaled by the probes taken right before
and after it.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# Probe times on a quiet host (Intel Xeon 2.1 GHz, Python 3.11); calibrated
# figures are stated at this host speed.
REFERENCE_S = 0.0025
IMPORT_REFERENCE_S = 0.15

# Run with `python3 -c` in a fresh interpreter; prints the import seconds.
# numpy's import (shared libraries, page faults, thread start-up) is most of
# the program's own import time and at times slows alone, so the probe
# imports numpy as well as a fixed set of standard-library modules.
IMPORT_PROBE_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "import argparse, csv, ctypes, decimal, email.message, fractions, http.client, "
    "json, logging, sqlite3, statistics, uuid, xml.dom.minidom\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def probe_s() -> float:
    """Seconds one fixed amount of interpreter work takes now.

    The garbage collector is paused so that the program's live objects do not
    change the probe's own work.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0.0
        table = {}
        for i in range(4000):
            p = _Point(i * 0.5, acc % 7.0)
            acc += math.hypot(p.x, p.y)
            table[i & 255] = (acc, p)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Interleaves probes with timed units, about `share` of the units' time.

    `batches[0]` is taken before the first unit and `batches[k + 1]` right
    after unit k, so every unit has probes on both sides.
    """

    def __init__(self, share: float, lead: int = 5) -> None:
        self.share = share
        self.units_s = 0.0
        self.probes_s = 0.0
        self.batches = [[probe_s() for _ in range(lead)]]

    def after_unit(self, unit_s: float) -> None:
        self.units_s += unit_s
        batch = []
        while self.probes_s < self.share * self.units_s:
            batch.append(probe_s())
            self.probes_s += batch[-1]
        self.batches.append(batch)


def reference_seconds(unit_s: list[float], batches: list[list[float]]) -> float:
    """Total time of the units at the reference host speed.

    Each unit is scaled by the mean of the nearest probe batches before and
    after it.
    """
    total = 0.0
    for k, t in enumerate(unit_s):
        before = next(b for b in reversed(batches[: k + 1]) if b)
        after = next((b for b in batches[k + 1 :] if b), [])
        probes = before + after
        total += t * REFERENCE_S / (sum(probes) / len(probes))
    return total
