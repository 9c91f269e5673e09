"""CPU-speed calibration for the gated timings.

The CPU speed of the machine this benchmark was written on changes with
other tenants' load: each vCPU switches between a fast and a slow state
from one second to the next, and for minutes at a time the whole machine
runs ~1.5x slower. A run therefore also times a fixed pure-Python kernel,
interleaved with its work (after every operation, and before and after
every set-up). A timing is scaled by ``REFERENCE_S`` over the median
kernel time measured around it, which gives it at the reference speed.
The kernel does not touch the program, so a faster program still shows
in full; only the machine's speed is divided out.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Sequence

from arith import median

#: The reference speed: about the kernel's median time on the machine the
#: benchmark was written on, with nothing else running (Python 3.11).
#: Only the scale of the calibrated timings depends on it.
REFERENCE_S = 0.0012

#: Kernel runs taken before and after each set-up.
AROUND = 7
#: Operations on each side whose kernel times calibrate one operation.
WINDOW = 12


def kernel() -> float:
    """CPU seconds one run of the kernel takes on the calling thread, with
    the cycle collector off. CPU time of the thread, not wall time, so
    that the worker thread finishing a job (holding the GIL) does not
    count as a slower machine.

    The mix resembles the engine's own work: rows as dicts, an index
    built from them, a filter, a sort on a tuple key and JSON encoding.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        rows = [{"id": i, "owner": i % 37, "title": "row %d" % i} for i in range(800)]
        index: dict[int, list[int]] = {}
        for row in rows:
            index.setdefault(row["owner"], []).append(row["id"])
        picked = [r for r in rows if r["owner"] in (3, 5, 7) or r["title"].endswith("9")]
        picked.sort(key=lambda r: (r["title"], -r["id"]))
        json.dumps(picked)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def around() -> list[float]:
    """Kernel times taken on one side of a set-up."""
    return [kernel() for _ in range(AROUND)]


def scale(samples: Sequence[float]) -> float:
    """Factor that turns a timing measured beside ``samples`` into one at
    the reference speed."""
    return REFERENCE_S / median(samples)


def local_scales(samples: Sequence[float], window: int = WINDOW) -> list[float]:
    """The scale of each position from the kernel times within ``window``
    positions on either side of it."""
    return [
        scale(samples[max(0, i - window): i + window + 1]) for i in range(len(samples))
    ]
