"""Processor-speed calibration for the benchmark's timings.

On a shared host the same single-threaded Python work can take 1.7x more
CPU time from one second to the next (a busy hyperthread sibling or a
lower clock), which swamps the differences the benchmark must resolve.
Every timed piece of work is therefore bracketed by calibration samples,
each the fastest of three runs of a fixed pure-Python loop, and its CPU
time is scaled by REFERENCE_S / (mean of the two samples): the time it
would take on a processor where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

# CPU seconds of one calibration loop on the reference processor
REFERENCE_S = 0.0003


def _loop() -> int:
    counts: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for i in range(1500):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            pairs.add((k, i & 15))
    return len(counts) + len(pairs)


def sample() -> float:
    """CPU seconds of the loop right now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        _loop()
        best = min(best, time.process_time() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning CPU seconds measured between two samples into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
