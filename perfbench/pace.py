"""The host's pace: how long a fixed piece of interpreter work takes now.

On a shared host the same code runs up to twice as slow in some stretches
(a fraction of a second to minutes) as in others, because other tenants
share the physical cores.  The benchmark samples the pace next to every
timed unit of work -- before and after each campaign iteration, each
set-up, each service job -- and scales the unit's time by
``REFERENCE_S / pace``, ``pace`` being the geometric mean of the samples
on either side.
A figure so scaled reads as the time the unit takes at the reference
pace, whichever stretch it ran in.

The loop is plain dict, list and sort work on 3000 ints, which fits in
the core's own caches; the fastest of three runs is one sample.  The
program's campaigns slow down in step with it: over 8 minutes of
alternating campaigns, while the loop's time moved by more than 40%
(quartile spread), the slope of log campaign time on log loop time was
0.8 to 0.9.  The loop is the benchmark's own code, so a change to the
program never changes it.
"""

from __future__ import annotations

import math
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "sample", "scaled", "scaled_steps"]

#: The loop's time at the reference pace: the median of its samples on
#: an Intel Xeon (Sapphire Rapids class) vCPU, Python 3.11.
REFERENCE_S = 0.0004

_KEYS = list(range(3000))


def _loop() -> int:
    table = {}
    for key in _KEYS:
        table[key] = key * 3
    total = 0
    for key in _KEYS:
        total += table[key]
    return total + sorted(_KEYS, key=lambda key: -key)[0]


def sample() -> Tuple[float, float]:
    """The fastest of three runs of the loop, as (wall, CPU) seconds.

    CPU is this thread's own, which excludes waiting for the interpreter
    lock while another thread runs.
    """
    best_wall = best_cpu = math.inf
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.thread_time()
        _loop()
        best_wall = min(best_wall, time.perf_counter() - wall)
        best_cpu = min(best_cpu, time.thread_time() - cpu)
    return best_wall, best_cpu


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` taken between pace samples ``before`` and ``after``,
    at the reference pace."""
    return seconds * REFERENCE_S / math.sqrt(max(before, 1e-9)
                                             * max(after, 1e-9))


def scaled_steps(marks: List[Tuple[float, float]],
                 paces: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """(wall, CPU) of each step between consecutive ``marks``, scaled.

    ``marks[i]`` is the (wall, CPU) clock reading at the start (even ``i``)
    or end (odd ``i``) of a step; ``paces[k]`` the sample taken before step
    ``k`` and ``paces[k + 1]`` the one after it.
    """
    steps = []
    for k in range(len(marks) // 2):
        begin, end = marks[2 * k], marks[2 * k + 1]
        steps.append((scaled(end[0] - begin[0], paces[k][0], paces[k + 1][0]),
                      scaled(end[1] - begin[1], paces[k][1], paces[k + 1][1])))
    return steps
