"""Host-speed probe: normalizes the benchmark's times for host drift.

The host's speed drifts by tens of percent within a minute, and differently
on each CPU: more than any bound a regression check could use. So the
benchmark pins itself, and with it every command's process, to one CPU,
and each command's process times this fixed probe before, during and after
the command (perfbench/child.py). Every time the command reports is scaled
by REF_S / (mean probe time): a reported second is a second on a host
where one probe pass takes REF_S. The probe is pure Python shaped like
cogseg's work (dict counts over string slices, x*log(x) sums, a small
edit-distance table) and does not use cogseg, so no change to cogseg moves
it.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time

REF_S = 0.0006

_rng = random.Random(12345)
WORDS = tuple("".join(_rng.choice("aeioudtklmnrsvy") for _ in range(_rng.randint(4, 10)))
              for _ in range(60))


def probe_once() -> float:
    """Seconds one pass of the probe takes."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0.0
    for word in WORDS:
        for i in range(1, len(word)):
            for form in (word[:i], word[i:]):
                old = counts.get(form, 0)
                counts[form] = old + 1
                if old:
                    total -= old * math.log(old)
                total += (old + 1) * math.log(old + 1)
    for a, b in zip(WORDS[:12], WORDS[1:13]):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i] + [0] * len(b)
            for j, cb in enumerate(b, 1):
                cur[j] = min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1)
            prev = cur
    return time.perf_counter() - start


def probe() -> float:
    """Median seconds per probe pass, over nine passes."""
    return statistics.median(probe_once() for _ in range(9))


def pin_to_fastest_cpu() -> int | None:
    """Pin this process (and the processes it starts) to the allowed CPU on
    which the probe runs fastest now; None where affinity is unsupported."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        speeds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((probe(), cpu))
        cpu = min(speeds)[1]
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
