"""Host speed: a fixed interpreter loop timed around every operation.

The benchmark runs on a few cores of a shared host whose speed changes
by a third or more from one second to the next, and all of the program's
work is interpreter work.  So every timed call, and every set-up probe,
is bracketed by :func:`sample` just before and just after it, and its
time is multiplied by :func:`factor` of those timings: what it would
have been on a host where the loop takes :data:`REFERENCE_S`.  The
two CPUs' speeds vary apart, so a call whose work runs on both
(explore-w2, serve-mix) is bracketed by :func:`sample_cpus` instead.
The loop does not touch the program, so a change to the program moves
the scaled times as much as the raw ones.  The raw times are printed
next to the metrics.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

#: A round figure for :func:`reference_seconds` on the 2-CPU host the
#: bounds were set on (Python 3.11), where it took 25-50 ms as the load
#: of the host changed; scaled times are seconds at that speed.
REFERENCE_S = 0.030
LOOP = 120_000
#: Loops per :func:`sample`: the host's speed jumps between two levels
#: within a second, so one loop alone often catches only one of them.
SAMPLES = 3
#: Timings after one call are reused before the next within this time.
REUSE_S = 1.0


def reference_seconds() -> float:
    """Seconds one fixed mix of arithmetic, dict, tuple and sort work takes."""
    start = perf_counter()
    table, items = {}, []
    total = 0
    for index in range(LOOP):
        total += index * index % 7
        table[index & 1023] = total
        items.append((index, total))
        if len(items) == 64:
            items.sort(key=_second)
            items.clear()
    return perf_counter() - start


def _second(item):
    return item[1]


def sample() -> list:
    """:data:`SAMPLES` reference timings in a row."""
    return [reference_seconds() for _ in range(SAMPLES)]


def sample_cpus() -> list:
    """:func:`sample` on each of two CPUs at once, for work spread over both.

    The two CPUs' speeds vary apart, so work on both follows their mean.
    A forked child loops on the second CPU while this process, pinned
    for the while, loops on the first.  Each first runs one loop it does
    not count: the first writes after a fork copy pages and take longer.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return sample()
    read, write = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read)
            os.sched_setaffinity(0, {cpus[1]})
            reference_seconds()
            os.write(write, json.dumps(sample()).encode())
        finally:
            os._exit(0)
    os.close(write)
    try:
        os.sched_setaffinity(0, {cpus[0]})
        try:
            reference_seconds()
            mine = sample()
        finally:
            os.sched_setaffinity(0, cpus)
        with os.fdopen(read, "rb") as stream:
            theirs = json.loads(stream.read() or b"[]")
    finally:
        os.waitpid(child, 0)
    return mine + theirs


def factor(references: list) -> float:
    """Scale for a time measured between these reference timings.

    The mean, not the median: a measured call lasts through both of the
    host's speeds in proportion, and so does the mean of the loops.
    """
    return REFERENCE_S / statistics.fmean(references)
