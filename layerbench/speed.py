"""Host speed, measured by a fixed reference computation timed next to the
program's work.

On a shared host the CPU time of the same Python work drifts with what the
other tenants run: a sieve attempt repeated for a minute in one process
spread by about 0.4 of its median (interquartile range), in phases of
several seconds. A reference computation timed right before and after the
work drifts with it, and the work's CPU time divided by the reference's
spread by about 0.08 in the same minute. The benchmark therefore reports
times scaled to a fixed reference speed: CPU seconds times NOMINAL_S over
the reference's CPU seconds, measured around the work. On a host that runs
the reference in NOMINAL_S these are the plain CPU seconds.

The reference is the benchmark's own code and never calls factorbench, so a
change to the program cannot move it. It mixes what the program spends its
time on: interpreted loops, modular multiplication of word-sized and larger
integers, gcd, pow, and list and dict updates.
"""

from __future__ import annotations

import math
from time import process_time

NOMINAL_S = 0.015  # CPU seconds the reference takes on the reference host


def _reference() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    m = 0xF1234567890ABCDF1
    x, y = 3, 1
    for i in range(8000):
        x = (x * x + 1) % m
        y = y * x % m
        if i % 64 == 0:
            math.gcd(y, m)
    counts: dict[int, int] = {}
    residues = []
    m = 1000003 * 1000033 * 65537
    for i in range(6000):
        v = i * 2654435761 % m
        residues.append(v % 97)
        counts[v & 255] = counts.get(v & 255, 0) + 1
        if v % 3 == 0:
            pow(i + 2, 65, m)
    return total + x + sum(residues) + len(counts)


def probe() -> float:
    """CPU seconds of one run of the reference computation."""
    began = process_time()
    _reference()
    return process_time() - began


class SpeedLog:
    """Splits timed work into segments with a probe between each two, and
    scales every segment by the mean of the probes on either side.

    `mark()` closes the open segment if at least `every` CPU seconds of work
    went into it and returns the CPU seconds its probe took, so the caller
    can keep them out of the work's time; `close()` ends the last one."""

    def __init__(self, every: float):
        self.every = every
        self.probes = [probe()]
        self.segments: list[list[float]] = [[]]

    def add(self, cpu: float) -> None:
        self.segments[-1].append(cpu)

    def mark(self) -> float:
        if sum(self.segments[-1]) < self.every:
            return 0.0
        began = process_time()
        self.probes.append(probe())
        self.segments.append([])
        return process_time() - began

    def close(self) -> None:
        if self.segments[-1] or len(self.segments) == 1:
            self.probes.append(probe())
        else:
            self.segments.pop()

    def scales(self) -> list[float]:
        """One factor per segment: NOMINAL_S over the mean of its probes."""
        return [
            2 * NOMINAL_S / (self.probes[k] + self.probes[k + 1])
            for k in range(len(self.segments))
        ]

    def scaled(self) -> list[float]:
        """Every added CPU time, scaled, in the order added."""
        return [cpu * s for seg, s in zip(self.segments, self.scales()) for cpu in seg]
