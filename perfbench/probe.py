"""Host-speed probe: a fixed piece of work, timed between repetitions.

The measurement host is a small virtual machine whose CPU speed changes by
up to a factor of 1.8, in phases of tens of seconds to minutes, with the
load of other tenants.  A run's median lands in one phase or another, so
raw wall-clock medians of the same code spread by a quarter between runs.
The probe samples the host's speed at the same moments as the program:
``run.py`` times it before the first repetition and after every one, and
divides each wall-clock median by the run's median probe time.

The work mirrors the program's two kinds of hot loop and never calls
``carepath``, so a change to the program cannot move it: a windowed-minimum
sum over integer-coded sequences through a lookup table (as in
``metric.distance_matrix``) and many small NumPy calls on a few hundred
elements (as in the survival forests' split search).
"""

from __future__ import annotations

import time

import numpy as np

# The probe time that a normalised time is scaled to: about the median
# probe time on the 2-vCPU machine the baseline was recorded on.
REFERENCE_S = 0.3


def _window_min_sum(a: list[int], b: list[int], table: list[list[float]]) -> float:
    last = len(b) - 1
    total = 0.0
    for i, ca in enumerate(a):
        row = table[ca]
        lo = min(max(i - 1, 0), last)
        hi = min(i + 1, last)
        best = row[b[lo]]
        for j in range(lo + 1, hi + 1):
            v = row[b[j]]
            if v < best:
                best = v
        total += best
    return total


class Probe:
    """Times one fixed round of work per call and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240305)
        self.table = rng.random((64, 64)).tolist()
        self.seqs = rng.integers(0, 64, size=(40, 12)).tolist()
        self.T = rng.integers(0, 60, size=200)
        self.E = rng.integers(0, 2, size=200)
        self.X = rng.random(200)
        self.samples: list[float] = []

    def _round(self) -> float:
        acc = 0.0
        seqs = self.seqs
        for _ in range(12):
            for i in range(len(seqs)):
                for j in range(i + 1, len(seqs)):
                    acc += _window_min_sum(seqs[i], seqs[j], self.table)
        uniq, ranks = np.unique(self.T, return_inverse=True)
        events = self.E == 1
        for thr in np.linspace(0.05, 0.95, 8000):
            mask = self.X <= thr
            in1 = np.bincount(ranks[mask], minlength=uniq.size)
            d1 = np.bincount(ranks[mask & events], minlength=uniq.size)
            acc += float(np.cumsum(in1[::-1])[0]) + float(d1.sum())
        return acc

    def __call__(self) -> float:
        started = time.perf_counter()
        self._round()
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds
