"""Partitioning around medoids on a precomputed distance matrix.

The swap search is first-improvement: medoid slots and candidate points are
scanned in ascending index order and any swap that lowers the total
assignment distance is taken immediately; a full sweep without an accepted
swap ends the search.

Candidates are screened in fixed-size blocks, one medoid slot at a time:
with the distance to the nearest other medoid held fixed, one array
operation gives the total distance of every candidate in the block.  Each
column of the matrix, a candidate's or a medoid's distances, is read as a
row: of the matrix itself when it equals its transpose, else of a
transposed copy.  The screen is C-ordered, so its row sums are the same
pairwise sums as a full evaluation, and they are the totals.  An existing
medoid scores at least ``td``, the current total, so it is never taken; the
fixed distances do not change when the slot swaps, so the rest of the block
is scanned against the lowered ``td``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metric import _BLOCK_CELLS, MetricWeights, PatientTrajectory, _code_table, _encode, _square

DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class Clustering:
    k: int
    medoid_indices: tuple[int, ...]
    assignment: np.ndarray
    distance_to_medoid: np.ndarray
    total_distance: float
    initial_total: float
    td_history: tuple[float, ...]  # total distance after each accepted swap
    converged: bool
    seed: int


def fit_kmedoids(matrix: np.ndarray, k: int, seed: int) -> Clustering:
    """Cluster the points of a symmetric distance matrix around ``k`` medoids.

    Initial medoids are drawn without replacement from a generator seeded
    with ``seed``.  Ties in the nearest-medoid assignment go to the medoid
    with the lowest index, and every medoid belongs to its own cluster.
    """
    m = _square(matrix, float)
    n = m.shape[0]
    if k < 1:
        raise DataError("k must be >= 1")
    if k > n:
        raise DataError(f"k={k} exceeds point count {n}")

    rows = max(1, min(n, _BLOCK_CELLS // n))
    mt = _transpose(m, rows)
    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(n, size=k, replace=False))
    td = float(mt[medoids].min(axis=0).sum())
    initial_total = td
    history: list[float] = []

    block = np.empty((rows, n))
    converged = False
    for _ in range(DEFAULT_MAX_SWEEPS):
        improved = False
        medoids.sort()
        for slot in range(k):
            d_other = mt[np.delete(medoids, slot)].min(axis=0, initial=np.inf)
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                screen = block[: stop - start]
                # row c of the screen is the assignment cost with point
                # start + c in this slot (column start + c of m, a row of
                # mt); the C-ordered block sums each row contiguously, as
                # the initial total sums its row minima
                np.minimum(d_other, mt[start:stop], out=screen)
                scores = screen.sum(axis=1)
                for c in np.flatnonzero(scores < td).tolist():
                    if scores[c] < td:
                        medoids[slot], td = start + c, float(scores[c])
                        history.append(td)
                        improved = True
        if not improved:
            converged = True
            break

    medoids.sort()
    to_medoid = mt[medoids]  # row i: every point's distance to medoid i
    assignment = to_medoid.argmin(axis=0)
    # force each medoid into its own cluster even if another sits at distance 0
    for cid, mi in enumerate(medoids):
        assignment[mi] = cid
    dist = to_medoid[assignment, np.arange(n)]
    return Clustering(
        k=k,
        medoid_indices=tuple(int(x) for x in medoids),
        assignment=assignment.astype(int),
        distance_to_medoid=dist,
        total_distance=float(dist.sum()),
        initial_total=initial_total,
        td_history=tuple(history),
        converged=converged,
        seed=seed,
    )


def _transpose(m: np.ndarray, rows: int) -> np.ndarray:
    """``m.T`` with contiguous rows: ``m`` itself when it equals its
    transpose bit for bit (checked ``rows`` rows at a time), else a copy."""
    bits = m.view(np.int64)
    for start in range(0, m.shape[0], rows):
        if not np.array_equal(bits[start : start + rows], bits.T[start : start + rows]):
            return np.ascontiguousarray(m.T)
    return m


def medoid_profile(
    trajectory: PatientTrajectory,
    medoid: PatientTrajectory,
    weights: MetricWeights,
) -> list[float]:
    """Per-stay minimum code distance from ``trajectory`` to any medoid stay.

    The one-pair case of a run's per-patient gather, over a table of the
    two trajectories' codes: ``table[row][:, medoid_row].min(axis=1)``.
    """
    reps, (row, medoid_row) = _encode((trajectory.codes, medoid.codes))
    return _code_table(reps, weights)[row][:, medoid_row].min(axis=1).tolist()
