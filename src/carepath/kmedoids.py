"""Partitioning around medoids on a precomputed distance matrix.

The swap search is first-improvement: medoid slots and candidate points are
scanned in ascending index order and any swap that lowers the total
assignment distance is taken immediately; a full sweep without an accepted
swap ends the search.

Candidates are screened in fixed-size blocks, one medoid slot at a time:
with the distance to the nearest other medoid held fixed, one array
operation gives the total distance of every candidate in the block.  Each
block row is summed the same way as a full evaluation, so the screen is
exact; its first hit is confirmed with a full evaluation before the swap is
taken, and the scan goes on from there with the lowered total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metric import MetricWeights, PatientTrajectory, _code_table, _encode, _square

DEFAULT_MAX_SWEEPS = 100
# cells per candidate block of the swap screen, which bounds its working memory
_BLOCK_CELLS = 1 << 14


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


def _total_distance(matrix: np.ndarray, medoids: np.ndarray) -> float:
    return float(matrix[:, medoids].min(axis=1).sum())


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

    rng = np.random.default_rng(seed)
    medoids = np.sort(rng.choice(n, size=k, replace=False))
    td = _total_distance(m, medoids)
    initial_total = td
    history: list[float] = []

    rows = max(1, min(n, _BLOCK_CELLS // n))
    block = np.empty((rows, n))
    converged = False
    for _ in range(DEFAULT_MAX_SWEEPS):
        improved = False
        medoids = np.sort(medoids)
        for slot in range(k):
            d_other = m[:, np.delete(medoids, slot)].min(axis=1, initial=np.inf)
            current = set(medoids.tolist())
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                screen = block[: stop - start]
                # row c of the screen is the assignment cost with point
                # start + c in this slot; each row sums contiguously, as
                # _total_distance does, so the screen is exact
                np.minimum(d_other, m[:, start:stop].T, out=screen)
                scores = screen.sum(axis=1)
                for c in np.flatnonzero(scores < td).tolist():
                    p = start + c
                    if p in current or not scores[c] < td:
                        continue
                    candidate = medoids.copy()
                    candidate[slot] = p
                    cand_td = _total_distance(m, candidate)
                    if cand_td < td:
                        medoids = candidate
                        td = cand_td
                        history.append(td)
                        current = set(medoids.tolist())
                        improved = True
        if not improved:
            converged = True
            break

    medoids = np.sort(medoids)
    cols = m[:, medoids]
    assignment = cols.argmin(axis=1)
    # force each medoid into its own cluster even if another sits at distance 0
    for cid, mi in enumerate(medoids):
        assignment[mi] = cid
    dist = cols[np.arange(n), assignment]
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
