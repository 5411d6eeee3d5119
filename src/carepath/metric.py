"""Weighted distances between stay codes and between patient trajectories.

The code distance compares the four code components separately and scales
each component's normalized edit distance by its own weight, so a category
mismatch can be made to matter more than a severity mismatch.  The
trajectory distance aligns every stay with a three-position window of the
other sequence, keeps the cheapest match, and averages the two directions
so the result is symmetric.

Every product use of the trajectory distance reads one encoding: a
first-seen vocabulary of distinct codes with one row of code ids per
patient, and per weight vector a table of code distances, the only place
``code_distance`` runs apart from the :func:`trajectory_distance` reference.
The cohort matrix, the tuner (one encoding per search, one table per trial)
and the medoid profiles all read it.  The matrix adds window minima in the
order :func:`trajectory_distance` does, so the two agree bit for bit.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import StayCode
from .errors import DataError
from .levenshtein import levenshtein_ratio

MAX_WEIGHT = 100
# cells per temporary of the matrix pass, which bounds its working memory
_BLOCK_CELLS = 1 << 14
_Encoding = tuple[list[StayCode], list[list[int]]]


@dataclass(frozen=True)
class MetricWeights:
    """Per-component weights, ordered category >= care_type >= counter >= severity."""

    category: int
    care_type: int
    counter: int
    severity: int

    def __post_init__(self) -> None:
        w = self.as_tuple()
        if not all(isinstance(x, int) for x in w):
            raise DataError(f"weights must be integers, got {w!r}")
        if not 0 <= self.severity <= self.counter <= self.care_type <= self.category <= MAX_WEIGHT:
            raise DataError(
                "weights must satisfy 0 <= severity <= counter <= care_type "
                f"<= category <= {MAX_WEIGHT}, got {w!r}"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.category, self.care_type, self.counter, self.severity)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())

    @classmethod
    def from_sequence(cls, values: Sequence[int]) -> "MetricWeights":
        if len(values) != 4:
            raise DataError(f"expected 4 weights, got {len(values)}")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DataError(f"weights must be integers, got {v!r}")
        return cls(*(int(v) for v in values))


@dataclass(frozen=True)
class PatientTrajectory:
    """Ordered stay codes for one patient; a death marker may only close it."""

    patient_id: str
    codes: tuple[StayCode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        if not self.codes:
            raise DataError(f"patient {self.patient_id!r} has an empty trajectory")
        deaths = [i for i, c in enumerate(self.codes) if c.is_death]
        if deaths and (len(deaths) > 1 or deaths[0] != len(self.codes) - 1):
            raise DataError(
                f"patient {self.patient_id!r}: death marker must be unique and terminal"
            )

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def ends_in_death(self) -> bool:
        return self.codes[-1].is_death

    def renderings(self) -> tuple[str, ...]:
        return tuple(c.render() for c in self.codes)


def code_distance(a: StayCode, b: StayCode, weights: MetricWeights) -> float:
    """Weighted component-wise distance between two codes.

    Death matches death at distance zero and sits at the full weight total
    from every real code.
    """
    if a.is_death or b.is_death:
        return 0.0 if a.is_death == b.is_death else float(weights.total)
    if a == b:
        return 0.0
    return (
        weights.category * levenshtein_ratio(a.category, b.category)
        + weights.care_type * levenshtein_ratio(a.care_type, b.care_type)
        + weights.counter * levenshtein_ratio(a.counter, b.counter)
        + weights.severity * levenshtein_ratio(a.severity, b.severity)
    )


def _directed_sum(seq_a, seq_b, weights: MetricWeights) -> float:
    last = len(seq_b) - 1
    total = 0.0
    for i, code in enumerate(seq_a):
        # positions i-1, i, i+1 clamped into [0, last]
        lo = min(max(i - 1, 0), last)
        hi = min(i + 1, last)
        total += min(code_distance(code, seq_b[j], weights) for j in range(lo, hi + 1))
    return total


def trajectory_distance(
    a: PatientTrajectory, b: PatientTrajectory, weights: MetricWeights
) -> float:
    """Symmetrized windowed-minimum distance between two trajectories.

    Each stay of one sequence is matched against the cheapest of the
    other sequence's stays at the same position give or take one, and the
    two directed sums are averaged.
    """
    return 0.5 * (
        _directed_sum(a.codes, b.codes, weights)
        + _directed_sum(b.codes, a.codes, weights)
    )


def _directed_sums(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``out[a, b]`` is the directed windowed sum from ``rows[a]`` to ``cols[b]``.

    ``rows`` and ``cols`` hold code ids of equal-length trajectories, one
    per row.  Positions are added one at a time in sequence order, as
    :func:`_directed_sum` does, so every entry is bit-for-bit the same.
    """
    last = cols.shape[1] - 1
    total = np.zeros((rows.shape[0], cols.shape[0]))
    for i in range(rows.shape[1]):
        dist = table[rows[:, i]]
        lo = min(max(i - 1, 0), last)
        hi = min(i + 1, last)
        best = dist[:, cols[:, lo]]
        for j in range(lo + 1, hi + 1):
            np.minimum(best, dist[:, cols[:, j]], out=best)
        total += best
    return total


def _encode(sequences: Sequence[Sequence[StayCode]]) -> _Encoding:
    """First-seen vocabulary of distinct codes and one row of code ids per sequence."""
    vocab: dict[tuple[str, ...], int] = {}
    reps: list[StayCode] = []
    rows = []
    for codes in sequences:
        row = []
        for c in codes:
            # keyed on the components, as two different codes can render alike
            key = (c.category, c.care_type, c.counter, c.severity)
            idx = vocab.setdefault(key, len(reps))
            if idx == len(reps):
                reps.append(c)
            row.append(idx)
        rows.append(row)
    return reps, rows


def _encode_cohort(patients: Sequence[PatientTrajectory]) -> _Encoding:
    """:func:`_encode` of a cohort, which must be non-empty with unique ids."""
    if not patients:
        raise DataError("cohort is empty")
    if len({p.patient_id for p in patients}) != len(patients):
        raise DataError("duplicate patient ids in cohort")
    return _encode([p.codes for p in patients])


def _code_table(reps: Sequence[StayCode], weights: MetricWeights) -> np.ndarray:
    """``table[i, j]`` is the code distance between ``reps[i]`` and ``reps[j]``."""
    u = len(reps)
    table = np.zeros((u, u))
    for i in range(u):
        for j in range(i + 1, u):
            table[i, j] = table[j, i] = code_distance(reps[i], reps[j], weights)
    return table


def _matrix(table: np.ndarray, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Pairwise trajectory distances of the code-id ``rows`` over ``table``.

    Each pair of length buckets is scored with one gather on ``table`` per
    window position, in row chunks that bound every temporary by a fixed
    cell count (or one chunk's rows of the table), whatever the cohort size.
    """
    buckets: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        buckets.setdefault(len(row), []).append(index)
    groups = [
        (np.array(members), np.array([rows[i] for i in members], dtype=np.intp))
        for members in buckets.values()
    ]

    n = len(rows)
    out = np.zeros((n, n))
    for g, (idx_a, codes_a) in enumerate(groups):
        for idx_b, codes_b in groups[g:]:
            # rows of the first bucket go in chunks that bound every
            # temporary; within one bucket a chunk pairs only with itself
            # and the rows after it, so no two chunks are scored twice
            same = idx_b is idx_a
            step = max(1, _BLOCK_CELLS // len(idx_b))
            for start in range(0, len(idx_a), step):
                chunk = slice(start, start + step)
                rest = slice(start if same else 0, None)
                ab = _directed_sums(table, codes_a[chunk], codes_b[rest])
                ba = _directed_sums(table, codes_b[rest], codes_a[chunk])
                block = 0.5 * (ab + ba.T)
                out[np.ix_(idx_a[chunk], idx_b[rest])] = block
                out[np.ix_(idx_b[rest], idx_a[chunk])] = block.T
    return out


def distance_matrix(
    patients: Sequence[PatientTrajectory], weights: MetricWeights
) -> np.ndarray:
    """Symmetric matrix of pairwise trajectory distances with a zero diagonal.

    Entries equal :func:`trajectory_distance` exactly.
    """
    reps, rows = _encode_cohort(patients)
    return _matrix(_code_table(reps, weights), rows)


def _square(matrix: np.ndarray, dtype) -> np.ndarray:
    """``matrix`` as ``dtype``; anything but a square 2-D array raises."""
    matrix = np.asarray(matrix, dtype=dtype)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"distance matrix must be square, got shape {matrix.shape}")
    return matrix


def save_matrix_csv(path, matrix: np.ndarray, patient_ids: Sequence[str]) -> None:
    """Write a patient-id header row, then one CRLF-terminated row per
    patient; each entry is the shortest ``repr`` that reads back as the same
    float64.

    The matrix holds few distinct values, so each block of rows (bounded by
    ``_BLOCK_CELLS``) is formatted once per distinct bit pattern, which keeps
    ``-0.0`` apart from ``0.0``.  Number strings never need CSV quoting.
    """
    matrix = _square(matrix, np.float64)
    n = matrix.shape[0]
    if n != len(patient_ids):
        raise DataError("matrix size does not match patient id count")
    texts: dict[int, str] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(patient_ids)
        step = max(1, _BLOCK_CELLS // max(n, 1))
        for start in range(0, n, step):
            block = matrix[start : start + step]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            cells = np.array(
                [
                    texts.get(b) or texts.setdefault(b, repr(v))
                    for b, v in zip(bits.tolist(), bits.view(np.float64).tolist())
                ],
                dtype=object,
            )[inverse.reshape(block.shape)]
            fh.writelines(",".join(row) + "\r\n" for row in cells.tolist())


def save_matrix_binary(path, matrix: np.ndarray) -> None:
    """Write a little-endian int64 ``n``, then the n*n little-endian float64
    entries in row-major order."""
    matrix = np.ascontiguousarray(_square(matrix, "<f8"))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", matrix.shape[0]))
        fh.write(matrix.data)
