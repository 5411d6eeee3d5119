"""Weighted distances between stay codes and between patient trajectories.

The code distance compares the four code components separately and scales
each component's normalized edit distance by its own weight, so a category
mismatch can be made to matter more than a severity mismatch.  The
trajectory distance aligns every stay with a three-position window of the
other sequence, keeps the cheapest match, and averages the two directions
so the result is symmetric.

Every product use of the cohort reads one encoding: the distinct codes in
rendering order with one row of code ids per patient, so ids rank
renderings, and per weight vector a table of code distances.  Pattern
mining, the cohort matrix, the tuner (one encoding per search, one table per
trial) and the medoid profiles all read it.  The table is built from the
codes' characters in whole-array passes, and the matrix one window position
at a time over column blocks, with no Python loop over pairs of codes or of
trajectories; both give :func:`code_distance` and
:func:`trajectory_distance` bit for bit.  Those two functions, and
:func:`levenshtein` and :func:`levenshtein_ratio` under them, are reference
code that no product path calls.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import StayCode
from .errors import DataError

MAX_WEIGHT = 100
# cells per block, which bounds the working memory of the matrix pass, the
# matrix CSV writer and the PAM swap screen
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
        if not all(type(x) is int for x in w):  # not bools, not numpy integers
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
        return cls(*(int(v) if isinstance(v, np.integer) else v for v in values))


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


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character edits turning ``a`` into ``b``.

    Insertions, deletions and substitutions each count as one edit.  The
    distance is symmetric, zero exactly for equal strings, and never larger
    than the longer string's length.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Normalized distance ``levenshtein(a, b) / max(len(a), len(b))``.

    Lies in [0, 1]; undefined (raises ``ValueError``) when both strings are
    empty.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("ratio undefined for two empty strings")
    return levenshtein(a, b) / longest


def code_distance(a: StayCode, b: StayCode, weights: MetricWeights) -> float:
    """Weighted component-wise distance between two codes.

    Death matches death at distance zero and sits at the full weight total
    from every real code.  This is the reference that :func:`_code_table`
    equals; no product path calls it.
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


def _encode(sequences: Sequence[Sequence[StayCode]]) -> _Encoding:
    """Distinct codes in rendering order, so ids rank renderings, and one id row per sequence."""
    vocab = sorted({c for codes in sequences for c in codes}, key=StayCode.render)
    ids = {c: i for i, c in enumerate(vocab)}
    return vocab, [[ids[c] for c in codes] for codes in sequences]


def _encode_cohort(patients: Sequence[PatientTrajectory]) -> _Encoding:
    """:func:`_encode` of a cohort, which must be non-empty with unique ids."""
    if not patients:
        raise DataError("cohort is empty")
    if len({p.patient_id for p in patients}) != len(patients):
        raise DataError("duplicate patient ids in cohort")
    return _encode([p.codes for p in patients])


def _code_table(reps: Sequence[StayCode], weights: MetricWeights) -> np.ndarray:
    """``table[i, j]`` is the code distance between ``reps[i]`` and ``reps[j]``.

    Built from a V x 6 array of the codes' characters, bit for bit equal to
    :func:`code_distance`.  Every real component has width 1 or 2, and for
    two equal-length strings that short Levenshtein distance is the number
    of differing characters, so each ratio is ``mismatches / width``.  The
    weighted ratios are added into one array in ``code_distance``'s order,
    cell by cell where the ratio is not zero: adding ``+0.0`` to a
    non-negative sum leaves its bits alone.  Death rows and columns then
    take the weight total, and death against death is zero.  Besides the
    table, the pass holds a byte per cell for the mismatch counts and one
    for a mask.
    """
    text = "".join(c.render().ljust(6) for c in reps).encode("ascii")
    chars = np.frombuffer(text, np.uint8).reshape(len(reps), 6)
    table = np.zeros((len(reps), len(reps)))
    # category, care type, counter and severity, in code_distance's order
    for weight, cols in zip(weights.as_tuple(), ((0, 1), (2,), (3, 4), (5,))):
        mismatches = np.zeros(table.shape, np.uint8)
        for k in cols:
            mismatches += chars[:, None, k] != chars[None, :, k]
        for m in range(1, len(cols) + 1):
            np.add(table, weight * (m / len(cols)), out=table, where=mismatches == m)
    death = np.array([c.is_death for c in reps], dtype=bool)
    table[death] = table[:, death] = float(weights.total)
    table[np.ix_(death, death)] = 0.0
    return table


def _matrix(table: np.ndarray, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Pairwise trajectory distances of the code-id ``rows`` over ``table``.

    For each window position ``i`` and block of columns ``b``,
    ``best[x, b]`` is the minimum of ``table[x]`` over the three clamped
    window ids of row ``b`` at ``i``, and every row ``a`` that reaches
    position ``i`` gains ``best[rows[a][i], b]``, so the work follows the
    sum of the lengths, not the longest one.  That is
    :func:`trajectory_distance` bit for bit: the minimum only selects a
    table value, positions are added in sequence order, and the
    symmetrising ``0.5 * (d[a, b] + d[b, a])`` does not depend on the order
    of the two terms.  Besides the output, the only n x n array, the pass
    holds the ids of all rows end to end, five arrays of at most n ids per
    position, and temporaries of at most ``_BLOCK_CELLS`` cells, or of one
    table column or output row where the vocabulary or the cohort is
    larger than that.
    """
    n, vocab = len(rows), len(table)
    lengths = np.array([len(row) for row in rows])
    starts = np.cumsum(lengths) - lengths
    ends = starts + lengths - 1
    flat = np.fromiter((c for row in rows for c in row), np.intp, int(lengths.sum()))
    out = np.zeros((n, n))
    cols = max(1, min(n, _BLOCK_CELLS // vocab))
    chunk = max(1, _BLOCK_CELLS // cols)
    for i in range(int(lengths.max())):
        # the rows that reach position i and their ids there, and every
        # row's ids at positions i - 1, i and i + 1 clamped into the row
        live = np.flatnonzero(lengths > i)
        here = flat[starts[live] + i]
        windows = [flat[np.minimum(starts + p, ends)] for p in (max(i - 1, 0), i, i + 1)]
        for c0 in range(0, n, cols):
            block = slice(c0, c0 + cols)
            best = table[:, windows[0][block]]
            for window in windows[1:]:
                np.minimum(best, table[:, window[block]], out=best)
            for r0 in range(0, len(live), chunk):
                out[live[r0 : r0 + chunk], block] += best[here[r0 : r0 + chunk]]
    step = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, step):
        upper = out[r0 : r0 + step, r0:] + out[r0:, r0 : r0 + step].T
        upper *= 0.5
        out[r0 : r0 + step, r0:] = upper
        out[r0:, r0 : r0 + step] = upper.T
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
