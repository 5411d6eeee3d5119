"""Sequential pattern mining with prefix-projected search.

Items are rendered stay codes, one per hospitalization, so a pattern is an
ordered tuple of codes matched as a not-necessarily-contiguous subsequence.
Support counts the sequences that contain the pattern at least once.

One mining pass also records which sequences contain each pattern; that
incidence gives every pattern's support in every group of sequences at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

Pattern = tuple[str, ...]


@dataclass(frozen=True)
class MiningConfig:
    min_support: int = 1
    min_len: int = 1
    max_len: int = 3
    top_k: int | None = None

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise DataError("min_support must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise DataError("need 1 <= min_len <= max_len")
        if self.top_k is not None and self.top_k < 0:
            raise DataError("top_k must be >= 0")


@dataclass(frozen=True)
class MinedPattern:
    pattern: Pattern
    support: int


def _contains(seq: Sequence[str], pattern: Pattern) -> bool:
    it = iter(seq)
    return all(any(item == want for item in it) for want in pattern)


def support(db: Sequence[Sequence[str]], pattern: Iterable[str]) -> int:
    """Number of database sequences containing ``pattern`` as a subsequence.

    The empty pattern is contained in every sequence.
    """
    pat = tuple(pattern)
    return sum(1 for seq in db if _contains(seq, pat))


def _check_db(db) -> list[list[str]]:
    out = [list(seq) for seq in db]
    if any(not seq for seq in out):
        raise DataError("sequence database contains an empty sequence")
    return out


def frequent_patterns(
    db: Sequence[Sequence[str]], cfg: MiningConfig
) -> list[MinedPattern]:
    """All patterns within the length bounds whose support meets the threshold.

    Results are sorted by support descending, then pattern ascending.
    """
    found = _mine(_check_db(db), cfg.max_len, cfg.min_support)
    # the miner emits patterns in ascending order, so a stable sort on
    # support alone breaks ties by pattern
    out = [MinedPattern(p, len(ids)) for p, ids in found if len(p) >= cfg.min_len]
    out.sort(key=lambda m: -m.support)
    if cfg.top_k is not None:
        out = out[: cfg.top_k]
    return out


def _mine(seqs, max_len: int, min_support: int) -> list[tuple[Pattern, list[int]]]:
    """Depth-first PrefixSpan over ``seqs``.

    Returns ``(pattern, ids)`` for every pattern of at most ``max_len``
    items that at least ``min_support`` sequences contain; ``ids`` are
    those sequences' indices, ascending.  Patterns come out in ascending
    (lexicographic) order: each is emitted before its extensions, and
    siblings are visited in sorted item order.
    """
    out: list[tuple[Pattern, list[int]]] = []
    # (prefix, projection): each sequence holding prefix, and where the
    # rest of the sequence starts after the prefix's first occurrence
    stack = [((), [(i, 0) for i in range(len(seqs))])]
    while stack:
        prefix, projection = stack.pop()
        if prefix:
            out.append((prefix, [seq_idx for seq_idx, _ in projection]))
        if len(prefix) == max_len:
            continue
        # project every item on its first occurrence after each start at once
        narrowed: dict[str, list[tuple[int, int]]] = {}
        for seq_idx, start in projection:
            seq = seqs[seq_idx]
            seen = set()
            for pos in range(start, len(seq)):
                item = seq[pos]
                if item not in seen:
                    seen.add(item)
                    narrowed.setdefault(item, []).append((seq_idx, pos + 1))
        # pushed in reverse, so the smallest item is popped first
        for item in sorted(narrowed, reverse=True):
            projected = narrowed[item]
            if len(projected) >= min_support:
                stack.append((prefix + (item,), projected))
    return out


@dataclass(frozen=True, eq=False)
class _Incidence:
    """Which sequences of a database contain each of its patterns.

    Pattern ``p`` is ``patterns[p]``; ids ascend in pattern order, so an id
    is also the pattern's lexicographic rank.  The sparse incidence is the
    list of ``(pid, sid)`` pairs: sequence ``sid`` contains pattern ``pid``.
    """

    patterns: list[Pattern]
    lengths: np.ndarray
    counts: np.ndarray  # whole-database support of each pattern
    pid: np.ndarray
    sid: np.ndarray

    def supports(self, labels: np.ndarray, n_groups: int) -> np.ndarray:
        """Support of every pattern within each group, as a P × ``n_groups`` array.

        ``labels`` gives each sequence's group in ``range(n_groups)``.
        """
        size = len(self.patterns) * n_groups
        cells = np.bincount(self.pid * n_groups + labels[self.sid], minlength=size)
        return cells.reshape(len(self.patterns), n_groups)

    def top(
        self, supports: np.ndarray, length: int, limit: int, floor: int = 1
    ) -> list[list[tuple[int, int]]]:
        """The ``limit`` most supported patterns of ``length`` in each group.

        Per column of ``supports``, a list of ``(pattern id, support)`` in
        (support descending, pattern ascending) order, keeping only
        patterns with support at least ``floor``.
        """
        ids = np.flatnonzero(self.lengths == length)
        block = supports[ids]
        # ids ascend by pattern, so a stable sort breaks support ties by pattern
        order = np.argsort(-block, axis=0, kind="stable")[:limit]
        top_ids = ids[order].T.tolist()
        top_sup = np.take_along_axis(block, order, axis=0).T.tolist()
        return [
            [(pid, sup) for pid, sup in zip(group_ids, group_sup) if sup >= floor]
            for group_ids, group_sup in zip(top_ids, top_sup)
        ]


def _incidence(seqs: list[list[str]], max_len: int, min_support: int = 1) -> _Incidence:
    """Mine ``seqs`` once, keeping the ids of the sequences holding each pattern."""
    found = _mine(seqs, max_len, min_support)
    counts = np.array([len(ids) for _, ids in found], dtype=np.intp)
    return _Incidence(
        patterns=[p for p, _ in found],
        lengths=np.array([len(p) for p, _ in found], dtype=np.intp),
        counts=counts,
        pid=np.repeat(np.arange(len(found), dtype=np.intp), counts),
        sid=np.array([s for _, ids in found for s in ids], dtype=np.intp),
    )


def render_pattern(pattern: Pattern) -> str:
    return "[" + ", ".join(f"'{item}'" for item in pattern) + "]"

