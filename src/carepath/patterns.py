"""Sequential pattern mining with prefix-projected search.

Items are rendered stay codes, one per hospitalization, so a pattern is an
ordered tuple of codes matched as a not-necessarily-contiguous subsequence.
Support counts the sequences that contain the pattern at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    seqs = _check_db(db)
    found: list[MinedPattern] = []
    _mine(seqs, [(i, 0) for i in range(len(seqs))], (), cfg, found)
    found.sort(key=lambda m: (-m.support, m.pattern))
    if cfg.top_k is not None:
        found = found[: cfg.top_k]
    return found


def _mine(seqs, projection, prefix, cfg, out) -> None:
    if len(prefix) == cfg.max_len:
        return
    # support of each one-item extension in the projected database
    counts: dict[str, int] = {}
    for seq_idx, start in projection:
        seen = set()
        for item in seqs[seq_idx][start:]:
            if item not in seen:
                seen.add(item)
                counts[item] = counts.get(item, 0) + 1
    for item in sorted(counts):
        sup = counts[item]
        if sup < cfg.min_support:
            continue
        pattern = prefix + (item,)
        if len(pattern) >= cfg.min_len:
            out.append(MinedPattern(pattern, sup))
        # project on the first occurrence of item in each remaining sequence
        narrowed = []
        for seq_idx, start in projection:
            try:
                pos = seqs[seq_idx].index(item, start)
            except ValueError:
                continue
            narrowed.append((seq_idx, pos + 1))
        _mine(seqs, narrowed, pattern, cfg, out)


def render_pattern(pattern: Pattern) -> str:
    return "[" + ", ".join(f"'{item}'" for item in pattern) + "]"

