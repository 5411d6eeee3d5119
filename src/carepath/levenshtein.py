"""Levenshtein edit distance and its length-normalized ratio.

Reference code: :func:`carepath.metric.code_distance` reads the ratio, and
the product's code table counts differing characters instead, which is the
same for the equal-length one- and two-character components it compares.
"""


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
