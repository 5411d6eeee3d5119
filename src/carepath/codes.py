"""Hospitalization stay codes: the one place that decides what a code is.

A stay code has four components over ``A-Z0-9``: a two-character category, a
one-character care type, a two-character counter and a one-character severity.
The severity may be the ``_`` placeholder, which pads five-character codes from
extracts that drop the severity digit.  The death marker has all components
empty and renders as the token ``Death``.  :class:`StayCode` accepts only these
two shapes, so no two codes render alike and :func:`parse_code` reads every
rendering back as its code: keying on a code or on its rendering is the same.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError

DEATH_TOKEN = "Death"
SEVERITY_PLACEHOLDER = "_"

# the components joined by "|": all empty (death), or widths 2/1/2/1
_CANONICAL_RE = re.compile(r"\|\|\||[A-Z0-9]{2}\|[A-Z0-9]\|[A-Z0-9]{2}\|[A-Z0-9_]")


class CodeError(DataError):
    """Raised when a stay code cannot be parsed or constructed."""


class InvalidCodeLength(CodeError):
    pass


class InvalidCodeCharset(CodeError):
    pass


@dataclass(frozen=True)
class StayCode:
    """One hospitalization code, or the death marker (all components empty).

    Raises :class:`InvalidCodeLength` unless the components have widths
    2/1/2/1 or are all empty, and :class:`InvalidCodeCharset` unless they are
    drawn from ``A-Z0-9``, with ``_`` allowed only as the severity.
    """

    category: str
    care_type: str
    counter: str
    severity: str

    def __post_init__(self) -> None:
        parts = (self.category, self.care_type, self.counter, self.severity)
        try:
            joined = "|".join(parts)
        except TypeError:
            raise InvalidCodeCharset(f"code components {parts!r} are not strings") from None
        if _CANONICAL_RE.fullmatch(joined) is None:
            if tuple(map(len, parts)) != (2, 1, 2, 1):
                raise InvalidCodeLength(f"code components {parts!r} are not of widths 2/1/2/1")
            raise InvalidCodeCharset(f"code {''.join(parts)!r} has characters outside A-Z0-9")

    @property
    def is_death(self) -> bool:
        return self.category == ""

    def render(self) -> str:
        if self.is_death:
            return DEATH_TOKEN
        return self.category + self.care_type + self.counter + self.severity

    def __str__(self) -> str:
        return self.render()


DEATH = StayCode(category="", care_type="", counter="", severity="")


def parse_code(text: str) -> StayCode:
    """Parse ``text`` into a :class:`StayCode`.

    Accepts the death token (case-insensitive), a six-character code, or a
    five-character code whose missing severity is padded with ``_``.  Non-ASCII
    input is refused (``ß`` would uppercase to ``SS``); the rest is uppercased.
    """
    if not text.isascii():
        raise InvalidCodeCharset(f"code {text!r} has characters outside A-Z0-9")
    if text.lower() == DEATH_TOKEN.lower():
        return DEATH
    code = text.upper()
    if len(code) == 5:
        code += SEVERITY_PLACEHOLDER
    if len(code) != 6:
        raise InvalidCodeLength(
            f"code {text!r} has length {len(text)}, expected 5 or 6"
        )
    return StayCode(
        category=code[0:2],
        care_type=code[2],
        counter=code[3:5],
        severity=code[5],
    )
