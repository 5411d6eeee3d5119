import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carepath.codes import (
    DEATH,
    DEATH_TOKEN,
    SEVERITY_PLACEHOLDER,
    InvalidCodeCharset,
    InvalidCodeLength,
    StayCode,
    parse_code,
)
from helpers import random_code


def test_parse_splits_slots():
    code = parse_code("05M092")
    assert code.category == "05"
    assert code.care_type == "M"
    assert code.counter == "09"
    assert code.severity == "2"
    assert not code.is_death


def test_parse_pads_missing_severity():
    code = parse_code("05M09")
    assert code.severity == SEVERITY_PLACEHOLDER
    assert code.render() == "05M09_"


def test_parse_uppercases_input():
    assert parse_code("05m092") == parse_code("05M092")


@pytest.mark.parametrize("raw", ["", "5M09", "05M0", "05M0923", "0"])
def test_parse_rejects_bad_lengths(raw):
    with pytest.raises(InvalidCodeLength):
        parse_code(raw)


# non-ASCII letters that uppercase to ASCII ones: "ß" to "SS", dotless "ı" to "I"
@pytest.mark.parametrize(
    "raw", ["05M0#2", "05_092", "0-M092", "05M09!", "05 092", "05Mß2", "05mı92"]
)
def test_parse_rejects_bad_characters(raw):
    with pytest.raises(InvalidCodeCharset):
        parse_code(raw)


def test_death_token_parses_case_insensitively():
    for raw in ("Death", "death", "DEATH", "dEaTh"):
        code = parse_code(raw)
        assert code.is_death
        assert code == DEATH


def test_death_renders_to_token():
    assert DEATH.render() == DEATH_TOKEN
    assert DEATH.category == ""
    assert DEATH != parse_code("05M092")


def test_round_trip_random_codes():
    rng = np.random.default_rng(3)
    for _ in range(200):
        code = random_code(rng)
        assert parse_code(code.render()) == code


def test_round_trip_death():
    assert parse_code(DEATH.render()) == DEATH


def test_codes_are_hashable_and_frozen():
    code = parse_code("05M092")
    assert len({code, parse_code("05M092"), DEATH}) == 2
    with pytest.raises(AttributeError):
        code.category = "06"


def test_severity_placeholder_only_in_last_slot():
    code = StayCode("05", "M", "09", "_")
    assert code.render() == "05M09_"


@pytest.mark.parametrize(
    "parts, error",
    [
        # the first four would render as 05M092 or 05M09_
        (("05M", "0", "9", "2"), InvalidCodeLength),
        (("0", "5M", "09", "2"), InvalidCodeLength),
        (("05", "M", "092", ""), InvalidCodeLength),
        (("05", "M", "0", "9_"), InvalidCodeLength),
        (("", "", "", "2"), InvalidCodeLength),
        (("05", "m", "09", "2"), InvalidCodeCharset),
        (("05", "M", "0_", "2"), InvalidCodeCharset),
        (("_5", "M", "09", "2"), InvalidCodeCharset),
        (("0|", "M", "09", "2"), InvalidCodeCharset),
        ((5, "M", "09", "2"), InvalidCodeCharset),
    ],
)
def test_non_canonical_components_are_refused(parts, error):
    with pytest.raises(error):
        StayCode(*parts)


_ALNUM = string.ascii_uppercase + string.digits
_WELL_FORMED = st.tuples(
    st.text(_ALNUM, min_size=2, max_size=2),
    st.text(_ALNUM, min_size=1, max_size=1),
    st.text(_ALNUM, min_size=2, max_size=2),
    st.text(_ALNUM + SEVERITY_PLACEHOLDER, min_size=1, max_size=1),
)


@st.composite
def _components(draw):
    # a well-formed code, or one with one component changed: one character
    # swapped for an odd one, or the whole component replaced by a short string
    parts = list(draw(_WELL_FORMED))
    i = draw(st.integers(-1, 3))
    if i >= 0 and draw(st.booleans()):
        j = draw(st.integers(0, len(parts[i]) - 1))
        parts[i] = parts[i][:j] + draw(st.sampled_from("_a|ß \n")) + parts[i][j + 1 :]
    elif i >= 0:
        parts[i] = draw(st.text("0A_a|ß \n", max_size=3))
    return tuple(parts)


@settings(max_examples=500, deadline=None, database=None)
@given(_components())
def test_exactly_the_canonical_codes_construct_and_round_trip(parts):
    widths = tuple(len(p) for p in parts)
    chars_ok = all(ch in _ALNUM for p in parts[:3] for ch in p) and all(
        ch in _ALNUM + SEVERITY_PLACEHOLDER for ch in parts[3]
    )
    if widths == (2, 1, 2, 1) and chars_ok:
        code = StayCode(*parts)
        # so two codes render alike only if they are the same code
        assert parse_code(code.render()) == code
    else:
        expected = InvalidCodeCharset if widths == (2, 1, 2, 1) else InvalidCodeLength
        with pytest.raises(expected):
            StayCode(*parts)
