import numpy as np
import pytest

from carepath.errors import DataError
from carepath.patterns import (
    MiningConfig,
    frequent_patterns,
    render_pattern,
    support,
)
from helpers import oracle_pattern_supports

DB = [["a", "b", "c"], ["a", "c"], ["b", "c"]]


def test_worked_example_supports():
    mined = frequent_patterns(DB, MiningConfig(min_support=2, max_len=3))
    got = {p.pattern: p.support for p in mined}
    assert got == {
        ("c",): 3,
        ("a",): 2,
        ("b",): 2,
        ("a", "c"): 2,
        ("b", "c"): 2,
    }


def test_worked_example_order():
    mined = frequent_patterns(DB, MiningConfig(min_support=2, max_len=3))
    assert [p.pattern for p in mined] == [("c",), ("a",), ("a", "c"), ("b",), ("b", "c")]


def test_support_counts_sequences_not_embeddings():
    assert support([["a", "a", "a"]], ("a",)) == 1
    assert support(DB, ("a", "c")) == 2
    assert support(DB, ("c", "a")) == 0
    assert support(DB, ("a", "b", "c")) == 1


def test_min_len_filters_short_patterns():
    mined = frequent_patterns(DB, MiningConfig(min_support=1, min_len=2, max_len=3))
    assert all(len(p.pattern) >= 2 for p in mined)


def test_max_len_caps_pattern_length():
    mined = frequent_patterns(DB, MiningConfig(min_support=1, max_len=1))
    assert all(len(p.pattern) == 1 for p in mined)


def test_matches_brute_force_on_random_databases():
    rng = np.random.default_rng(17)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(40):
        db = [
            [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            for _ in range(rng.integers(1, 7))
        ]
        want_all = oracle_pattern_supports(db, max_len=5)
        for sigma in (1, 2, 3):
            mined = frequent_patterns(db, MiningConfig(min_support=sigma, max_len=5))
            got = {p.pattern: p.support for p in mined}
            want = {p: s for p, s in want_all.items() if s >= sigma}
            assert got == want


def test_support_is_antimonotone():
    rng = np.random.default_rng(23)
    alphabet = ["a", "b", "c"]
    db = [
        [alphabet[i] for i in rng.integers(0, 3, size=5)]
        for _ in range(8)
    ]
    mined = frequent_patterns(db, MiningConfig(min_support=1, max_len=4))
    by_pattern = {p.pattern: p.support for p in mined}
    for pattern, sup in by_pattern.items():
        if len(pattern) > 1:
            assert sup <= by_pattern[pattern[:-1]]


def test_empty_sequences_rejected():
    with pytest.raises(DataError):
        frequent_patterns([["a"], []], MiningConfig())


def test_empty_database_mines_nothing():
    assert frequent_patterns([], MiningConfig()) == []


def test_config_validation():
    with pytest.raises(DataError):
        MiningConfig(min_support=0)
    with pytest.raises(DataError):
        MiningConfig(min_len=0)
    with pytest.raises(DataError):
        MiningConfig(min_len=3, max_len=2)
    with pytest.raises(DataError):
        MiningConfig(top_k=-1)


def test_top_k_truncates_sorted_output():
    mined = frequent_patterns(DB, MiningConfig(min_support=1, max_len=3))
    first_two = frequent_patterns(DB, MiningConfig(min_support=1, max_len=3, top_k=2))
    assert first_two == mined[:2]


def test_render_pattern():
    assert render_pattern(("a", "b")) == "['a', 'b']"
